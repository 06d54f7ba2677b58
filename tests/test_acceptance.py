"""Acceptance criteria, one test per criterion, each printing a PASS line.

The exhaustive corpora cover every connected graph up to 8 vertices (the
bounds and structural claims reduce componentwise, so connected graphs are
the general case).  Run with ``pytest -s tests/test_acceptance.py`` to see
the per-criterion lines.
"""

import json
import random
from itertools import combinations_with_replacement

from isk4color.cli import cli_main
from isk4color.colorers import (
    color_general,
    color_girth5,
    color_rich_square,
    color_triangle_free,
    edge_color_subcubic,
)
from isk4color.formats import write_graph
from isk4color.graph import bfs_layering, bits, girth, is_proper_coloring
from isk4color.oracle import (
    chromatic_number_exact,
    contains_isk4,
    enumerate_graphs,
    verify_layer_forests,
)
from isk4color.patterns import find_rich_square, find_wheel
from isk4color.suites import maximal_flat_paths, reduce_flat_path, run_suite

from builders import petersen, rich_square_graph
from reference import ref_edge_chromatic
from suite_helpers import validate_upstairs


def _report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_corpus_has_expected_size(connected_corpus_8, all_graphs_of_order_8):
    # connected isomorphism classes per order; cross-checked against the
    # brute-force labeled bucketing for n <= 5 in the oracle tests
    assert [len(connected_corpus_8[n]) for n in range(1, 9)] == [
        1, 1, 2, 6, 21, 112, 853, 11117,
    ]
    # with disconnected graphs included there are 12,346 classes at n = 8
    assert len(all_graphs_of_order_8) == 12346


def test_criterion_01_triangle_free_bound(tf_isk4_free_connected_8):
    checked = 0
    for n in range(1, 9):
        for g in tf_isk4_free_connected_8[n]:
            result = color_triangle_free(g, mode="strict")
            assert result.violations == []
            assert result.coloring.palette_size <= 4
            assert is_proper_coloring(g, result.coloring)
            checked += 1
    assert checked >= 261
    _report(1, f"4-color bound holds on all {checked} triangle-free class members with n <= 8")


def test_criterion_02_general_bound(isk4_free_connected_8):
    checked = 0
    max_palette = 0
    for n in range(1, 9):
        for g in isk4_free_connected_8[n]:
            result = color_general(g, mode="strict")
            assert result.violations == []
            assert result.coloring.palette_size <= 24
            assert is_proper_coloring(g, result.coloring)
            max_palette = max(max_palette, result.coloring.palette_size)
            checked += 1
    assert checked >= 2316
    _report(2, f"24-color bound holds on all {checked} class members with n <= 8 "
               f"(largest palette actually used: {max_palette})")


def test_criterion_03_layer_forests(lemma_class_connected_8):
    checked = 0
    for n in range(1, 9):
        for g in lemma_class_connected_8[n]:
            assert verify_layer_forests(g) is None
            checked += 1
    _report(3, f"all BFS layers from every root are forests on {checked} graphs with n <= 8")


def test_criterion_04_girth5_min_degree():
    checked = 0
    for n in range(1, 10):
        for g in enumerate_graphs(n, connected=True, hereditary="girth5"):
            assert girth(g) >= 5
            if contains_isk4(g) is None:
                min_deg = min(g.degree(v) for v in range(g.n))
                assert min_deg <= 2
                coloring = color_girth5(g)
                assert coloring.palette_size <= 3
                assert is_proper_coloring(g, coloring)
                checked += 1
    assert checked >= 130
    _report(4, f"every girth->=5 class member with n <= 9 has min degree <= 2 "
               f"and 3-colors greedily ({checked} graphs)")


def test_criterion_05_wheel_free_chi(isk4_free_connected_8):
    checked = 0
    for n in range(1, 9):
        for g in isk4_free_connected_8[n]:
            if find_wheel(g) is not None:
                continue
            assert chromatic_number_exact(g) <= 3
            checked += 1
    assert checked >= 1629
    _report(5, f"every wheel-free class member with n <= 8 has chromatic number <= 3 "
               f"({checked} graphs)")


def test_criterion_06_flat_path_reduction(isk4_free_connected_8):
    reductions = 0
    for n in range(1, 9):
        for g in isk4_free_connected_8[n]:
            for fp in maximal_flat_paths(g):
                reduced, _ = reduce_flat_path(g, fp)
                assert contains_isk4(reduced) is None
                reductions += 1
    assert reductions >= 2400
    _report(6, f"all {reductions} maximal flat-path reductions preserved class membership")


def test_criterion_07_upstairs_and_confluences():
    report = run_suite("upstairs", 7, random_graphs=1000)
    assert report.violations == []
    total = report.counts["total"]["checks"] + report.counts["random"]["checks"]
    # independent re-validation on a seeded sample of random graphs
    rng = random.Random(2024)
    from isk4color.suites import random_connected_graph
    from isk4color.layering import upstairs_path

    for _ in range(50):
        g = random_connected_graph(rng, rng.randint(4, 30), rng.uniform(0.05, 0.5))
        root = rng.randrange(g.n)
        layers = bfs_layering(g, root)
        for i, layer in enumerate(layers):
            if i == 0 or layer.bit_count() < 2:
                continue
            x, y = list(bits(layer))[:2]
            path = upstairs_path(g, layers, i, x, y)
            assert validate_upstairs(g, layers, i, x, y, path) is None
    _report(7, f"upstairs paths and confluences verified ({total} checks, "
               f"1000 random graphs + exhaustive n <= 7)")


def test_criterion_08_hole_attachment(lemma_class_connected_8):
    from isk4color.suites import _check_hole_attachment

    checks = 0
    for n in range(1, 9):
        for g in lemma_class_connected_8[n]:
            record = _check_hole_attachment(g)
            assert record["violations"] == []
            checks += record["checks"]
    assert checks > 0
    _report(8, f"every dominating hole attachment matched a structural case "
               f"({checks} (hole, set) pairs over n <= 8)")


def test_criterion_09_edge_coloring_and_rich_squares(connected_corpus_8):
    colored = 0
    for n in range(2, 9):
        for g in connected_corpus_8[n]:
            if g.m == 0 or max(g.degree(v) for v in range(g.n)) > 3:
                continue
            ec = edge_color_subcubic(g)
            assert ec.palette_size <= 4 and not ec.out_of_contract
            if n <= 7:
                assert ec.palette_size == ref_edge_chromatic(g)
            colored += 1
    # pinned case: the Petersen graph needs all four colors
    assert ref_edge_chromatic(petersen()) == 4
    assert edge_color_subcubic(petersen()).palette_size == 4

    squares = 0
    rng = random.Random(99)
    for k in range(2, 5):
        for lengths in combinations_with_replacement(range(7), k):
            flip_patterns = [
                tuple(False for _ in lengths),
                tuple(True for _ in lengths),
                tuple(i % 2 == 1 for i in range(k)),
                tuple(rng.random() < 0.5 for _ in lengths),
            ]
            for flips in set(flip_patterns):
                g = rich_square_graph(list(zip(lengths, flips)))
                w = find_rich_square(g)
                assert w is not None
                c = color_rich_square(g, w)
                assert c.palette_size <= 4 and is_proper_coloring(g, c)
                squares += 1
    _report(9, f"subcubic edge coloring <= 4 on {colored} graphs (exact match n <= 7, "
               f"Petersen pinned at 4); rich-square scheme <= 4 on {squares} generated graphs")


def test_criterion_10_conjecture_reports():
    general = run_suite("max-chi-general", 8)
    assert general.max_observed["chi"] <= 4
    assert general.extremal, "extremal examples must be emitted"
    assert not any(e.get("exceeds_expected") for e in general.extremal)

    tf = run_suite("max-chi-triangle-free", 8)
    assert tf.max_observed["chi"] <= 3
    assert tf.extremal
    assert not any(e.get("exceeds_expected") for e in tf.extremal)
    _report(10, f"max observed chromatic number: {general.max_observed['chi']} over the "
                f"class, {tf.max_observed['chi']} triangle-free (no conjecture "
                f"counterexamples at n <= 8)")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    f = tmp_path / "p.g6"
    f.write_text(write_graph(petersen(), "graph6"))
    commands = [
        ["color", str(f), "--algorithm", "general", "--json"],
        ["detect", "--pattern", "hole", str(f), "--json"],
        ["oracle", "chi", str(f), "--json"],
        ["enumerate", "--n", "5", "--check", "max-chi-general", "--json", "--seed", "5"],
        ["enumerate", "--n", "5", "--check", "upstairs", "--json", "--seed", "5",
         "--random-graphs", "20"],
    ]
    for argv in commands:
        outs = []
        for _ in range(2):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            outs.append((code, captured.out))
        assert outs[0] == outs[1], argv
        json.loads(outs[0][1])  # must be valid JSON
    _report(11, f"byte-identical JSON across repeated runs of {len(commands)} commands")
