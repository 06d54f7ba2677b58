import hashlib
import json
import os
import random
from functools import partial

import pytest

from isk4color import oracle, suites
from isk4color.colorers import ColoringResult, Violation
from isk4color.formats import parse_graph6_line
from isk4color.graph import Coloring, Graph, bfs_layering
from isk4color.layering import Confluence
from isk4color.oracle import LayerCycleWitness, contains_isk4, enumerate_graphs
from isk4color.patterns import find_triangle
from isk4color.suites import (
    FILTERS,
    SUITES,
    SUITE_ALIASES,
    maximal_flat_paths,
    random_connected_graph,
    resolve_suite,
    run_suite,
)

from builders import complete_graph, petersen
from reference import ref_maximal_flat_paths


def test_suite_registry_complete():
    assert set(SUITE_ALIASES.values()) == set(SUITES)
    assert len(SUITES) == 12
    for alias in ("lemma3", "lemma45", "lemma7", "lemma8", "theorem1", "theorem2",
                  "theorem5", "theorem6", "conjecture1", "conjecture2",
                  "conjecture3", "conjecture4"):
        assert alias in SUITE_ALIASES
    with pytest.raises(ValueError):
        resolve_suite("nope")


def test_layer_forests_small():
    report = run_suite("layer-forests", 6)
    assert report.violations == []
    assert report.counts["total"]["passed_filters"] > 0
    assert report.parameters["connected"] is True


def test_flat_reduction_small():
    report = run_suite("flat-reduction", 6)
    assert report.violations == []


def test_maximal_flat_paths_agree_with_reference(connected_corpus_8):
    graphs = [g for n in range(1, 8) for g in connected_corpus_8[n]]
    rng = random.Random(13)
    for _ in range(300):
        # sparse, so that long chains of degree-2 vertices occur, and again
        # with a cycle component beside it
        g = random_connected_graph(rng, rng.randint(3, 40), rng.uniform(0.0, 0.1))
        k = rng.randint(3, 8)
        ring = [(g.n + i, g.n + (i + 1) % k) for i in range(k)]
        graphs += [g, Graph(g.n + k, list(g.edges()) + ring)]
    for g in graphs:
        assert maximal_flat_paths(g) == ref_maximal_flat_paths(g), list(g.edges())


def test_upstairs_small_with_random():
    report = run_suite("upstairs", 5, random_graphs=25)
    assert report.violations == []
    assert report.counts["random"]["graphs"] == 25


def test_girth5_degree_small():
    report = run_suite("girth5-degree", 7)
    assert report.violations == []


def test_conjecture_suites_report_extremal():
    report = run_suite("max-chi-triangle-free", 6)
    assert report.violations == []
    assert report.max_observed["chi"] == 3
    assert report.extremal, "extremal examples must be reported"
    assert all(e["chi"] == 3 for e in report.extremal)
    assert not any(e.get("exceeds_expected") for e in report.extremal)


def test_min_degree_suites_small():
    r3 = run_suite("min-degree-c3", 6)
    assert r3.violations == [] and r3.extremal == []
    r4 = run_suite("min-degree-triangle-free", 6)
    assert r4.extremal == []


def test_wheel_free_chi_small():
    report = run_suite("wheel-free-chi", 6)
    assert report.violations == []
    assert report.max_observed["chi"] <= 3


def test_colorer_suites_small():
    t5 = run_suite("triangle-free-bound", 6)
    assert t5.violations == []
    assert t5.max_observed["palette"] <= 4
    t6 = run_suite("general-bound", 6)
    assert t6.violations == []
    assert t6.max_observed["palette"] <= 24


def test_colorer_suites_share_one_table_per_run(monkeypatch):
    # the colorer calls of one run share a table of block templates; it is
    # gone when the run returns, also when the run raises
    from isk4color import colorers

    tables = []
    color_general = suites.color_general

    def spy(g, *args):
        tables.append(colorers._SUITE_TEMPLATES.get())
        return color_general(g, *args)

    monkeypatch.setattr(suites, "color_general", spy)
    run_suite("general-bound", 5)
    assert tables and tables[0] is not None
    assert all(t is tables[0] for t in tables)
    assert colorers._SUITE_TEMPLATES.get() is None
    run_suite("general-bound", 5)
    assert tables[-1] is not tables[0]

    def broken(g, *args):
        assert colorers._SUITE_TEMPLATES.get() is not None
        raise RuntimeError("broken colorer")

    monkeypatch.setattr(suites, "color_general", broken)
    with pytest.raises(RuntimeError):
        run_suite("general-bound", 5)
    assert colorers._SUITE_TEMPLATES.get() is None


def test_hole_attachment_small():
    # n = 7 is the smallest order admitting a hole with a dominating
    # attachment set inside the filtered class
    report = run_suite("hole-attachment", 7)
    assert report.violations == []
    assert report.counts["total"]["checks"] > 0


def test_parallel_jobs_match_serial():
    # the min-degree checks carry their degree bound to the workers
    for name in ("layer-forests", "min-degree-c3", "min-degree-triangle-free"):
        serial = run_suite(name, 6, jobs=1)
        parallel = run_suite(name, 6, jobs=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        ), name


def test_jobs_clamped_to_cpu_count(monkeypatch):
    started = []

    class FakePool:
        # records the requested size and runs the checks in-process
        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

        def shutdown(self):
            pass

    monkeypatch.setattr(suites, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    run_suite("layer-forests", 5, jobs=10**6)
    assert started == [3]
    run_suite("layer-forests", 5, jobs=2)
    assert started == [3, 2]


def test_extra_filters_and_unknown_filter():
    report = run_suite("layer-forests", 5, extra_filters=("k222-free",))
    assert report.violations == []
    with pytest.raises(ValueError):
        run_suite("layer-forests", 5, extra_filters=("shiny",))
    assert set(FILTERS) >= {"triangle-free", "isk4-free", "girth5"}


def test_suite_grows_each_order_once(monkeypatch):
    # run_suite takes every order from one pass of the enumeration: as many
    # canonical labelings as enumerate_graphs(8) alone (29,005 when each
    # order was enumerated from scratch, 26,497 when the acceptance key was
    # the degree alone, 19,473 before each parent pruned its masks by the
    # degree floor and by twin swaps)
    calls = []
    min_encoding = oracle._min_encoding
    monkeypatch.setattr(oracle, "_min_encoding", lambda masks: calls.append(1) or min_encoding(masks))
    # enumeration only: every search reports an ISK4, so every graph holds
    # one and none is colored
    monkeypatch.setattr(oracle, "contains_isk4", lambda g, **kwargs: g)
    report = run_suite("general-bound", 8)
    assert report.counts["total"]["enumerated"] == 12113 and len(calls) == 15808
    assert report.counts["total"]["passed_filters"] == 0


def test_isk4_verdicts_sweep_through_the_rebound_oracle(monkeypatch):
    # the enumeration calls oracle.contains_isk4 by its module name, so a
    # wrapper rebound there (as an outside tracer does) sees every search
    calls = []
    contains_isk4 = oracle.contains_isk4

    def counted(g, **kwargs):
        calls.append(g)
        return contains_isk4(g, **kwargs)

    monkeypatch.setattr(oracle, "contains_isk4", counted)
    run_suite("general-bound", 6)
    assert len(calls) == 133


def _kept(n_max, *tests):
    """The connected ISK4-free graphs on 1..n_max vertices that pass every
    test, in the order a suite reports them."""
    return [g for n in range(1, n_max + 1) for g in enumerate_graphs(n, connected=True)
            if all(test(g) for test in tests) and contains_isk4(g) is None]


def _triangle_free(g):
    return find_triangle(g) is None


def _reported(violations):
    """(graph, detail) of each violation; each graph6 parses back to a graph
    of the reported order."""
    out = []
    for v in violations:
        g = parse_graph6_line(v["graph6"])
        assert g.n == v["n"]
        out.append((g, v["detail"]))
    return out


# each check reports a claim its callee breaks: the callee is stubbed by its
# name in ``suites``, so the enumeration and its filters stay real


def test_flat_reduction_reports_violations(monkeypatch):
    monkeypatch.setattr(suites, "contains_isk4", lambda g: g)
    expected = [(g, f"reducing flat path {list(fp)} created an induced K4 subdivision")
                for g in _kept(5) for fp in maximal_flat_paths(g)]
    assert expected and _reported(run_suite("flat-reduction", 5).violations) == expected


def test_wheel_free_chi_reports_violations(monkeypatch):
    monkeypatch.setattr(suites, "chromatic_number_exact", lambda g: 4)
    report = run_suite("wheel-free-chi", 5)
    expected = [(g, "wheel-free graph with chromatic number 4 > 3")
                for g in _kept(5, FILTERS["wheel-free"])]
    assert expected and _reported(report.violations) == expected
    assert report.max_observed["chi"] == 4


def test_layer_forests_reports_violations(monkeypatch):
    monkeypatch.setattr(suites, "verify_layer_forests", lambda g: LayerCycleWitness(0, 1, (1, 2, 3)))
    expected = [(g, "layer 1 from root 0 contains the cycle [1, 2, 3]")
                for g in _kept(5, _triangle_free)]
    assert expected and _reported(run_suite("layer-forests", 5).violations) == expected


def test_hole_attachment_reports_violations(monkeypatch):
    monkeypatch.setattr(suites, "classify_hole_attachment", lambda g, hole, s: None)
    report = run_suite("hole-attachment", 7)
    reported = _reported(report.violations)
    assert len(reported) == report.counts["total"]["checks"] > 0
    kept = _kept(7, _triangle_free, FILTERS["k33-free"])
    for g, detail in reported:
        assert g in kept and detail.startswith("no attachment case matched hole [")


def test_upstairs_reports_violations(monkeypatch):
    # every pair gets a path with wrong ends and every triple a triangle-
    # centered confluence, which a triangle-free graph must not give
    monkeypatch.setattr(suites, "upstairs_path", lambda g, layers, i, x, y: [])
    monkeypatch.setattr(suites, "find_confluence",
                        lambda g, layers, i, x, y, z: Confluence(2, (x, y, z), ((x,), (y,), (z,)), (x, y, z)))
    report = run_suite("upstairs", 4, extra_filters=("triangle-free",), random_graphs=0)
    reported = _reported(report.violations)
    assert len(reported) == report.counts["total"]["checks"] > 0
    for g, detail in reported:
        assert _triangle_free(g)
        assert detail == "triangle-free graph produced a triangle-centered confluence" or (
            detail.startswith("upstairs path [] for (") and detail.endswith(": wrong endpoints"))


@pytest.mark.parametrize("stub, detail, checked", [
    (lambda g, mode: ColoringResult(Coloring((0,) * g.n, 1), 4),
     "coloring not proper", lambda g: g.m > 0),
    (lambda g, mode: ColoringResult(Coloring(tuple(range(g.n)), 5), 4),
     "palette 5 exceeds the bound 4", lambda g: True),
    (lambda g, mode: ColoringResult(Coloring(tuple(range(g.n)), 4), 4, violations=[Violation("k33", "stub")]),
     "unexpected class violations: ['k33']", lambda g: True),
], ids=["improper", "over-bound", "violations"])
def test_triangle_free_bound_reports_violations(monkeypatch, stub, detail, checked):
    monkeypatch.setattr(suites, "color_triangle_free", stub)
    expected = [(g, detail) for g in _kept(4, _triangle_free) if checked(g)]
    assert expected and _reported(run_suite("triangle-free-bound", 4).violations) == expected


def test_girth5_degree_reports_both_violations():
    g = petersen()
    assert _reported(suites._check_girth5_degree(g)["violations"]) == [
        (g, "girth >= 5 graph with minimum degree 3 > 2"),
        (g, "degeneracy check failed: degeneracy 3 exceeds 2"),
    ]


def test_min_degree_returns_a_counterexample():
    record = suites._check_min_degree(complete_graph(5), 3)
    assert record["violations"] == []
    assert record["counterexample"]["detail"] == "minimum degree 4 exceeds 3"
    assert parse_graph6_line(record["counterexample"]["graph6"]) == complete_graph(5)


def test_max_chi_reports_graphs_over_the_expected_bound(monkeypatch):
    monkeypatch.setattr(suites, "chromatic_number_exact", lambda g: 5)
    report = run_suite("max-chi-general", 4)
    over = [e for e in report.extremal if e.get("exceeds_expected")]
    assert [(parse_graph6_line(e["graph6"]), e["n"], e["chi"]) for e in over] == [
        (g, g.n, 5) for g in _kept(4)]
    assert report.max_observed["chi"] == 5


def test_min_degree_counterexamples_reach_the_report(monkeypatch):
    monkeypatch.setattr(SUITES["min-degree-c3"], "check", partial(suites._check_min_degree, bound=1))
    report = run_suite("min-degree-c3", 5)
    kept = _kept(5, FILTERS["k33-free"], FILTERS["k222-free"], FILTERS["prism-free"])
    expected = [(g, f"minimum degree {d} exceeds 1") for g in kept
                if (d := min(map(g.degree, range(g.n)))) > 1]
    assert expected and report.violations == []
    assert _reported(report.extremal) == expected


# layers {0}, {1, 2, 3}, {4, 5}, {6}: a path 1-2-3 in layer 1, 4 and 5 below
# its ends, and 6 below both
_UPSTAIRS = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 4), (3, 5), (4, 6), (5, 6)])


@pytest.mark.parametrize("i, x, y, path, reason", [
    (1, 1, 3, (1, 0, 3), None),
    (1, 1, 3, (), "wrong endpoints"),
    (1, 1, 3, (3, 0, 1), "wrong endpoints"),
    (1, 1, 3, (1, 0, 1, 3), "repeated vertex"),
    (1, 1, 3, (1, 3), "consecutive vertices not adjacent"),
    (1, 1, 3, (1, 0, 2, 3), "path has a chord"),
    (2, 4, 5, (4, 6, 5), "path leaves the allowed layers"),
    (2, 4, 5, (4, 1, 2, 3, 5), "more than two vertices in one layer"),
])
def test_validate_upstairs_path_reasons(i, x, y, path, reason):
    layers = bfs_layering(_UPSTAIRS, 0)
    assert layers == (0b1, 0b1110, 0b110000, 0b1000000)
    assert suites._validate_upstairs_path(_UPSTAIRS, layers, i, x, y, path) == reason


# sha256 of json.dumps(report.to_dict(), sort_keys=True) for every suite:
# counts, violations and extremal examples stay byte-identical
SUITE_REPORT_SHA256 = {
    "flat-reduction": "72e17c700b5c8d893576ead05bab1c439f9afaf2c64a09d049fbc3f941afddc0",
    "general-bound": "83b64291649de3d30ce04e7b8d31edb15aaa474f3dc29667e64280eee9d0417b",
    "girth5-degree": "21068bfcc8b5ea542a349a7003148fb0cd847de524087a000f2d4fc97948b76b",
    "hole-attachment": "4d1d910c226dabd3b3aef1f5ef5237ac540da4ee173c042e62d40836443ad08f",
    "layer-forests": "b3a6a07ebf796c87fba921cf9aa881e654e1acfe9dd7119decf633f61ac33f8b",
    "max-chi-general": "6cf3946ac057b3249610a029b3f466a95136b926cdebb3497fd440ee5cedb7d7",
    "max-chi-triangle-free": "26bb81c29fb21c397eec254443e589cd3d6e2b85e01538a71d21d219d8b2199f",
    "min-degree-c3": "96e8f762e87e786bbac38eeb4a07e0cc5f350da314fa16b9c7ad5f00f528a5cf",
    "min-degree-triangle-free": "45f2a49990687404b8717532e0182db5e3f966eefc799831fe1c3592528be71b",
    "triangle-free-bound": "f9bcb31fa009c88e4ad7a3df6e174ce29960b4de93d5796928431f8e5bfc37b0",
    "upstairs": "9302308d85319f6f687d76a4b5b84fdb76b60a838ccbe2874537d6f275e35d29",
    "wheel-free-chi": "8c645f211e598bce31667ef01e79e120ae2ade011e2a195c0ceaf3240e3b44fb",
}


# the same at n = 8, for the triangle-free suite alone (about 0.1 s): a
# byte-level check of the n = 8 enumeration the verifier runs
SUITE_REPORT_SHA256_N8 = {
    "triangle-free-bound": "7d83554a88446070265e13896fe689a7b961c033dbc16d8662ef2fb9886dde3d",
}


@pytest.mark.parametrize("name", sorted(SUITE_REPORT_SHA256_N8))
def test_suite_report_bytes_pinned_n8(name):
    payload = json.dumps(run_suite(name, 8).to_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == SUITE_REPORT_SHA256_N8[name]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_report_bytes_pinned(name):
    # n = 7 is the smallest order with hole-attachment checks
    n = 7 if name == "hole-attachment" else 6
    kwargs = {"random_graphs": 25} if name == "upstairs" else {}
    payload = json.dumps(run_suite(name, n, **kwargs).to_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == SUITE_REPORT_SHA256[name]
