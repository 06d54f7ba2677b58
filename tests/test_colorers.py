import ast
import contextlib
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest

import isk4color
from isk4color.graph import Coloring, Graph, is_proper_coloring
from isk4color.families import path_graph
from isk4color.colorers import (
    BOUND_GENERAL,
    ClassViolationError,
    NotAForestError,
    color_auto,
    color_c1,
    color_c2,
    color_c3,
    color_forest,
    color_general,
    color_girth5,
    color_line_graph,
    color_rich_square,
    color_thick_multipartite,
    color_triangle_free,
    _exact_edge_coloring,
    edge_color_subcubic,
    greedy_fallback,
)
from isk4color.oracle import chromatic_number_exact, contains_isk4
from isk4color.patterns import (
    find_rich_square,
    recognize_line_graph_subcubic,
    recognize_thick_multipartite,
)
from builders import (
    caterpillar,
    chain_of_cycles,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    empty_graph,
    flower_snark,
    line_graph,
    petersen,
    prism_graph,
    random_recursive_tree,
    rich_square_graph,
    ring_of_beads,
    star_graph,
    subdivided_complete,
    theta_graph,
)
from reference import ref_edge_chromatic, ref_exact_edge_coloring


def test_color_forest_examples():
    assert color_forest(path_graph(4)).palette_size == 2
    assert color_forest(empty_graph(5)).palette_size == 1
    assert color_forest(Graph(0)).palette_size == 0
    with pytest.raises(NotAForestError) as exc:
        color_forest(cycle_graph(4))
    assert set(exc.value.cycle) == {0, 1, 2, 3}


def test_color_girth5_examples():
    c = color_girth5(cycle_graph(7))
    assert c.palette_size == 3 and is_proper_coloring(cycle_graph(7), c)
    assert color_girth5(path_graph(5)).palette_size <= 2
    with pytest.raises(ClassViolationError) as exc:
        color_girth5(complete_graph(4))
    assert exc.value.violation.kind == "degeneracy"
    assert exc.value.violation.vertices == (0, 1, 2, 3)


def test_color_thick_multipartite_examples():
    for parts, expect in (((3, 3), 2), ((3, 3, 3), 3), ((1, 5), 2)):
        g = complete_multipartite(*parts)
        shape = recognize_thick_multipartite(g)
        c = color_thick_multipartite(shape)
        assert c.palette_size == expect and is_proper_coloring(g, c)


def test_edge_color_examples():
    assert edge_color_subcubic(cycle_graph(6)).palette_size == 2
    assert edge_color_subcubic(cycle_graph(5)).palette_size == 3
    pet = edge_color_subcubic(petersen())
    assert pet.palette_size == 4 and not pet.out_of_contract
    assert ref_edge_chromatic(petersen()) == 4  # no proper 3-edge-coloring exists
    k5 = edge_color_subcubic(complete_graph(5))
    assert k5.out_of_contract and k5.palette_size <= 5


def test_edge_color_exact_small(connected_corpus_8):
    for n in range(2, 8):
        for g in connected_corpus_8[n]:
            if g.m == 0 or max(g.degree(v) for v in range(g.n)) > 3:
                continue
            ec = edge_color_subcubic(g)
            assert ec.palette_size == ref_edge_chromatic(g)
    assert edge_color_subcubic(complete_graph(4)).palette_size == 3 == ref_edge_chromatic(complete_graph(4))


def test_edge_color_bound_subcubic_8(connected_corpus_8):
    for g in connected_corpus_8[8]:
        if g.m == 0 or max(g.degree(v) for v in range(g.n)) > 3:
            continue
        ec = edge_color_subcubic(g)
        assert ec.palette_size <= 4 and not ec.out_of_contract


def _shuffled_generalized_petersen(rng: random.Random, n: int, k: int) -> Graph:
    perm = list(range(2 * n))
    rng.shuffle(perm)
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return Graph(2 * n, [(perm[u], perm[v]) for u, v in edges])


# sha256 over (palette_size, sorted assignment) of ``edge_color_subcubic`` on
# every connected subcubic graph with n <= 8, the Petersen graph, and twelve
# relabelled generalized Petersen graphs.  The exact search replaces the fan
# pass's result on small class-1 graphs, so the cubic graphs of 42 to 80
# vertices, above its edge cap, are what pin the fan rotation itself.
_EDGE_COLORINGS_DIGEST = "6e7d6b9d327142e84d3e28a323b98d91e6caba04bf6fa4f842f0c96227726fe1"


def test_edge_colorings_pinned(connected_corpus_8):
    graphs = [g for n in range(1, 9) for g in connected_corpus_8[n]
              if all(g.degree(v) <= 3 for v in range(g.n))]
    graphs.append(petersen())
    rng = random.Random(7)
    graphs += [_shuffled_generalized_petersen(rng, n, k)
               for n, k in ((21, 2), (24, 5), (31, 1), (40, 3), *[(25, 2)] * 8)]
    h = hashlib.sha256()
    for g in graphs:
        ec = edge_color_subcubic(g)
        h.update(json.dumps([ec.palette_size, sorted(ec.assignment.items())]).encode() + b"\n")
    assert len(graphs) == 320
    assert h.hexdigest() == _EDGE_COLORINGS_DIGEST


def _random_subcubic(rng: random.Random, n: int, max_edges: int) -> Graph:
    """A connected graph of max degree 3 on n vertices, relabelled: a tree,
    then random pairs of low-degree vertices joined while the edge budget
    lasts."""
    deg = [0] * n
    edges = set()
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if deg[w] < 3])
        edges.add((u, v))
        deg[u] += 1
        deg[v] = 1
    for _ in range(3 * n):
        low = [v for v in range(n) if deg[v] < 3]
        if len(edges) >= max_edges or len(low) < 2:
            break
        u, v = sorted(rng.sample(low, 2))
        if (u, v) not in edges:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in sorted(edges)])


def test_exact_edge_coloring_agrees_with_reference():
    # the same assignment as a recursive search that tries every color at
    # every edge, on graphs well above the n <= 8 corpus.  The edge budget
    # stays at most 3 * (n // 2): past it no 3-edge-coloring exists, and
    # both searches take up to minutes to refute one on 40 vertices
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(10, 40)
        h = _random_subcubic(rng, n, rng.randint(n, min(60, 3 * (n // 2))))
        delta = max(h.degree(v) for v in range(h.n))
        assert _exact_edge_coloring(h, delta) == ref_exact_edge_coloring(h, delta), list(h.edges())
    # J3 and J5 have no 3-edge-coloring; J4 has one
    for k, colorable in ((3, False), (4, True), (5, False)):
        snark = flower_snark(k)
        found = _exact_edge_coloring(snark, 3)
        assert found == ref_exact_edge_coloring(snark, 3) and (found is not None) == colorable


def test_overfull_roots_skip_the_exact_search(monkeypatch):
    # more than delta * (n // 2) edges cannot split into delta matchings, so
    # no exact search runs: K4 with one edge subdivided (5 vertices, 7
    # edges), and the 39-vertex, 58-edge root that took the search 65 CPU-s
    # to refute (the tenth draw below)
    rng = random.Random(11)
    for _ in range(10):
        root = _random_subcubic(rng, rng.randint(10, 40), 60)
    assert (root.n, root.m) == (39, 58)
    k4_sub = subdivided_complete(4, {(0, 1): 1})
    assert (k4_sub.n, k4_sub.m) == (5, 7)

    def refuse(h, k):
        raise AssertionError("exact search on an overfull root")

    monkeypatch.setattr(isk4color.colorers, "_exact_edge_coloring", refuse)
    for h in (k4_sub, root):
        ec = edge_color_subcubic(h)  # checks its own coloring is proper
        assert ec.palette_size == 4 and not ec.out_of_contract


def test_color_line_graph_examples():
    k222 = complete_multipartite(2, 2, 2)
    kp = recognize_line_graph_subcubic(k222)
    c = color_line_graph(k222, kp)
    assert c.palette_size == 3 and is_proper_coloring(k222, c)

    c5 = cycle_graph(5)
    c = color_line_graph(c5, recognize_line_graph_subcubic(c5))
    assert c.palette_size == 3 and is_proper_coloring(c5, c)

    lp = line_graph(petersen())
    c = color_line_graph(lp, recognize_line_graph_subcubic(lp))
    assert c.palette_size == 4 and is_proper_coloring(lp, c)


def test_color_rich_square_examples():
    k222 = complete_multipartite(2, 2, 2)
    c = color_rich_square(k222, find_rich_square(k222))
    assert len(set(c.assignment)) == 3 and is_proper_coloring(k222, c)

    g = rich_square_graph([(3, False), (0, True)])
    c = color_rich_square(g, find_rich_square(g))
    assert c.palette_size == 4 and is_proper_coloring(g, c)

    # a witness whose declared square is wrong must be rejected
    from isk4color.patterns import PatternWitness

    bad = PatternWitness("rich_square", frozenset(range(k222.n)), {"square": (0, 1, 2, 3)})
    with pytest.raises(ValueError):
        color_rich_square(k222, bad)


def test_color_rich_square_generated_family():
    rng = random.Random(17)
    for _ in range(60):
        k = rng.randint(2, 4)
        links = [(rng.randint(0, 6), rng.random() < 0.5) for _ in range(k)]
        g = rich_square_graph(links)
        c = color_rich_square(g, find_rich_square(g))
        assert c.palette_size <= 4 and is_proper_coloring(g, c)


def test_color_c1_examples():
    assert color_c1(path_graph(7)).coloring.palette_size == 2
    r = color_c1(cycle_graph(5))
    assert r.coloring.palette_size == 3 and not r.violations
    assert chromatic_number_exact(cycle_graph(5)) == 3
    assert color_c1(cycle_graph(6)).coloring.palette_size == 2
    assert color_c1(Graph(1)).coloring.palette_size == 1


def test_color_c1_layer_of_girth_5_that_is_not_2_degenerate():
    # the Petersen graph under an apex numbered 0 is layer 1: girth 5 but
    # 3-degenerate, so the layer breaks the girth-5 colorer's contract
    pet = petersen()
    g = Graph(11, [(0, v) for v in range(1, 11)] + [(a + 1, b + 1) for a, b in pet.edges()])
    r = color_c1(g, "tolerant")
    assert [v.to_dict() for v in r.violations] == [{
        "kind": "layer_degeneracy", "message": "layer is not 2-degenerate",
        "vertices": list(range(1, 11)),
    }]
    assert is_proper_coloring(g, r.coloring)
    with pytest.raises(ClassViolationError) as exc:
        color_c1(g)
    assert exc.value.violation.kind == "layer_degeneracy"
    assert exc.value.violation.vertices == tuple(range(1, 11))


@pytest.mark.parametrize("colorer", [color_general, color_triangle_free, color_c1, color_c2, color_c3])
def test_empty_graph_needs_no_color(colorer):
    r = colorer(Graph(0))
    assert r.coloring == Coloring((), 0) and r.trace == [] and r.violations == []


def test_color_c2_examples():
    assert color_c2(path_graph(4)).coloring.palette_size == 2
    r = color_c2(cycle_graph(7))
    assert r.coloring.palette_size <= 12 and not r.violations
    assert chromatic_number_exact(cycle_graph(7)) == 3
    r = color_c2(complete_multipartite(2, 3))
    assert r.coloring.palette_size <= 12 and not r.violations
    assert chromatic_number_exact(complete_multipartite(2, 3)) == 2


def test_color_c3_examples():
    assert color_c3(path_graph(5)).coloring.palette_size == 2
    assert color_c3(cycle_graph(5)).coloring.palette_size <= 24


def test_c_chain_nested_palette_arithmetic():
    g = cycle_graph(9)
    r2 = color_c2(g)
    for entry in r2.trace:
        if entry["rule"] == "layering_boat_free":
            assert entry["palette"] <= 2 * max(entry["layer_palettes"])


def test_color_triangle_free_examples():
    r = color_triangle_free(cycle_graph(5))
    assert r.coloring.palette_size == 3 and not r.violations
    r = color_triangle_free(complete_multipartite(3, 3))
    assert r.coloring.palette_size == 2
    assert any(t["rule"] == "thick_bipartite" for t in r.trace)


def test_color_triangle_free_rejects_triangles():
    with pytest.raises(ClassViolationError) as exc:
        color_triangle_free(complete_graph(3))
    assert exc.value.violation.kind == "triangle"
    with pytest.raises(ClassViolationError):
        color_triangle_free(complete_graph(3), mode="tolerant")


def test_color_triangle_free_petersen():
    # contains an induced K4 subdivision, so the class assumption fails
    assert contains_isk4(petersen()) is not None
    with pytest.raises(ClassViolationError) as exc:
        color_triangle_free(petersen())
    assert exc.value.violation.kind == "cycle_in_layer"
    r = color_triangle_free(petersen(), mode="tolerant")
    assert r.violations and is_proper_coloring(petersen(), r.coloring)


def test_color_general_examples():
    k222 = complete_multipartite(2, 2, 2)
    r = color_general(k222)
    assert r.coloring.palette_size == 3
    assert any(t["rule"] == "line_graph_subcubic" for t in r.trace)

    lp = line_graph(petersen())
    r = color_general(lp)
    assert r.coloring.palette_size == 4 and not r.violations
    assert is_proper_coloring(lp, r.coloring)

    k24 = complete_multipartite(2, 4)
    r = color_general(k24)
    assert any(t["rule"] == "proper_2cutset" for t in r.trace)
    assert is_proper_coloring(k24, r.coloring)
    # the marker edge forces 3 colors here even though chi(K24) = 2
    assert r.coloring.palette_size == 3
    assert chromatic_number_exact(k24) == 2


def test_color_general_out_of_class():
    with pytest.raises(ClassViolationError) as exc:
        color_general(complete_graph(5))
    assert exc.value.violation.kind == "k4"
    r = color_general(complete_graph(5), mode="tolerant")
    assert r.violations and r.coloring.palette_size == 5


def test_color_general_k4_closed_by_marker_edge():
    # no K4 and no clique cutset, but the marker edge 01 of the proper
    # 2-cutset {0,1} closes the K4 {0,1,2,3} in the block on {0,1,2,3}
    g = Graph(6, [(0, 2), (0, 3), (2, 3), (1, 2), (1, 3), (0, 4), (1, 4), (0, 5), (1, 5)])
    with pytest.raises(ClassViolationError) as exc:
        color_general(g)
    assert exc.value.violation.kind == "k4"
    r = color_general(g, mode="tolerant")
    assert [(v.kind, v.vertices) for v in r.violations] == [("k4", (0, 1, 2, 3))]
    assert [t["rule"] for t in r.trace[:2]] == ["proper_2cutset", "greedy_fallback"]
    assert is_proper_coloring(g, r.coloring)


def test_color_general_disconnected():
    g = disjoint_union(complete_multipartite(2, 2, 2), cycle_graph(5))
    r = color_general(g)
    assert is_proper_coloring(g, r.coloring) and not r.violations
    assert r.coloring.palette_size <= 24


def test_greedy_fallback_examples():
    assert greedy_fallback(complete_graph(4)).palette_size == 4
    assert greedy_fallback(cycle_graph(5)).palette_size == 3
    assert greedy_fallback(empty_graph(4)).palette_size == 1


def test_color_auto():
    algo, r = color_auto(cycle_graph(5))
    assert algo == "triangle-free" and r.coloring.palette_size == 3
    algo, r = color_auto(complete_multipartite(2, 2, 2))
    assert algo == "general" and r.coloring.palette_size == 3


def test_color_auto_searches_for_a_triangle_once(monkeypatch):
    # the triangle-free branch colors without repeating the search, and
    # each branch returns what its colorer returns
    searches = []
    find_triangle = isk4color.colorers.find_triangle

    def counting(g):
        searches.append(g)
        return find_triangle(g)

    monkeypatch.setattr(isk4color.colorers, "find_triangle", counting)
    algo, r = color_auto(path_graph(10))
    assert algo == "triangle-free" and len(searches) == 1
    assert r.to_dict() == color_triangle_free(path_graph(10)).to_dict()
    g = complete_multipartite(2, 2, 2)
    algo, r = color_auto(g, "tolerant")
    assert algo == "general" and r.to_dict() == color_general(g, "tolerant").to_dict()


def test_nested_class_chain_exhaustive(isk4_free_connected_8):
    """Each layered colorer meets its bound, violation-free, on every member
    of its own class with n <= 8 (not just via the general colorer)."""
    from isk4color.patterns import find_boat, find_four_wheel, find_k222, find_k33, find_prism

    base = {
        n: [g for g in gs if find_k33(g) is None and find_prism(g) is None]
        for n, gs in isk4_free_connected_8.items()
    }
    cases = [
        (color_c1, 6, find_boat),
        (color_c2, 12, find_four_wheel),
        (color_c3, 24, find_k222),
    ]
    for colorer, bound, excluded in cases:
        checked = 0
        for n in range(1, 9):
            for g in base[n]:
                if excluded(g) is not None:
                    continue
                r = colorer(g, "strict")
                assert r.violations == []
                assert r.coloring.palette_size <= bound
                assert is_proper_coloring(g, r.coloring)
                checked += 1
        assert checked > 1300


def test_tolerant_mode_always_proper(all_graphs_7):
    from isk4color.patterns import find_triangle

    for n in range(1, 8):
        for g in all_graphs_7[n]:
            r = color_general(g, mode="tolerant")
            assert is_proper_coloring(g, r.coloring)
            if find_triangle(g) is None:
                r = color_triangle_free(g, mode="tolerant")
                assert is_proper_coloring(g, r.coloring)


def test_determinism_of_results():
    lp = line_graph(petersen())
    a = color_general(lp)
    b = color_general(lp)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_invalid_mode():
    # the mode is checked before the input: a triangle does not turn an
    # invalid mode into a class violation
    colorer_fns = (color_general, color_triangle_free, color_c1, color_c2, color_c3,
                   color_auto)
    for colorer in colorer_fns:
        for g in (cycle_graph(4), complete_graph(3)):
            with pytest.raises(ValueError, match="mode must be"):
                colorer(g, mode="lenient")


def test_certificate_check_survives_optimize_flag():
    # the proper-coloring certificate must not be an assert that -O strips
    code = textwrap.dedent("""
        from isk4color import colorers
        from isk4color.graph import Coloring, Graph

        colorers._GENERAL = ((None, lambda g, ids, run, witness, rules: Coloring((0,) * g.n, 1)),)
        try:
            colorers.color_general(Graph(2, [(0, 1)]))
        except AssertionError as exc:
            print(exc)
    """)
    src = os.path.dirname(os.path.dirname(isk4color.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "improper coloring" in proc.stdout


def test_no_assert_statements_in_package():
    # python -O strips assert statements; invariant checks must raise explicitly
    package = pathlib.Path(isk4color.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# sha256 of json.dumps(result.to_dict(), sort_keys=True): colorings, traces
# and violations must stay byte-identical across refactors of the colorers
_PINNED_RESULTS = [
    ("P40-general", color_general, lambda: path_graph(40),
     "6426f5fa6e99d8eeaff36a4fd64a071fa5da7f0b43527aaa7c03a3e363e5ff4a"),
    ("P40-triangle-free", color_triangle_free, lambda: path_graph(40),
     "8f3690c28ad9b64152d929fa467635a9f8f6c890c044372d036bde80eda364b3"),
    ("C12-general", color_general, lambda: cycle_graph(12),
     "7dac674b854e112d05d1da79fe802e156cbc8a410667ad5ba4762eb045671d65"),
    ("theta345-general", color_general, lambda: theta_graph(3, 4, 5),
     "8a48b20045850aff9b9dd20d131b7fd71d38f4e92a012128d04797d6104e99fd"),
    ("theta345-triangle-free", color_triangle_free, lambda: theta_graph(3, 4, 5),
     "705a50ba2b010b4d0cc49f064c8abd610f3dafc0fef52de0fbb9af26faacbb67"),
    ("L(petersen)-general", color_general, lambda: line_graph(petersen()),
     "018e0d93fcd1494b6d34164a8d5fc371455e2f3ec352ddd1bb1a0ee54f11bb15"),
    ("K333-general", color_general, lambda: complete_multipartite(3, 3, 3),
     "6e3715224c00390c6c5b4aed40c69175d009664e19c398c3ce00dbb629afd5a8"),
    ("rich-square-general", color_general,
     lambda: rich_square_graph([(3, False), (0, True), (2, True)]),
     "96a11e4421ca12424fea8a1e986bdb5305bfe724f9fbf89084e41719a70d6378"),
]


@pytest.mark.parametrize("colorer,make,digest", [c[1:] for c in _PINNED_RESULTS],
                         ids=[c[0] for c in _PINNED_RESULTS])
def test_result_bytes_pinned(colorer, make, digest):
    payload = json.dumps(colorer(make()).to_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


# sha256 over every tolerant-mode result of the five colorers on the connected
# graphs with up to 7 vertices.  This corpus reaches every rule and every
# violation kind except layer_degeneracy, so it pins the fallback paths that
# the strict inputs above do not reach.
_TOLERANT_DIGEST = "cc77251d148b0f38565933425ad3c7d6462edaa249926f4ebb68b77fa809a3fb"


@pytest.fixture(scope="module")
def tolerant_payloads(connected_corpus_8):
    payloads = []
    for n in range(1, 8):
        for g in connected_corpus_8[n]:
            for colorer in (color_general, color_triangle_free, color_c3, color_c2, color_c1):
                try:
                    payloads.append(colorer(g, mode="tolerant").to_dict())
                except ClassViolationError as exc:  # a triangle, at the root
                    payloads.append(exc.violation.to_dict())
    return payloads


def test_tolerant_results_pinned(tolerant_payloads):
    h = hashlib.sha256()
    for payload in tolerant_payloads:
        h.update(json.dumps(payload, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == _TOLERANT_DIGEST


def test_trace_entries_follow_their_parents(tolerant_payloads):
    # a block's entry comes after the entry of the rule that produced it;
    # the blocks of a cutset are its two sides, each with the cut, and a
    # split at the cut vertices has ``blocks`` blocks, which share a vertex
    # with the blocks before them
    checked = split = 0
    for payload in tolerant_payloads:
        trace = payload.get("trace", [])
        children = {}
        for i, entry in enumerate(trace):
            parent = entry["parent"]
            assert parent is None or 0 <= parent < i
            children.setdefault(parent, []).append(entry["size"])
        for i, entry in enumerate(trace):
            cut = {"clique_cutset": len(entry.get("clique", ())), "proper_2cutset": 2}.get(entry["rule"])
            if cut is not None:
                assert sorted(children[i]) == sorted(side + cut for side in entry["sides"])
                checked += 1
            elif entry["rule"] == "cut_vertices":
                assert len(children[i]) == entry["blocks"] >= 2 and entry["cuts"]
                assert sum(children[i]) == entry["size"] + entry["blocks"] - 1
                split += 1
            else:
                assert sum(children.get(i, ())) <= entry["size"]
        if trace:
            assert sum(children[None]) == len(payload["assignment"])
    assert checked > 500 and split > 300


# sha256 over (palette_size, assignment, violations) of the pinned cases and
# the tolerant corpus, without the trace: a change of the trace format alone
# must leave it as it is
_COLORINGS_DIGEST = "79efdbbf0c5de1202ea15b46031dd1f2a7943037f564ba220be61b43565992d6"


def _coloring_only(payload: dict) -> list:
    if "assignment" not in payload:  # a violation raised at the root
        return [payload]
    return [payload["palette_size"], payload["assignment"], payload["violations"]]


def test_colorings_pinned_without_trace(tolerant_payloads):
    h = hashlib.sha256()
    for _, colorer, make, _ in _PINNED_RESULTS:
        h.update(json.dumps(_coloring_only(colorer(make()).to_dict()), sort_keys=True).encode() + b"\n")
    for payload in tolerant_payloads:
        h.update(json.dumps(_coloring_only(payload), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == _COLORINGS_DIGEST


def test_detectors_looked_up_at_call_time(monkeypatch):
    # a tracer rebinds module attributes; a rule table that captured the
    # detector functions at import would bypass the rebinding
    from isk4color import colorers

    calls = {}

    def counting(name, fn):
        def wrapper(g):
            calls[name] = calls.get(name, 0) + 1
            return fn(g)
        return wrapper

    names = ("find_k4", "find_clique_cutset", "find_k33", "find_proper_2cutset",
             "find_k222", "find_prism")
    for name in names:
        monkeypatch.setattr(colorers, name, counting(name, getattr(colorers, name)))
    color_general(complete_graph(4), mode="tolerant")
    color_general(theta_graph(3, 4, 5))
    color_general(complete_multipartite(3, 3, 3))
    color_general(line_graph(petersen()))
    assert sorted(calls) == sorted(names)


def test_long_path_within_default_recursion_limit():
    # the clique cutsets of a path are split on an explicit stack, so they
    # cost no frames
    g = path_graph(400)
    for colorer in (color_general, color_triangle_free):
        assert is_proper_coloring(g, colorer(g).coloring)


def test_path_of_1000_within_default_recursion_limit():
    # P_1000 peels 998 clique cutsets; two frames each would exceed the limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        g = path_graph(1000)
        for colorer in (color_general, color_triangle_free):
            result = colorer(g)
            assert is_proper_coloring(g, result.coloring) and not result.violations
    finally:
        sys.setrecursionlimit(limit)


def test_long_chain_of_proper_2cutsets_within_recursion_limit():
    # each bead is split off by a proper 2-cutset, on the driver's stack
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(400)
    try:
        g = ring_of_beads(200)
        result = color_general(g)
    finally:
        sys.setrecursionlimit(limit)
    assert g.n == 600 and is_proper_coloring(g, result.coloring)
    assert result.coloring.palette_size == 3 and not result.violations
    assert sum(e["rule"] == "proper_2cutset" for e in result.trace) == 199


def test_trace_grows_linearly_on_paths():
    # an entry holds its block's size, not its vertex list
    size = {n: len(json.dumps(color_triangle_free(path_graph(n)).to_dict())) for n in (400, 800)}
    assert size[800] < 2.2 * size[400]


def _reversed(g: Graph) -> Graph:
    # g with its ids reversed: a caterpillar's leaves come first, so its
    # first clique cutset is an edge from a leaf to a spine vertex
    return Graph(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()])


@pytest.mark.parametrize("make", [lambda: path_graph(4800), lambda: caterpillar(5000),
                                  lambda: _reversed(caterpillar(5000)),
                                  lambda: random_recursive_tree(random.Random(27), 5000)],
                         ids=["P4800", "caterpillar-10000", "caterpillar-10000-leaves-first",
                              "random-recursive-tree-5000"])
def test_trees_split_at_every_cut_vertex_at_once(make):
    # the root's one clique cutset search meets a cut vertex, and the tree is
    # split into all of its edges by one entry, even when the first clique
    # cutset is an edge; no block below has a cut vertex
    g = make()
    result = color_general(g)
    assert is_proper_coloring(g, result.coloring) and result.coloring.palette_size == 2
    assert not result.violations
    root = result.trace[0]
    assert root["rule"] == "cut_vertices" and root["parent"] is None
    assert root["blocks"] == g.n - 1 and root["size"] == g.n
    assert root["cuts"] == [v for v in range(g.n) if g.degree(v) > 1]
    assert sum(e["rule"] == "cut_vertices" for e in result.trace) == 1
    assert len(result.trace) == g.n


def test_split_work_is_linear_in_the_blocks(monkeypatch):
    # one search at the root finds every block.  Blocks of at most five
    # vertices replay the first one's subtree, so a tree searches twice in
    # all (the root and its first edge) and builds one subgraph per edge;
    # a block of six vertices, a hexagon, is searched once and builds
    # itself and its two 2-vertex layers.  The wrappers count the calls and
    # the vertices of the graphs searched and of the subgraphs built.
    from isk4color import colorers

    work = {}

    def counting(name, size):
        fn = getattr(colorers, name)

        def wrapper(*args):
            calls, total = work.get(name, (0, 0))
            work[name] = calls + 1, total + size(*args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(colorers, "find_clique_cutset",
                        counting("find_clique_cutset", lambda g: g.n))
    monkeypatch.setattr(colorers, "induced_subgraph",
                        counting("induced_subgraph", lambda g, mask: mask.bit_count()))
    for n in (100, 200, 400):
        for g in (path_graph(n), caterpillar(n // 2), _reversed(caterpillar(n // 2)),
                  random_recursive_tree(random.Random(n), n)):
            work.clear()
            assert is_proper_coloring(g, color_general(g).coloring)
            assert work == {"find_clique_cutset": (2, n + 2),
                            "induced_subgraph": (n - 1, 2 * (n - 1))}
        k = n // 10
        work.clear()
        g = chain_of_cycles(k, 6)
        assert is_proper_coloring(g, color_general(g).coloring)
        assert work == {"find_clique_cutset": (1 + k, g.n + 6 * k),
                        "induced_subgraph": (3 * k, 10 * k)}


def test_one_vertex_blocks_cost_a_constant(monkeypatch):
    # the leaves of a star are one layer of one-vertex components; each is
    # colored 0 directly, so none of them layers, builds a subgraph or has
    # a trace entry: the star's one entry counts them in its layer sizes.
    # Two identical calls count the same.
    from isk4color import colorers

    calls = {"bfs_layering": 0, "induced_subgraph": 0}

    def counting(name):
        fn = getattr(colorers, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(colorers, name, counting(name))
    for colorer in (color_c3, color_c2):
        counts = []
        for k in (2, 25, 50, 50):
            for name in calls:
                calls[name] = 0
            result = colorer(star_graph(k))
            assert is_proper_coloring(star_graph(k), result.coloring)
            assert len(result.trace) == 1 and result.trace[0]["layer_sizes"] == [1, k]
            counts.append(dict(calls))
        assert counts[0] == counts[1] == counts[2] == counts[3], counts


def test_one_vertex_layers_build_no_subgraph(monkeypatch):
    # a path layered from an end has one vertex per layer; C5 layered from
    # 0 has the layers {0}, {1, 4} and {2, 3}, and the edge {2, 3} is
    # layered in turn into two one-vertex layers.  Only {1, 4} and {2, 3}
    # build a subgraph, under every layer table, the innermost included.
    # color_triangle_free splits a path on its clique cutsets first; those
    # blocks have at least two vertices.
    from isk4color import colorers

    sizes = []
    induced = colorers.induced_subgraph
    monkeypatch.setattr(colorers, "induced_subgraph",
                        lambda g, mask: sizes.append(mask.bit_count()) or induced(g, mask))
    for colorer, g, expected in ((color_c3, path_graph(12), []),
                                 (color_c1, path_graph(12), []),
                                 (color_triangle_free, path_graph(12), None),
                                 (color_c3, cycle_graph(5), [2, 2]),
                                 (color_c1, cycle_graph(5), [2, 2]),
                                 (color_triangle_free, cycle_graph(5), [2, 2])):
        sizes.clear()
        result = colorer(g)
        assert is_proper_coloring(g, result.coloring)
        assert 1 not in sizes
        assert expected is None or sorted(sizes) == expected


def test_suite_templates_do_not_depend_on_the_recording_mode():
    # a suite's table is filled by whichever mode reaches a block first;
    # what the other mode then replays must be what a fresh call returns.
    # A one-vertex component of the input is a block with its own entry, so
    # the first mode leaves each table's one-vertex block in the table; a
    # one-vertex layer or component of a layer never reaches it.
    from isk4color import colorers

    graphs = [star_graph(4), path_graph(7), theta_graph(3, 4, 5),
              disjoint_union(cycle_graph(9), empty_graph(1)),
              disjoint_union(complete_graph(4), empty_graph(2))]
    tables = {color_general: colorers._GENERAL, color_triangle_free: colorers._TRIANGLE_FREE,
              color_c3: colorers._C3, color_c2: colorers._C2, color_c1: colorers._C1}

    def results(mode):
        out = []
        for colorer in tables:
            for g in graphs:
                try:
                    out.append(colorer(g, mode).to_dict())
                except ClassViolationError as exc:
                    out.append(exc.violation.to_dict())
        return out

    fresh = {mode: results(mode) for mode in ("strict", "tolerant")}
    with colorers._suite_templates():
        for colorer in tables:
            colorer(star_graph(4))
        assert not any(adj == (0,) for _, adj in colorers._SUITE_TEMPLATES.get())
    for first, then in (("strict", "tolerant"), ("tolerant", "strict")):
        with colorers._suite_templates():
            assert results(first) == fresh[first]
            table = colorers._SUITE_TEMPLATES.get()
            assert all((rules, (0,)) in table for rules in tables.values())
            assert results(then) == fresh[then]


def _windmill(blades: int) -> Graph:
    # triangles sharing vertex 0: every block behind its clique cutset {0}
    # is a triangle with the same labelled adjacency
    edges = []
    for i in range(blades):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (0, b), (a, b)]
    return Graph(2 * blades + 1, edges)


def test_small_block_templates_last_one_call(monkeypatch):
    # a repeated triangle block runs its detectors once per call, so the
    # windmills make as many detector calls as one blade does; a second
    # call on the same graph starts from an empty table.  A windmill is
    # split at its hub into all of its blades at once.
    from isk4color import colorers

    calls = dict.fromkeys(rule[0] for rule in colorers._GENERAL if rule[0])
    for name in calls:
        def wrapper(g, name=name, fn=getattr(colorers, name)):
            calls[name] += 1
            return fn(g)
        monkeypatch.setattr(colorers, name, wrapper)
    counts = []
    for g in (_windmill(1), _windmill(3), _windmill(6), _windmill(6)):
        calls.update(dict.fromkeys(calls, 0))
        result = color_general(g)
        assert is_proper_coloring(g, result.coloring) and not result.violations
        blades = g.n // 2
        assert [e["blocks"] for e in result.trace if e["rule"] == "cut_vertices"] == (
            [blades] if blades > 1 else [])
        assert not any(e["rule"] == "clique_cutset" for e in result.trace)
        counts.append(dict(calls))
    assert counts[0] == counts[1] == counts[2] == counts[3], counts
    assert all(counts[0].values()), counts


def test_tolerant_violation_is_not_replayed_in_strict_mode():
    # the K4 block records a violation in tolerant mode, so it is never
    # stored: a strict call sharing the table still meets the violation
    from isk4color import colorers

    g = disjoint_union(complete_graph(4), path_graph(3))
    with colorers._suite_templates():
        assert color_general(g, "tolerant").violations
        with pytest.raises(ClassViolationError) as exc:
            color_general(g, "strict")
        table = colorers._SUITE_TEMPLATES.get()
    assert exc.value.violation.kind == "k4"
    assert complete_graph(4)._adj not in {adj for _, adj in table}


def test_block_whose_rule_notes_nothing_leaves_no_entry():
    # a rule that returns a coloring without run.note leaves no trace
    # entry, and a replay of its block adds none; the certificate check
    # still reports the improper coloring, on the replay too
    from isk4color import colorers

    sizes = []

    def unnoted(g, ids, run, witness, rules):
        sizes.append(g.n)
        return Coloring((0,) * g.n, 1)

    stub = ((None, unnoted),)
    with colorers._suite_templates():
        for _ in range(2):
            with pytest.raises(AssertionError, match="improper coloring"):
                colorers._color(complete_graph(2), "strict", stub, BOUND_GENERAL)
        # two one-vertex components: the second replays the first
        result = colorers._color(empty_graph(2), "strict", stub, BOUND_GENERAL)
        entries = [entries for entries, *_ in colorers._SUITE_TEMPLATES.get().values()]
    assert sizes == [2, 1] and entries == [[], []]
    assert result.trace == [] and result.coloring.assignment == (0, 0)


def test_block_templates_change_no_result(monkeypatch, connected_corpus_8):
    # every result, or the violation raised, is the same with no templates,
    # with a table per call, and with one table shared by the corpus.  Line
    # graphs and rich squares reach their rule through a K222 or a prism, so
    # their blocks have at least 6 vertices: the cap is raised to 7 to
    # replay them, and with them the renamed square and the counts root_n
    # and cliques, which are not renamed.  A rich square, a line graph and
    # a proper 2-cutset get a pendant vertex, numbered last and then first,
    # so the second replays the block on other ids; the second of two paths
    # replays the first's split at its cut vertices.
    from isk4color import colorers

    graphs = [g for n in range(1, 8) for g in connected_corpus_8[n]]
    for h in (rich_square_graph([(0, False)] * 3), prism_graph(), ring_of_beads(2)):
        graphs.append(Graph(h.n + 1, [*h.edges(), (0, h.n)]))
        graphs.append(Graph(h.n + 1, [(u + 1, v + 1) for u, v in h.edges()] + [(0, 1)]))
    graphs.append(disjoint_union(path_graph(5), path_graph(5)))
    colorer_fns = (color_general, color_triangle_free, color_c1, color_c2, color_c3)
    replayed = set()
    remap = colorers._remap

    def spy(entries, names, shift, parent):
        if len(names) > 1:  # a block, not one vertex
            replayed.update(e["rule"] for e in entries)
        return remap(entries, names, shift, parent)

    monkeypatch.setattr(colorers, "_remap", spy)

    def payloads(cap, shared):
        monkeypatch.setattr(colorers, "_TEMPLATE_MAX_N", cap)
        out = []
        with colorers._suite_templates() if shared else contextlib.nullcontext():
            for mode in ("tolerant", "strict"):
                for colorer in colorer_fns:
                    for g in graphs:
                        try:
                            out.append(colorer(g, mode).to_dict())
                        except ClassViolationError as exc:
                            out.append(exc.violation.to_dict())
        return out

    cap = colorers._TEMPLATE_MAX_N
    expected = payloads(0, False)
    assert not replayed
    assert payloads(cap, False) == expected
    assert payloads(cap, True) == expected
    assert {"clique_cutset", "cut_vertices", "layering_girth5"} <= replayed
    assert payloads(7, True) == expected
    assert {"rich_square", "line_graph_subcubic", "proper_2cutset"} <= replayed
