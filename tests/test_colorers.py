import ast
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
from isk4color.graph import Graph, is_proper_coloring
from isk4color.families import path_graph
from isk4color.colorers import (
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
    complete_graph,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    empty_graph,
    line_graph,
    petersen,
    rich_square_graph,
    ring_of_beads,
    theta_graph,
)
from reference import ref_edge_chromatic


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
    with pytest.raises(ValueError):
        color_general(cycle_graph(4), mode="lenient")


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
     "3f96fbca4497364af859283ed81db9d86529346cda7d90efcf4c0d568882a7df"),
    ("P40-triangle-free", color_triangle_free, lambda: path_graph(40),
     "c1012a340fb54225e50964128de9e349d86eb3754c93ae03dd108ae746727e40"),
    ("C12-general", color_general, lambda: cycle_graph(12),
     "80fed18fb1e87114e566d925fe35430c8d8effd71b04f857a9661f0ad841bf06"),
    ("theta345-general", color_general, lambda: theta_graph(3, 4, 5),
     "e2665b31a119d33a9eca171a2d4d60e9308c6517a50c7982a682d30da2ef2643"),
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
_TOLERANT_DIGEST = "d7f5365bfea50fa41f01b6b6252909069709605e5aa404c506167ddbbfd81dd4"


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
    # a block's entry comes after the entry of the rule that produced it, and
    # the blocks of a cutset are its two sides, each with the cut
    checked = 0
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
            else:
                assert sum(children.get(i, ())) <= entry["size"]
        if trace:
            assert sum(children[None]) == len(payload["assignment"])
    assert checked > 1000


# sha256 over (palette_size, assignment, violations) of the pinned cases and
# the tolerant corpus, without the trace: a change of the trace format alone
# must leave it as it is
_COLORINGS_DIGEST = "234da402b2b036d2156d04190c174a2d86240bf93c86f423146cd4123667d70c"


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
