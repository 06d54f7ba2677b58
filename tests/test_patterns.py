import random
from itertools import combinations

import pytest

from isk4color.formats import parse_graph6_line
from isk4color.graph import Graph, is_connected, triangles
from isk4color.oracle import are_isomorphic
from isk4color.patterns import (
    MultipartiteShape,
    enumerate_holes,
    find_boat,
    find_four_wheel,
    find_hole,
    find_k4,
    find_k33,
    find_k222,
    find_prism,
    find_rich_square,
    find_triangle,
    find_wheel,
    recognize_line_graph_subcubic,
    recognize_thick_multipartite,
    verify_witness,
)
from builders import (
    complete_graph,
    complete_multipartite,
    cycle_graph,
    line_graph,
    petersen,
    prism_graph,
    rich_square_graph,
    star_graph,
)
from reference import (
    ref_complete_multipartite,
    ref_find_k4,
    ref_find_triangle,
    ref_has_boat,
    ref_has_four_wheel,
    ref_has_k222,
    ref_has_k33,
    ref_has_prism,
    ref_has_wheel,
    ref_holes,
)


def wheel_graph(hole_len):
    g = cycle_graph(hole_len)
    edges = list(g.edges()) + [(i, hole_len) for i in range(hole_len)]
    return Graph(hole_len + 1, edges)


def test_find_triangle_examples():
    assert find_triangle(complete_graph(4)) is not None
    assert find_triangle(cycle_graph(5)) is None
    w = find_triangle(prism_graph())
    assert w is not None and verify_witness(prism_graph(), w)


def test_hole_examples():
    w = find_hole(cycle_graph(6))
    assert w is not None and w.vertices == frozenset(range(6))
    assert find_hole(complete_graph(4)) is None
    assert len(list(enumerate_holes(complete_multipartite(2, 3)))) == 3
    assert len(ref_holes(complete_multipartite(2, 3))) == 3


def test_hole_length_filters():
    g = cycle_graph(7)
    assert find_hole(g, 4, 6) is None
    assert find_hole(g, 7, 7) is not None
    with pytest.raises(ValueError):
        find_hole(g, 3)


def test_find_k33_examples():
    assert find_k33(complete_multipartite(3, 3)) is not None
    assert find_k33(complete_multipartite(3, 4)) is not None
    assert find_k33(cycle_graph(6)) is None


def test_find_k222_examples():
    assert find_k222(complete_multipartite(2, 2, 2)) is not None
    assert find_k222(complete_graph(4)) is None
    lk4 = line_graph(complete_graph(4))
    w = find_k222(lk4)
    assert w is not None and verify_witness(lk4, w)


def test_find_prism_examples():
    w = find_prism(prism_graph())
    assert w is not None
    t1, t2 = w.extra["triangles"]
    assert {frozenset(t1), frozenset(t2)} == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
    assert find_prism(complete_multipartite(3, 3)) is None
    assert find_prism(cycle_graph(6)) is None
    long = prism_graph((2, 3, 1))
    w2 = find_prism(long)
    assert w2 is not None and verify_witness(long, w2)


def test_boat_wheel_examples():
    w4 = wheel_graph(4)
    assert find_four_wheel(w4) is not None
    assert find_boat(w4) is not None
    assert find_wheel(w4) is not None
    # C5 plus a vertex adjacent to 4 consecutive hole vertices
    g = Graph(6, list(cycle_graph(5).edges()) + [(5, 0), (5, 1), (5, 2), (5, 3)])
    assert find_boat(g) is not None
    assert find_four_wheel(g) is None
    for f in (find_boat, find_four_wheel, find_wheel):
        assert f(cycle_graph(6)) is None


def test_recognize_thick_multipartite():
    shape = recognize_thick_multipartite(complete_multipartite(3, 3))
    assert shape is not None and shape.thick and sorted(len(p) for p in shape.parts) == [3, 3]
    shape = recognize_thick_multipartite(complete_multipartite(2, 2, 2))
    assert shape is not None and not shape.thick
    assert recognize_thick_multipartite(cycle_graph(5)) is None
    assert recognize_thick_multipartite(complete_graph(4)) is None
    assert recognize_thick_multipartite(star_graph(5)) is not None
    assert recognize_thick_multipartite(Graph(2)) is None  # not complete bipartite


def test_recognize_thick_multipartite_agrees_with_reference(all_graphs_7, all_graphs_of_order_8):
    # every graph with at most 8 vertices, connected or not
    graphs = [Graph(0)] + [g for n in sorted(all_graphs_7) for g in all_graphs_7[n]]
    graphs += all_graphs_of_order_8
    assert len(graphs) == 13599
    found = 0
    for g in graphs:
        parts = ref_complete_multipartite(g)
        if parts is None or len(parts) not in (2, 3):
            assert recognize_thick_multipartite(g) is None
        else:
            thick = sum(len(p) >= 3 for p in parts) >= 2
            assert recognize_thick_multipartite(g) == MultipartiteShape(parts, thick)
            found += 1
    assert found == 32  # the partitions of 2..8 into two or three parts


def test_find_rich_square_examples():
    k222 = complete_multipartite(2, 2, 2)
    w = find_rich_square(k222)
    assert w is not None and len(w.extra["links"]) == 2
    assert all(len(l) == 1 for l in w.extra["links"])
    assert find_rich_square(cycle_graph(4)) is None
    two_paths = rich_square_graph([(2, False), (2, True)])
    w2 = find_rich_square(two_paths)
    assert w2 is not None and verify_witness(two_paths, w2)


def test_rich_square_generator_family():
    rng = random.Random(3)
    for _ in range(40):
        k = rng.randint(2, 4)
        links = [(rng.randint(0, 6), rng.random() < 0.5) for _ in range(k)]
        g = rich_square_graph(links)
        assert find_rich_square(g) is not None, links


def test_rich_square_negatives():
    # a single link is not enough
    assert find_rich_square(rich_square_graph([(3, False)])) is None
    # corrupt a link interior with a square edge
    g = rich_square_graph([(3, False), (0, False)])
    bad = Graph(g.n, list(g.edges()) + [(5, 3)])  # link interior touches the square
    assert find_rich_square(bad) is None


def test_recognize_line_graph_subcubic_examples():
    k222 = complete_multipartite(2, 2, 2)
    kp = recognize_line_graph_subcubic(k222)
    assert kp is not None
    assert are_isomorphic(kp.root, complete_graph(4))
    assert are_isomorphic(line_graph(kp.root), k222)

    c5 = cycle_graph(5)
    kp = recognize_line_graph_subcubic(c5)
    assert kp is not None and are_isomorphic(kp.root, c5)

    assert recognize_line_graph_subcubic(complete_multipartite(3, 3)) is None
    kp = recognize_line_graph_subcubic(Graph(0))
    assert kp.cliques == () and kp.root.m == 0 and line_graph(kp.root) == Graph(0)
    with pytest.raises(ValueError):
        recognize_line_graph_subcubic(Graph(4, [(0, 1), (2, 3)]))


def test_krausz_invariants():
    kp = recognize_line_graph_subcubic(line_graph(petersen()))
    assert kp is not None
    assert all(len(c) <= 3 for c in kp.cliques)
    assert all(len(m) <= 2 for m in kp.membership.values())
    assert max(kp.root.degree(v) for v in range(kp.root.n)) <= 3
    covered = sorted(tuple(sorted(p)) for c in kp.cliques for p in combinations(c, 2))
    assert covered == sorted(line_graph(petersen()).edges())


def test_recognize_deep_line_graph():
    # L(circular ladder with k rungs): 3k vertices, one clique per ladder
    # vertex, so the search places 2k cliques one inside the other
    k = 600
    ladder = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    lg = line_graph(Graph(2 * k, [(min(e), max(e)) for e in ladder] + [(i, k + i) for i in range(k)]))
    kp = recognize_line_graph_subcubic(lg)
    assert kp is not None and kp.root.n == 2 * k and kp.root.m == 3 * k
    assert max(kp.root.degree(v) for v in range(kp.root.n)) == 3
    covered = sorted(tuple(sorted(p)) for c in kp.cliques for p in combinations(c, 2))
    assert covered == sorted(lg.edges())


def test_line_graph_recognition_roundtrip_small(connected_corpus_8):
    for n in range(2, 8):
        for h in connected_corpus_8[n]:
            if max(h.degree(v) for v in range(h.n)) > 3 or h.m == 0:
                continue
            lg = line_graph(h)
            if not is_connected(lg):
                continue
            kp = recognize_line_graph_subcubic(lg)
            assert kp is not None, f"failed on line graph of {list(h.edges())}"
            assert are_isomorphic(line_graph(kp.root), lg)


def test_detectors_agree_with_naive_reference(all_graphs_7):
    pairs = [
        (find_triangle, lambda g: ref_find_triangle(g) is not None),
        (lambda g: find_hole(g), lambda g: len(ref_holes(g)) > 0),
        (find_k33, ref_has_k33),
        (find_k222, ref_has_k222),
        (find_prism, ref_has_prism),
        (find_boat, ref_has_boat),
        (find_four_wheel, ref_has_four_wheel),
        (find_wheel, ref_has_wheel),
    ]
    for n in range(1, 8):
        for g in all_graphs_7[n]:
            for finder, ref in pairs:
                found = finder(g)
                assert (found is not None) == ref(g), (
                    f"{finder} disagrees with reference on {list(g.edges())}"
                )
                if found is not None:
                    assert verify_witness(g, found)


def _has_disjoint_triangles(g):
    tris = [set(t) for t in triangles(g)]
    return any(not a & b for i, a in enumerate(tris) for b in tris[i + 1 :])


def test_find_prism_agrees_with_reference_n8(connected_corpus_8):
    graphs = [g for g in connected_corpus_8[8] if _has_disjoint_triangles(g)]
    assert len(graphs) == 7741
    prisms = 0
    for g in graphs:
        w = find_prism(g)
        assert (w is not None) == ref_has_prism(g), list(g.edges())
        if w is not None:
            assert verify_witness(g, w)
            prisms += 1
    assert prisms == 464


@pytest.mark.parametrize("line", [
    "GEqrP{", "GEhrO{", "GIBkps", "GMhPW{", "G[XOx{",
    r"G\`Gz{", "GdYQX{", "Got`g{", "GqHXr{", "GqHXv{",
])
def test_find_prism_past_a_chorded_first_path(line):
    # in each graph, the first three disjoint paths of a prism's matching in
    # search order have a chord, so a search that stops at them misses it
    g = parse_graph6_line(line)
    w = find_prism(g)
    assert w is not None and verify_witness(g, w)


def test_hole_enumeration_matches_reference(all_graphs_7):
    for n in range(4, 8):
        for g in all_graphs_7[n]:
            mine = {frozenset(order) for order in enumerate_holes(g)}
            assert mine == set(ref_holes(g))


def test_find_k4():
    assert find_k4(complete_graph(5)) == (0, 1, 2, 3)
    assert find_k4(complete_multipartite(2, 2, 2)) is None
    assert find_k4(petersen()) is None


def test_find_k4_agrees_with_reference(all_graphs_7):
    graphs = [g for n in sorted(all_graphs_7) for g in all_graphs_7[n]]
    rng = random.Random(44)
    for _ in range(300):
        n = rng.randint(8, 16)
        p = rng.uniform(0.3, 0.8)
        graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    hits = 0
    for g in graphs:
        k4 = find_k4(g)
        assert k4 == ref_find_k4(g), list(g.edges())
        hits += k4 is not None
    assert hits == 638
