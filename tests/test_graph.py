import math
import random

import pytest

from itertools import combinations, islice

from isk4color.graph import (
    Graph,
    Coloring,
    INFINITE_GIRTH,
    bfs_layering,
    bfs_path,
    bits,
    chordless_order,
    component_masks,
    connected_components,
    degeneracy_order,
    find_cycle,
    girth,
    greedy_coloring,
    induced_plus_edge,
    induced_subgraph,
    is_connected,
    is_proper_coloring,
    k_core,
    mask_of,
    shortest_cycle,
    triangles,
)
from isk4color.families import path_graph
from builders import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    petersen,
    random_graph,
)
from reference import ref_bits, ref_degeneracy_order, ref_girth


def test_bits_agrees_with_reference():
    # every mask of the table, its bound 2**10 and the masks just past it
    for mask in range((1 << 10) + 3):
        assert tuple(bits(mask)) == ref_bits(mask), mask
    rng = random.Random(5)
    for _ in range(40):
        width = rng.randint(100, 5000)
        dense = rng.getrandbits(width) | 1 << (width - 1)
        sparse = dense & rng.getrandbits(width) & rng.getrandbits(width)
        assert tuple(bits(dense)) == ref_bits(dense)
        assert tuple(bits(sparse)) == ref_bits(sparse)


def test_bits_reads_no_table_entry_for_a_negative_mask():
    # -1 has every bit set; a lookup at index -1 would stop after bit 9
    assert tuple(islice(bits(-1), 12)) == tuple(range(12))
    assert tuple(islice(bits(-8), 3)) == (3, 4, 5)


def test_graph_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2), (0, 1)])  # duplicate edges collapse
    assert g.m == 2
    assert g.neighbors(1) == (0, 2)
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert list(g.edges()) == [(0, 1), (1, 2)]


def test_bfs_layering_examples():
    assert bfs_layering(cycle_graph(6), 0) == (0b000001, 0b100010, 0b010100, 0b001000)
    assert bfs_layering(complete_graph(4), 0) == (0b0001, 0b1110)
    assert bfs_layering(path_graph(4), 0) == (0b0001, 0b0010, 0b0100, 0b1000)
    with pytest.raises(ValueError):
        bfs_layering(cycle_graph(4), 7)


def test_layering_invariants_small_corpus(all_graphs_7):
    for n, graphs in all_graphs_7.items():
        for g in graphs:
            for root in range(g.n):
                layers = [set(bits(layer)) for layer in bfs_layering(g, root)]
                assert layers[0] == {root}
                seen = set()
                for layer in layers:
                    assert layer and not (layer & seen)
                    seen |= layer
                comp = next(c for c in connected_components(g) if root in c)
                assert seen == comp
                idx = {v: i for i, layer in enumerate(layers) for v in layer}
                for u, v in g.edges():
                    if u in idx and v in idx:
                        assert abs(idx[u] - idx[v]) <= 1
                for i in range(1, len(layers)):
                    for v in layers[i]:
                        assert any(w in layers[i - 1] for w in g.neighbors(v))


def test_induced_subgraph_examples():
    tri, ids = induced_subgraph(complete_graph(4), 0b1101)
    assert tri.m == 3 and ids == (0, 2, 3)
    iso, _ = induced_subgraph(cycle_graph(6), 0b010101)
    assert iso.m == 0
    empty, ids_e = induced_subgraph(cycle_graph(5), 0)
    assert empty.n == 0 and ids_e == ()
    whole, ids_w = induced_subgraph(cycle_graph(5), 0b11111)
    assert whole == cycle_graph(5) and ids_w == (0, 1, 2, 3, 4)


def test_induced_subgraph_rejects_masks_outside_the_graph():
    c5 = cycle_graph(5)
    for smask in (-1, -0b10, 1 << 5, 0b100011):
        with pytest.raises(ValueError, match="not contained"):
            induced_subgraph(c5, smask)
        with pytest.raises(ValueError, match="not contained"):
            induced_plus_edge(c5, smask, 0, 1)


def test_induced_subgraph_composition():
    rng = random.Random(7)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 9), 0.4)
        s1 = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
        sub1, ids1 = induced_subgraph(g, mask_of(s1))
        s2 = sorted(rng.sample(range(sub1.n), rng.randint(1, sub1.n)))
        sub2, ids2 = induced_subgraph(sub1, mask_of(s2))
        direct, ids_d = induced_subgraph(g, mask_of(ids1[v] for v in s2))
        assert ids_d == tuple(ids1[v] for v in s2)
        assert direct == sub2


def test_is_proper_coloring():
    assert is_proper_coloring(cycle_graph(4), Coloring((0, 1, 0, 1), 2))
    assert not is_proper_coloring(complete_graph(3), Coloring((0, 1, 0), 2))
    assert is_proper_coloring(Graph(1), Coloring((0,), 1))
    with pytest.raises(ValueError):
        is_proper_coloring(cycle_graph(4), Coloring((0, 1), 2))
    with pytest.raises(ValueError):
        Coloring((0, 5), 2)


def test_girth_examples():
    assert girth(cycle_graph(5)) == 5
    assert girth(path_graph(6)) == INFINITE_GIRTH
    assert girth(petersen()) == 5 == ref_girth(petersen())
    assert girth(complete_graph(4)) == 3
    assert math.isinf(girth(empty_graph(3)))


def test_girth_matches_reference_on_random_graphs():
    rng = random.Random(11)
    for _ in range(80):
        g = random_graph(rng, rng.randint(3, 9), rng.uniform(0.1, 0.7))
        expected = ref_girth(g)
        got = girth(g)
        assert (expected is None and math.isinf(got)) or expected == got
        cyc = shortest_cycle(g)
        if expected is not None:
            assert len(cyc) == expected
            for i, v in enumerate(cyc):
                assert g.has_edge(v, cyc[(i + 1) % len(cyc)])


def test_degeneracy_examples():
    assert degeneracy_order(path_graph(5))[1] == 1
    assert degeneracy_order(cycle_graph(7))[1] == 2
    assert degeneracy_order(complete_graph(4))[1] == 3


def test_degeneracy_order_agrees_with_reference(all_graphs_7):
    # the heap gives the min-scan's order, ties to the lowest id, on every
    # graph with n <= 7 and on seeded random graphs up to 30 vertices
    graphs = [g for level in all_graphs_7.values() for g in level]
    rng = random.Random(27)
    graphs += [random_graph(rng, rng.randint(8, 30), rng.random()) for _ in range(500)]
    for g in graphs:
        assert degeneracy_order(g) == ref_degeneracy_order(g)


def test_degeneracy_greedy_bound_small_corpus(all_graphs_7):
    for n, graphs in all_graphs_7.items():
        for g in graphs:
            order, d = degeneracy_order(g)
            coloring = greedy_coloring(g, reversed(order))
            assert is_proper_coloring(g, coloring)
            if g.n:
                assert coloring.palette_size <= d + 1


def test_connected_components():
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert connected_components(two_edges) == [frozenset({0, 1}), frozenset({2, 3})]
    assert len(connected_components(cycle_graph(5))) == 1
    assert connected_components(Graph(0)) == []
    assert len(connected_components(disjoint_union(cycle_graph(3), path_graph(2)))) == 2


def test_find_cycle():
    assert find_cycle(path_graph(5)) is None
    cyc = find_cycle(cycle_graph(6))
    assert sorted(cyc) == [0, 1, 2, 3, 4, 5]
    lolli = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    cyc = find_cycle(lolli)
    assert set(cyc) == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# shared primitives against brute force


def _ref_reach(g, s, allowed):
    """Distances from s inside ``allowed`` by repeated edge relaxation."""
    dist = {s: 0}
    for _ in range(g.n):
        for u, v in g.edges():
            for a, b in ((u, v), (v, u)):
                if a in dist and b in allowed and dist.get(b, g.n) > dist[a] + 1:
                    dist[b] = dist[a] + 1
    return dist


def test_bfs_path_is_shortest_and_avoids_blocked():
    rng = random.Random(21)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.6))
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        blocked = set(rng.sample(range(g.n), rng.randint(0, g.n // 2)))
        for bl in (set(), blocked):
            path = bfs_path(g, s, t, mask_of(bl)) if bl else bfs_path(g, s, t)
            allowed = (set(range(g.n)) - bl) | {s, t}
            expected = _ref_reach(g, s, allowed).get(t)
            if expected is None:
                assert path is None
                continue
            assert path[0] == s and path[-1] == t and len(path) - 1 == expected
            assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
            assert set(path) <= allowed


def test_triangles_lexicographic():
    rng = random.Random(22)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 9), rng.uniform(0.2, 0.8))
        expected = [
            trio for trio in combinations(range(g.n), 3)
            if all(g.has_edge(a, b) for a, b in combinations(trio, 2))
        ]
        assert list(triangles(g)) == expected


def _ref_k_core(g, k):
    # the k-core is the union of all vertex sets inducing minimum degree >= k
    core = set()
    for r in range(1, g.n + 1):
        for subset in combinations(range(g.n), r):
            sset = set(subset)
            if all(sum(1 for w in g.neighbors(v) if w in sset) >= k for v in sset):
                core |= sset
    return sorted(core)


def test_k_core_matches_brute_force():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 9), rng.uniform(0.2, 0.7))
        for k in (2, 3):
            assert k_core(g, k) == _ref_k_core(g, k)
    assert k_core(cycle_graph(6), 2) == list(range(6))
    assert k_core(cycle_graph(6), 3) == []
    assert k_core(complete_graph(4), 3) == [0, 1, 2, 3]


def test_component_masks_with_removed_vertices():
    rng = random.Random(24)
    for _ in range(80):
        g = random_graph(rng, rng.randint(0, 10), rng.uniform(0.05, 0.5))
        removed = set(rng.sample(range(g.n), rng.randint(0, g.n)))
        left = set(range(g.n)) - removed
        expected = []
        for v in sorted(left):
            if not any(v in comp for comp in expected):
                expected.append(set(_ref_reach(g, v, left)))
        assert component_masks(g, mask_of(removed)) == [mask_of(c) for c in expected]
        whole = component_masks(g)
        assert connected_components(g) == [frozenset(bits(c)) for c in whole]
        assert is_connected(g) == (len(whole) <= 1)


def test_chordless_order_walks_paths_and_holes():
    rng = random.Random(25)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.6))
        vs = rng.sample(range(g.n), rng.randint(1, g.n))
        sub = induced_subgraph(g, mask_of(vs))[0]
        degs = [sub.degree(v) for v in range(sub.n)]
        is_path = is_connected(sub) and sub.m == sub.n - 1 and max(degs) <= 2
        is_hole = is_connected(sub) and sub.n >= 4 and set(degs) == {2}
        for hole, expected in ((False, is_path), (True, is_hole)):
            order = chordless_order(g, vs, hole=hole)
            assert (order is not None) == expected
            if order is None:
                continue
            assert sorted(order) == sorted(vs)
            assert all(g.has_edge(a, b) for a, b in zip(order, order[1:]))
            if hole:
                assert order[0] == min(vs) and order[1] < order[-1]
            else:
                assert order[0] <= order[-1]
