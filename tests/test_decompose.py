import hashlib
import json
import random
from collections import Counter

import pytest

from isk4color.graph import (
    Graph,
    Coloring,
    bits,
    component_masks,
    connected_components,
    greedy_coloring,
    induced_subgraph,
    is_connected,
    is_proper_coloring,
)
from isk4color.families import path_graph
from isk4color.decompose import (
    Proper2Cutset,
    _Blocks,
    build_2cutset_blocks,
    find_clique_cutset,
    find_proper_2cutset,
    merge_colorings,
)
from isk4color.oracle import are_isomorphic, contains_isk4
from isk4color.patterns import find_k4, find_k222, find_k33
from isk4color.suites import (
    is_flat_path,
    maximal_flat_paths,
    random_connected_graph,
    reduce_flat_path,
)

from builders import (
    complete_graph,
    complete_multipartite,
    cycle_graph,
    line_graph,
    subdivided_complete,
)
from reference import (
    _ref_components,
    dfs_clique_cutset,
    dfs_proper_2cutset,
    ref_clique_cutset,
    ref_is_proper_2cutset,
    ref_proper_2cutset,
    ref_separation_pairs,
)
from test_stress import _subdivided_ladder_line_graph


def test_clique_cutset_examples():
    cut = find_clique_cutset(path_graph(3))
    assert cut.clique == (1,)
    diamond = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    cut = find_clique_cutset(diamond)
    assert cut.clique == (0, 1)
    assert find_clique_cutset(cycle_graph(5)) is None


def test_clique_cutset_preconditions():
    with pytest.raises(ValueError):
        find_clique_cutset(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        find_clique_cutset(complete_graph(4))


def test_clique_cutset_lex_smallest():
    # two cut vertices 1 and 3; singleton {1} precedes everything else
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    assert find_clique_cutset(g).clique == (1,)


def _ears_on_a_cycle(rng, n_max):
    """A cycle with ears (paths through 1 to 4 new vertices between two
    distinct old ones) added while the size allows, relabelled at random.
    It is 2-connected, and K4-free because a new vertex has two old
    neighbours."""
    k = rng.randint(3, 6)
    edges = [(i, (i + 1) % k) for i in range(k)]
    n = k
    while rng.random() < 0.8:
        u, v = rng.sample(range(n), 2)
        new = list(range(n, n + rng.randint(1, 4)))
        if n + len(new) > n_max:
            break
        n += len(new)
        chain = [u] + new + [v]
        edges += zip(chain, chain[1:])
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _clique_cutset_corpus(connected_corpus_8):
    graphs = [g for n in sorted(connected_corpus_8) for g in connected_corpus_8[n]]
    rng = random.Random(99)
    graphs += [_ears_on_a_cycle(rng, rng.randint(6, 40)) for _ in range(300)]
    lines = 0
    while lines < 100:
        root = _subdivided(rng, random_connected_graph(rng, rng.randint(4, 10), 0.25))
        if max(root.degree(v) for v in range(root.n)) <= 3 and 3 <= root.m <= 40:
            graphs.append(line_graph(root))
            lines += 1
    return [g for g in graphs if find_k4(g) is None]


def test_clique_cutset_agrees_with_reference(connected_corpus_8):
    # the lex-first clique and both sides equal the brute-force answer;
    # edges and triangles that split a 2-connected graph are the cliques
    # the degree rule has to let through
    found, two_connected = 0, {2: 0, 3: 0}
    for g in _clique_cutset_corpus(connected_corpus_8):
        cut = find_clique_cutset(g)
        ref = ref_clique_cutset(g)
        if cut is None:
            assert ref is None, list(g.edges())
            continue
        found += 1
        assert (cut.clique, set(cut.side_x), set(cut.side_y)) == ref, list(g.edges())
        if len(cut.clique) > 1 and all(
            len(_ref_components(g, set(range(g.n)) - {v})) == 1 for v in range(g.n)
        ):
            two_connected[len(cut.clique)] += 1
    assert found == 4827 and two_connected == {2: 824, 3: 1117}


def _tough_triangle_free(g):
    """2-connected, triangle-free, min degree >= 2, and still connected after
    removing any adjacent pair."""
    if g.n < 3 or not is_connected(g):
        return False
    from isk4color.patterns import find_triangle

    if find_triangle(g) is not None:
        return False
    if any(g.degree(v) < 2 for v in range(g.n)):
        return False
    for v in range(g.n):
        sub, _ = induced_subgraph(g, set(range(g.n)) - {v})
        if not is_connected(sub):
            return False
    for u, v in g.edges():
        sub, _ = induced_subgraph(g, set(range(g.n)) - {u, v})
        if sub.n and not is_connected(sub):
            return False
    return True


def test_clique_cutset_none_on_tough_graphs(all_graphs_7):
    from isk4color.patterns import find_k4

    for n in range(3, 8):
        for g in all_graphs_7[n]:
            if find_k4(g) is not None or not _tough_triangle_free(g):
                continue
            assert find_clique_cutset(g) is None, list(g.edges())


def test_proper_2cutset_examples():
    cut = find_proper_2cutset(complete_multipartite(2, 4))
    assert cut is not None and {cut.a, cut.b} == {0, 1}
    assert len(cut.side_x) == 2 and len(cut.side_y) == 2
    assert find_proper_2cutset(complete_multipartite(2, 3)) is None
    assert find_proper_2cutset(cycle_graph(5)) is None
    with pytest.raises(ValueError):
        find_proper_2cutset(Graph(3, [(0, 1)]))


def test_proper_2cutset_theta_has_none():
    from builders import theta_graph

    assert find_proper_2cutset(theta_graph(2, 2, 2)) is None


def test_proper_2cutset_agrees_with_reference(connected_corpus_8):
    found = 0
    for graphs in connected_corpus_8.values():
        for g in graphs:
            cut = find_proper_2cutset(g)
            ref = ref_proper_2cutset(g)
            if cut is None:
                assert ref is None, list(g.edges())
                continue
            found += 1
            assert (cut.a, cut.b) == ref, list(g.edges())
            assert ref_is_proper_2cutset(g, cut.a, cut.b, cut.side_x, cut.side_y)
    assert found == 5226


def _all_separation_pairs(g):
    """Expand ``_Blocks.separations``: each virtual-edge pair as given, and
    each non-adjacent pair of an S-node cycle with its two arcs, an arc bare
    when every vertex on it has degree 2."""
    pairs, cycles = _Blocks(g).separations()
    out = dict(pairs)
    for cycle in cycles:
        k = len(cycle)
        for i in range(k):
            for j in range(i + 2, k - (i == 0)):
                arcs = (cycle[i + 1:j], cycle[j + 1:] + cycle[:i])
                bare = sum(all(g.degree(v) == 2 for v in arc) for arc in arcs)
                key = (min(cycle[i], cycle[j]), max(cycle[i], cycle[j]))
                assert key not in out, (key, list(g.edges()))
                out[key] = (2, bare)
    return out


def test_separation_pairs_match_brute_force(connected_corpus_8):
    # every pair that disconnects a 2-connected graph, with its number of
    # components and of bare paths among them, comes out of the SPQR trees
    checked, kinds = 0, Counter()
    for n in range(3, 9):
        for g in connected_corpus_8[n]:
            if any(len(component_masks(g, 1 << v)) > 1 for v in range(n)):
                continue
            checked += 1
            expected = ref_separation_pairs(g)
            assert _all_separation_pairs(g) == expected, list(g.edges())
            kinds.update(expected.values())
    # (components, bare components) -> pairs of that kind
    assert checked == 7661 and kinds == {
        (2, 0): 1861, (2, 1): 7942, (2, 2): 59, (3, 0): 12, (3, 1): 116,
        (3, 2): 512, (3, 3): 14, (4, 2): 8, (4, 3): 46, (4, 4): 8,
        (5, 4): 4, (5, 5): 4, (6, 6): 2,
    }


def test_separation_pairs_of_blocks_behind_cut_vertices():
    # 2-connected pieces hung off each other at a shared vertex or by a
    # bridge: each piece is a block, and its pairs come out of its own SPQR
    # tree, with bare components judged by the degrees in the whole graph
    rng = random.Random(5)
    for _ in range(60):
        edges, n, pieces = [], 0, []
        for _ in range(rng.randint(2, 5)):
            kind = rng.randrange(3)
            if kind == 0:
                piece = _series_parallel(rng, rng.randint(3, 12))
            elif kind == 1:
                piece = _ears_on_a_cycle(rng, 12)
            else:
                piece = cycle_graph(rng.randint(3, 7))
            ids = list(range(n, n + piece.n))
            if n and rng.random() < 0.5:  # share a vertex with the graph so far
                ids = [rng.randrange(n)] + ids[:-1]
            elif n:
                edges.append((rng.randrange(n), ids[0]))
            edges += [(ids[u], ids[v]) for u, v in piece.edges()]
            n = max(n, max(ids) + 1)
            pieces.append(ids)
        perm = list(range(n))
        rng.shuffle(perm)
        g = Graph(n, [(perm[u], perm[v]) for u, v in edges])
        expected = {}
        for ids in pieces:
            if len(ids) < 4:
                continue
            outside = (1 << n) - 1 & ~sum(1 << perm[v] for v in ids)
            for a, b in ((perm[x], perm[y]) for i, x in enumerate(ids) for y in ids[i + 1:]):
                comps = component_masks(g, outside | (1 << a) | (1 << b))
                if len(comps) >= 2:
                    bare = sum(
                        all(g.degree(v) == 2 for v in bits(c))
                        and bool(g.mask(a) & c) and bool(g.mask(b) & c)
                        for c in comps
                    )
                    expected[min(a, b), max(a, b)] = (len(comps), bare)
        assert _all_separation_pairs(g) == expected, list(g.edges())
        assert find_clique_cutset(g) == dfs_clique_cutset(g), list(g.edges())
        assert find_proper_2cutset(g) == dfs_proper_2cutset(g), list(g.edges())


def _series_parallel(rng, n):
    """A 2-connected series-parallel graph on n vertices: from a triangle,
    subdivide an edge or add a path of length 2 beside it, relabelled at
    random."""
    edges, k = [(0, 1), (1, 2), (0, 2)], 3
    while k < n:
        i = rng.randrange(len(edges))
        u, v = edges[i]
        if rng.random() < 0.5:  # subdivide uv
            edges[i] = (u, k)
            edges.append((k, v))
        else:  # a path u-k-v beside uv
            edges += [(u, k), (k, v)]
        k += 1
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _glued(rng, pieces, size):
    """Identify an edge or a triangle of each piece with one of the graph
    so far, relabelled at random."""
    n, edges = pieces[0].n, list(pieces[0].edges())
    for piece in pieces[1:]:
        if size == 3:
            host = [t for t in _all_cliques(Graph(n, edges)) if len(t) == 3]
            mine = [t for t in _all_cliques(piece) if len(t) == 3]
        else:
            host, mine = list(Graph(n, edges).edges()), list(piece.edges())
        if not host or not mine:
            continue
        shared = dict(zip(rng.choice(mine), rng.choice(host)))
        for v in range(piece.n):
            if v not in shared:
                shared[v], n = n, n + 1
        edges += [(shared[u], shared[v]) for u, v in piece.edges()]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _two_connected(g):
    return g.n >= 3 and all(len(component_masks(g, 1 << v)) == 1 for v in range(g.n))


def _mid_size_corpus():
    """Seeded 2-connected K4-free graphs with 20 to 150 vertices: 12 each of
    series-parallel graphs, ears on a cycle, line graphs of subdivided
    subcubic graphs, and the three glued along an edge or a triangle."""
    rng = random.Random(111)

    def subcubic_line_graph():
        root = _subdivided(rng, random_connected_graph(rng, rng.randint(6, 16), 0.3))
        return line_graph(root) if max(map(root.degree, range(root.n))) <= 3 else Graph(0)

    families = {
        "series-parallel": lambda: _series_parallel(rng, rng.randint(20, 150)),
        "ears": lambda: _ears_on_a_cycle(rng, rng.randint(20, 150)),
        "line": subcubic_line_graph,
    }
    pieces = {name: [] for name in families}
    for name, make in families.items():
        while len(pieces[name]) < 12:
            g = make()
            if 20 <= g.n <= 150 and _two_connected(g):
                pieces[name].append(g)
    glued = []
    while len(glued) < 12:
        parts = [rng.choice(pieces["line"]), _series_parallel(rng, rng.randint(8, 30)),
                 _ears_on_a_cycle(rng, rng.randint(8, 30))]
        g = _glued(rng, parts, 2 + len(glued) % 2)
        if g.n <= 150:
            glued.append(g)
    return [g for name in families for g in pieces[name]] + glued


def test_cutset_searches_agree_with_dfs_oracle_mid_size():
    # both searches give the same witness and sides as the searches they
    # replaced, on 2-connected graphs too large for the brute force
    graphs = _mid_size_corpus()
    hits = [0, 0]
    for g in graphs:
        assert 20 <= g.n <= 150 and find_k4(g) is None
        cut, cut2 = find_clique_cutset(g), find_proper_2cutset(g)
        assert cut == dfs_clique_cutset(g), list(g.edges())
        assert cut2 == dfs_proper_2cutset(g), list(g.edges())
        hits[0] += cut is not None
        hits[1] += cut2 is not None
    assert len(graphs) == 48 and hits == [30, 32], hits


def test_clique_cutset_found_by_spqr_after_many_candidates():
    # a cycle glued along one late edge, in no triangle, of the 3-connected
    # L(subdivided ladder): every earlier edge is a candidate that does not
    # split, so the walk looks dozens of edges up in the SPQR tree before it
    # finds the P-node edge
    core = _subdivided_ladder_line_graph(16)
    late = [(u, v) for u, v in core.edges() if u > 60 and not core.mask(u) & core.mask(v)]
    assert len(late) >= 6
    for u, v in late[:6]:
        ring = [u] + list(range(96, 104)) + [v]
        g = Graph(104, list(core.edges()) + list(zip(ring, ring[1:])))
        candidates = [e for e in g.edges() if e < (u, v) and min(map(g.degree, e)) >= 3]
        assert len(candidates) > 32
        cut = find_clique_cutset(g)
        assert cut == dfs_clique_cutset(g)
        assert cut.clique == (u, v) and cut.side_y == set(range(96, 104))


def _subdivided(rng, base):
    """Subdivide each edge of ``base`` 0-2 times and shuffle the vertex ids."""
    edges, n = [], base.n
    for u, v in base.edges():
        chain = [u] + list(range(n, n + rng.randint(0, 2))) + [v]
        n += len(chain) - 2
        edges += zip(chain, chain[1:])
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _detector_corpus(connected_corpus_8):
    graphs = [g for n in sorted(connected_corpus_8) for g in connected_corpus_8[n]]
    rng = random.Random(88)
    for _ in range(150):
        n = rng.randint(9, 40)
        graphs.append(random_connected_graph(rng, n, rng.uniform(1 / n, 6 / n)))
    for _ in range(100):
        graphs.append(random_connected_graph(rng, rng.randint(9, 16), rng.uniform(0.4, 0.8)))
    for _ in range(200):
        g = _subdivided(rng, random_connected_graph(rng, rng.randint(4, 9), rng.uniform(0.2, 0.7)))
        if g.n <= 40:
            graphs.append(g)
    return graphs


# sha256 over the K33, K222 and proper 2-cutset answers: the lex-first
# witness and the cutset sides of each detector must stay byte-identical
# when its search is pruned
_DETECTOR_DIGEST = "b66a3ba1720fcbbbc1d2ef5a4f478b15def3cbe47206e69a0ab19b6b23514b73"


def test_detector_results_pinned(connected_corpus_8):
    records, hits = [], [0, 0, 0]
    for g in _detector_corpus(connected_corpus_8):
        k33, k222, cut = find_k33(g), find_k222(g), find_proper_2cutset(g)
        record = [
            None if k33 is None else k33.to_dict(),
            None if k222 is None else k222.to_dict(),
            None if cut is None else [cut.a, cut.b, sorted(cut.side_x), sorted(cut.side_y)],
        ]
        hits = [h + (r is not None) for h, r in zip(hits, record)]
        records.append(record)
    assert hits == [277, 306, 5388]
    payload = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == _DETECTOR_DIGEST


def test_flat_path_examples():
    c5 = cycle_graph(5)
    reduced, ids = reduce_flat_path(c5, (0, 1, 2))
    assert are_isomorphic(reduced, cycle_graph(4))
    assert ids == (0, 2, 3, 4)

    k4s = subdivided_complete(4, {(0, 1): 1})
    reduced, _ = reduce_flat_path(k4s, (0, 4, 1))
    assert are_isomorphic(reduced, complete_graph(4))

    k23 = complete_multipartite(2, 3)
    reduced, _ = reduce_flat_path(k23, (0, 2, 1))
    diamond = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert are_isomorphic(reduced, diamond)


def test_reduce_flat_path_errors():
    c5 = cycle_graph(5)
    with pytest.raises(ValueError):
        reduce_flat_path(c5, (0, 1))
    with pytest.raises(ValueError):
        reduce_flat_path(complete_graph(4), (0, 1, 2))
    assert is_flat_path(c5, (0, 1, 2))
    assert not is_flat_path(complete_graph(4), (0, 1, 2))


def test_maximal_flat_paths_enumeration():
    c5 = cycle_graph(5)
    flats = maximal_flat_paths(c5)
    assert len(flats) == 5 and all(len(f) == 4 for f in flats)
    lolli = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    flats = maximal_flat_paths(lolli)
    assert set(flats) == {(0, 1, 2), (0, 3, 2), (1, 2, 3)}
    assert maximal_flat_paths(complete_graph(4)) == []
    for g in (c5, lolli, subdivided_complete(4, 1)):
        for f in maximal_flat_paths(g):
            assert is_flat_path(g, f)
            assert not _extendable(g, f)


def _extendable(g, seq):
    for flipped in (seq, tuple(reversed(seq))):
        tail = flipped[-1]
        for w in g.neighbors(tail):
            cand = flipped + (w,)
            if len(set(cand)) == len(cand) and is_flat_path(g, cand):
                return True
    return False


def test_flat_reduction_preserves_class_small(isk4_free_connected_8):
    # exhaustive check at n <= 7 here; the acceptance suite covers n = 8
    for n in range(1, 8):
        for g in isk4_free_connected_8[n]:
            for fp in maximal_flat_paths(g):
                reduced, _ = reduce_flat_path(g, fp)
                assert contains_isk4(reduced) is None, (list(g.edges()), fp)


def test_build_2cutset_blocks():
    k24 = complete_multipartite(2, 4)
    cut = find_proper_2cutset(k24)
    bx, ids_x, by, ids_y = build_2cutset_blocks(k24, cut)
    diamond = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert are_isomorphic(bx, diamond) and are_isomorphic(by, diamond)
    assert bx.n < k24.n and by.n < k24.n
    assert set(ids_x) & set(ids_y) == {cut.a, cut.b}


def test_build_2cutset_blocks_rejects_bad_cuts():
    c6 = cycle_graph(6)  # 0-1-2-3-4-5-0; {0, 3} splits it into {1, 2} and {4, 5}
    assert build_2cutset_blocks(c6, Proper2Cutset(0, 3, frozenset({1, 2}), frozenset({4, 5})))
    bad = [
        (Proper2Cutset(0, 1, frozenset({2, 3}), frozenset({4, 5})), "adjacent"),
        (Proper2Cutset(0, 3, frozenset({1, 2, 4, 5}), frozenset()), "non-empty"),
        (Proper2Cutset(0, 3, frozenset({1, 2}), frozenset({4})), "partition"),
        (Proper2Cutset(0, 3, frozenset({1, 2, 4}), frozenset({4, 5})), "partition"),
        (Proper2Cutset(0, 3, frozenset({1, 4}), frozenset({2, 5})), "crosses"),
    ]
    for cut, message in bad:
        with pytest.raises(ValueError, match=message):
            build_2cutset_blocks(c6, cut)


def test_blocks_always_shrink(all_graphs_7):
    from isk4color.graph import is_connected

    for n in range(4, 8):
        for g in all_graphs_7[n]:
            if not is_connected(g):
                continue
            cut = find_proper_2cutset(g)
            if cut is None:
                continue
            for block, ids in zip(*[iter(build_2cutset_blocks(g, cut))] * 2):
                assert block.n < g.n
                # the marker edge joins the two cut vertices inside the block
                pos = {v: i for i, v in enumerate(ids)}
                assert block.has_edge(pos[cut.a], pos[cut.b])


def test_merge_colorings_permutations():
    # blocks sharing one clique vertex
    g = path_graph(3)  # blocks {0,1} and {1,2}
    b1, ids1 = induced_subgraph(g, [0, 1])
    b2, ids2 = induced_subgraph(g, [1, 2])
    c1 = Coloring((0, 2), 3)
    c2 = Coloring((0, 1), 3)
    merged = merge_colorings(g, c1, ids1, c2, ids2, [1])
    assert is_proper_coloring(g, merged)
    assert merged.assignment[1] == 2  # c2 got permuted to agree with c1

    # identical colorings on the shared set use the identity permutation
    merged2 = merge_colorings(g, c1, ids1, Coloring((2, 0), 3), ids2, [1])
    assert merged2.assignment == (0, 2, 0)


def test_merge_colorings_error_cases():
    g = cycle_graph(4)
    b1, ids1 = induced_subgraph(g, [0, 1, 2])
    b2, ids2 = induced_subgraph(g, [0, 2, 3])
    with pytest.raises(ValueError):
        # shared pair {0, 2} colored equal in block 1: not rainbow
        merge_colorings(g, Coloring((0, 1, 0), 2), ids1, Coloring((0, 1, 2), 3), ids2, [0, 2])
    with pytest.raises(ValueError):
        # palette smaller than the overlap
        merge_colorings(g, Coloring((0, 0, 0), 1), ids1, Coloring((0, 0, 0), 1), ids2, [0, 2])


def test_merge_colorings_random_clique_splits():
    rng = random.Random(23)
    hits = 0
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(4, 10), 0.3)
        cliques = [c for c in _all_cliques(g) if len(_components_minus(g, c)) >= 2]
        if not cliques:
            continue
        hits += 1
        clique = cliques[rng.randrange(len(cliques))]
        comps = _components_minus(g, clique)
        side = set(comps[0])
        rest = set().union(*comps[1:])
        b1, ids1 = induced_subgraph(g, side | set(clique))
        b2, ids2 = induced_subgraph(g, rest | set(clique))
        merged = merge_colorings(
            g, greedy_coloring(b1), ids1, greedy_coloring(b2), ids2, clique
        )
        assert is_proper_coloring(g, merged)
        assert merged.palette_size == max(greedy_coloring(b1).palette_size,
                                          greedy_coloring(b2).palette_size)
    assert hits > 50


def _all_cliques(g):
    out = [(v,) for v in range(g.n)]
    out += [e for e in g.edges()]
    for a, b in g.edges():
        for c in range(b + 1, g.n):
            if g.has_edge(a, c) and g.has_edge(b, c):
                out.append((a, b, c))
    return out


def _components_minus(g, verts):
    sub, ids = induced_subgraph(g, set(range(g.n)) - set(verts))
    return [frozenset(ids[v] for v in c) for c in connected_components(sub)]
