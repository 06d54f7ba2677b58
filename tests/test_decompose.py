import hashlib
import json
import random

import pytest

from isk4color.graph import (
    Graph,
    Coloring,
    connected_components,
    greedy_coloring,
    induced_subgraph,
    is_connected,
    is_proper_coloring,
)
from isk4color.families import (
    complete_graph,
    complete_multipartite,
    cycle_graph,
    line_graph,
    path_graph,
    random_connected_graph,
    subdivided_complete,
)
from isk4color.decompose import (
    build_2cutset_blocks,
    find_clique_cutset,
    find_proper_2cutset,
    is_flat_path,
    maximal_flat_paths,
    merge_colorings,
    reduce_flat_path,
)
from isk4color.oracle import are_isomorphic, contains_isk4
from isk4color.patterns import find_k4, find_k222, find_k33

from reference import (
    _ref_components,
    ref_clique_cutset,
    ref_is_proper_2cutset,
    ref_proper_2cutset,
)


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
    from isk4color.families import theta_graph

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
    assert len(flats) == 5 and all(len(f.vertices) == 4 for f in flats)
    lolli = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    flats = maximal_flat_paths(lolli)
    assert {f.vertices for f in flats} == {(0, 1, 2), (0, 3, 2), (1, 2, 3)}
    assert maximal_flat_paths(complete_graph(4)) == []
    for g in (c5, lolli, subdivided_complete(4, 1)):
        for f in maximal_flat_paths(g):
            assert is_flat_path(g, f.vertices)
            assert not _extendable(g, f.vertices)


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
                assert contains_isk4(reduced) is None, (list(g.edges()), fp.vertices)


def test_build_2cutset_blocks():
    k24 = complete_multipartite(2, 4)
    cut = find_proper_2cutset(k24)
    bx, ids_x, by, ids_y = build_2cutset_blocks(k24, cut)
    diamond = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert are_isomorphic(bx, diamond) and are_isomorphic(by, diamond)
    assert bx.n < k24.n and by.n < k24.n
    assert set(ids_x) & set(ids_y) == {cut.a, cut.b}


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
