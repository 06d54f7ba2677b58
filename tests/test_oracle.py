import hashlib
import random
from itertools import combinations

import pytest

from isk4color.graph import Graph, girth, induced_subgraph, mask_of
from isk4color import oracle
from isk4color.oracle import (
    HEREDITARY_CLASSES,
    SizeLimitError,
    _levels,
    are_isomorphic,
    canonical_form,
    chromatic_number_exact,
    classify_hole_attachment,
    contains_isk4,
    enumerate_graphs,
    verify_layer_forests,
)
from isk4color.colorers import color_general, greedy_fallback
from isk4color.families import path_graph
from isk4color.patterns import find_triangle
from builders import (
    complete_graph,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    line_graph,
    petersen,
    prism_graph,
    random_graph,
    subdivided_complete,
)
from reference import (
    canonical_graph,
    contains_isk4_anchored,
    ref_contains_isk4,
    ref_induces_isk4,
    ref_isk4_vertex_sets,
    ref_isomorphic,
    ref_labeled_connected_classes,
    ref_labeled_iso_classes,
    ref_min_encoding,
    ref_refine,
    ref_twin_normal_form,
)


def test_contains_isk4_examples():
    w = contains_isk4(complete_graph(4))
    assert w is not None and w.vertices == frozenset(range(4))
    assert len(w.paths) == 6
    for n in range(3, 10):
        assert contains_isk4(cycle_graph(n)) is None
    w = contains_isk4(petersen())
    assert w is not None
    # subdivisions of K4 themselves are witnesses
    for times in (0, 1, 2):
        g = subdivided_complete(4, times)
        w = contains_isk4(g)
        assert w is not None and w.vertices == frozenset(range(g.n))


def test_contains_isk4_rejects_thetas():
    from builders import theta_graph

    assert contains_isk4(theta_graph(2, 2, 2)) is None


def test_contains_isk4_size_limit():
    big = Graph(17)
    with pytest.raises(SizeLimitError):
        contains_isk4(big)
    assert contains_isk4(big, limit=None) is None


def test_isk4_witness_is_minimum_size():
    g = disjoint_union(complete_graph(4), subdivided_complete(4, 1))
    w = contains_isk4(g)
    assert len(w.vertices) == 4


def test_isk4_witness_matches_the_full_sweep(all_graphs_7):
    # the search finds a witness exactly when some vertex set induces a K4
    # subdivision, and its witness is one of the sets the full sweep finds
    for n in range(1, 8):
        for g in all_graphs_7[n]:
            sets = ref_isk4_vertex_sets(g)
            w = contains_isk4(g)
            assert (w is None) == (not sets), list(g.edges())
            if w is not None:
                assert mask_of(w.vertices) in sets, list(g.edges())


def test_isk4_through_agrees_with_reference(all_graphs_7):
    # the enumeration asks only whether an ISK4 passes through the new
    # vertex v of a graph whose parent g - v is ISK4-free; then every
    # witness of g must pass through v. Deleting v decides g - v, and when
    # that is free, g holds an ISK4 exactly when some set through v does
    for n in range(1, 8):
        for g in all_graphs_7[n]:
            sets = ref_isk4_vertex_sets(g)
            w = contains_isk4(g)
            for v in range(g.n):
                h, _ = induced_subgraph(g, ((1 << g.n) - 1) & ~(1 << v))
                avoiding = [s for s in sets if not s >> v & 1]
                assert (contains_isk4(h) is None) == (not avoiding), (list(g.edges()), v)
                if not avoiding:
                    assert (w is None) == (not sets), (list(g.edges()), v)
                    if w is not None:
                        assert v in w.vertices, (list(g.edges()), v)


def test_isk4_verdicts_match_the_reference_sweep_n8(connected_corpus_8):
    for graphs in connected_corpus_8.values():
        for g in graphs:
            assert (contains_isk4(g) is None) == (ref_contains_isk4(g) is None), list(g.edges())


def test_isk4_verdicts_on_seeded_random_graphs():
    # every odd graph plants a subdivided K4 on random vertices; no other
    # edge joins two of them, so the planted set stays induced
    rng = random.Random(26)
    found = []
    for i in range(100):
        if i % 2:
            k4 = subdivided_complete(4, {e: rng.randint(0, 1) for e in combinations(range(4), 2)})
            n = rng.randint(max(9, k4.n), 14)
            place = rng.sample(range(n), k4.n)
            edges = {tuple(sorted((place[u], place[v]))) for u, v in k4.edges()}
            edges |= {e for e in combinations(range(n), 2)
                      if not (e[0] in place and e[1] in place) and rng.random() < 0.2}
            g = Graph(n, edges)
        else:
            g = random_graph(rng, rng.randint(9, 14), 0.25)
        w = contains_isk4(g)
        assert (w is None) == (ref_contains_isk4(g) is None), list(g.edges())
        if w is not None:
            assert ref_induces_isk4(g, mask_of(w.vertices)), list(g.edges())
        found.append(w is not None)
    # 25 of the 50 unplanted graphs are ISK4-free
    assert all(found[1::2]) and found[::2].count(False) == 25


def test_isk4_implementations_agree(all_graphs_7, isk4_free_7):
    for n in range(1, 8):
        free = set(isk4_free_7[n])
        for g in all_graphs_7[n]:
            assert (g in free) == (contains_isk4_anchored(g) is None), list(g.edges())


def test_inherited_isk4_verdicts_match_the_full_sweep(
    all_levels_7, isk4_free_7, connected_levels_8, isk4_free_connected_8,
):
    free_7 = {g for graphs in isk4_free_7.values() for g in graphs}
    free_8 = {g for graphs in isk4_free_connected_8.values() for g in graphs}
    streams = [(all_levels_7, free_7), (connected_levels_8, free_8)]
    for hereditary in HEREDITARY_CLASSES:
        # the pruned streams draw their verdicts from pruned parents
        for connected, n, free in ((False, 7, free_7), (True, 8, free_8)):
            levels = _levels(n, connected=connected, hereditary=hereditary, isk4=True)
            streams.append(({k: list(pairs) for k, pairs in enumerate(levels, 1)}, free))
    for levels, free in streams:
        for pairs in levels.values():
            for g, holds in pairs:
                assert holds == (g not in free), list(g.edges())


def test_chromatic_examples():
    assert chromatic_number_exact(cycle_graph(5)) == 3
    assert chromatic_number_exact(complete_multipartite(3, 3)) == 2
    assert chromatic_number_exact(complete_multipartite(2, 2, 2)) == 3
    assert chromatic_number_exact(Graph(0)) == 0
    assert chromatic_number_exact(Graph(3)) == 1
    assert chromatic_number_exact(complete_graph(7)) == 7
    assert chromatic_number_exact(petersen()) == 3
    with pytest.raises(SizeLimitError):
        chromatic_number_exact(Graph(20))


def test_chromatic_number_of_a_long_path_within_the_recursion_limit():
    # the search keeps its own stack: one frame per vertex would overflow.
    # On a long odd cycle the 2-coloring fails only at the last vertex and
    # backs out of every frame; a long path needs no search, since its
    # greedy palette is already 2
    assert chromatic_number_exact(cycle_graph(3001), limit=None) == 3


def test_canonical_form_of_a_long_path_within_the_recursion_limit():
    # the labeling search keeps its own stack: one frame per position
    g = path_graph(1500)
    perm = list(range(g.n))
    random.Random(3).shuffle(perm)
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    key = canonical_form(g)
    assert canonical_form(h) == key and sum(r.bit_count() for r in key[1]) == g.n - 1


def test_chromatic_against_greedy_random():
    rng = random.Random(41)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.8))
        chi = chromatic_number_exact(g)
        greedy = greedy_fallback(g)
        assert chi <= greedy.palette_size
        if g.n:
            assert chi >= 1


def test_chromatic_lower_bounds_every_palette(all_graphs_7):
    for n in range(1, 8):
        for g in all_graphs_7[n]:
            chi = chromatic_number_exact(g)
            assert chi <= greedy_fallback(g).palette_size
            r = color_general(g, mode="tolerant")
            assert chi <= r.coloring.palette_size


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_graphs(1)) == 1
    assert sum(1 for _ in enumerate_graphs(4)) == 11 == ref_labeled_iso_classes(4)
    assert sum(1 for _ in enumerate_graphs(5, connected=True)) == 21 == ref_labeled_connected_classes(5)
    assert sum(1 for _ in enumerate_graphs(5)) == 34 == ref_labeled_iso_classes(5)
    assert sum(1 for _ in enumerate_graphs(7)) == 1044
    with pytest.raises(SizeLimitError):
        list(enumerate_graphs(10))


def _stream_digest(corpus) -> str:
    h = hashlib.sha256()
    for n in sorted(corpus):
        for g in corpus[n]:
            h.update(repr(g._adj).encode())
    return h.hexdigest()


def test_enumeration_stream_is_pinned(all_graphs_7, connected_corpus_8):
    # the exact yielded sequence: counts per order and the adjacency masks
    # of every representative, in order
    assert [len(all_graphs_7[n]) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
    assert [len(connected_corpus_8[n]) for n in range(1, 9)] == [1, 1, 2, 6, 21, 112, 853, 11117]
    assert _stream_digest(all_graphs_7) == "05503197f51ca9ded9d3167967de5180a5a7df63a5e6674ee70d593710cfbad1"
    assert _stream_digest(connected_corpus_8) == "32fe44cfd2d50d44ff9a9de7b40ff8daf0f8208076b3d7568e4e18fe8543eae4"


def test_enumeration_triangle_free_variant():
    # a hereditary class yields exactly the filtered full stream, in order
    members = {"triangle-free": lambda g: find_triangle(g) is None, "girth5": lambda g: girth(g) >= 5}
    for connected in (False, True):
        for n in range(1, 8):
            full = list(enumerate_graphs(n, connected=connected))
            for name, member in members.items():
                pruned = list(enumerate_graphs(n, connected=connected, hereditary=name))
                assert pruned == [g for g in full if member(g)], (name, connected, n)


def test_enumeration_canonicalises_few_extensions(monkeypatch):
    # an extension is canonicalised only when no deletable vertex beats the
    # new one by (degree, sum of neighbour degrees), and each parent tries
    # one mask per twin-swap orbit: 1,356 of the 7,815 connected extensions
    # up to n = 7 (1,701 with every mask tried, 2,173 by degree alone)
    calls = 0
    min_encoding = oracle._min_encoding

    def counted(masks):
        nonlocal calls
        calls += 1
        return min_encoding(masks)

    monkeypatch.setattr(oracle, "_min_encoding", counted)
    assert sum(1 for _ in enumerate_graphs(7, connected=True)) == 853
    assert calls <= 1_356


def test_candidates_reach_the_same_classes():
    # per parent, the pruned masks reach the classes that every mask of
    # range(lo, 2^k) reaches, each first through the same mask; a dropped
    # mask is outranked or a twin swap of a kept one
    for connected in (False, True):
        lo = 1 if connected else 0
        for hereditary in (None, *HEREDITARY_CLASSES):
            keep = oracle._EXTENSION_FILTERS.get(hereditary)
            for parents in _levels(6, connected=connected, hereditary=hereditary):
                for parent, _ in parents:
                    masks = parent._adj
                    k = len(masks)
                    every = [m for m in range(lo, 1 << k) if keep is None or keep(masks, m)]
                    kept = oracle._candidates(masks, lo, connected)
                    assert kept == sorted(set(kept)) and set(kept) <= set(range(lo, 1 << k))
                    accepted = {}  # mask -> class of its child, when not outranked
                    for m in every:
                        child = [a | (m >> v & 1) << k for v, a in enumerate(masks)] + [m]
                        if not oracle._outranked(child, connected):
                            accepted[m] = ref_min_encoding(tuple(child))
                    firsts = [{}, {}]
                    for m, rows in accepted.items():
                        firsts[0].setdefault(rows, m)
                        if m in kept:
                            firsts[1].setdefault(rows, m)
                    assert firsts[0] == firsts[1], (list(parent.edges()), connected, hereditary)
                    for m in accepted.keys() - set(kept):
                        assert ref_twin_normal_form(masks, m) in kept


def test_min_encoding_agrees_with_reference(all_graphs_7, connected_corpus_8):
    graphs = [g for graphs in all_graphs_7.values() for g in graphs] + connected_corpus_8[8]
    rng = random.Random(31)
    for _ in range(1_000):
        g = random_graph(rng, rng.randint(9, 16), rng.uniform(0.1, 0.9))
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
    discrete = [max(oracle._refine(g._adj)) == g.n - 1 for g in graphs[-1_000:]]
    assert 0 < sum(discrete) < len(discrete)
    for g in graphs:
        assert oracle._min_encoding(g._adj) == ref_min_encoding(g._adj), list(g.edges())


def test_refine_agrees_with_reference(all_graphs_7, connected_corpus_8):
    # _refine stops early once the partition is discrete; the reference
    # always runs until the class count stops growing
    graphs = [g for graphs in all_graphs_7.values() for g in graphs] + connected_corpus_8[8]
    rng = random.Random(29)
    for _ in range(2_000):
        g = random_graph(rng, rng.randint(0, 9), rng.uniform(0.1, 0.9))
        graphs.append(g)
    for _ in range(1_000):
        g = random_graph(rng, rng.randint(9, 16), rng.uniform(0.1, 0.9))
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
    for g in graphs:
        assert oracle._refine(g._adj) == ref_refine(g._adj), list(g.edges())


def test_enumeration_rejects_unknown_hereditary_class():
    with pytest.raises(ValueError):
        list(enumerate_graphs(4, hereditary="planar"))


def test_enumeration_yields_distinct_classes():
    graphs = list(enumerate_graphs(5))
    for a, b in combinations(graphs, 2):
        assert not ref_isomorphic(a, b)


def test_canonical_form_invariance():
    rng = random.Random(13)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.9))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_form(g) == canonical_form(h)
        assert are_isomorphic(g, h)
        assert ref_isomorphic(canonical_graph(g), g)
    assert not are_isomorphic(cycle_graph(6), disjoint_union(complete_graph(3), complete_graph(3)))
    assert canonical_form(Graph(0)) == (0, ()) and are_isomorphic(Graph(0), Graph(0))


def test_classify_hole_attachment_examples():
    # case 3: one two-neighbor attacher separating two single attachers
    c4 = cycle_graph(4)
    g = Graph(7, list(c4.edges()) + [(4, 0), (4, 2), (5, 1), (6, 3)])
    res = classify_hole_attachment(g, (0, 1, 2, 3), (4, 5, 6))
    assert res is not None and res.output_case == 3

    # case 1: private single attachments all around a C5
    c5 = cycle_graph(5)
    g = Graph(10, list(c5.edges()) + [(5 + i, i) for i in range(5)])
    res = classify_hole_attachment(g, (0, 1, 2, 3, 4), (5, 6, 7, 8, 9))
    assert res is not None and res.output_case == 1

    # a universal attacher matches no case
    g = Graph(5, list(c4.edges()) + [(4, 0), (4, 1), (4, 2), (4, 3)])
    assert classify_hole_attachment(g, (0, 1, 2, 3), (4,)) is None


def test_classify_hole_attachment_case2():
    # three single attachers at pairwise non-adjacent points; the remaining
    # hole vertices are covered by two-neighbor attachers
    c6 = cycle_graph(6)
    extra = [(6, 0), (7, 2), (8, 4), (9, 1), (9, 2), (10, 3), (10, 4), (11, 5), (11, 0)]
    g = Graph(12, list(c6.edges()) + extra)
    res = classify_hole_attachment(g, tuple(range(6)), (6, 7, 8, 9, 10, 11))
    assert res is not None and res.output_case == 2
    assert res.hole_vertices == (0, 2, 4)


def test_classify_hole_attachment_reads_the_hole_in_order():
    # the hole C6 with single attachers at 0, 2 and 4, and 9 at 1, 3 and 5:
    # case 2 from any start and in either direction; its vertex set in
    # another order is no walk around it
    g = Graph(10, list(cycle_graph(6).edges()) + [(6, 0), (7, 2), (8, 4), (9, 1), (9, 3), (9, 5)])
    for hole in ((0, 1, 2, 3, 4, 5), (3, 4, 5, 0, 1, 2), (0, 5, 4, 3, 2, 1), (4, 3, 2, 1, 0, 5)):
        res = classify_hole_attachment(g, hole, (6, 7, 8, 9))
        assert res is not None and res.output_case == 2 and res.attachers == (6, 7, 8)
    with pytest.raises(ValueError, match="in this order"):
        classify_hole_attachment(g, (0, 2, 4, 1, 3, 5), (6, 7, 8, 9))


def test_classify_hole_attachment_preconditions():
    c4 = cycle_graph(4)
    g = Graph(6, list(c4.edges()) + [(4, 0), (5, 2)])
    with pytest.raises(ValueError):
        classify_hole_attachment(g, (0, 1, 2), (4,))  # not a hole
    with pytest.raises(ValueError):
        classify_hole_attachment(g, (0, 1, 2, 3), (0, 4))  # intersects the hole
    with pytest.raises(ValueError):
        classify_hole_attachment(g, (0, 1, 2, 3), (4,))  # does not dominate
    g2 = Graph(6, list(c4.edges()) + [(4, 0), (4, 5)])
    with pytest.raises(ValueError):
        classify_hole_attachment(g2, (0, 1, 2, 3), (5,))  # attacher off the hole


def test_classify_hole_attachment_sampled_path():
    # wide C4 attachment: more than 12 attachers triggers sampling upstream;
    # the classifier itself just sees one subset at a time
    c4 = cycle_graph(4)
    edges = list(c4.edges()) + [(4 + i, i % 4) for i in range(14)]
    g = Graph(18, edges)
    subset = tuple(range(4, 8))
    res = classify_hole_attachment(g, (0, 1, 2, 3), subset)
    assert res is not None and res.output_case == 1


def test_verify_layer_forests():
    assert verify_layer_forests(cycle_graph(6)) is None
    assert verify_layer_forests(cycle_graph(5)) is None
    w = verify_layer_forests(complete_graph(4))
    assert w is not None and w.layer == 1 and len(w.cycle) == 3


def test_line_graphs_of_cubic_are_isk4_free():
    lp = line_graph(petersen())
    # n = 15 exceeds the default sweep cap; lift it explicitly
    assert contains_isk4(lp, limit=None) is None
    assert contains_isk4(line_graph(complete_graph(4))) is None
    assert contains_isk4(prism_graph()) is None
