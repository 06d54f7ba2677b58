"""Stress the colorers past the exhaustive corpus with structured families
that are ISK4-free for classical reasons: series-parallel graphs (no K4
subdivision even as a subgraph) and line graphs of subcubic graphs."""

import random

from isk4color.colorers import BOUND_GENERAL, color_general, color_triangle_free
from isk4color.decompose import find_clique_cutset
from isk4color.graph import Graph, is_connected, is_proper_coloring
from isk4color.oracle import contains_isk4
from isk4color.patterns import find_triangle

from builders import cycle_graph, line_graph


def series_parallel(rng, ops):
    """Random two-terminal series/parallel composition with ``ops`` steps."""
    edges = [(0, 1)]
    n = 2
    s, t = 0, 1
    for _ in range(ops):
        u, v = edges[rng.randrange(len(edges))]
        if rng.random() < 0.5:
            edges.append((u, v))  # parallel duplicate, deduped by Graph
        else:
            edges.remove((u, v))
            edges.append((u, n))
            edges.append((n, v))
            n += 1
    return Graph(n, edges), s, t


def test_series_parallel_graphs_color_within_bound():
    rng = random.Random(404)
    checked = 0
    for _ in range(60):
        g, _, _ = series_parallel(rng, rng.randint(4, 24))
        if g.n > 26 or not is_connected(g):
            continue
        if g.n <= 16:
            assert contains_isk4(g) is None
        result = color_general(g, mode="strict")
        assert result.violations == []
        assert result.coloring.palette_size <= 24
        assert is_proper_coloring(g, result.coloring)
        if find_triangle(g) is None:
            tf = color_triangle_free(g, mode="strict")
            assert tf.violations == [] and tf.coloring.palette_size <= 4
        checked += 1
    assert checked >= 40


def _random_subcubic_connected(rng, n):
    """Random path backbone plus extra edges that respect max degree 3."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set(tuple(sorted(p)) for p in zip(order, order[1:]))
    deg = {v: 0 for v in range(n)}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    for _ in range(2 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        e = (min(u, v), max(u, v))
        if u != v and e not in edges and deg[u] < 3 and deg[v] < 3:
            edges.add(e)
            deg[u] += 1
            deg[v] += 1
    return Graph(n, sorted(edges))


def test_line_graphs_of_random_subcubic_color_within_bound():
    rng = random.Random(405)
    checked = 0
    for _ in range(40):
        root = _random_subcubic_connected(rng, rng.randint(5, 12))
        lg = line_graph(root)
        if lg.n == 0 or not is_connected(lg):
            continue
        result = color_general(lg, mode="strict")
        assert result.violations == []
        assert result.coloring.palette_size <= 24
        assert is_proper_coloring(lg, result.coloring)
        checked += 1
    assert checked >= 35


def _subdivided_ladder_line_graph(k):
    """L(circular ladder with k rungs, every edge subdivided): 6k vertices,
    3-connected, with no cutset of either kind."""
    ladder = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    ladder += [(i, k + i) for i in range(k)]
    return line_graph(Graph(5 * k, [(x, 2 * k + j) for j, e in enumerate(ladder) for x in e]))


def test_line_graphs_of_subdivided_ladders_color_as_line_graphs():
    # no cutset and many induced prisms, so the trigger fires and the root
    # is recognized
    for k in (8, 16):
        lg = _subdivided_ladder_line_graph(k)
        assert lg.n == 6 * k
        result = color_general(lg, mode="strict")
        assert result.violations == []
        assert is_proper_coloring(lg, result.coloring)
        assert result.coloring.palette_size <= 4
        assert result.trace[0]["rule"] == "line_graph_subcubic"


def test_long_cycle_colors_in_both_colorers():
    # a long cycle has no cutset of either kind, so both colorers run every
    # detector on the whole cycle before they layer it
    for colorer, n, bound in ((color_triangle_free, 2240, 4), (color_general, 1000, 24)):
        g = cycle_graph(n)
        result = colorer(g, mode="strict")
        assert result.violations == []
        assert is_proper_coloring(g, result.coloring)
        assert result.coloring.palette_size <= bound


def test_first_clique_cutset_of_glued_cycles():
    # C_1200 with the chord {400, 800}: two cycles glued along an edge.  With
    # the chord {401, 800} too, two cycles glued along the triangle
    # {400, 401, 800}, whose edge {400, 401} does not split.  Neither graph
    # has a cut vertex, and every earlier clique leaves it connected.
    ring = list(cycle_graph(1200).edges())
    outer = set(range(400)) | set(range(801, 1200))
    for chords, clique, inner, colorers in (
        ([(400, 800)], (400, 800), set(range(401, 800)),
         ((color_general, 24), (color_triangle_free, 4))),
        ([(400, 800), (401, 800)], (400, 401, 800), set(range(402, 800)),
         ((color_general, 24),)),
    ):
        g = Graph(1200, ring + chords)
        cut = find_clique_cutset(g)
        assert (cut.clique, cut.side_x, cut.side_y) == (clique, outer, inner)
        for colorer, bound in colorers:
            result = colorer(g, mode="strict")
            assert result.violations == []
            assert result.trace[0]["clique"] == list(clique)
            assert is_proper_coloring(g, result.coloring)
            assert result.coloring.palette_size <= bound


def test_thick_multipartite_families():
    from builders import complete_multipartite

    for parts in [(3, 3), (4, 7), (3, 3, 3), (2, 5, 6), (1, 1, 9)]:
        g = complete_multipartite(*parts)
        result = color_general(g, mode="strict")
        assert result.violations == []
        assert result.coloring.palette_size <= len(parts)
        assert is_proper_coloring(g, result.coloring)


# Three large inputs for the SPQR pass that both cutset searches share: a
# single S-node, a single R-node, and a tree of many P- and S-nodes.  Each
# colors in about a second in strict mode.


def _assert_strict_general(g):
    result = color_general(g, mode="strict")
    assert result.violations == []
    assert is_proper_coloring(g, result.coloring)
    assert result.coloring.palette_size <= BOUND_GENERAL
    return result


def test_cycle_of_10000_colors_in_general_colorer():
    _assert_strict_general(cycle_graph(10000))


def test_line_graph_of_3072_vertices_colors_as_line_graph():
    lg = _subdivided_ladder_line_graph(512)
    assert lg.n == 3072
    result = _assert_strict_general(lg)
    assert result.trace[0]["rule"] == "line_graph_subcubic"


def test_series_parallel_graph_of_2000_vertices_colors_in_general_colorer():
    g, _, _ = series_parallel(random.Random(2), 4000)
    assert g.n == 1977
    rules = {entry["rule"] for entry in _assert_strict_general(g).trace}
    assert {"clique_cutset", "proper_2cutset"} <= rules
