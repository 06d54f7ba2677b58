import hashlib
import json
import random
from itertools import combinations

import pytest

from isk4color.graph import Graph, Coloring, Layering, bfs_layering, is_connected, is_proper_coloring
from isk4color.families import path_graph
from isk4color.suites import random_connected_graph
from isk4color.layering import (
    classify_confluence,
    combine_layer_colorings,
    find_confluence,
    upstairs_path,
)
from isk4color.patterns import find_triangle
from builders import complete_graph, cycle_graph
from reference import ref_confluence_is_minimal
from suite_helpers import validate_upstairs

# sha256 of the JSON list of confluence results over the exhaustive n <= 6
# corpus; a change to either list of results must be deliberate
CLASSIFY_DIGEST = "4e5d79ff366c24705f2a4281f320ca4ff7594a32871a47f7b9e9a5f89cd0fec8"
FIND_DIGEST = "ab81ac1c20035310f6ea4a8f4cb5d5242187bb072b784a9a158fc44b164d9f0e"


def test_upstairs_examples():
    c6 = cycle_graph(6)
    assert upstairs_path(c6, bfs_layering(c6, 0), 2, 2, 4) == [2, 1, 0, 5, 4]
    c5 = cycle_graph(5)
    assert upstairs_path(c5, bfs_layering(c5, 0), 2, 2, 3) == [2, 3]
    c4 = cycle_graph(4)
    assert upstairs_path(c4, bfs_layering(c4, 0), 1, 1, 3) == [1, 0, 3]


def test_upstairs_errors():
    c6 = cycle_graph(6)
    lay = bfs_layering(c6, 0)
    with pytest.raises(ValueError):
        upstairs_path(c6, lay, 2, 1, 4)  # 1 is not in layer 2
    with pytest.raises(ValueError):
        upstairs_path(c6, lay, 2, 2, 2)  # not distinct
    with pytest.raises(ValueError):
        upstairs_path(c6, lay, 9, 2, 4)


def test_upstairs_random_graphs():
    rng = random.Random(5)
    for _ in range(150):
        g = random_connected_graph(rng, rng.randint(4, 30), rng.uniform(0.05, 0.5))
        root = rng.randrange(g.n)
        lay = bfs_layering(g, root)
        for i, layer in enumerate(lay.layers):
            if i == 0 or len(layer) < 2:
                continue
            verts = sorted(layer)
            x, y = rng.sample(verts, 2)
            path = upstairs_path(g, lay, i, x, y)
            assert validate_upstairs(g, lay, i, x, y, path) is None


@pytest.mark.parametrize("leg", [2, 8])
def test_confluence_spider(leg):
    # three legs of ``leg`` edges on the root 0; leg k is k*leg+1 .. k*leg+leg
    edges = [(k * leg + j - 1 if j > 1 else 0, k * leg + j) for k in range(3) for j in range(1, leg + 1)]
    spider = Graph(3 * leg + 1, edges)
    tips = tuple(k * leg + leg for k in range(3))
    conf = find_confluence(spider, bfs_layering(spider, 0), leg, *tips)
    assert conf.kind == 1 and conf.center == 0
    assert classify_confluence(spider, conf.vertices, tips) is not None


def test_confluence_rejects_inconsistent_layering():
    # a hand-built layering: 2 and 3 sit in layer 1 but no edge joins them to 0
    g = Graph(4, [(0, 1)])
    lay = Layering(0, (frozenset({0}), frozenset({1, 2, 3})))
    with pytest.raises(ValueError, match="layering is inconsistent"):
        find_confluence(g, lay, 1, 1, 2, 3)


def test_confluence_triangle_tips():
    g = complete_graph(4)  # root 0 adjacent to the triangle 1,2,3
    lay = bfs_layering(g, 0)
    conf = find_confluence(g, lay, 1, 1, 2, 3)
    assert conf.kind == 2 and tuple(sorted(conf.center)) == (1, 2, 3)
    assert all(len(p) == 1 for p in conf.paths)


def test_classify_confluence_examples():
    spider = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert classify_confluence(spider, range(7), (2, 4, 6)).kind == 1
    tri_paths = Graph(
        6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)]
    )  # triangle 0,1,2 with pendants
    conf = classify_confluence(tri_paths, range(6), (3, 4, 5))
    assert conf is not None and conf.kind == 2
    # an extra chord breaks the structure
    chord = Graph(6, list(tri_paths.edges()) + [(3, 4)])
    assert classify_confluence(chord, range(6), (3, 4, 5)) is None
    # a path through all three tips is a center-at-tip confluence
    p = path_graph(5)
    conf = classify_confluence(p, range(5), (0, 2, 4))
    assert conf is not None and conf.kind == 1 and conf.center == 2


def test_classify_requires_exact_vertex_set():
    spider = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    # vertex 6 dangles outside the three tip paths for tips (2, 4, 5)
    assert classify_confluence(spider, range(7), (2, 4, 5)) is None


def test_confluence_type1_in_triangle_free(all_graphs_7):
    rng = random.Random(9)
    for n in range(4, 8):
        for g in all_graphs_7[n]:
            if find_triangle(g) is not None:
                continue
            for root in range(g.n):
                lay = bfs_layering(g, root)
                for i, layer in enumerate(lay.layers):
                    if i == 0 or len(layer) < 3:
                        continue
                    verts = sorted(layer)[:3]
                    conf = find_confluence(g, lay, i, *verts)
                    assert conf.kind == 1
                    assert classify_confluence(g, conf.vertices, tuple(verts)) is not None
                    assert ref_confluence_is_minimal(g, conf.vertices, tuple(verts))


def test_combine_layer_colorings_examples():
    c6 = cycle_graph(6)
    lay = bfs_layering(c6, 0)
    per = [Coloring((0,), 1), Coloring((0, 0), 1), Coloring((0, 0), 1), Coloring((0,), 1)]
    combined = combine_layer_colorings(c6, lay, per)
    assert combined.palette_size == 2 and is_proper_coloring(c6, combined)

    # palette arithmetic only depends on declared palette sizes
    p4 = path_graph(4)
    lay4 = bfs_layering(p4, 0)
    per4 = [Coloring((0,), 1), Coloring((0,), 3), Coloring((1,), 3), Coloring((0,), 2)]
    combined4 = combine_layer_colorings(p4, lay4, per4)
    assert combined4.palette_size == 6  # max odd 3 plus max even 3
    assert is_proper_coloring(p4, combined4)

    single = Graph(1)
    lay1 = bfs_layering(single, 0)
    assert combine_layer_colorings(single, lay1, [Coloring((0,), 1)]).palette_size == 1


def test_combine_layer_colorings_errors():
    c6 = cycle_graph(6)
    lay = bfs_layering(c6, 0)
    bad = [Coloring((0,), 1), Coloring((0, 0), 1), Coloring((0, 0), 1)]
    with pytest.raises(ValueError):
        combine_layer_colorings(c6, lay, bad)  # wrong layer count
    g2 = Graph(7, list(c6.edges()))  # vertex 6 is outside the layering
    with pytest.raises(ValueError):
        combine_layer_colorings(
            g2, lay, [Coloring((0,), 1), Coloring((0, 0), 1), Coloring((0, 0), 1), Coloring((0,), 1)]
        )
    tri = complete_graph(3)
    lay_t = bfs_layering(tri, 0)
    with pytest.raises(ValueError):
        combine_layer_colorings(
            tri, lay_t, [Coloring((0,), 1), Coloring((0, 0), 1)]
        )  # layer {1,2} is an edge; the single color is not proper


def _build_confluence_graph(rng, kind):
    """Construct a literal confluence as a standalone graph; returns the
    graph, the tips, and the full vertex set."""
    edges = []
    nxt = 0
    if kind == 1:
        center = nxt
        nxt += 1
        tips = []
        for _ in range(3):
            prev = center
            for _ in range(rng.randint(0, 3)):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
            tips.append(prev)
        if len(set(tips)) != 3:
            return None
        return Graph(nxt, edges), tuple(tips), center
    corners = [0, 1, 2]
    nxt = 3
    edges = [(0, 1), (1, 2), (0, 2)]
    tips = []
    for c in corners:
        prev = c
        for _ in range(rng.randint(0, 3)):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        tips.append(prev)
    return Graph(nxt, edges), tuple(tips), tuple(corners)


def _ref_confluence_valid(g, conf, tips):
    """Direct definition check of a returned Confluence object."""
    if tuple(conf.tips) != tuple(tips):
        return False
    paths = conf.paths
    for k, p in enumerate(paths):
        if p[0] != tips[k] or len(set(p)) != len(p):
            return False
        if any(not g.has_edge(a, b) for a, b in zip(p, p[1:])):
            return False
    verts = set()
    for p in paths:
        verts.update(p)
    expected_edges = sum(len(p) - 1 for p in paths)
    if conf.kind == 1:
        u = conf.center
        if any(p[-1] != u for p in paths):
            return False
        for a in range(3):
            for b in range(a + 1, 3):
                if (set(paths[a]) & set(paths[b])) != {u}:
                    return False
    else:
        corners = tuple(conf.center)
        if any(paths[k][-1] != corners[k] for k in range(3)):
            return False
        for a in range(3):
            for b in range(a + 1, 3):
                if set(paths[a]) & set(paths[b]):
                    return False
                if not g.has_edge(corners[a], corners[b]):
                    return False
        expected_edges += 3
    if verts != set(range(g.n)):
        return False
    return g.m == expected_edges  # no edges beyond the declared structure


def test_classify_accepts_generated_confluences():
    rng = random.Random(77)
    accepted = {1: 0, 2: 0}
    reshaped = 0
    rejected = 0
    for _ in range(300):
        kind = rng.choice([1, 2])
        built = _build_confluence_graph(rng, kind)
        if built is None:
            continue
        g, tips, _ = built
        conf = classify_confluence(g, range(g.n), tips)
        assert conf is not None and conf.kind == kind, (kind, sorted(g.edges()), tips)
        assert _ref_confluence_valid(g, conf, tips)
        accepted[kind] += 1
        # a mutated graph is either rejected or still a definition-valid
        # confluence (an added edge can close a legitimate center triangle)
        non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if not g.has_edge(u, v)]
        if non_edges:
            extra = non_edges[rng.randrange(len(non_edges))]
            bad = Graph(g.n, list(g.edges()) + [extra])
            out = classify_confluence(bad, range(bad.n), tips)
            if out is None:
                rejected += 1
            else:
                assert _ref_confluence_valid(bad, out, tips)
                reshaped += 1
    assert accepted[1] > 30 and accepted[2] > 30
    assert rejected > 100  # most mutations genuinely break the structure


def test_combine_layer_colorings_random_property():
    from isk4color.graph import greedy_coloring, induced_subgraph

    rng = random.Random(31)
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(2, 14), 0.3)
        lay = bfs_layering(g, rng.randrange(g.n))
        per = []
        for layer in lay.layers:
            sub, _ = induced_subgraph(g, layer)
            base = greedy_coloring(sub)
            pad = rng.randint(0, 2)
            per.append(Coloring(base.assignment, base.palette_size + pad))
        combined = combine_layer_colorings(g, lay, per)
        assert is_proper_coloring(g, combined)
        odd = max((c.palette_size for i, c in enumerate(per) if i % 2), default=0)
        even = max((c.palette_size for i, c in enumerate(per) if not i % 2), default=0)
        assert combined.palette_size == odd + even


def _confluence_digest(records) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def _confluence_record(conf):
    return None if conf is None else [conf.kind, conf.paths, conf.center]


def test_classify_confluence_pinned(all_graphs_7):
    # every vertex subset and every sorted tip triple inside it, n <= 6
    records = []
    for n in range(1, 7):
        for g in all_graphs_7[n]:
            for tips in combinations(range(n), 3):
                rest = [v for v in range(n) if v not in tips]
                for size in range(len(rest) + 1):
                    for extra in combinations(rest, size):
                        conf = classify_confluence(g, tips + extra, tips)
                        records.append(_confluence_record(conf))
    assert len(records) == 26_412
    assert _confluence_digest(records) == CLASSIFY_DIGEST


def test_find_confluence_pinned(all_graphs_7):
    # every root, layer and sorted triple of the connected graphs, n <= 6
    records = []
    for n in range(3, 7):
        for g in all_graphs_7[n]:
            if not is_connected(g):
                continue
            for root in range(n):
                lay = bfs_layering(g, root)
                for i in range(1, len(lay.layers)):
                    for tips in combinations(sorted(lay.layers[i]), 3):
                        conf = find_confluence(g, lay, i, *tips)
                        assert classify_confluence(g, conf.vertices, tips) is not None
                        assert ref_confluence_is_minimal(g, conf.vertices, tips)
                        records.append(_confluence_record(conf))
    assert len(records) == 1_612
    assert _confluence_digest(records) == FIND_DIGEST
