"""Named small graphs and a random graph generator for the tests.

``path_graph`` is in ``isk4color.families`` and ``random_connected_graph``
in ``isk4color.suites``, next to their users in the package.
"""

from __future__ import annotations

import random
from itertools import combinations

from isk4color.graph import Graph


def empty_graph(n: int) -> Graph:
    return Graph(n)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def complete_multipartite(*part_sizes: int) -> Graph:
    """K_{p,q}, K_{p,q,r}, ... with parts laid out consecutively from vertex 0."""
    n = sum(part_sizes)
    edges = []
    start = 0
    starts = []
    for size in part_sizes:
        starts.append((start, start + size))
        start += size
    for i, (a0, a1) in enumerate(starts):
        for b0, b1 in starts[i + 1 :]:
            edges.extend((u, v) for u in range(a0, a1) for v in range(b0, b1))
    return Graph(n, edges)


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def prism_graph(lengths: tuple[int, int, int] = (1, 1, 1)) -> Graph:
    """Two triangles joined by three disjoint paths of the given lengths (>= 1)."""
    if any(l < 1 for l in lengths):
        raise ValueError("path lengths must be at least 1")
    a = [0, 1, 2]
    b = [3, 4, 5]
    edges = [(a[0], a[1]), (a[1], a[2]), (a[0], a[2]), (b[0], b[1]), (b[1], b[2]), (b[0], b[2])]
    nxt = 6
    for i, l in enumerate(lengths):
        prev = a[i]
        for _ in range(l - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, b[i]))
    return Graph(nxt, edges)


def theta_graph(l1: int, l2: int, l3: int) -> Graph:
    """Two hub vertices joined by three internally disjoint paths of the given lengths."""
    edges = []
    nxt = 2
    for l in (l1, l2, l3):
        prev = 0
        for _ in range(l - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph(nxt, edges)


def subdivided_complete(k: int, times: dict[tuple[int, int], int] | int = 0) -> Graph:
    """K_k with each edge subdivided; ``times`` is per-edge or uniform."""
    base = list(combinations(range(k), 2))
    edges = []
    nxt = k
    for u, v in base:
        t = times if isinstance(times, int) else times.get((u, v), 0)
        prev = u
        for _ in range(t):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, v))
    return Graph(nxt, edges)


def line_graph(g: Graph) -> Graph:
    """Line graph: one vertex per edge of g (in ``g.edges()`` order), adjacent
    when edges share an endpoint; the pairs are taken per endpoint."""
    edge_list = list(g.edges())
    at: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(edge_list):
        at[u].append(i)
        at[v].append(i)
    return Graph(len(edge_list), [(i, j) for ids in at for k, i in enumerate(ids) for j in ids[k + 1:]])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()]
    return Graph(g.n + h.n, edges)


def rich_square_graph(links: list[tuple[int, bool]]) -> Graph:
    """A square 0-1-2-3 plus one attachment component per ``(length, flip)`` spec.

    length 0 gives a single vertex complete to the square; length k >= 1 gives a
    path with k edges whose ends see opposite square edges ({0,1}/{2,3}, or
    {0,3}/{1,2} when flipped) and whose interior sees nothing of the square.
    """
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    nxt = 4
    for length, flip in links:
        if length == 0:
            edges.extend((nxt, s) for s in range(4))
            nxt += 1
            continue
        first, last = nxt, nxt + length
        head, tail = ((0, 3), (1, 2)) if flip else ((0, 1), (2, 3))
        edges.extend((first, s) for s in head)
        edges.extend((last, s) for s in tail)
        for v in range(first, last):
            edges.append((v, v + 1))
        nxt = last + 1
    return Graph(nxt, edges)


def ring_of_beads(k: int) -> Graph:
    """k poles 0..k-1 in a ring, each consecutive pair joined by two paths of
    length 2 through the vertices k + 2i and k + 2i + 1.  It is
    series-parallel, so it has no K4 subdivision."""
    edges = []
    for i in range(k):
        for mid in (k + 2 * i, k + 2 * i + 1):
            edges += [(i, mid), (mid, (i + 1) % k)]
    return Graph(3 * k, edges)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def series_parallel(rng: random.Random, ops: int) -> tuple[Graph, int, int]:
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


def bridged_series_parallel() -> Graph:
    """``series_parallel(Random(2), 300)`` on 0..146 and
    ``series_parallel(Random(3), 300)`` on 147..300, joined by the bridge
    146-300.  The second graph has a cut vertex of its own."""
    a, _, _ = series_parallel(random.Random(2), 300)
    b, _, _ = series_parallel(random.Random(3), 300)
    edges = [*a.edges(), *((u + a.n, v + a.n) for u, v in b.edges()), (a.n - 1, a.n + b.n - 1)]
    return Graph(a.n + b.n, edges)


def caterpillar(spine: int) -> Graph:
    """A path on the spine 0..spine-1, numbered first, and one leaf
    spine + i on each spine vertex i."""
    edges = [(i, i + 1) for i in range(spine - 1)] + [(i, spine + i) for i in range(spine)]
    return Graph(2 * spine, edges)


def random_recursive_tree(rng: random.Random, n: int) -> Graph:
    """Each vertex i > 0 joined to a uniformly chosen earlier vertex."""
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def chain_of_cycles(k: int, length: int) -> Graph:
    """k cycles of ``length`` vertices in a chain: cycle i runs from the
    vertex i to i + 1 and back, through inner vertices numbered from k + 1,
    so the cut vertices 1..k-1 come first."""
    edges = []
    nxt = k + 1
    for i in range(k):
        inner = list(range(nxt, nxt + length - 2))
        nxt += length - 2
        half = (length - 2) // 2
        ring = [i, *inner[:half], i + 1, *inner[half:]]
        edges += [(ring[j - 1], ring[j]) for j in range(length)]
    return Graph(nxt, edges)


def flower_snark(k: int) -> Graph:
    """The flower snark J_k, k >= 3: for each i < k a claw 4i with leaves
    4i + 1, 4i + 2 and 4i + 3.  The leaves 4i + 1 form a k-cycle, and the
    leaves 4i + 2 and then 4i + 3 one 2k-cycle.  Cubic with 6k edges; for
    odd k >= 5 a snark, and J_3 has no 3-edge-coloring either."""
    edges = []
    for i in range(k):
        j = 4 * ((i + 1) % k)
        edges += [(4 * i, 4 * i + 1), (4 * i, 4 * i + 2), (4 * i, 4 * i + 3), (4 * i + 1, j + 1)]
        # the two outer arcs swap over at the wrap
        edges += [(4 * i + 2, j + 2), (4 * i + 3, j + 3)] if i < k - 1 else [(4 * i + 2, 3), (4 * i + 3, 2)]
    return Graph(4 * k, edges)
