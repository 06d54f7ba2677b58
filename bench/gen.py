"""Seeded, deterministic input generators for the benchmark.

Graphs are plain ``(n, edges)`` pairs with ``edges`` a sorted list of
``(u, v)`` tuples, ``u < v``, so the benchmark's checks never depend on the
package's own graph type.  Every family here is free of induced K4
subdivisions: paths, trees and cycles trivially; series-parallel graphs
because they contain no K4 subdivision at all; line graphs of chordless
subcubic graphs, thick complete multipartite graphs and rich squares by the
structure theorem the colorers implement.  ``run.confirm_isk4_free``
re-checks every small input with the package's exhaustive oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def _graph(n, edges):
    return n, sorted({(min(u, v), max(u, v)) for u, v in edges})


def path(n):
    return _graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return _graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_tree(rng, n):
    """Uniform random recursive tree: vertex i attaches to a random earlier one."""
    return _graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def series_parallel(rng, n):
    """Two-terminal series/parallel composition of a single edge, grown by
    random series and parallel steps until it has ``n`` vertices."""
    edges = [(0, 1)]
    size = 2
    while size < n:
        u, v = edges[rng.randrange(len(edges))]
        if rng.random() < 0.5:
            edges.append((u, v))
        else:
            edges.remove((u, v))
            edges += [(u, size), (size, v)]
            size += 1
    return _graph(n, edges)


def relabel(rng, g):
    """The same graph under a random vertex numbering."""
    n, edges = g
    perm = list(range(n))
    rng.shuffle(perm)
    return _graph(n, [(perm[u], perm[v]) for u, v in edges])


def subdivide(g):
    """Replace every edge by a path of length two (the result is chordless)."""
    n, edges = g
    out = []
    for u, v in edges:
        out += [(u, n), (n, v)]
        n += 1
    return _graph(n, out)


def line_graph(g):
    _, edges = g
    at = {}
    for i, (u, v) in enumerate(edges):
        at.setdefault(u, []).append(i)
        at.setdefault(v, []).append(i)
    return _graph(len(edges), [(a, b) for inc in at.values() for a in inc for b in inc if a < b])


def line_of_subdivided_ladder(k):
    """Line graph of the circular ladder on 2k vertices (two k-cycles joined
    by k rungs; a cubic root) with every edge subdivided: 6k vertices.  For
    k = 2 each cycle is a double edge, which the subdivision makes a 4-cycle."""
    ladder = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    ladder += [(i, k + i) for i in range(k)]
    return line_graph(subdivide((2 * k, sorted((min(e), max(e)) for e in ladder))))


def random_subcubic_root(rng, m):
    """Connected graph of max degree 3 with ``m`` edges and at least one
    vertex of degree 3: a random path plus degree-respecting chords."""
    while True:
        k = rng.randint((2 * m + 2) // 3, m)
        order = list(range(k))
        rng.shuffle(order)
        edges = {tuple(sorted(p)) for p in zip(order, order[1:])}
        deg = [0] * k
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        for _ in range(4 * k):
            u, v = rng.randrange(k), rng.randrange(k)
            e = (min(u, v), max(u, v))
            if len(edges) < m and u != v and e not in edges and deg[u] < 3 and deg[v] < 3:
                edges.add(e)
                deg[u] += 1
                deg[v] += 1
        if len(edges) == m and 3 in deg:
            return _graph(k, edges)


def complete_multipartite(sizes):
    starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    edges = [(u, v)
             for i in range(len(sizes)) for j in range(i + 1, len(sizes))
             for u in range(starts[i], starts[i + 1]) for v in range(starts[j], starts[j + 1])]
    return _graph(starts[-1], edges)


def rich_square(links):
    """Square 0-1-2-3 plus one attachment per ``(length, flip)``: length 0 is
    a vertex complete to the square, length k a k-edge path whose ends see
    opposite square edges ({0,1}/{2,3}, or {0,3}/{1,2} when flipped)."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    n = 4
    for length, flip in links:
        if length == 0:
            edges += [(n, s) for s in range(4)]
            n += 1
            continue
        head, tail = ((0, 3), (1, 2)) if flip else ((0, 1), (2, 3))
        edges += [(n, s) for s in head] + [(n + length, s) for s in tail]
        edges += [(v, v + 1) for v in range(n, n + length)]
        n += length + 1
    return _graph(n, edges)


def has_triangle(g):
    n, edges = g
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return any(adj[u] & adj[v] for u, v in edges)


# ---------------------------------------------------------------------------
# file formats, written here so that parsing is checked against an
# independent writer


FORMATS = (("dimacs-col", ".col"), ("edge-list", ".el"), ("graph6", ".g6"))


def write(g, fmt):
    n, edges = g
    if fmt == "dimacs-col":
        return "".join([f"p edge {n} {len(edges)}\n"] + [f"e {u + 1} {v + 1}\n" for u, v in edges])
    if fmt == "edge-list":
        return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])
    if fmt == "graph6":
        es = set(edges)
        bits = [int((i, j) in es) for j in range(1, n) for i in range(j)]
        bits += [0] * (-len(bits) % 6)
        head = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
        body = "".join(chr(int("".join(map(str, bits[k:k + 6])), 2) + 63) for k in range(0, len(bits), 6))
        return head + body + "\n"
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# the color-families corpus


@dataclass(frozen=True)
class Input:
    name: str
    family: str
    graph: tuple
    algorithm: str  # the --algorithm value passed to the CLI
    fmt: str


def _spread(lo, hi, count):
    """``count`` sizes spread evenly over [lo, hi]."""
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


# Thick complete multipartite shapes (at least two parts of 3 or more) and
# rich-square attachments ((length, flip) per link), all within 16 vertices.
MULTIPARTITE = ((3, 3), (3, 4), (4, 4), (3, 6), (5, 5), (4, 7), (3, 3, 1), (3, 3, 3),
                (2, 4, 5), (4, 4, 4), (3, 6, 5), (5, 5, 5))
RICH_SQUARES = (((0, False),), ((1, False),), ((2, True),), ((0, False), (1, True)),
                ((3, False), (0, False)), ((1, False), (1, True)), ((4, True),),
                ((2, False), (2, True)), ((0, False), (3, True), (1, False)),
                ((5, False), (0, False)), ((2, False), (4, True)), ((1, True), (1, False), (2, False)),
                ((6, False), (1, True)), ((3, False), (3, True), (0, False)))


def corpus(seed):
    """The color-families inputs for ``seed``: 110 calls over 100 graphs.

    Every size is fixed, so the corpus cost barely moves from seed to seed;
    the seed picks the structure of the trees, series-parallel graphs and
    subcubic roots, and the vertex numbering of the multipartite graphs and
    rich squares.  Paths and cycles keep their natural numbering: a
    relabelled path changes which clique cutset comes first, and with it the
    depth of the decomposition."""
    rng = random.Random(seed)
    graphs = []
    graphs += [("path", path(n)) for n in _spread(50, 300, 8)]
    graphs += [("tree", random_tree(rng, n)) for n in _spread(50, 300, 12)]
    cycles = [("cycle", cycle(n)) for n in _spread(8, 60, 10)]
    graphs += [("series_parallel", series_parallel(rng, n)) for n in _spread(6, 30, 26)]
    graphs += [("line_chordless", line_graph(subdivide(random_subcubic_root(rng, m))))
               for m in _spread(4, 12, 18)]
    graphs += [("multipartite", relabel(rng, complete_multipartite(s))) for s in MULTIPARTITE]
    graphs += [("rich_square", relabel(rng, rich_square(links))) for links in RICH_SQUARES]

    calls = [(fam, g, "auto") for fam, g in graphs]
    calls += [(fam, g, "auto") for fam, g in cycles]
    calls += [(fam, g, "general") for fam, g in cycles]
    out = []
    for i, (fam, g, algorithm) in enumerate(calls):
        fmt, ext = FORMATS[i % len(FORMATS)]
        out.append(Input(f"{i:03d}-{fam}-{algorithm}{ext}", fam, g, algorithm, fmt))
    return out
