"""Immutable simple graphs on dense integer vertex ids, plus the coloring
and layering primitives shared by every other module.

Adjacency is one arbitrary-precision int bitmask per vertex.  Python ints
serve both as the small-n fast path and as the general fallback, which keeps
the exhaustive oracles and the enumerator fast without a second
representation.

Each graph primitive has one implementation here, and every other module
calls it:

- ``bfs_path``: a shortest s-t path, optionally avoiding a vertex mask;
- ``component_masks``: the component sweep (``connected_components`` and
  ``is_connected`` are built on it);
- ``triangles``: every triangle, in lexicographic order;
- ``suppress_chains``: the branch-to-branch chains of a subdivision;
- ``k_core``: the k-core by repeated peeling;
- ``chordless_order``: the walk along an induced path or hole;
- ``grow_induced_paths``: induced paths grown between given ends, the one
  search behind the prism and K4-subdivision detectors;
- ``induced_plus_edge``: an induced subgraph plus one edge (a 2-cutset
  block with its marker edge, a graph with a flat path reduced to an edge).

Each visits vertices in ascending id order, so every witness built on them
is deterministic.

A vertex set that one module hands to another for more graph work is an
int mask over g's ids: a BFS layering is a tuple of layer masks, cutset
sides are masks, and ``induced_subgraph`` takes a mask.  Witness vertex
sets, which are results for users, stay frozensets.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, NamedTuple

INFINITE_GIRTH = math.inf


def _set_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bits_table(width: int) -> tuple[tuple[int, ...], ...]:
    # the masks from 2**i to 2**(i + 1) - 1 are those below 2**i plus bit i
    table: list[tuple[int, ...]] = [()]
    for i in range(width):
        table += [t + (i,) for t in table]
    return tuple(table)


# every vertex mask of a graph with at most 10 vertices, which covers the
# whole enumeration (at most oracle.ENUMERATION_CAP vertices)
_BITS_TABLE = _bits_table(10)
_TABLE_SIZE = len(_BITS_TABLE)


def bits(mask: int) -> Iterable[int]:
    """The set bit positions of ``mask`` in ascending order.

    A mask below 2**10 gets a tuple shared through a table built at import,
    a larger one a lazy generator; iterate the result once.
    """
    if 0 <= mask < _TABLE_SIZE:
        return _BITS_TABLE[mask]
    return _set_bits(mask)


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Simple undirected graph with vertex set 0..n-1, immutable after construction."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)

    @classmethod
    def from_masks(cls, masks: Iterable[int]) -> "Graph":
        """Build from per-vertex neighbor bitmasks (must already be symmetric, loop-free)."""
        g = object.__new__(cls)
        adj = tuple(masks)
        g.n = len(adj)
        g._adj = adj
        return g

    def mask(self, v: int) -> int:
        return self._adj[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self._adj[v]))

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self._adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    @property
    def m(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class _ColoringFields(NamedTuple):
    assignment: tuple[int, ...]
    palette_size: int


class Coloring(_ColoringFields):
    """Total assignment vertex -> color index, drawn from 0..palette_size-1."""

    __slots__ = ()

    def __new__(cls, assignment, palette_size: int):
        assignment = tuple(assignment)
        for v, c in enumerate(assignment):
            if not (0 <= c < palette_size):
                raise ValueError(f"color {c} of vertex {v} outside palette 0..{palette_size - 1}")
        return super().__new__(cls, assignment, palette_size)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check it too
        return cls(*iterable)


def bfs_layering(g: Graph, root: int) -> tuple[int, ...]:
    """Distance classes of root's component, one vertex mask per layer:
    layer i holds exactly the vertices at distance i from root, so layer 0
    is root alone and no edge joins layers two or more apart."""
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range for n={g.n}")
    seen = 1 << root
    frontier = seen
    layers = [seen]
    while True:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.mask(v)
        nxt &= ~seen
        if not nxt:
            break
        layers.append(nxt)
        seen |= nxt
        frontier = nxt
    return tuple(layers)


def induced_subgraph(g: Graph, smask: int) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by the vertex mask ``smask`` plus the map new id ->
    original id (ids ascending).  Raises ValueError for a negative mask or
    one with a bit at or above g.n."""
    if smask < 0 or smask >> g.n:
        raise ValueError("vertex mask not contained in 0..n-1")
    ids = tuple(bits(smask))
    pos = {v: i for i, v in enumerate(ids)}
    masks = []
    for v in ids:
        m = 0
        for w in bits(g.mask(v) & smask):
            m |= 1 << pos[w]
        masks.append(m)
    return Graph.from_masks(masks), ids


def induced_plus_edge(g: Graph, smask: int, a: int, b: int) -> tuple[Graph, tuple[int, ...]]:
    """``induced_subgraph(g, smask)`` plus the edge ab, for a and b in smask."""
    sub, ids = induced_subgraph(g, smask)
    masks = list(sub._adj)
    ia, ib = ids.index(a), ids.index(b)
    masks[ia] |= 1 << ib
    masks[ib] |= 1 << ia
    return Graph.from_masks(masks), ids


def is_proper_coloring(g: Graph, coloring: Coloring) -> bool:
    """True iff no edge of g joins equal colors; raises if the assignment is not total."""
    if len(coloring.assignment) != g.n:
        raise ValueError(f"coloring covers {len(coloring.assignment)} vertices, graph has {g.n}")
    a = coloring.assignment
    return all(a[u] != a[v] for u, v in g.edges())


def shortest_cycle(g: Graph) -> list[int] | None:
    """A shortest cycle as a vertex list, or None for forests."""
    best: list[int] | None = None
    best_len = math.inf
    for s in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[s] = 0
        frontier = [s]
        while frontier:
            if 2 * dist[frontier[0]] >= best_len:
                break
            nxt = []
            for v in frontier:
                dv = dist[v]
                for w in bits(g.mask(v)):
                    if w == parent[v]:
                        continue
                    if dist[w] == -1:
                        dist[w] = dv + 1
                        parent[w] = v
                        nxt.append(w)
                    elif dv + dist[w] + 1 < best_len:
                        cyc = _assemble_cycle(parent, v, w)
                        if cyc is not None:
                            best = cyc
                            best_len = len(cyc)
            frontier = nxt
    return best


def _assemble_cycle(parent, v, w):
    # Join the two root paths; reject if they overlap anywhere but the root
    # (a shorter cycle exists and is found from its own candidate edge).
    pv = [v]
    while parent[pv[-1]] != -1:
        pv.append(parent[pv[-1]])
    pw = [w]
    while parent[pw[-1]] != -1:
        pw.append(parent[pw[-1]])
    if set(pv) & set(pw) != {pv[-1]}:
        return None
    return pv + pw[-2::-1]


def girth(g: Graph) -> int | float:
    """Length of the shortest cycle; INFINITE_GIRTH for forests."""
    cyc = shortest_cycle(g)
    return INFINITE_GIRTH if cyc is None else len(cyc)


def find_cycle(g: Graph) -> list[int] | None:
    """Any cycle as a vertex list (DFS back edge), or None if g is a forest."""
    state = [0] * g.n  # 0 new, 1 on stack path, 2 done
    parent = [-1] * g.n
    for root in range(g.n):
        if state[root]:
            continue
        stack = [(root, iter(bits(g.mask(root))))]
        state[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent[v]:
                    continue
                if state[w] == 1:
                    cyc = [v]
                    while cyc[-1] != w:
                        cyc.append(parent[cyc[-1]])
                    return cyc
                if state[w] == 0:
                    state[w] = 1
                    parent[w] = v
                    stack.append((w, iter(bits(g.mask(w)))))
                    advanced = True
                    break
            if not advanced:
                state[v] = 2
                stack.pop()
    return None


def degeneracy_order(g: Graph) -> tuple[list[int], int]:
    """Repeated minimum-degree removal order (ties to lowest id) and the
    degeneracy.  A heap of (degree, id) with lazy deletion: a vertex's
    degree only falls, and each fall pushes one entry, so every entry but
    the one with its current degree is stale and skipped.  O(n + m) heap
    operations."""
    degs = [mask.bit_count() for mask in g._adj]
    heap = [(d, v) for v, d in enumerate(degs)]
    heapify(heap)
    removed = bytearray(g.n)
    order: list[int] = []
    degeneracy = 0
    while heap:
        d, v = heappop(heap)
        if d != degs[v]:
            continue
        degeneracy = max(degeneracy, d)
        order.append(v)
        removed[v] = 1
        for w in bits(g._adj[v]):
            if not removed[w]:
                degs[w] -= 1
                heappush(heap, (degs[w], w))
    return order, degeneracy


def greedy_coloring(g: Graph, order: Iterable[int] | None = None) -> Coloring:
    """First-fit coloring along ``order`` (default: reverse degeneracy order)."""
    if order is None:
        order = reversed(degeneracy_order(g)[0])
    assign = [-1] * g.n
    palette = 0
    for v in order:
        used = {assign[w] for w in bits(g.mask(v)) if assign[w] != -1}
        c = 0
        while c in used:
            c += 1
        assign[v] = c
        palette = max(palette, c + 1)
    return Coloring(tuple(assign), max(palette, 1) if g.n else 0)


def component_masks(g: Graph, removed: int = 0) -> list[int]:
    """Vertex masks of the components of g minus the ``removed`` mask,
    ordered by lowest vertex."""
    return _components(g._adj, ((1 << g.n) - 1) & ~removed)


def _components(adj, left: int) -> list[int]:
    """``component_masks`` on neighbour masks ``adj``, of the vertices in
    the mask ``left``."""
    comps = []
    while left:
        comp = left & -left
        frontier = comp
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & left & ~comp
            comp |= frontier
        comps.append(comp)
        left &= ~comp
    return comps


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Maximal connected vertex sets, ordered by smallest member."""
    return [frozenset(bits(c)) for c in component_masks(g)]


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(component_masks(g)) == 1


def bfs_path(g: Graph, s: int, t: int, blocked: int = 0) -> list[int] | None:
    """A shortest s-t path avoiding the ``blocked`` mask (s and t are always
    allowed), or None.  Each vertex's parent is its first neighbour in the
    previous layer, in the order the search reached that layer, not by id."""
    if s == t:
        return [s]
    allowed = ~(blocked & ~(1 << s) & ~(1 << t))
    parent = {s: -1}
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for w in bits(g.mask(v) & allowed):
                if w in parent:
                    continue
                parent[w] = v
                if w == t:
                    path = [t]
                    while path[-1] != s:
                        path.append(parent[path[-1]])
                    return path[::-1]
                nxt.append(w)
        frontier = nxt
    return None


def triangles(g: Graph) -> Iterator[tuple[int, int, int]]:
    """Yield every triangle as (a, b, c) with a < b < c, in lexicographic order."""
    for a in range(g.n):
        ma = g.mask(a)
        for b in bits(ma >> (a + 1)):
            b += a + 1
            for c in bits((ma & g.mask(b)) >> (b + 1)):
                yield (a, b, b + 1 + c)


def k_core(g: Graph, k: int) -> list[int]:
    """Vertices of the k-core (the largest induced subgraph of minimum degree
    at least k), ascending; found by repeatedly peeling vertices of degree
    below k."""
    alive = (1 << g.n) - 1
    changed = True
    while changed:
        changed = False
        for v in bits(alive):
            if (g.mask(v) & alive).bit_count() < k:
                alive &= ~(1 << v)
                changed = True
    return list(bits(alive))


def suppress_chains(g: Graph, vmask: int, bmask: int) -> dict[tuple[int, int], list[int]] | None:
    """The chains of G[vmask] between its branch vertices, the mask
    ``bmask``, keyed by their (lower, higher) end and listed from the lower
    end.

    None unless every non-branch vertex of vmask is the interior of a chain,
    every chain joins two distinct branch vertices, and no two chains join
    the same pair (suppressing the interiors leaves a simple graph).
    """
    chains: dict[tuple[int, int], list[int]] = {}
    interiors = 0
    for b in bits(bmask):
        for w in bits(g.mask(b) & vmask):
            path = [b, w]
            prev = b
            cur = w
            # each interior vertex passed has two neighbours in vmask, the one
            # before it and the one after, so the walk cannot come back to
            # one of them: it ends at a branch vertex, possibly b itself
            while not bmask >> cur & 1:
                nbrs = g.mask(cur) & vmask & ~(1 << prev)
                if nbrs.bit_count() != 1:
                    return None
                prev, cur = cur, nbrs.bit_length() - 1
                path.append(cur)
            if path[0] == path[-1]:
                return None  # chain loops back to its own branch vertex
            if path[0] > path[-1]:
                continue  # record each chain from its lower endpoint only
            key = (path[0], path[-1])
            if key in chains:
                return None  # parallel connection after suppression
            chains[key] = path
            interiors |= mask_of(path[1:-1])
    if interiors != vmask & ~bmask:
        return None
    return chains


def chordless_order(g: Graph, vertices, *, hole: bool) -> tuple[int, ...] | None:
    """``vertices`` in order along the hole (``hole=True``: an induced cycle
    of at least four vertices) or the induced path they form; None when they
    form no such shape.

    A path is read from its lower end, a hole from its lowest vertex towards
    the lower of its two neighbours.
    """
    adj = g._adj
    vmask = mask_of(vertices)
    ends = []
    for v in bits(vmask):
        d = (adj[v] & vmask).bit_count()
        if d > 2:
            return None
        if d < 2:
            ends.append(v)
    size = vmask.bit_count()
    if not size or bool(ends) == hole or (hole and size < 4):
        return None
    start = ends[0] if ends else (vmask & -vmask).bit_length() - 1
    order = [start]
    cur, prev = start, 0  # prev: the mask of the vertex before cur
    while True:
        nxt = adj[cur] & vmask & ~prev
        if not nxt:
            break
        w = (nxt & -nxt).bit_length() - 1
        if w == start:
            break
        order.append(w)
        cur, prev = w, 1 << cur
    return tuple(order) if len(order) == size else None


def grow_induced_paths(g: Graph, chosen: int, pairs) -> int | None:
    """The mask ``chosen`` plus one induced path per (s, t) of ``pairs``,
    both ends in ``chosen``, such that each added vertex sees no vertex of
    the result but its two neighbours on its path; or None when there is
    no such set.

    The paths grow one vertex at a time, in the order of ``pairs``, on an
    explicit stack.  A vertex joins path i only if its neighbours among the
    vertices chosen so far are exactly the end of path i, plus t when it
    closes the path.  Adjacent ends take the direct edge: any longer path
    would have it as a chord.  Every vertex of such a set passes that test,
    so the search is complete and what it returns needs no re-check.
    Candidates are tried smallest first, so the result is deterministic.
    """
    adj = g._adj
    stack = [(0, -1, chosen)]
    while stack:
        i, end, chosen = stack.pop()
        if i == len(pairs):
            return chosen
        s, t = pairs[i]
        if end < 0:
            end = s
            if adj[s] >> t & 1:
                stack.append((i + 1, -1, chosen))
                continue
        close = 1 << end | 1 << t
        # pushed in decreasing order, so the smallest candidate is tried first
        for v in reversed(list(bits(adj[end] & ~chosen))):
            seen = adj[v] & chosen
            if seen == 1 << end:
                stack.append((i, v, chosen | 1 << v))
            elif seen == close:
                stack.append((i + 1, -1, chosen | 1 << v))
    return None
