"""Connections through upper BFS layers: upstairs paths between two
same-layer vertices, confluences joining three, and the odd/even layer
palette combination.

Every search keeps the vertex ids of the host graph, so no id is mapped
back: ``upstairs_path`` passes the vertices it may not use to ``bfs_path``
as a blocked mask, and ``find_confluence`` drops every edge that leaves
the tips and the upper layers.  A confluence is recognized by suppressing
the chains between its branch vertices with ``graph.suppress_chains`` and
reading the shape that is left (``classify_confluence``); ``_sweep`` is the
one minimum-size subset search, used on the union of the heuristic's
candidate paths and, as the exact fallback, on the whole region.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .graph import (
    Graph,
    Coloring,
    Layering,
    bfs_path,
    bits,
    is_proper_coloring,
    mask_of,
    suppress_chains,
    triangles,
)


class ConfluenceSearchError(RuntimeError):
    """The heuristic search failed and the region is too large for the exact
    subset sweep; the result would be unverified."""


EXACT_SWEEP_REGION_CAP = 20
# the heuristic sweeps the subsets of a candidate path union only up to this
# many non-tip vertices
_UNION_SWEEP_CAP = 18


@dataclass
class Confluence:
    """Three paths joining tips x, y, z through one shared center.

    kind 1: the paths share exactly one common end vertex (``center``).
    kind 2: the paths are pairwise disjoint and their inner ends form a
    triangle (``center`` is that 3-tuple).  Each path is stored tip-first and
    includes its inner end; a path of length 0 is just ``(tip,)``.
    """

    kind: int
    tips: tuple[int, int, int]
    paths: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    center: int | tuple[int, int, int]

    @property
    def vertices(self) -> frozenset[int]:
        out = set()
        for p in self.paths:
            out.update(p)
        if self.kind == 1:
            out.add(self.center)
        return frozenset(out)


def _check_layer_args(layering: Layering, i: int, tips) -> None:
    if i < 1 or i >= len(layering.layers):
        raise ValueError(f"layer index {i} out of range")
    if len(set(tips)) != len(tips):
        raise ValueError("tip vertices must be distinct")
    for t in tips:
        if t not in layering.layers[i]:
            raise ValueError(f"vertex {t} is not in layer {i}")


def upstairs_path(g: Graph, layering: Layering, i: int, x: int, y: int) -> list[int]:
    """Induced x-y path inside layers 0..i with at most two vertices per layer.

    Built by chaining lowest-id parents level by level, then shortcut to a
    shortest path inside the collected vertex set; shortcutting preserves both
    containment properties and forces induced-ness.
    """
    _check_layer_args(layering, i, (x, y))
    collected = {x, y}
    cx, cy = x, y
    level = i
    while level >= 1 and cx != cy and not g.has_edge(cx, cy):
        below = mask_of(layering.layers[level - 1])
        cx = min(bits(g.mask(cx) & below))
        cy = min(bits(g.mask(cy) & below))
        collected.add(cx)
        collected.add(cy)
        level -= 1
    path = bfs_path(g, x, y, ~mask_of(collected))
    if path is None:
        raise AssertionError(f"internal error: no upstairs path joins {x} and {y}")
    return path


# ---------------------------------------------------------------------------
# confluences


def classify_confluence(g: Graph, candidate, tips) -> Confluence | None:
    """Exact structural check: does ``candidate`` induce a confluence of the
    three tips?  This is the standalone verifier behind find_confluence.

    The branch vertices are the tips plus every vertex of degree at least 3
    in G[candidate]; suppressing the chains between them must leave one of
    three shapes.  A claw centered on the one non-tip branch vertex, or a path
    whose middle tip is the center, is a kind-1 confluence.  A triangle of
    direct edges in which each tip is a corner or ends a pendant chain at its
    own corner is a kind-2 confluence.
    """
    x, y, z = tips
    tipset = {x, y, z}
    cset = set(candidate)
    if not tipset <= cset or len(tipset) != 3:
        return None
    cmask = mask_of(cset)
    branch = tipset | {v for v in cset if (g.mask(v) & cmask).bit_count() >= 3}
    chains = suppress_chains(g, cset, sorted(branch))
    if chains is None:
        return None
    adj: dict[int, set[int]] = {b: set() for b in branch}
    for a, b in chains:
        adj[a].add(b)
        adj[b].add(a)

    def chain(t: int, u: int) -> tuple[int, ...]:
        if t == u:
            return (t,)
        return tuple(chains[t, u]) if t < u else tuple(reversed(chains[u, t]))

    # a star at u: a claw at a non-tip center, or a path with a tip in the middle
    for u in branch:
        if adj[u] | {u} == branch == tipset | {u} and len(chains) == len(adj[u]):
            return Confluence(1, (x, y, z), tuple(chain(t, u) for t in tips), u)
    # a triangle: each tip is a corner of degree 2 or a leaf hanging off one
    if any(len(adj[t]) not in (1, 2) for t in tips):
        return None
    corners = tuple(t if len(adj[t]) == 2 else min(adj[t]) for t in tips)
    pendants = sum(len(adj[t]) == 1 for t in tips)
    if (
        len(set(corners)) == 3
        and branch == tipset | set(corners)
        and len(chains) == 3 + pendants
        and all(len(chains.get(pair, ())) == 2 for pair in combinations(sorted(corners), 2))
    ):
        return Confluence(2, (x, y, z), tuple(map(chain, tips, corners)), corners)
    return None


def find_confluence(g: Graph, layering: Layering, i: int, x: int, y: int, z: int) -> Confluence:
    """A subset of layers 0..i-1 that joins the three tips as a confluence.

    The search runs on g with every edge that leaves the tips and layers
    0..i-1 dropped; vertex ids stay those of g.  It tries centers (vertices,
    then triangles) in order of summed BFS distance, builds three nearly
    disjoint shortest paths and sweeps the subsets of their union; on
    failure it sweeps the subsets of the whole region when that has at most
    EXACT_SWEEP_REGION_CAP vertices.  Either sweep returns the first
    confluence among the smallest subsets.
    """
    _check_layer_args(layering, i, (x, y, z))
    region = mask_of(v for layer in layering.layers[:i] for v in layer)
    tips = (x, y, z)
    allowed = region | mask_of(tips)
    # the same ids as g, with every edge that leaves ``allowed`` dropped
    h = Graph.from_masks(g.mask(v) & allowed if allowed >> v & 1 else 0 for v in range(g.n))
    hit = _heuristic_confluence(h, tips)
    if hit is None:
        size = region.bit_count()
        if size > EXACT_SWEEP_REGION_CAP:
            raise ConfluenceSearchError(
                f"heuristic search failed for tips {tips} and the region "
                f"({size} vertices) exceeds the exact sweep cap "
                f"{EXACT_SWEEP_REGION_CAP}; result would be unverified"
            )
        hit = _sweep(h, tips, list(bits(region)))
        if hit is None:
            raise ConfluenceSearchError(
                f"exhaustive sweep found no confluence for tips {tips}; "
                "the layering input is inconsistent"
            )
    return hit


def _heuristic_confluence(h: Graph, tips) -> Confluence | None:
    tipmask = mask_of(tips)
    dists = [_bfs_dists(h, t, tipmask & ~(1 << t)) for t in tips]
    candidates: list[tuple[int, int, tuple[int, ...]]] = []
    for m in range(h.n):
        ds = [d[m] for d in dists]
        if None not in ds:
            candidates.append((sum(ds), 0, (m, m, m)))
    for tri in triangles(h):
        for perm in permutations(tri):
            ds = [dists[k][perm[k]] for k in range(3)]
            if None not in ds:
                candidates.append((sum(ds), 1, perm))
    candidates.sort()
    for _, is_tri, targets in candidates[:60]:
        union = _collect_union(h, tips, targets)
        if union is None:
            continue
        pool = sorted(union - set(tips))
        if len(pool) <= _UNION_SWEEP_CAP:
            hit = _sweep(h, tips, pool)
            if hit is not None:
                return hit
    return None


def _bfs_dists(h: Graph, s: int, blocked: int) -> list[int | None]:
    dist: list[int | None] = [None] * h.n
    dist[s] = 0
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for w in bits(h.mask(v) & ~blocked):
                if dist[w] is None:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _collect_union(h: Graph, tips, targets) -> set[int] | None:
    """Union of short tip-to-target paths built in some avoidance order;
    None when a tip cannot reach its target.  ``targets[k]`` is the center
    vertex tip k must reach (all equal for a single-center attempt)."""
    for order in permutations(range(3)):
        union = set(targets)
        ok = True
        for k in order:
            t = tips[k]
            block = (set(tips) - {t}) | (union - {targets[k]})
            path = bfs_path(h, t, targets[k], mask_of(block))
            if path is None:
                ok = False
                break
            union.update(path)
        if ok:
            return union
    return None


def _sweep(g: Graph, tips, pool: list[int]) -> Confluence | None:
    """The first confluence of the tips plus a subset of the sorted ``pool``,
    smallest subsets first; a subset that leaves a tip without a neighbor
    is skipped."""
    base = mask_of(tips)
    tip_masks = [g.mask(t) for t in tips]
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            cmask = base | mask_of(combo)
            if all(tm & cmask for tm in tip_masks):
                hit = classify_confluence(g, tips + combo, tips)
                if hit is not None:
                    return hit
    return None


# ---------------------------------------------------------------------------
# odd/even layer combination


def combine_layer_colorings(g: Graph, layering: Layering, per_layer: list[Coloring]) -> Coloring:
    """Color odd layers with a shared palette and even layers with a disjoint
    one; proper because edges never span layers two or more apart.

    ``per_layer[i]`` must be a proper coloring of the subgraph induced by
    layer i (vertices taken in sorted order); the layering must cover g.
    The combined coloring is checked once on g: an edge inside a layer keeps
    its layer's colors and an edge between adjacent layers joins disjoint
    palettes, so this catches an improper layer coloring.
    """
    if len(per_layer) != len(layering.layers):
        raise ValueError("need exactly one coloring per layer")
    if layering.component != frozenset(range(g.n)):
        raise ValueError("layering does not cover the graph; color components separately")
    odd_max = 0
    even_max = 0
    for i, coloring in enumerate(per_layer):
        if len(coloring.assignment) != len(layering.layers[i]):
            raise ValueError(f"layer {i} coloring does not cover its layer")
        if i % 2:
            odd_max = max(odd_max, coloring.palette_size)
        else:
            even_max = max(even_max, coloring.palette_size)
    assign = [-1] * g.n
    for i, coloring in enumerate(per_layer):
        verts = sorted(layering.layers[i])
        for k, v in enumerate(verts):
            c = coloring.assignment[k]
            assign[v] = c if i % 2 else odd_max + c
    combined = Coloring(tuple(assign), odd_max + even_max)
    if not is_proper_coloring(g, combined):
        raise ValueError("a layer coloring is not proper")
    return combined
