"""Connections through upper BFS layers: upstairs paths between two
same-layer vertices, confluences joining three, and the odd/even layer
palette combination.
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
    induced_subgraph,
    is_connected,
    is_proper_coloring,
    mask_of,
    triangles,
)


class ConfluenceSearchError(RuntimeError):
    """The heuristic search failed and the region is too large for the exact
    subset sweep; the result would be unverified."""


EXACT_SWEEP_REGION_CAP = 20


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
    sub, ids = induced_subgraph(g, collected)
    pos = {v: k for k, v in enumerate(ids)}
    path = bfs_path(sub, pos[x], pos[y])
    if path is None:
        raise AssertionError(f"internal error: no upstairs path joins {x} and {y}")
    return [ids[v] for v in path]


# ---------------------------------------------------------------------------
# confluences


def classify_confluence(g: Graph, candidate, tips) -> Confluence | None:
    """Exact structural check: does ``candidate`` induce a confluence of the
    three tips?  This is the standalone verifier behind find_confluence."""
    x, y, z = tips
    cset = set(candidate)
    if not {x, y, z} <= cset or len({x, y, z}) != 3:
        return None
    sub, ids = induced_subgraph(g, cset)
    pos = {v: k for k, v in enumerate(ids)}
    tip_local = (pos[x], pos[y], pos[z])
    result = _classify_local(sub, tip_local)
    if result is None:
        return None
    kind, paths_local, center_local = result
    paths = tuple(tuple(ids[v] for v in p) for p in paths_local)
    center = ids[center_local] if kind == 1 else tuple(ids[v] for v in center_local)
    return Confluence(kind, (x, y, z), paths, center)


def _classify_local(h: Graph, tips) -> tuple[int, tuple, int | tuple] | None:
    if not is_connected(h):
        return None
    if h.m == h.n - 1:
        return _classify_tree(h, tips)
    if h.m == h.n:
        return _classify_unicyclic(h, tips)
    return None


def _classify_tree(h: Graph, tips) -> tuple | None:
    n = h.n
    degs = [h.degree(v) for v in range(n)]
    if any(d > 3 for d in degs):
        return None
    centers = [v for v in range(n) if degs[v] == 3]
    leaves = [v for v in range(n) if degs[v] <= 1]
    if len(centers) > 1:
        return None
    if centers:
        u = centers[0]
        if sorted(leaves) != sorted(tips):
            return None
    else:
        # a path: its two ends must be tips and the third tip is the center
        if n == 1:
            return None
        ends = [v for v in range(n) if degs[v] == 1]
        inner = [t for t in tips if t not in ends]
        if len(inner) != 1 or not set(ends) <= set(tips):
            return None
        u = inner[0]
    paths = []
    for t in tips:
        p = bfs_path(h, t, u)
        if p is None or any(v in tips and v not in (t, u) for v in p):
            return None
        paths.append(tuple(p))
    # the three paths must share only u
    interiors = [set(p) - {u} for p in paths]
    for a, b in combinations(range(3), 2):
        if interiors[a] & interiors[b]:
            return None
    if set().union(*interiors) | {u} != set(range(h.n)):
        return None
    return 1, tuple(paths), u


def _classify_unicyclic(h: Graph, tips) -> tuple | None:
    n = h.n
    tris = list(triangles(h))
    if len(tris) != 1:
        return None
    tri = tris[0]
    tmask = mask_of(tri)
    for v in range(n):
        d = h.degree(v)
        if d > (3 if tmask >> v & 1 else 2):
            return None
    # walk the pendant path hanging off each corner; with m == n and a unique
    # triangle, covering all vertices this way forces "no other edges"
    paths = []
    used = set(tri)
    for corner in tri:
        pend = [w for w in bits(h.mask(corner)) if not (tmask >> w & 1)]
        if len(pend) > 1:
            return None
        path = [corner]
        if pend:
            prev, cur = corner, pend[0]
            while True:
                if cur in used:
                    return None
                used.add(cur)
                path.append(cur)
                nxt = [w for w in bits(h.mask(cur)) if w != prev]
                if not nxt:
                    break
                if len(nxt) > 1 or nxt[0] in used:
                    return None
                prev, cur = cur, nxt[0]
        paths.append(path)
    if used != set(range(n)):
        return None
    far_ends = [p[-1] for p in paths]
    if sorted(far_ends) != sorted(tips):
        return None
    ordered = []
    centers = []
    for t in tips:
        k = far_ends.index(t)
        ordered.append(tuple(reversed(paths[k])))  # tip-first, inner end = corner
        centers.append(tri[k])
        if any(v in tips for v in paths[k][:-1]):
            return None  # a tip buried inside a pendant path
    return 2, tuple(ordered), tuple(centers)


def find_confluence(g: Graph, layering: Layering, i: int, x: int, y: int, z: int) -> Confluence:
    """A subset of layers 0..i-1 that joins the three tips as a confluence.

    Strategy: try centers (vertices, then triangles) in order of summed BFS
    distance, building three nearly disjoint shortest paths and verifying the
    union; on failure fall back to an exact minimum-size subset sweep when the
    upper region has at most EXACT_SWEEP_REGION_CAP vertices.
    """
    _check_layer_args(layering, i, (x, y, z))
    region = set()
    for layer in layering.layers[:i]:
        region |= layer
    tips = (x, y, z)
    allowed = region | set(tips)
    sub, ids = induced_subgraph(g, allowed)
    pos = {v: k for k, v in enumerate(ids)}
    local_tips = tuple(pos[t] for t in tips)

    hit = _heuristic_confluence(sub, local_tips)
    if hit is None:
        if len(region) <= EXACT_SWEEP_REGION_CAP:
            hit = _exact_confluence(sub, local_tips)
            if hit is None:
                raise ConfluenceSearchError(
                    f"exhaustive sweep found no confluence for tips {tips}; "
                    "the layering input is inconsistent"
                )
        else:
            raise ConfluenceSearchError(
                f"heuristic search failed for tips {tips} and the region "
                f"({len(region)} vertices) exceeds the exact sweep cap "
                f"{EXACT_SWEEP_REGION_CAP}; result would be unverified"
            )
    kind, paths_local, center_local = hit
    paths = tuple(tuple(ids[v] for v in p) for p in paths_local)
    center = ids[center_local] if kind == 1 else tuple(ids[v] for v in center_local)
    return Confluence(kind, tips, paths, center)


def _heuristic_confluence(h: Graph, tips) -> tuple | None:
    tipset = set(tips)
    dists = []
    for t in tips:
        block = mask_of(tipset - {t})
        dists.append(_bfs_dists(h, t, block))
    candidates: list[tuple[int, int, tuple[int, ...]]] = []
    for m in range(h.n):
        ds = [d[m] for d in dists]
        if any(d is None for d in ds):
            continue
        candidates.append((sum(ds), 0, (m, m, m)))
    for tri in triangles(h):
        for perm in permutations(tri):
            ds = [dists[k][perm[k]] for k in range(3)]
            if any(d is None for d in ds):
                continue
            candidates.append((sum(ds), 1, perm))
    candidates.sort()
    for _, is_tri, targets in candidates[:60]:
        union = _collect_union(h, tips, targets)
        if union is None:
            continue
        hit = _shrink_and_classify(h, tips, union)
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


def _shrink_and_classify(h: Graph, tips, union: set[int]) -> tuple | None:
    """Exact minimum-size sweep restricted to ``union`` (small by construction)."""
    extra = sorted(union - set(tips))
    if len(extra) > 18:
        return None
    base = list(tips)
    for size in range(len(extra) + 1):
        for combo in combinations(extra, size):
            cand = base + list(combo)
            sub_result = _classify_on_subset(h, cand, tips)
            if sub_result is not None:
                return sub_result
    return None


def _exact_confluence(h: Graph, tips) -> tuple | None:
    others = sorted(set(range(h.n)) - set(tips))
    base = list(tips)
    tip_masks = [h.mask(t) for t in tips]
    for size in range(len(others) + 1):
        for combo in combinations(others, size):
            cmask = mask_of(base) | mask_of(combo)
            if any(not (tm & cmask) for tm in tip_masks):
                continue  # a tip would be isolated
            hit = _classify_on_subset(h, base + list(combo), tips)
            if hit is not None:
                return hit
    return None


def _classify_on_subset(h: Graph, cand, tips) -> tuple | None:
    sub, ids = induced_subgraph(h, cand)
    pos = {v: k for k, v in enumerate(ids)}
    res = _classify_local(sub, tuple(pos[t] for t in tips))
    if res is None:
        return None
    kind, paths, center = res
    paths = tuple(tuple(ids[v] for v in p) for p in paths)
    center = ids[center] if kind == 1 else tuple(ids[v] for v in center)
    return kind, paths, center


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
