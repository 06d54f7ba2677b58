"""Connections through upper BFS layers: upstairs paths between two
same-layer vertices, confluences joining three, and the odd/even layer
palette combination.

A layering is what ``graph.bfs_layering`` returns: a tuple of vertex
masks of g, one per layer.  Every search keeps the vertex ids of the host
graph, so no id is mapped back: ``upstairs_path`` passes the vertices it
may not use to ``bfs_path`` as a blocked mask, and ``find_confluence``
works on vertex masks of g.
``find_confluence`` returns an inclusion-minimal confluence, found by one
deletion pass in increasing id order.  A confluence is recognized by
suppressing the chains between its branch vertices with
``graph.suppress_chains`` and reading the shape that is left
(``classify_confluence``).
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .graph import (
    Graph,
    Coloring,
    bfs_path,
    bits,
    component_masks,
    is_proper_coloring,
    mask_of,
    suppress_chains,
)


class Confluence(NamedTuple):
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


def _check_layer_args(layers: tuple[int, ...], i: int, tips) -> None:
    if i < 1 or i >= len(layers):
        raise ValueError(f"layer index {i} out of range")
    if len(set(tips)) != len(tips):
        raise ValueError("tip vertices must be distinct")
    for t in tips:
        if not layers[i] >> t & 1:
            raise ValueError(f"vertex {t} is not in layer {i}")


def upstairs_path(g: Graph, layers: tuple[int, ...], i: int, x: int, y: int) -> list[int]:
    """Induced x-y path inside layers 0..i with at most two vertices per layer,
    for x and y in the layer mask ``layers[i]``.

    Built by chaining lowest-id parents level by level, then shortcut to a
    shortest path inside the collected vertex mask; shortcutting preserves
    both containment properties and forces induced-ness.
    """
    _check_layer_args(layers, i, (x, y))
    collected = (1 << x) | (1 << y)
    cx, cy = x, y
    level = i
    while level >= 1 and cx != cy and not g.has_edge(cx, cy):
        below = layers[level - 1]
        cx = min(bits(g.mask(cx) & below))
        cy = min(bits(g.mask(cy) & below))
        collected |= (1 << cx) | (1 << cy)
        level -= 1
    path = bfs_path(g, x, y, ~collected)
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
    cmask = mask_of(candidate)
    if mask_of(tipset) & ~cmask or len(tipset) != 3:
        return None
    branch = tipset | {v for v in bits(cmask) if (g.mask(v) & cmask).bit_count() >= 3}
    chains = suppress_chains(g, cmask, mask_of(branch))
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


def find_confluence(g: Graph, layers: tuple[int, ...], i: int, x: int, y: int, z: int) -> Confluence:
    """An inclusion-minimal subset of layers 0..i-1 that joins the three tips
    of the layer mask ``layers[i]`` as a confluence, found by one deletion
    pass in increasing id order.

    The pass starts from the component of G[layers 0..i-1 + tips] that holds
    the tips and drops each region vertex whose removal leaves the tips in
    one component, shrinking to that component.  A vertex kept once stays
    needed, because the set only shrinks; a minimal connected induced
    subgraph holding three vertices is a confluence (the three-in-a-tree
    lemma, Chudnovsky-Seymour 2010), so the result always classifies.
    Vertex ids stay those of g.
    """
    _check_layer_args(layers, i, (x, y, z))
    tips = (x, y, z)
    tipmask = mask_of(tips)
    region = 0
    for layer in layers[:i]:
        region |= layer
    keep = _tip_component(g, region | tipmask, tipmask)
    if not keep:
        raise ValueError(f"layering is inconsistent: layers 0..{i - 1} do not join the tips {tips}")
    for v in bits(region & keep):
        if keep >> v & 1:
            # 0 when the tips split without v: v stays
            keep = _tip_component(g, keep & ~(1 << v), tipmask) or keep
    conf = classify_confluence(g, bits(keep), tips)
    if conf is None:
        raise AssertionError(f"internal error: minimal set {sorted(bits(keep))} is no confluence of {tips}")
    return conf


def _tip_component(g: Graph, allowed: int, tipmask: int) -> int:
    """The component of G[allowed] that holds every tip, or 0 when none does."""
    for comp in component_masks(g, ~allowed):
        if comp & tipmask:
            return comp if tipmask & ~comp == 0 else 0
    return 0


# ---------------------------------------------------------------------------
# odd/even layer combination


def combine_layer_colorings(g: Graph, layers: tuple[int, ...], per_layer: list[Coloring]) -> Coloring:
    """Color odd layers with a shared palette and even layers with a disjoint
    one; proper because edges never span layers two or more apart.

    ``layers`` are disjoint vertex masks that together cover g.
    ``per_layer[i]`` must be a proper coloring of the subgraph induced by
    layer i (vertices taken in ascending order).  The combined coloring is
    checked once on g: an edge inside a layer keeps its layer's colors and
    an edge between adjacent layers joins disjoint palettes, so this catches
    an improper layer coloring.
    """
    if len(per_layer) != len(layers):
        raise ValueError("need exactly one coloring per layer")
    seen = 0
    for layer in layers:
        if layer & seen:
            raise ValueError("layers overlap")
        seen |= layer
    if seen != (1 << g.n) - 1:
        raise ValueError("layering does not cover the graph; color components separately")
    odd_max = 0
    even_max = 0
    for i, coloring in enumerate(per_layer):
        if len(coloring.assignment) != layers[i].bit_count():
            raise ValueError(f"layer {i} coloring does not cover its layer")
        if i % 2:
            odd_max = max(odd_max, coloring.palette_size)
        else:
            even_max = max(even_max, coloring.palette_size)
    assign = [-1] * g.n
    for i, coloring in enumerate(per_layer):
        for k, v in enumerate(bits(layers[i])):
            c = coloring.assignment[k]
            assign[v] = c if i % 2 else odd_max + c
    combined = Coloring(tuple(assign), odd_max + even_max)
    if not is_proper_coloring(g, combined):
        raise ValueError("a layer coloring is not proper")
    return combined
