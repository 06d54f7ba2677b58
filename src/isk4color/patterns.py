"""Detectors for the named induced structures the colorers case-split on:
triangles, holes, K_{3,3}, K_{2,2,2}, prisms, boats, wheels, rich squares,
complete multipartite shapes, and line graphs of subcubic roots.

Every detector returns a witness that passes its standalone checker
(``verify_witness``).  Hole-driven detectors enumerate holes explicitly and
are exponential in the worst case; they are meant for desk-scale graphs
(roughly n <= 14 for hole-complete searches).
"""

from __future__ import annotations

from itertools import combinations, permutations
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .graph import (
    Graph,
    bits,
    chordless_order,
    component_masks,
    grow_induced_paths,
    induced_subgraph,
    is_connected,
    mask_of,
    suppress_chains,
    triangles,
)


class PatternWitness(NamedTuple):
    kind: str
    vertices: frozenset[int]
    extra: Mapping = MappingProxyType({})

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "vertices": sorted(self.vertices)}
        for k, v in sorted(self.extra.items()):
            out[k] = list(v) if isinstance(v, (tuple, frozenset, set)) else v
        return out


class MultipartiteShape(NamedTuple):
    """Complete bipartite/tripartite split; thick iff two parts have size >= 3."""

    parts: tuple[tuple[int, ...], ...]
    thick: bool


class KrauszPartition(NamedTuple):
    """Edge-disjoint cliques (size <= 3) covering all edges, every vertex in <= 2
    of them, together with the reconstructed subcubic root graph."""

    cliques: tuple[tuple[int, ...], ...]
    membership: dict[int, tuple[int, ...]]
    root: Graph
    root_edge_of: dict[int, tuple[int, int]]


# ---------------------------------------------------------------------------
# simple detectors


def find_triangle(g: Graph) -> PatternWitness | None:
    tri = next(triangles(g), None)
    return None if tri is None else PatternWitness("triangle", frozenset(tri))


def find_k4(g: Graph) -> tuple[int, int, int, int] | None:
    """Smallest-lex 4-clique, or None.

    Every vertex of a K4 has degree >= 3, so the search runs inside the mask
    of those vertices, in lex order, and returns None at once when it holds
    fewer than four.
    """
    high = mask_of(v for v in range(g.n) if g.degree(v) >= 3)
    if high.bit_count() < 4:
        return None
    for u in bits(high):
        nu = g.mask(u) & high
        for v in bits(nu >> (u + 1)):
            v += u + 1
            nuv = nu & g.mask(v)
            for w in bits(nuv >> (v + 1)):
                w += v + 1
                for x in bits((nuv & g.mask(w)) >> (w + 1)):
                    return (u, v, w, w + 1 + x)
    return None


def enumerate_holes(g: Graph, min_len: int = 4, max_len: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield each hole (induced cycle, length >= 4) exactly once, as a cyclic
    vertex tuple starting at its minimum vertex."""
    if min_len < 4:
        raise ValueError("holes have at least four vertices")
    n = g.n
    for s in range(n):
        ns = g.mask(s)
        higher = ns >> (s + 1)
        snbrs = [s + 1 + b for b in bits(higher)]
        for ai, a in enumerate(snbrs):
            # path grows from a; may close at any later neighbor of s
            closers = mask_of(snbrs[ai + 1 :])
            stack = [([a], mask_of([s, a]))]
            while stack:
                path, used = stack.pop()
                last = path[-1]
                plen = len(path)
                if max_len is not None and plen + 2 > max_len:
                    continue
                forbidden = used | (ns & ~closers)
                blocked = 0
                for p in path[:-1]:
                    blocked |= g.mask(p)
                cand = g.mask(last) & ~forbidden & ~blocked & ~((1 << (s + 1)) - 1)
                for w in bits(cand):
                    if ns >> w & 1:
                        if plen >= 2 and plen + 2 >= min_len:
                            yield tuple([s] + path + [w])
                    else:
                        stack.append((path + [w], used | (1 << w)))


def find_hole(g: Graph, min_len: int = 4, max_len: int | None = None) -> PatternWitness | None:
    for order in enumerate_holes(g, min_len, max_len):
        return PatternWitness("hole", frozenset(order), {"order": order})
    return None


def _partners(g: Graph, a: int, shared: int) -> list[int]:
    """The vertices above a, not adjacent to a, that share at least
    ``shared`` neighbours with a, in ascending order.  Sharing a neighbour
    puts a vertex in N(N(a)), so only that set is scanned."""
    adj = g._adj
    ma = adj[a]
    if ma.bit_count() < shared:
        return []
    reach = 0
    for u in bits(ma):
        reach |= adj[u]
    reach &= ~ma & ~((2 << a) - 1)
    return [v for v in bits(reach) if (ma & adj[v]).bit_count() >= shared]


def find_k33(g: Graph) -> PatternWitness | None:
    """First induced K33 in lex order of its stable side (a1, a2, a3), then
    of the other side (b1, b2, b3) among the common neighbours.

    a2 and a3 share the three b's with a1, so both come from
    ``_partners(g, a1, 3)``: the triples visited are the stable triples with
    that property, in the same lex order as a walk over all stable triples,
    and the first witness is the same.  Cost on sparse graphs: O(sum deg^2)
    big-int operations to list the partners, where the walk over all stable
    triples is Theta(n^3).
    """
    for a1 in range(g.n):
        cands = _partners(g, a1, 3)
        for i, a2 in enumerate(cands):
            m2 = g.mask(a2)
            c12 = g.mask(a1) & m2
            for a3 in cands[i + 1 :]:
                if m2 >> a3 & 1:
                    continue
                common = c12 & g.mask(a3)
                if common.bit_count() < 3:
                    continue
                for b1, b2, b3 in combinations(bits(common), 3):
                    if g.has_edge(b1, b2) or g.has_edge(b1, b3) or g.has_edge(b2, b3):
                        continue
                    verts = frozenset((a1, a2, a3, b1, b2, b3))
                    return PatternWitness("k33", verts, {"parts": ((a1, a2, a3), (b1, b2, b3))})
    return None


def find_k222(g: Graph) -> PatternWitness | None:
    """First induced K222 in lex order of its pairs (a1, a2), (b1, b2),
    (d1, d2), each pair non-adjacent and the b's and d's common neighbours
    of the pairs before them.

    a2 shares the four b's and d's with a1, so it comes from
    ``_partners(g, a1, 4)``.  The pairs (a1, a2) visited are the
    non-adjacent pairs with that property, in the same lex order as a walk
    over all non-adjacent pairs, and the first witness is the same.  Cost on
    sparse graphs: O(sum deg^2) big-int operations, where pairing a1 with
    every a2 is Theta(n^2).
    """
    for a1 in range(g.n):
        for a2 in _partners(g, a1, 4):
            c1 = g.mask(a1) & g.mask(a2)
            for b1 in bits(c1):
                for b2 in bits(c1 >> (b1 + 1)):
                    b2 += b1 + 1
                    if g.has_edge(b1, b2):
                        continue
                    c2 = c1 & g.mask(b1) & g.mask(b2)
                    for d1 in bits(c2):
                        for d2 in bits(c2 >> (d1 + 1)):
                            d2 += d1 + 1
                            if not g.has_edge(d1, d2):
                                pairs = ((a1, a2), (b1, b2), (d1, d2))
                                verts = frozenset((a1, a2, b1, b2, d1, d2))
                                return PatternWitness("k222", verts, {"pairs": pairs})
    return None


# ---------------------------------------------------------------------------
# prisms


def check_prism(g: Graph, vertices) -> dict | None:
    """Validate that ``vertices`` induces a prism; returns the triangle/path
    annotation or None."""
    vs = sorted(set(vertices))
    if len(vs) < 6:
        return None
    vmask = mask_of(vs)
    degs = {v: (g.mask(v) & vmask).bit_count() for v in vs}
    branch = sorted(v for v, d in degs.items() if d == 3)
    if len(branch) != 6 or any(d not in (2, 3) for d in degs.values()):
        return None
    # no connectivity sweep: two triangles and a matching of chains covering the rest connect vs
    chains = suppress_chains(g, vmask, mask_of(branch))
    if chains is None or len(chains) != 9:
        return None
    # the two triangles must consist of direct edges; the cross chains form a
    # perfect matching between them
    direct = {pair for pair, path in chains.items() if len(path) == 2}
    for t1 in combinations(branch, 3):
        t1_edges = {tuple(sorted(p)) for p in combinations(t1, 2)}
        if not t1_edges <= direct:
            continue
        t2 = tuple(v for v in branch if v not in t1)
        t2_edges = {tuple(sorted(p)) for p in combinations(t2, 2)}
        if not t2_edges <= direct:
            continue
        cross = [pair for pair in chains if pair not in t1_edges and pair not in t2_edges]
        if len(cross) != 3:
            continue
        if sorted(v for pair in cross for v in pair) != branch:
            continue
        paths = tuple(sorted(tuple(chains[p]) for p in cross))
        return {"triangles": (t1, t2), "paths": paths}
    return None


def find_prism(g: Graph) -> PatternWitness | None:
    """First induced prism: over the vertex-disjoint pairs of triangles in
    listing order and the six matchings between them, the first prism that
    ``grow_induced_paths`` grows from the matched pairs, once no triangle
    vertex sees a vertex of the other triangle but its match.  The search
    is complete.  It is exponential in the worst case (detecting an induced
    prism is NP-complete) and has no cap."""
    tris = list(triangles(g))
    for i, t1 in enumerate(tris):
        for t2 in tris[i + 1 :]:
            if set(t1) & set(t2):
                continue
            t2mask = mask_of(t2)
            for matching in permutations(t2):
                if any(g.mask(a) & t2mask & ~(1 << b) for a, b in zip(t1, matching)):
                    continue
                found = grow_induced_paths(g, mask_of(t1) | t2mask, list(zip(t1, matching)))
                if found is None:
                    continue
                vertices = frozenset(bits(found))
                ann = check_prism(g, vertices)
                if ann is None:
                    raise AssertionError(f"internal error: grown set {sorted(vertices)} is no prism")
                return PatternWitness("prism", vertices, ann)
    return None


# ---------------------------------------------------------------------------
# hole-plus-apex detectors


def _is_boat_hub(order: tuple[int, ...], nbrs: int) -> bool:
    """Exactly four neighbors on the hole, and consecutive along it."""
    if nbrs.bit_count() != 4:
        return False
    L = len(order)
    pos = {i for i, v in enumerate(order) if nbrs >> v & 1}
    return any({(r + k) % L for k in range(4)} == pos for r in range(L))


# the one hub test of each hole-plus-hub kind: the hole in order and the
# mask of the hub's neighbors on it
_HUB_TESTS = {
    "wheel": lambda order, nbrs: nbrs.bit_count() >= 3,
    "boat": _is_boat_hub,
    "four_wheel": lambda order, nbrs: len(order) == 4 and nbrs.bit_count() == 4,
}


def _find_hub(g: Graph, kind: str, max_len: int | None = None) -> PatternWitness | None:
    """The first hole (up to ``max_len`` vertices) and outside vertex that
    pass the hub test of ``kind``."""
    hub_test = _HUB_TESTS[kind]
    for order in enumerate_holes(g, 4, max_len):
        hmask = mask_of(order)
        for x in range(g.n):
            if not hmask >> x & 1 and hub_test(order, g.mask(x) & hmask):
                return PatternWitness(kind, frozenset(order) | {x}, {"hub": x, "hole": order})
    return None


def find_wheel(g: Graph) -> PatternWitness | None:
    """Hole plus an outside vertex with at least three neighbors on it."""
    return _find_hub(g, "wheel")


def find_boat(g: Graph) -> PatternWitness | None:
    """Hole plus an outside vertex with exactly four consecutive neighbors on it."""
    return _find_hub(g, "boat")


def find_four_wheel(g: Graph) -> PatternWitness | None:
    """Induced C4 plus an outside vertex complete to it."""
    return _find_hub(g, "four_wheel", 4)


# ---------------------------------------------------------------------------
# complete multipartite recognition


def recognize_thick_multipartite(g: Graph) -> MultipartiteShape | None:
    """Parts of a complete bipartite/tripartite split of g, or None.  Each
    part is the closed non-neighbourhood of its lowest vertex, and must be
    that of each of its members (then non-adjacency is an equivalence)."""
    full = (1 << g.n) - 1
    left = full
    parts = []
    while left and len(parts) < 3:
        part = full & ~g.mask((left & -left).bit_length() - 1)
        if any(full & ~g.mask(u) != part for u in bits(part)):
            return None
        parts.append(tuple(bits(part)))
        left &= ~part
    if left or len(parts) < 2:
        return None
    thick = sum(1 for p in parts if len(p) >= 3) >= 2
    return MultipartiteShape(tuple(parts), thick)


# ---------------------------------------------------------------------------
# rich squares


def _link_of(g: Graph, square: tuple[int, ...], comp: int) -> tuple[int, ...] | None:
    """The component (a vertex mask) as an oriented link path of the square,
    or None."""
    u1, u2, u3, u4 = square
    smask = mask_of(square)
    order = chordless_order(g, bits(comp), hole=False)
    if order is None:
        return None
    if len(order) == 1:
        p = order[0]
        return tuple(order) if g.mask(p) & smask == smask else None
    head = g.mask(order[0]) & smask
    tail = g.mask(order[-1]) & smask
    for v in order[1:-1]:
        if g.mask(v) & smask:
            return None
    pairings = (
        (mask_of((u1, u2)), mask_of((u3, u4))),
        (mask_of((u1, u4)), mask_of((u2, u3))),
    )
    for a, b in pairings:
        if head == a and tail == b:
            return tuple(order)
        if head == b and tail == a:
            return tuple(reversed(order))
    return None


def check_rich_square(g: Graph, square: tuple[int, ...]) -> tuple[tuple[int, ...], ...] | None:
    """If g is a rich square with this square, return its link paths."""
    u1, u2, u3, u4 = square
    ring = [(u1, u2), (u2, u3), (u3, u4), (u4, u1)]
    if not all(g.has_edge(a, b) for a, b in ring):
        return None
    if g.has_edge(u1, u3) or g.has_edge(u2, u4):
        return None
    comps = component_masks(g, mask_of(square))
    if len(comps) < 2:
        return None
    links = []
    for comp in comps:
        link = _link_of(g, square, comp)
        if link is None:
            return None
        links.append(link)
    return tuple(sorted(links))


def find_rich_square(g: Graph) -> PatternWitness | None:
    """Check whether g itself is a rich square (not embedded detection)."""
    for order in enumerate_holes(g, 4, 4):
        links = check_rich_square(g, order)
        if links is not None:
            return PatternWitness(
                "rich_square", frozenset(range(g.n)), {"square": order, "links": links}
            )
    return None


# ---------------------------------------------------------------------------
# line graphs of subcubic roots


def recognize_line_graph_subcubic(g: Graph) -> KrauszPartition | None:
    """Partition of g's edges into cliques of size <= 3 with every vertex in at
    most two of them, plus the reconstructed root H with max degree <= 3 such
    that the line graph of H is g.  None when no such partition exists.
    """
    if not is_connected(g):
        raise ValueError("input must be connected")
    if g.n == 0:
        return KrauszPartition((), {}, Graph(1), {})
    if g.n == 1:
        root = Graph(2, [(0, 1)])
        return KrauszPartition((), {0: ()}, root, {0: (0, 1)})
    if any(g.degree(v) > 4 for v in range(g.n)):
        return None

    seed = max(range(g.n), key=lambda v: (g.degree(v), -v))
    edge_list = sorted(g.edges(), key=lambda e: (e[0] != seed and e[1] != seed, e))
    assignment = _krausz_search(g, edge_list)
    if assignment is None:
        return None
    return _build_krausz(g, assignment)


def _krausz_search(g, edge_list):
    """Depth-first search for the clique of each edge: the first unassigned
    edge (u, v) of ``edge_list`` joins a triangle u, v, w (by increasing w)
    or stays a clique of its own, and every vertex lies in at most two
    cliques.  The search backtracks on an explicit stack, so long inputs do
    not hit the recursion limit."""
    edge_clique: dict[tuple[int, int], tuple[int, ...]] = {}
    clique_count = [0] * g.n

    def place(members, step):
        for e in combinations(members, 2):
            if step > 0:
                edge_clique[e] = members
            else:
                del edge_clique[e]
        for x in members:
            clique_count[x] += step

    stack = []  # (edge index, untried cliques) per frame
    placed = []  # the clique each frame has placed
    idx = 0
    while True:
        while idx < len(edge_list) and edge_list[idx] in edge_clique:
            idx += 1
        if idx == len(edge_list):
            return dict(edge_clique)
        stack.append((idx, iter(_krausz_candidates(g, edge_list[idx], edge_clique, clique_count))))
        while stack:
            if len(placed) == len(stack):
                place(placed.pop(), -1)
            idx, untried = stack[-1]
            clique = next(untried, None)
            if clique is not None:
                place(clique, 1)
                placed.append(clique)
                break
            stack.pop()
        else:
            return None


def _krausz_candidates(g, edge, edge_clique, clique_count) -> list[tuple[int, ...]]:
    """The cliques, as sorted tuples, that may take the unassigned ``edge``."""
    u, v = edge
    if clique_count[u] >= 2 or clique_count[v] >= 2:
        return []
    candidates = []
    for w in bits(g.mask(u) & g.mask(v)):
        if clique_count[w] >= 2:
            continue
        if (min(u, w), max(u, w)) in edge_clique or (min(v, w), max(v, w)) in edge_clique:
            continue
        candidates.append(tuple(sorted((u, v, w))))
    candidates.append((u, v))
    return candidates


def _build_krausz(g, edge_clique):
    cliques = sorted(set(edge_clique.values()))
    index = {c: i for i, c in enumerate(cliques)}
    membership: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for c in cliques:
        for v in c:
            membership[v].append(index[c])
    nxt = len(cliques)
    root_edge_of = {}
    for v in range(g.n):
        slots = membership[v]
        if len(slots) == 1:
            slots = slots + [nxt]
            nxt += 1
        root_edge_of[v] = (slots[0], slots[1])
    root = Graph(nxt, sorted(root_edge_of.values()))
    return KrauszPartition(
        tuple(cliques),
        {v: tuple(m) for v, m in membership.items()},
        root,
        root_edge_of,
    )


# ---------------------------------------------------------------------------
# standalone witness checkers


def verify_witness(g: Graph, w: PatternWitness) -> bool:
    """Definition-level validation of a pattern witness."""
    vs = sorted(w.vertices)
    if w.kind == "triangle":
        return len(vs) == 3 and all(g.has_edge(a, b) for a, b in combinations(vs, 2))
    if w.kind in ("hole", "c4"):
        order = chordless_order(g, vs, hole=True)
        return order is not None and (w.kind != "c4" or len(order) == 4)
    if w.kind == "k33":
        return _check_multipartite_set(g, vs, 9, [3, 3])
    if w.kind == "k222":
        return _check_multipartite_set(g, vs, 12, [2, 2, 2])
    if w.kind == "prism":
        return check_prism(g, vs) is not None
    if w.kind in _HUB_TESTS:
        hub = w.extra["hub"]
        order = chordless_order(g, set(vs) - {hub}, hole=True)
        return order is not None and _HUB_TESTS[w.kind](order, g.mask(hub) & mask_of(order))
    if w.kind == "rich_square":
        square = tuple(w.extra["square"])
        return set(vs) == set(range(g.n)) and check_rich_square(g, square) is not None
    raise ValueError(f"unknown witness kind {w.kind!r}")


def _check_multipartite_set(g: Graph, vs, edges: int, sizes: list[int]) -> bool:
    """``vs`` induces the complete multipartite graph with these part sizes
    (sorted), which has ``edges`` edges."""
    if len(vs) != sum(sizes):
        return False
    sub, _ = induced_subgraph(g, mask_of(vs))
    if sub.m != edges:
        return False
    shape = recognize_thick_multipartite(sub)
    return shape is not None and sorted(len(p) for p in shape.parts) == sizes
