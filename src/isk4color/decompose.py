"""Cutset discovery, block construction, flat-path reduction, and coloring
recombination: the recursion skeleton of the two bounded colorers.

All searches return the lexicographically smallest witness (by sorted vertex
ids) so that decomposition traces are reproducible.

Both kinds of cutset give two blocks, each missing a non-empty side of the
cut, so every block is smaller than its parent and the colorers' recursion
terminates without a depth guard.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    Graph,
    Coloring,
    bits,
    component_masks,
    induced_subgraph,
    is_connected,
    is_proper_coloring,
    mask_of,
)
from .patterns import find_k4


@dataclass(frozen=True)
class CliqueCutset:
    clique: tuple[int, ...]
    side_x: frozenset[int]
    side_y: frozenset[int]


@dataclass(frozen=True)
class Proper2Cutset:
    a: int
    b: int
    side_x: frozenset[int]
    side_y: frozenset[int]


@dataclass(frozen=True)
class FlatPath:
    """Induced path whose interior vertices have degree exactly 2 in the host."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


def _cliques_lex(g: Graph):
    """Cliques of size 1..3 in lexicographic order of their sorted vertex tuple."""
    for a in range(g.n):
        yield (a,)
        for b in bits(g.mask(a) >> (a + 1)):
            b += a + 1
            yield (a, b)
            for c in bits((g.mask(a) & g.mask(b)) >> (b + 1)):
                yield (a, b, b + 1 + c)


def _cut_vertices(g: Graph) -> int:
    """Mask of the cut vertices of g, from one iterative Hopcroft-Tarjan
    low-point DFS from vertex 0.

    A non-root vertex p is a cut vertex when some DFS child v has
    low[v] >= disc[p]; the root when it has two or more children.  Raises
    ValueError when the DFS does not reach every vertex.
    """
    n = g.n
    if n <= 1:
        return 0
    disc = [-1] * n
    low = [0] * n
    rest = [0] * n  # neighbours of each open vertex not yet scanned
    disc[0] = 0
    rest[0] = g.mask(0)
    t = 1
    cuts = root_children = 0
    stack = [0]
    while stack:
        v = stack[-1]
        m = rest[v]
        while m:
            bit = m & -m
            m ^= bit
            w = bit.bit_length() - 1
            if disc[w] < 0:
                rest[v] = m
                disc[w] = low[w] = t
                rest[w] = g.mask(w)
                t += 1
                stack.append(w)
                break
            if disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                p = stack[-1]
                if low[v] >= disc[p]:
                    if p:
                        cuts |= 1 << p
                    else:
                        root_children += 1
                elif low[v] < low[p]:
                    low[p] = low[v]
    if t < n:
        raise ValueError("input must be connected")
    if root_children >= 2:
        cuts |= 1
    return cuts


def find_clique_cutset(g: Graph) -> CliqueCutset | None:
    """First (lex) clique of size <= 3 whose removal disconnects g.

    Callers must pass connected, K4-free graphs; both are checked.  The K4
    bound is what caps clique cutsets at three vertices.

    One low-point DFS (``_cut_vertices``) gives the cut vertices, and only
    the cliques that can split g go through the component sweep: a cut
    vertex, an edge or triangle that holds one, an edge (a, b) with
    deg a >= 3 and deg b >= 3, and a triangle whose vertices have at least
    four edges leaving it, sum(deg v - 2) >= 4.  The rest cannot split g.
    For a clique K of two or three vertices with no cut vertex, a component
    of g - K that met K in one vertex v only would make v a cut vertex, so
    every component meets K in at least two vertices.  Two components then
    need two neighbours outside K at each end of an edge, and at least four
    (vertex, component) contacts, each over its own edge leaving K, for a
    triangle.

    The cliques are walked in ``_cliques_lex`` order and every skipped one
    would not split, so the first clique and its sides are those of a sweep
    over all cliques.  Cost: O(n + m) for the DFS, one step per clique for
    the walk, and one O(n + m) sweep per clique that passes.  No clique
    passes on a cycle, the walk stops at the first cut vertex on a path or
    tree, and on a 2-connected subcubic line graph only the edges pass.
    """
    cuts = _cut_vertices(g)
    k4 = find_k4(g)
    if k4 is not None:
        raise ValueError(f"input contains a K4 {k4}; clique cutsets may exceed size 3")
    for clique in _cliques_lex(g):
        removed = mask_of(clique)
        if not removed & cuts:
            if len(clique) == 1:
                continue
            if len(clique) == 2:
                if g.degree(clique[0]) < 3 or g.degree(clique[1]) < 3:
                    continue
            elif sum(g.degree(v) - 2 for v in clique) < 4:
                continue
        comps = component_masks(g, removed)
        if len(comps) >= 2:
            x = frozenset(bits(comps[0]))
            y = frozenset(v for c in comps[1:] for v in bits(c))
            return CliqueCutset(clique, x, y)
    return None


def _is_ab_path(g: Graph, vmask: int, a: int, b: int) -> bool:
    """Does the vertex mask ``vmask`` induce a path graph whose two ends are
    a and b?  Walks from a, leaving each vertex by its one unvisited
    neighbour; the walk must end at b with every vertex of ``vmask`` seen."""
    seen = 0
    cur = a
    while True:
        seen |= 1 << cur
        nbrs = g.mask(cur) & vmask
        if cur == b:
            return nbrs.bit_count() == 1 and seen == vmask
        step = nbrs & ~seen
        if nbrs.bit_count() != (1 if cur == a else 2) or step.bit_count() != 1:
            return False
        cur = step.bit_length() - 1


def _split_partners(g: Graph, adj, not2, a: int, partners: int) -> list[int]:
    """The b in the ``partners`` mask for which g - {a, b} may split: two
    components neither of which is an a-b path, three that are not all a-b
    paths, or four or more; in ascending order.

    One DFS over g - a gives Hopcroft-Tarjan low-points, and with them the
    components of g - {a, b} for every b at once: the child subtrees of b
    that low-points separate from b's parent, and the rest of the DFS tree
    when b is not its root.  A component C is an a-b path exactly when every
    vertex of C has degree 2 in g and C touches both a and b.  Each of these
    components touches b through a tree edge, so two counts per subtree
    decide it: the vertices whose degree in g is not 2 (``not2`` flags them)
    and the neighbours of a.

    When g - a is disconnected, a is a cut vertex of g and every b is
    returned: a component of g - a without b is never an a-b path, so at
    most a few pairs with this a do not split.
    """
    n = g.n
    ma = g.mask(a)
    disc = [-1] * n
    disc[a] = n  # never entered, and never lowers a low-point
    low = [0] * n
    sub_not2 = list(not2)
    sub_near = [ma >> v & 1 for v in range(n)]
    cuts = [0] * n
    cut_not2 = [0] * n
    cut_near = [0] * n
    cut_paths = [0] * n
    r = 1 if a == 0 else 0
    disc[r] = low[r] = 0
    t = 1
    stack = [(r, iter(adj[r]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if disc[w] < 0:
                disc[w] = low[w] = t
                t += 1
                stack.append((w, iter(adj[w])))
                break
            if disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[v] >= disc[p]:
                    cuts[p] += 1
                    cut_not2[p] += sub_not2[v]
                    cut_near[p] += sub_near[v]
                    if not sub_not2[v] and sub_near[v]:
                        cut_paths[p] += 1
                elif low[v] < low[p]:
                    low[p] = low[v]
                sub_not2[p] += sub_not2[v]
                sub_near[p] += sub_near[v]
    if t < n - 1:
        return list(bits(partners))
    out = []
    for b in bits(partners):
        comps = cuts[b]
        paths = cut_paths[b]
        if b != r:
            # the rest of the tree: all of it but b and the separated subtrees
            comps += 1
            if sub_not2[r] == not2[b] + cut_not2[b] and sub_near[r] > cut_near[b]:
                paths += 1
        if comps >= 4 or (comps == 3 and paths < 3) or (comps == 2 and not paths):
            out.append(b)
    return out


def find_proper_2cutset(g: Graph) -> Proper2Cutset | None:
    """First (lex) non-adjacent pair {a,b} with a split of the components of
    g - {a,b} into two sides such that neither side together with {a,b}
    induces an a-b path.

    Only a single component can form an a-b path.  So two components split
    when neither is a path, three when one is no path and goes alone, and four
    or more always split.  The first side is the first component that is no
    path, or else the first two components.

    For each a in ascending order, ``_split_partners`` finds in one DFS
    the b > a that split by that rule (every b when a is a cut vertex), and
    only those pairs go through the component sweep; a component C of
    g - {a,b} is an a-b path exactly when all of C has degree 2 in g and C
    touches both a and b.  Every pair that is skipped would not split, so
    the first pair and its sides are those of a sweep over all non-adjacent
    pairs.  Cost: O(n (n + m)) for the DFS passes, where a sweep per
    non-adjacent pair is Theta(n^3) on sparse graphs.
    """
    if not is_connected(g):
        raise ValueError("input must be connected")
    full = (1 << g.n) - 1
    adj = not2 = None
    for a in range(g.n):
        partners = full & ~g.mask(a) & ~((2 << a) - 1)  # b > a, not adjacent
        if not partners:
            continue
        if adj is None:  # once per call, and not at all on a clique
            adj = [g.neighbors(v) for v in range(g.n)]
            not2 = [int(len(nb) != 2) for nb in adj]
        for b in _split_partners(g, adj, not2, a, partners):
            ab = (1 << a) | (1 << b)
            comps = component_masks(g, ab)
            if len(comps) < 2:
                continue
            if len(comps) == 2:
                if any(_is_ab_path(g, c | ab, a, b) for c in comps):
                    continue
                xm = comps[0]
            else:
                xm = next((c for c in comps if not _is_ab_path(g, c | ab, a, b)), 0)
                if not xm:
                    if len(comps) == 3:
                        continue
                    xm = comps[0] | comps[1]
            ym = full & ~ab & ~xm
            return Proper2Cutset(a, b, frozenset(bits(xm)), frozenset(bits(ym)))
    return None


# ---------------------------------------------------------------------------
# flat paths


def is_flat_path(g: Graph, vertices) -> bool:
    vs = tuple(vertices)
    if len(vs) != len(set(vs)) or len(vs) < 2:
        return False
    for i, v in enumerate(vs):
        for j in range(i + 1, len(vs)):
            if g.has_edge(v, vs[j]) != (j == i + 1):
                return False
    return all(g.degree(v) == 2 for v in vs[1:-1])


def maximal_flat_paths(g: Graph) -> list[FlatPath]:
    """All maximal flat paths of length >= 2, each once (canonical orientation).

    Interior vertices are forced (degree exactly 2), so flat paths organize
    into maximal degree-2 chains; only the chain ends need case analysis.
    """
    out: set[tuple[int, ...]] = set()

    def emit(seq):
        if len(seq) >= 3:
            out.add(min(tuple(seq), tuple(reversed(seq))))

    seen_d2 = set()
    for v in range(g.n):
        if g.degree(v) != 2 or v in seen_d2:
            continue
        chain = _chain_through(g, v)
        closed = chain[0] == chain[-1]
        core = chain[:-1] if closed else chain
        seen_d2.update(u for u in core if g.degree(u) == 2)
        if closed:
            # pure cycle component, or a chain returning to one branch vertex:
            # the maximal flat paths are the rotations dropping one vertex,
            # minus those that would bury a branch vertex in the interior
            k = len(core)
            if k < 4:
                continue
            for i in range(k):
                sub = [core[(i + t) % k] for t in range(k - 1)]
                if all(g.degree(u) == 2 for u in sub[1:-1]):
                    emit(sub)
        elif g.has_edge(chain[0], chain[-1]):
            # chord between the two ends: drop either one
            emit(chain[:-1])
            emit(chain[1:])
        else:
            emit(chain)
    return [FlatPath(seq) for seq in sorted(out)]


def _chain_through(g: Graph, v: int) -> list[int]:
    """Maximal walk of degree-2 vertices through v, extended one vertex past
    each end; for a cycle component the walk closes (first == last)."""
    left_nbr, right_nbr = g.neighbors(v)
    chain = [v]
    for direction, first in ((0, left_nbr), (1, right_nbr)):
        prev, cur = v, first
        while True:
            if direction == 0:
                chain.insert(0, cur)
            else:
                chain.append(cur)
            if g.degree(cur) != 2 or (chain[0] == chain[-1] and len(chain) > 1):
                break
            a, b = g.neighbors(cur)
            prev, cur = cur, (b if a == prev else a)
        if chain[0] == chain[-1]:
            break
    return chain


def reduce_flat_path(g: Graph, path: FlatPath | tuple[int, ...]) -> tuple[Graph, tuple[int, ...]]:
    """Delete the interior of a flat path of length >= 2 and join its ends.

    Returns the new graph plus the map new id -> original id.
    """
    vs = tuple(path.vertices if isinstance(path, FlatPath) else path)
    if len(vs) < 3:
        raise ValueError("flat path must have length at least 2")
    if not is_flat_path(g, vs):
        raise ValueError(f"{vs} is not a flat path of the graph")
    interior = set(vs[1:-1])
    keep = [v for v in range(g.n) if v not in interior]
    pos = {v: i for i, v in enumerate(keep)}
    sub, ids = induced_subgraph(g, keep)
    masks = list(sub._adj)
    e0, e1 = pos[vs[0]], pos[vs[-1]]
    masks[e0] |= 1 << e1
    masks[e1] |= 1 << e0
    return Graph.from_masks(masks), ids


# ---------------------------------------------------------------------------
# blocks and merges


def build_2cutset_blocks(
    g: Graph, cut: Proper2Cutset
) -> tuple[Graph, tuple[int, ...], Graph, tuple[int, ...]]:
    """Blocks of a proper 2-cutset with a marker edge ab added to each side.

    The marker edge stands in for a reduced through-path on the other side and
    forces the two cut vertices to receive distinct colors.
    """
    _validate_2cutset(g, cut)
    blocks = []
    for side in (cut.side_x, cut.side_y):
        verts = sorted(side | {cut.a, cut.b})
        sub, ids = induced_subgraph(g, verts)
        pos = {v: i for i, v in enumerate(ids)}
        masks = list(sub._adj)
        ia, ib = pos[cut.a], pos[cut.b]
        masks[ia] |= 1 << ib
        masks[ib] |= 1 << ia
        blocks.append((Graph.from_masks(masks), ids))
    (bx, ix), (by, iy) = blocks
    return bx, ix, by, iy


def _validate_2cutset(g: Graph, cut: Proper2Cutset) -> None:
    if g.has_edge(cut.a, cut.b):
        raise ValueError("cut vertices are adjacent")
    if not cut.side_x or not cut.side_y:
        raise ValueError("cutset sides must be non-empty")
    all_verts = cut.side_x | cut.side_y | {cut.a, cut.b}
    if all_verts != set(range(g.n)) or cut.side_x & cut.side_y:
        raise ValueError("sides must partition the remaining vertices")
    for u in cut.side_x:
        if g.mask(u) & mask_of(cut.side_y):
            raise ValueError("edge crosses the cut")


def merge_colorings(
    g: Graph,
    c1: Coloring,
    ids1: tuple[int, ...],
    c2: Coloring,
    ids2: tuple[int, ...],
    shared,
) -> Coloring:
    """Combine block colorings that overlap on ``shared`` (host-graph ids).

    The shared vertices must be rainbow in both blocks (they induce a clique
    or a marker edge there); the second coloring is renamed by a color
    permutation so the two agree, then the union is taken.  The result uses
    max(palette1, palette2) colors and is proper on g whenever both inputs
    are proper on their blocks.
    """
    shared = sorted(shared)
    palette = max(c1.palette_size, c2.palette_size)
    if palette < len(shared):
        raise ValueError("palette smaller than the shared overlap")
    pos1 = {v: i for i, v in enumerate(ids1)}
    pos2 = {v: i for i, v in enumerate(ids2)}
    col1 = {v: c1.assignment[pos1[v]] for v in shared}
    col2 = {v: c2.assignment[pos2[v]] for v in shared}
    if len(set(col1.values())) != len(shared) or len(set(col2.values())) != len(shared):
        raise ValueError("shared vertices are not rainbow in both blocks")
    perm: dict[int, int] = {col2[v]: col1[v] for v in shared}
    free_targets = [c for c in range(palette) if c not in set(perm.values())]
    for c in range(palette):
        if c not in perm:
            perm[c] = free_targets.pop(0)
    assign = [-1] * g.n
    for i, v in enumerate(ids1):
        assign[v] = c1.assignment[i]
    for i, v in enumerate(ids2):
        assign[v] = perm[c2.assignment[i]]
    if any(c == -1 for c in assign):
        raise ValueError("blocks do not cover the host graph")
    merged = Coloring(tuple(assign), palette)
    if not is_proper_coloring(g, merged):
        raise ValueError("merged coloring is not proper; the overlap was not a clique")
    return merged
