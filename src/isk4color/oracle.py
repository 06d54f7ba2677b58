"""Ground-truth brute force: induced-K4-subdivision search, exact chromatic
number, isomorph-free exhaustive enumeration of small graphs, and the hole
attachment classifier.  The verification suite driver that runs them over
the enumerated graphs lives in ``suites.py``.

Everything here trades polynomial niceties for certainty at desk scale; the
enumeration is capped at n = 9, and the ISK4 search and the exact chromatic
number at n = 16.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple

from .graph import (
    Graph,
    _components,
    bfs_layering,
    bits,
    chordless_order,
    find_cycle,
    greedy_coloring,
    grow_induced_paths,
    induced_subgraph,
    k_core,
    mask_of,
    suppress_chains,
)

ENUMERATION_CAP = 9
SUBSET_SWEEP_CAP = 16


class SizeLimitError(ValueError):
    """Raised when an exhaustive operation is asked to exceed its size cap."""


# ---------------------------------------------------------------------------
# induced subdivisions of K4


class Isk4Witness(NamedTuple):
    vertices: frozenset[int]
    branch: tuple[int, int, int, int]
    paths: tuple[tuple[int, ...], ...]

    def to_dict(self) -> dict:
        return {
            "vertices": sorted(self.vertices),
            "branch": list(self.branch),
            "paths": [list(p) for p in self.paths],
        }


def _subdivision_witness(g: Graph, subset) -> Isk4Witness | None:
    """Check that ``subset`` induces a subdivision of K4 (branch degrees 3,
    chain interiors degree 2, suppression yields a simple K4)."""
    vs = sorted(subset)
    vmask = mask_of(vs)
    branch = []
    for v in vs:
        d = (g.mask(v) & vmask).bit_count()
        if d == 3:
            branch.append(v)
        elif d != 2:
            return None
    if len(branch) != 4:
        return None
    # the chains have no loop and no shared pair of ends, so six of them join
    # every branch pair and, covering the rest, connect vs: no connectivity sweep
    chains = suppress_chains(g, vmask, mask_of(branch))
    if chains is None or len(chains) != 6:
        return None
    paths = tuple(tuple(chains[p]) for p in sorted(chains))
    return Isk4Witness(frozenset(vs), tuple(branch), paths)


def contains_isk4(g: Graph, *, limit: int | None = SUBSET_SWEEP_CAP) -> Isk4Witness | None:
    """An induced subdivision of K4 in g, or None.  ``limit=None`` lifts the
    cap.

    Every vertex of a K4 subdivision has degree 2 or 3 inside it, so it lies
    in the 2-core, and its four branch vertices have core degree >= 3.
    Those vertices are ordered by decreasing core degree, then id; for each
    4-set of them in that order, ``grow_induced_paths`` grows the six paths
    between its pairs.  The search is complete, but the first subdivision it
    grows need not be a smallest one.  ``_subdivision_witness`` re-checks it
    and builds the certificate."""
    if limit is not None and g.n > limit:
        raise SizeLimitError(f"n={g.n} exceeds the ISK4 search cap {limit} (pass limit=None to override)")
    adj = g._adj
    core = mask_of(k_core(g, 2))
    deg = {v: (adj[v] & core).bit_count() for v in bits(core)}
    branches = sorted((v for v, d in deg.items() if d >= 3), key=lambda v: (-deg[v], v))
    for quad in combinations(branches, 4):
        found = grow_induced_paths(g, mask_of(quad), list(combinations(quad, 2)))
        if found is not None:
            w = _subdivision_witness(g, bits(found))
            if w is None:
                raise AssertionError(f"internal error: grown set {list(bits(found))} is no K4 subdivision")
            return w
    return None


# ---------------------------------------------------------------------------
# exact chromatic number


def _greedy_clique(g: Graph) -> int:
    best = 0
    for v in range(g.n):
        clique = 1 << v
        cand = g.mask(v)
        while cand:
            u = (cand & -cand).bit_length() - 1
            clique |= 1 << u
            cand &= g.mask(u)
        best = max(best, clique.bit_count())
    return best


def chromatic_number_exact(g: Graph, *, limit: int | None = SUBSET_SWEEP_CAP) -> int:
    """Exact chromatic number by iterative deepening over k with canonical
    first-use pruning on the color classes."""
    if limit is not None and g.n > limit:
        raise SizeLimitError(f"n={g.n} exceeds the exact-coloring cap {limit}")
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    upper = greedy_coloring(g).palette_size
    # the greedy palette is a coloring, so only the k below it need a search
    for k in range(max(2, _greedy_clique(g)), upper):
        if _colorable(g, order, k) is not None:
            return k
    return upper


def _colorable(g: Graph, order, k) -> list[int] | None:
    """The first proper k-coloring of g by backtracking over ``order``, as a
    color per vertex, or None.  Each vertex tries its colors in increasing
    order up to one past the palette used before it.  The search keeps its
    own position in ``order``, so a long path does not reach the recursion
    limit, and each color class as a mask, so a color is tried with one AND.
    """
    adj, n = g._adj, g.n
    assign = [0] * n
    classes = [0] * k
    palette = [0] * (n + 1)  # the palette size used before each position
    i = c = 0  # the position in ``order``, and the first color to try there
    while i < n:
        v = order[i]
        top = min(palette[i] + 1, k)
        while c < top and adj[v] & classes[c]:
            c += 1
        if c < top:
            assign[v] = c
            classes[c] |= 1 << v
            palette[i + 1] = max(palette[i], c + 1)
            i += 1
            c = 0
        elif i:
            i -= 1
            v = order[i]
            c = assign[v]
            classes[c] ^= 1 << v
            c += 1
        else:
            return None
    return assign


# ---------------------------------------------------------------------------
# canonical forms and isomorph-free enumeration


def _refine(masks: tuple[int, ...]) -> list[int]:
    # read every round; below 2**10 tuple() returns bits()' shared table
    # tuple itself, so the enumeration copies no neighbourhood
    nbrs = [tuple(bits(m)) for m in masks]
    colors = [m.bit_count() for m in masks]
    n, ncls = len(masks), len(set(colors))
    while True:
        sigs = [(colors[v], tuple(sorted(map(colors.__getitem__, nb)))) for v, nb in enumerate(nbrs)]
        ranked = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = list(map(ranked.__getitem__, sigs))
        # after a ranked round, a round that keeps the class count ranks
        # each vertex by its own colour first and so reproduces the ranks;
        # a discrete partition can only keep its count
        if len(ranked) == ncls or len(ranked) == n:
            return colors
        ncls = len(ranked)


def _min_encoding(masks: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically minimal row encoding over permutations that respect
    the invariant refinement partition."""
    n = len(masks)
    if n == 0:
        return ()
    colors = _refine(masks)
    if max(colors) == n - 1:
        # a discrete partition admits one labeling: v goes to position colors[v]
        rows = [0] * n
        for v, m in enumerate(masks):
            p = colors[v]
            for u in bits(m):
                if colors[u] < p:
                    rows[p] |= 1 << colors[u]
        return tuple(rows)
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    cell_order = [cells[c] for c in sorted(cells)]
    slots: list[list[int]] = []
    for cell in cell_order:
        slots.extend([cell] * len(cell))

    def frame(p):
        # the vertices that may take position p, by the row they would get,
        # and the twin keys tried there so far
        cand = []
        for v in slots[p]:
            if in_use >> v & 1:
                continue
            row = 0
            for q, u in enumerate(placed):
                if masks[v] >> u & 1:
                    row |= 1 << q
            cand.append((row, v))
        cand.sort()
        return iter(cand), set(), set()

    best: list[int] | None = None
    placed: list[int] = []
    rows: list[int] = []
    in_use = 0
    # one frame per position being filled, so a long path does not reach the
    # recursion limit
    stack = [frame(0)]
    while stack:
        p = len(stack) - 1
        if len(placed) > p:
            # back at position p: take back the vertex placed there
            in_use ^= 1 << placed.pop()
            rows.pop()
        cands, seen_open, seen_closed = stack[-1]
        for row, v in cands:
            if best is not None:
                if row > best[p]:
                    stack.pop()
                    break
                if row < best[p]:
                    best = None  # this branch strictly improves; rebuild below
            # twins are interchangeable by an automorphism fixing everything
            # else, so one representative per twin class suffices
            open_key = masks[v]
            closed_key = masks[v] | (1 << v)
            if open_key in seen_open or closed_key in seen_closed:
                continue
            seen_open.add(open_key)
            seen_closed.add(closed_key)
            placed.append(v)
            rows.append(row)
            in_use |= 1 << v
            if p + 1 == n:
                best = rows.copy()
            else:
                stack.append(frame(p + 1))
            break
        else:
            stack.pop()
    if best is None:
        raise AssertionError("internal error: the labeling search found no complete labeling")
    return tuple(best)


def canonical_form(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Isomorphism-invariant key: (n, minimal row encoding)."""
    return (g.n, _min_encoding(g._adj))


def _graph_from_rows(rows: tuple[int, ...]) -> Graph:
    n = len(rows)
    masks = [0] * n
    for p in range(n):
        for q in bits(rows[p]):
            masks[p] |= 1 << q
            masks[q] |= 1 << p
    return Graph.from_masks(masks)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g) == canonical_form(h)


def _new_vertex_ok_triangle_free(masks, new_mask) -> bool:
    for u in bits(new_mask):
        if masks[u] & new_mask:
            return False
    return True


def _new_vertex_ok_girth5(masks, new_mask) -> bool:
    nbrs = list(bits(new_mask))
    for i, u in enumerate(nbrs):
        if masks[u] & new_mask:
            return False  # triangle through the new vertex
        for v in nbrs[i + 1 :]:
            if masks[u] & masks[v]:
                return False  # C4 through the new vertex
    return True


# strictest first: girth >= 5 implies triangle-free
_EXTENSION_FILTERS: dict[str, Callable] = {
    "girth5": _new_vertex_ok_girth5,
    "triangle-free": _new_vertex_ok_triangle_free,
}
HEREDITARY_CLASSES = tuple(_EXTENSION_FILTERS)


def _outranked(masks: list[int], connected: bool) -> bool:
    """Whether some vertex that could be deleted (any vertex, or any non-cut
    vertex when ``connected``) beats the new, last vertex w by the key
    (degree, sum of neighbour degrees)."""
    deg = [m.bit_count() for m in masks]
    w = len(masks) - 1
    dw = deg[w]
    full = (1 << len(masks)) - 1
    ties = []
    for v in range(w):
        if deg[v] > dw:
            if not connected or len(_components(masks, full ^ 1 << v)) == 1:
                return True
        elif deg[v] == dw:
            ties.append(v)
    if ties:
        sw = sum(deg[u] for u in bits(masks[w]))
        for v in ties:
            if sum(deg[u] for u in bits(masks[v])) > sw and (
                not connected or len(_components(masks, full ^ 1 << v)) == 1
            ):
                return True
    return False


def _candidates(masks: tuple[int, ...], lo: int, connected: bool) -> list[int]:
    """The new-vertex masks of ``range(lo, 1 << len(masks))`` worth trying on
    the parent ``masks``, in ascending order.  Two kinds are left out.

    Masks that ``_outranked`` rejects on degrees alone.  A vertex v that is
    deletable in the parent stays deletable in the child: G - v gains only
    the new vertex w, and w keeps a neighbour in it when w has degree d >= 2
    (any d when not ``connected``, where every vertex is deletable).  So a
    mask loses when such a v has degree above d, or degree d and lies in the
    mask, which raises it to d + 1.

    All but the least mask of each orbit under twin swaps.  Open twins share
    N(v), closed twins share N[v]; swapping two is an automorphism of the
    parent, so it carries a child to an isomorphic one with the same last
    vertex w, outranked exactly when the first one is.  The least mask of an
    orbit picks the lowest members of each twin class and comes first, so the
    first mask to reach each class, and the labeling kept for it, is
    unchanged."""
    n = len(masks)
    deg = [m.bit_count() for m in masks]
    full = (1 << n) - 1
    top = tops = 0  # the highest degree of a deletable vertex, and those that have it
    for v in sorted(range(n), key=deg.__getitem__, reverse=True):
        if deg[v] < top:
            break
        if not connected or len(_components(masks, full ^ 1 << v)) == 1:
            top, tops = deg[v], tops | 1 << v
    # open and closed twin classes: the keys never collide, and no vertex has
    # twins of both kinds
    classes: dict[int, list[int]] = {}
    for v, m in enumerate(masks):
        classes.setdefault(m, []).append(v)
        classes.setdefault(m | 1 << v, []).append(v)
    below = {v: u for members in classes.values() for u, v in zip(members, members[1:])}
    # the masks that pick each twin only with the one below it, ascending:
    # those with bit v follow all those without it
    picks = [0]
    for v in range(n):
        u = below.get(v)
        picks += [p | 1 << v for p in picks if u is None or p >> u & 1]
    return [
        m for m in picks
        if m >= lo and ((d := m.bit_count()) > top or d == top and not m & tops or connected and d < 2)
    ]


def enumerate_graphs(
    n: int,
    *,
    connected: bool = False,
    hereditary: str | None = None,
) -> Iterator[Graph]:
    """All graphs on n vertices, one canonical representative per isomorphism
    class, in sorted canonical order.

    Generation extends each (n-1)-vertex class by a new vertex joined to every
    subset of the old ones (a non-empty subset when ``connected``) and keeps
    one representative per canonical form.  ``hereditary`` names one of
    ``HEREDITARY_CLASSES`` ("girth5" or "triangle-free"); extensions whose new
    vertex leaves the class are dropped before anything else.

    Acceptance rule: an extension is canonicalised only when no deletable
    vertex beats the new vertex by the key (degree, sum of neighbour
    degrees), compared lexicographically.  Deletable means any vertex, or
    any non-cut vertex when ``connected``; the new vertex of a connected
    extension is never a cut vertex, since its parent is connected.
    Completeness: let w be a deletable vertex of maximum key in a graph G of
    the class.  G - w is connected when G is (w is not a cut vertex) and
    lies in the hereditary class, so its class was kept one level down, and
    extending that representative by w's neighbourhood gives a copy of G
    whose new vertex no deletable vertex beats.  The argument holds for any
    isomorphism-invariant key, and the key and cut-vertex status are both
    invariant, so the rule never depends on the labeling.  Ties and
    automorphic extensions still reach the same class more than once; the
    canonical form removes those duplicates.

    Cost: each parent first drops the masks that ``_candidates`` shows to
    be outranked on degrees alone or a twin swap of a kept mask.  Every
    extension left pays a degree scan, a neighbour-degree sum when a vertex
    ties the new one on degree and, when ``connected``, one connectivity
    sweep per outranking vertex up to the first that is not a cut vertex;
    an accepted one pays a canonical labeling, which needs no search when
    refinement leaves every vertex its own colour.  At n = 8 connected,
    30,935 of the 116,146 extensions are left and 15,808 are canonicalised.
    """
    pairs: Iterator[tuple[Graph, bool]] = iter(())
    for pairs in _levels(n, connected=connected, hereditary=hereditary):
        pass
    yield from (g for g, _ in pairs)


def _levels(
    n: int,
    *,
    connected: bool = False,
    hereditary: str | None = None,
    isk4: bool = False,
) -> Iterator[Iterator[tuple[Graph, bool]]]:
    """The orders 1..n of ``enumerate_graphs`` in turn, each grown from the
    one before: for each order, ``(graph, holds)`` pairs in sorted canonical
    order.  ``holds`` is False throughout unless ``isk4`` is set.

    With ``isk4``, ``holds`` tells whether the graph contains an induced
    subdivision of K4.  The verdict is inherited: an induced subgraph of an
    ISK4-free graph is ISK4-free, so a class reached from any parent that
    holds an ISK4 holds one too.  A class whose parents are all ISK4-free
    gets one ``contains_isk4`` search; every ISK4 it holds passes through
    the vertex added to a parent.  Only the rows of the classes that hold
    an ISK4 are kept, for the current order and the next.
    """
    if n > ENUMERATION_CAP:
        raise SizeLimitError(f"enumeration is capped at n={ENUMERATION_CAP}")
    if hereditary is not None and hereditary not in _EXTENSION_FILTERS:
        raise ValueError(
            f"unknown hereditary class {hereditary!r}; known: {', '.join(HEREDITARY_CLASSES)}"
        )
    if n < 1:
        return
    keep = _EXTENSION_FILTERS.get(hereditary)
    level = {(0,): (0,)}  # canonical rows -> masks
    held: set[tuple[int, ...]] = set()  # rows of the level's classes with an ISK4
    for size in range(1, n + 1):
        if size > 1:
            nxt: dict[tuple[int, ...], tuple[int, ...]] = {}
            inherited: set[tuple[int, ...]] = set()
            lo = 1 if connected else 0
            for parent, masks in level.items():
                parent_holds = parent in held
                for new_mask in _candidates(masks, lo, connected):
                    if keep is not None and not keep(masks, new_mask):
                        continue
                    grown = [m | ((new_mask >> v & 1) << (size - 1)) for v, m in enumerate(masks)]
                    grown.append(new_mask)
                    if _outranked(grown, connected):
                        continue
                    rows = _min_encoding(tuple(grown))
                    if rows not in nxt:
                        nxt[rows] = tuple(grown)
                    if parent_holds:
                        inherited.add(rows)
            level, held = nxt, inherited
        if isk4:
            # looked up at call time, so a rebound ``contains_isk4`` sees every search
            held |= {
                rows for rows, masks in level.items()
                if rows not in held and contains_isk4(Graph.from_masks(masks)) is not None
            }
        order = sorted(level)
        yield zip(map(_graph_from_rows, order), map(held.__contains__, order))


# ---------------------------------------------------------------------------
# hole attachment classification


class HoleAttachmentClassification(NamedTuple):
    output_case: int
    attachers: tuple[int, ...]
    hole_vertices: tuple[int, ...]


def classify_hole_attachment(g: Graph, hole: Iterable[int], s: Iterable[int]) -> HoleAttachmentClassification | None:
    """Match a dominating attachment set against the three structural outcomes:

    1. four attachers with distinct single neighbors on the hole;
    2. three attachers with pairwise non-adjacent single neighbors;
    3. two single-neighbor attachers separated on the hole by the two
       neighbors of a third attacher.

    Returns None when no case matches (the host graph then lies outside the
    {K4-subdivision, triangle, K_{3,3}}-free class, or the inputs are wrong).
    """
    order = tuple(hole)
    sset = sorted(set(s))
    _check_attachment_preconditions(g, order, sset)
    hmask = mask_of(order)
    pos = {v: i for i, v in enumerate(order)}
    singles: dict[int, list[int]] = {}
    for u in sset:
        nb = g.mask(u) & hmask
        if nb.bit_count() == 1:
            singles.setdefault(nb.bit_length() - 1, []).append(u)
    single_points = sorted(singles)

    # case 1: four distinct private attachment points
    if len(single_points) >= 4:
        vs = single_points[:4]
        return HoleAttachmentClassification(1, tuple(singles[v][0] for v in vs), tuple(vs))

    # case 2: three pairwise non-adjacent attachment points
    L = len(order)
    for trio in combinations(single_points, 3):
        ps = [pos[v] for v in trio]
        if all((a - b) % L not in (1, L - 1) for a, b in combinations(ps, 2)):
            return HoleAttachmentClassification(2, tuple(singles[v][0] for v in trio), tuple(trio))

    # case 3: a two-neighbor attacher whose hole neighbors separate two
    # single-neighbor attachment points
    for u3 in sset:
        nb = g.mask(u3) & hmask
        if nb.bit_count() != 2:
            continue
        v3, v3p = sorted(bits(nb))
        i, j = sorted((pos[v3], pos[v3p]))
        arc_a = {order[t] for t in range(i + 1, j)}
        arc_b = {order[t % L] for t in range(j + 1, i + L)}
        for v1 in single_points:
            for v2 in single_points:
                if v1 == v2:
                    continue
                if v1 in arc_a and v2 in arc_b:
                    # a single attacher sees one hole vertex and u3 two, so all three differ
                    u1, u2 = singles[v1][0], singles[v2][0]
                    return HoleAttachmentClassification(3, (u1, u2, u3), (v1, v2, v3, v3p))
    return None


def _check_attachment_preconditions(g, order, sset):
    if chordless_order(g, order, hole=True) is None:
        raise ValueError("the given vertices do not form a hole")
    hset = set(order)
    if hset & set(sset):
        raise ValueError("attachment set intersects the hole")
    hmask = mask_of(order)
    covered = 0
    for u in sset:
        nb = g.mask(u) & hmask
        if not nb:
            raise ValueError(f"attacher {u} has no neighbor on the hole")
        covered |= nb
    if covered != hmask:
        raise ValueError("attachment set does not dominate the hole")


# ---------------------------------------------------------------------------
# layer forests


class LayerCycleWitness(NamedTuple):
    root: int
    layer: int
    cycle: tuple[int, ...]


def verify_layer_forests(g: Graph) -> LayerCycleWitness | None:
    """Check that every BFS layer from every root induces a forest; returns
    the first violating cycle, or None when all layers are acyclic."""
    for root in range(g.n):
        for i, layer in enumerate(bfs_layering(g, root)):
            if i == 0:
                continue
            sub, ids = induced_subgraph(g, layer)
            cyc = find_cycle(sub)
            if cyc is not None:
                return LayerCycleWitness(root, i, tuple(ids[v] for v in cyc))
    return None

