"""Independent brute-force reference implementations used as test oracles.

Everything here goes through plain subset/permutation sweeps against the raw
definitions, staying deliberately independent of the library's targeted
search paths.
"""

from itertools import combinations, permutations

from isk4color.decompose import CliqueCutset, Proper2Cutset, _cliques_lex
from isk4color.graph import Graph, bits, component_masks, induced_subgraph, is_connected, mask_of
from isk4color.oracle import Isk4Witness, _subdivision_witness
from isk4color.patterns import find_k4

from builders import prism_graph


def ref_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    gd = sorted(g.degree(v) for v in range(g.n))
    hd = sorted(h.degree(v) for v in range(h.n))
    if gd != hd:
        return False
    for perm in permutations(range(g.n)):
        if all(h.has_edge(perm[u], perm[v]) for u, v in g.edges()):
            return True
    return False


def _induced(g, subset):
    return induced_subgraph(g, subset)[0]


def ref_find_triangle(g: Graph):
    for trio in combinations(range(g.n), 3):
        if all(g.has_edge(a, b) for a, b in combinations(trio, 2)):
            return trio
    return None


def _is_cycle_set(g: Graph, subset) -> bool:
    sub = _induced(g, subset)
    if sub.n < 3 or sub.m != sub.n:
        return False
    if any(sub.degree(v) != 2 for v in range(sub.n)):
        return False
    from isk4color.graph import is_connected

    return is_connected(sub)


def ref_holes(g: Graph, min_len=4, max_len=None):
    out = []
    for size in range(max(4, min_len), (max_len or g.n) + 1):
        if size > g.n:
            break
        for subset in combinations(range(g.n), size):
            if _is_cycle_set(g, subset):
                out.append(frozenset(subset))
    return out


def ref_has_k33(g: Graph) -> bool:
    for subset in combinations(range(g.n), 6):
        sub = _induced(g, subset)
        if sub.m != 9:
            continue
        for part in combinations(range(6), 3):
            other = [v for v in range(6) if v not in part]
            if all(sub.has_edge(a, b) for a in part for b in other) and not any(
                sub.has_edge(a, b) for a, b in combinations(part, 2)
            ) and not any(sub.has_edge(a, b) for a, b in combinations(other, 2)):
                return True
    return False


def ref_has_k222(g: Graph) -> bool:
    for subset in combinations(range(g.n), 6):
        sub = _induced(g, subset)
        if sub.m != 12:
            continue
        nonedges = [(u, v) for u, v in combinations(range(6), 2) if not sub.has_edge(u, v)]
        if len(nonedges) == 3 and len({v for e in nonedges for v in e}) == 6:
            return True
    return False


def ref_has_prism(g: Graph) -> bool:
    shapes = {}
    for size in range(6, g.n + 1):
        shapes[size] = []
        for l1 in range(1, size):
            for l2 in range(l1, size):
                for l3 in range(l2, size):
                    if 6 + (l1 - 1) + (l2 - 1) + (l3 - 1) == size:
                        shapes[size].append(prism_graph((l1, l2, l3)))
    for size in range(6, g.n + 1):
        for subset in combinations(range(g.n), size):
            sub = _induced(g, subset)
            if any(ref_isomorphic(sub, shape) for shape in shapes[size]):
                return True
    return False


def _apex_positions(order, nbrs):
    return [i for i, v in enumerate(order) if v in nbrs]


def _cycle_order(g: Graph, subset):
    subset = sorted(subset)
    start = subset[0]
    inner = set(subset)
    order = [start]
    prev = -1
    while True:
        nbrs = [w for w in g.neighbors(order[-1]) if w in inner and w != prev]
        if not nbrs:
            return None
        nxt = min(nbrs) if len(order) == 1 else nbrs[0]
        if nxt == start:
            break
        prev = order[-1]
        order.append(nxt)
        if len(order) > len(subset):
            return None
    return order if len(order) == len(subset) else None


def ref_has_wheel(g: Graph) -> bool:
    return _ref_hole_plus_apex(g, lambda count, consec, hole_len: count >= 3)


def ref_has_boat(g: Graph) -> bool:
    return _ref_hole_plus_apex(g, lambda count, consec, hole_len: count == 4 and consec)


def ref_has_four_wheel(g: Graph) -> bool:
    return _ref_hole_plus_apex(g, lambda count, consec, hole_len: hole_len == 4 and count == 4)


def _ref_hole_plus_apex(g: Graph, predicate) -> bool:
    for size in range(4, g.n):
        for subset in combinations(range(g.n), size):
            if not _is_cycle_set(g, subset):
                continue
            order = _cycle_order(g, subset)
            for x in range(g.n):
                if x in subset:
                    continue
                nbrs = {w for w in g.neighbors(x) if w in subset}
                positions = _apex_positions(order, nbrs)
                consec = len(positions) == 4 and any(
                    {(r + k) % size for k in range(4)} == set(positions) for r in range(size)
                )
                if predicate(len(nbrs), consec, size):
                    return True
    return False


def ref_complete_multipartite(g: Graph):
    """The parts of g as a complete multipartite graph, each the vertex and
    its non-neighbours, in order of their lowest vertex; or None when
    non-adjacency is not transitive."""
    for u, v, w in permutations(range(g.n), 3):
        if not g.has_edge(u, v) and not g.has_edge(v, w) and g.has_edge(u, w):
            return None
    parts = []
    for v in range(g.n):
        if all(v not in p for p in parts):
            parts.append(tuple(u for u in range(g.n) if not g.has_edge(u, v)))
    return tuple(parts)


def ref_girth(g: Graph):
    """Minimum cycle length by exhaustive simple-cycle enumeration."""
    best = None
    for start in range(g.n):
        stack = [(start, [start], {start})]
        while stack:
            v, path, used = stack.pop()
            for w in g.neighbors(v):
                if w == start and len(path) >= 3:
                    if best is None or len(path) < best:
                        best = len(path)
                elif w not in used and w > start:
                    stack.append((w, path + [w], used | {w}))
    return best


def ref_edge_chromatic(g: Graph) -> int:
    edges = list(g.edges())
    if not edges:
        return 0
    incident = {v: [i for i, e in enumerate(edges) if v in e] for v in range(g.n)}

    def feasible(k):
        colors = [-1] * len(edges)

        def rec(i):
            if i == len(edges):
                return True
            u, v = edges[i]
            banned = {colors[j] for j in incident[u] + incident[v] if colors[j] != -1}
            cap = min(k, max([colors[j] for j in range(i)], default=-1) + 2)
            for c in range(cap):
                if c in banned:
                    continue
                colors[i] = c
                if rec(i + 1):
                    return True
            colors[i] = -1
            return False

        return rec(0)

    k = max(g.degree(v) for v in range(g.n))
    while not feasible(k):
        k += 1
    return k


def ref_labeled_iso_classes(n: int) -> int:
    """Number of isomorphism classes on n vertices by bucketing all labeled
    graphs with a brute-force isomorphism test (n <= 5)."""
    assert n <= 5
    pairs = list(combinations(range(n), 2))
    reps = []
    for code in range(1 << len(pairs)):
        g = Graph(n, [pairs[i] for i in range(len(pairs)) if code >> i & 1])
        if not any(ref_isomorphic(g, r) for r in reps):
            reps.append(g)
    return len(reps)


def ref_labeled_connected_classes(n: int) -> int:
    from isk4color.graph import is_connected

    assert n <= 5
    pairs = list(combinations(range(n), 2))
    reps = []
    for code in range(1 << len(pairs)):
        g = Graph(n, [pairs[i] for i in range(len(pairs)) if code >> i & 1])
        if not is_connected(g):
            continue
        if not any(ref_isomorphic(g, r) for r in reps):
            reps.append(g)
    return len(reps)


def contains_isk4_anchored(g: Graph) -> Isk4Witness | None:
    """Independent second search: anchor the four branch vertices, then grow
    six internally disjoint connecting paths and verify the union."""
    cands = [v for v in range(g.n) if g.degree(v) >= 3]
    for branch in combinations(cands, 4):
        w = _anchored_paths(g, branch)
        if w is not None:
            return w
    return None


_PAIR_ORDER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _anchored_paths(g: Graph, branch) -> Isk4Witness | None:
    bmask = mask_of(branch)

    def rec(pair_idx, used_interior, paths):
        if pair_idx == 6:
            verts = set(branch)
            for p in paths:
                verts.update(p)
            return _subdivision_witness(g, verts)
        i, j = _PAIR_ORDER[pair_idx]
        a, b = branch[i], branch[j]
        stack = [([a], 0)]
        while stack:
            path, used = stack.pop()
            last = path[-1]
            if g.has_edge(last, b):
                res = rec(pair_idx + 1, used_interior | used, paths + [path + [b]])
                if res is not None:
                    return res
            free = g.mask(last) & ~bmask & ~used & ~used_interior
            for w in bits(free):
                stack.append((path + [w], used | (1 << w)))
        return None

    return rec(0, 0, [])


def _ref_joined(g: Graph, vertices: set[int], tips) -> bool:
    """Plain BFS over Python sets: do the tips lie in one component of
    G[vertices]?"""
    seen = {tips[0]}
    frontier = [tips[0]]
    while frontier:
        frontier = [w for v in frontier for w in g.neighbors(v) if w in vertices and w not in seen]
        seen.update(frontier)
    return set(tips) <= seen


def ref_confluence_is_minimal(g: Graph, vertices, tips) -> bool:
    """The tips are joined in G[vertices], and removing any one non-tip
    vertex splits them."""
    vs = set(vertices)
    if not _ref_joined(g, vs, tips):
        return False
    return all(not _ref_joined(g, vs - {v}, tips) for v in vs - set(tips))


def _ref_components(g: Graph, vertices) -> list[set[int]]:
    """Components of G[vertices] by plain BFS over Python sets, ordered by
    smallest member."""
    left = set(vertices)
    out = []
    while left:
        comp = {min(left)}
        frontier = set(comp)
        while frontier:
            frontier = {w for v in frontier for w in g.neighbors(v) if w in left} - comp
            comp |= frontier
        left -= comp
        out.append(comp)
    return out


def ref_is_ab_path(g: Graph, vertices, a: int, b: int) -> bool:
    """G[vertices] is a path with ends a and b: connected, a and b of
    degree 1 in it, every other vertex of degree 2."""
    vs = set(vertices)
    for v in vs:
        d = sum(1 for w in g.neighbors(v) if w in vs)
        if d != (1 if v in (a, b) else 2):
            return False
    return len(_ref_components(g, vs)) == 1


def ref_maximal_flat_paths(g: Graph) -> list[tuple[int, ...]]:
    """Every flat path of at least three vertices (an induced path whose
    interior vertices have degree 2 in g) that no longer flat path contains,
    read from its lower end, in sorted order.

    Grows every flat path from each of its two first vertices, one vertex at
    a time, and keeps those that no neighbour of an end extends.
    """
    flat = set()
    stack = [(u, v) for u in range(g.n) for v in g.neighbors(u)]
    while stack:
        p = stack.pop()
        if len(p) >= 3:
            flat.add(min(p, p[::-1]))
        if g.degree(p[-1]) == 2:
            for w in g.neighbors(p[-1]):
                if w not in p and not any(g.has_edge(w, u) for u in p[:-1]):
                    stack.append(p + (w,))

    def extended(p, w):
        q = p + (w,)
        return min(q, q[::-1]) in flat

    return sorted(
        p for p in flat
        if not any(extended(p, w) for w in g.neighbors(p[-1]))
        and not any(extended(p[::-1], w) for w in g.neighbors(p[0]))
    )


def ref_is_proper_2cutset(g: Graph, a: int, b: int, side_x, side_y) -> bool:
    """The definition: a and b non-adjacent, the sides non-empty and a
    partition of the other vertices, no edge between them, and neither side
    together with a and b induces an a-b path."""
    x, y = set(side_x), set(side_y)
    if g.has_edge(a, b) or not x or not y or x & y:
        return False
    if x | y | {a, b} != set(range(g.n)) or {a, b} & (x | y):
        return False
    if any(g.has_edge(u, v) for u in x for v in y):
        return False
    return not ref_is_ab_path(g, x | {a, b}, a, b) and not ref_is_ab_path(g, y | {a, b}, a, b)


def ref_proper_2cutset(g: Graph):
    """First non-adjacent pair (a, b) in lex order that has a proper
    2-cutset split, trying every split of the components of G - {a, b} into
    two non-empty sides; the pair, or None."""
    for a, b in combinations(range(g.n), 2):
        if g.has_edge(a, b):
            continue
        comps = _ref_components(g, set(range(g.n)) - {a, b})
        for k in range(1, len(comps)):
            for chosen in combinations(range(len(comps)), k):
                x = set().union(*(comps[i] for i in chosen))
                y = set(range(g.n)) - x - {a, b}
                if ref_is_proper_2cutset(g, a, b, x, y):
                    return (a, b)
    return None


def ref_find_k4(g: Graph):
    """The first 4-clique in ``itertools.combinations`` order, or None."""
    for quad in combinations(range(g.n), 4):
        if all(g.has_edge(a, b) for a, b in combinations(quad, 2)):
            return quad
    return None


def ref_clique_cutset(g: Graph):
    """The smallest sorted tuple, in Python's tuple order, among the cliques
    of 1 to 3 vertices whose removal disconnects g, with the component of
    g minus it that holds the smallest vertex and the union of the others;
    or None."""
    cliques = sorted(
        c
        for size in (1, 2, 3)
        for c in combinations(range(g.n), size)
        if all(g.has_edge(a, b) for a, b in combinations(c, 2))
    )
    for clique in cliques:
        comps = _ref_components(g, set(range(g.n)) - set(clique))
        if len(comps) >= 2:
            return clique, comps[0], set().union(*comps[1:])
    return None


def ref_refine(masks: tuple[int, ...]) -> list[int]:
    """Colour refinement: degrees first, then each vertex's colour with the
    sorted colours of its neighbours, re-read with ``bits()`` every round,
    until the number of colours stops growing."""
    n = len(masks)
    colors = [m.bit_count() for m in masks]
    ncls = len(set(colors))
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in bits(masks[v])))) for v in range(n)]
        ranked = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [ranked[s] for s in sigs]
        if len(ranked) == ncls:
            return colors
        ncls = len(ranked)


def ref_separation_pairs(g: Graph) -> dict[tuple[int, int], tuple[int, int]]:
    """Every pair (a, b), a < b, for which G - {a, b} is disconnected, with
    the number of components and the number of bare ones: every vertex of
    degree 2 in G, touching both a and b.  One component sweep per pair."""
    out = {}
    for a, b in combinations(range(g.n), 2):
        comps = component_masks(g, (1 << a) | (1 << b))
        if len(comps) >= 2:
            bare = sum(
                all(g.degree(v) == 2 for v in bits(c))
                and bool(g.mask(a) & c) and bool(g.mask(b) & c)
                for c in comps
            )
            out[a, b] = (len(comps), bare)
    return out


# ---------------------------------------------------------------------------
# Mid-size oracles: the two cutset searches as they were before the SPQR
# pass, kept verbatim apart from the names of the entry points.  They sweep
# one component per candidate edge and run one DFS per vertex,
# Theta(n (n + m)) in all: too slow for thousands of vertices, fast enough
# for a few hundred, and independent of the triconnected components.


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


def dfs_clique_cutset(g: Graph) -> CliqueCutset | None:
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


def dfs_proper_2cutset(g: Graph) -> Proper2Cutset | None:
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
                if any(ref_is_ab_path(g, bits(c | ab), a, b) for c in comps):
                    continue
                xm = comps[0]
            else:
                xm = next((c for c in comps if not ref_is_ab_path(g, bits(c | ab), a, b)), 0)
                if not xm:
                    if len(comps) == 3:
                        continue
                    xm = comps[0] | comps[1]
            ym = full & ~ab & ~xm
            return Proper2Cutset(a, b, frozenset(bits(xm)), frozenset(bits(ym)))
    return None
