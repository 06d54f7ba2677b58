"""Cutset discovery, block construction and coloring recombination: the
decomposition skeleton of the two bounded colorers.

All searches return the lexicographically smallest witness (by sorted vertex
ids) so that decomposition traces are reproducible.

Both cutset searches read their candidates off one structure, ``_Blocks``.
One iterative low-point DFS (``_low_points``) gives the cut vertices and the
blocks of the graph.  On demand, the SPQR tree of each block with four or
more vertices (``_triconnected_components``: Hopcroft-Tarjan with the
Gutwenger-Mutzel corrections, on explicit stacks) gives every separation
pair {a, b} of the block B, with the number of components of B - {a, b}
and how many of them are bare a-b paths.  A 2-connected graph hands its
tree that DFS; a block of a graph with a cut vertex is built as an
induced subgraph and runs a DFS of its own.  In a block, a 2-clique
cutset is an adjacent separation pair, the real edge of a P-node.  The
proper 2-cutset search takes only graphs with no cut vertex, a single
block, which is all the colorers give it: a cut vertex is a clique
cutset, split first.  There a proper 2-cutset is a non-adjacent
separation pair whose components fall into two sides, neither of them one
bare path.  Each search then runs the component sweep once, on its winner,
so the witness and its sides are those of a sweep over every candidate.  Apart from the sweeps of the
cut-vertex cliques and the triangles that a degree bound lets through,
each search is O(n + m).  The colorers ask both searches about the same
block in turn, so the second reuses the DFS and the SPQR trees of the
first.  A graph with fewer than ``_SWEEP_BELOW`` vertices builds no SPQR
tree: there one component sweep per candidate costs less than the tree,
so the clique search sweeps each edge that passes its degree bound, and
the 2-cutset search each non-adjacent pair, in the same order and with the
same rule, and each stops at the same winner.

A cutset's sides are vertex masks of g.  Both kinds of cutset give two
blocks, each missing a non-empty side of the cut, and the colorers split a
graph with a cut vertex into all of its blocks at once (``_Blocks.blocks``),
each missing a vertex of another.  So every block is smaller than its
parent and the colorers' decomposition terminates without a depth guard,
on one explicit stack.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import (
    Graph,
    Coloring,
    bits,
    component_masks,
    induced_plus_edge,
    induced_subgraph,
    is_proper_coloring,
    mask_of,
)
from .patterns import find_k4


class CliqueCutset(NamedTuple):
    clique: tuple[int, ...]
    side_x: int
    side_y: int


class Proper2Cutset(NamedTuple):
    a: int
    b: int
    side_x: int
    side_y: int


def _cliques_lex(g: Graph):
    """Cliques of size 1..3 in lexicographic order of their sorted vertex tuple."""
    for a in range(g.n):
        yield (a,)
        for b in bits(g.mask(a) >> (a + 1)):
            b += a + 1
            yield (a, b)
            for c in bits((g.mask(a) & g.mask(b)) >> (b + 1)):
                yield (a, b, b + 1 + c)


def _low_points(masks) -> tuple:
    """One iterative Hopcroft-Tarjan DFS over the neighbour masks ``masks``
    from vertex 0, each vertex's neighbours taken in increasing order.

    Returns ``(order, num, parent, low1, low2, nd, cuts)``: the vertices in
    preorder; each vertex's preorder number from 1 (0 when the DFS misses
    it); its tree parent (-1 at the root); the smallest and the second
    smallest number among the vertex and the ends of the back edges that
    leave its subtree (both the vertex's own number when there are none);
    the size of its subtree; and the mask of cut vertices.  A non-root
    vertex v opens a block under its parent p when low1[v] >= num[p]; the
    cut vertices are the parents that open one, except the root, which is
    one when it opens two.  Each vertex keeps a scan position, not a copy of
    its mask, so the DFS allocates O(n) words.
    """
    n = len(masks)
    num = [0] * n
    parent = [-1] * n
    low1 = [0] * n
    low2 = [0] * n
    nd = [1] * n
    if not n:
        return [], num, parent, low1, low2, nd, 0
    pos = [0] * n  # the next neighbour of each open vertex is at or above this
    num[0] = low1[0] = low2[0] = 1
    order = [0]
    stack = [0]
    v = 0
    cuts = 0
    while True:
        rest = masks[v] >> pos[v]
        if rest:
            w = pos[v] + (rest & -rest).bit_length() - 1
            pos[v] = w + 1
            x = num[w]
            if not x:
                order.append(w)
                num[w] = low1[w] = low2[w] = len(order)
                parent[w] = v
                stack.append(w)
                v = w
            elif x < low2[v] and w != parent[v]:  # a back edge up from v
                if x < low1[v]:
                    low2[v] = low1[v]
                    low1[v] = x
                elif x > low1[v]:
                    low2[v] = x
            continue
        stack.pop()
        if not stack:
            if len(order) > 1 and nd[0] > nd[order[1]] + 1:  # the root opens two blocks
                cuts |= 1
            return order, num, parent, low1, low2, nd, cuts
        p = stack[-1]
        nd[p] += nd[v]
        l1, l2 = low1[v], low2[v]
        if l1 >= num[p] and p:
            cuts |= 1 << p
        if l1 < low1[p]:
            low2[p] = min(low1[p], l2)
            low1[p] = l1
        elif l1 == low1[p]:
            if l2 < low2[p]:
                low2[p] = l2
        elif l1 < low2[p]:
            low2[p] = l1
        v = p


_BOND, _POLYGON, _RIGID = 0, 1, 2


def _find(root: list[int], c: int) -> int:
    """Union-find root of c, halving the path on the way."""
    while root[c] != c:
        root[c] = c = root[root[c]]
    return c


def _triconnected_components(adj, tree) -> tuple[list[int], list[int], list, int]:
    """The triconnected components of a 2-connected simple graph with at
    least three vertices, given by adjacency lists and a DFS tree of it as
    ``(num, parent, low1, low2, nd)`` (see ``_low_points``): Hopcroft-Tarjan
    ("Dividing a graph into triconnected components", SIAM J. Comput. 1973)
    with the corrections of Gutwenger-Mutzel ("A linear time implementation
    of SPQR-trees", Graph Drawing 2000), on explicit stacks.

    Returns ``(src, dst, nodes, m)``.  Edge e joins src[e] and dst[e]; the
    ids below m are the graph's edges, the others virtual edges.  ``nodes``
    lists the components as ``(kind, edges)``: a bond (two vertices, three or
    more parallel edges), a polygon (a cycle) or a rigid simple 3-connected
    graph, with no two bonds and no two polygons sharing a virtual edge.
    Every virtual edge lies in exactly two nodes, and the nodes and virtual
    edges form the SPQR tree.  Time and memory O(n + m).
    """
    k = len(adj)
    num, parent, low1, low2, nd = tree
    parent = parent[:]  # the type-2 splits re-hang vertices
    # the palm tree: tree arcs parent -> child, fronds from a vertex up to
    # an ancestor
    src: list[int] = []
    dst: list[int] = []
    is_tree: list[bool] = []
    tree_arc = [-1] * k
    for v in range(k):
        for w in adj[v]:
            if parent[w] == v:
                tree_arc[w] = len(src)
                src.append(v)
                dst.append(w)
                is_tree.append(True)
            elif num[w] < num[v] and w != parent[v]:
                src.append(v)
                dst.append(w)
                is_tree.append(False)
    m = len(src)
    # acceptable adjacency structure: out-edges bucket-sorted by phi
    buckets: list[list[int]] = [[] for _ in range(3 * k + 3)]
    for e in range(m):
        w = dst[e]
        if not is_tree[e]:
            buckets[3 * num[w] + 1].append(e)
        elif low2[w] < num[src[e]]:
            buckets[3 * low1[w]].append(e)
        else:
            buckets[3 * low1[w] + 2].append(e)
    out: list[list[int]] = [[] for _ in range(k)]  # -1 marks a removed edge
    slot = [0] * m
    for bucket in buckets:
        for e in bucket:
            row = out[src[e]]
            slot[e] = len(row)
            row.append(e)
    # renumber in the order of the sorted lists (a vertex's subtree is then
    # newnum[v] .. newnum[v] + nd[v] - 1), mark the first edge of each path,
    # and list the fronds into each vertex, first visited last
    newnum = [0] * k
    starts = bytearray(m)
    high_src: list[int] = []  # entries of the frond lists: source number
    high_live = bytearray()
    in_high = [-1] * m
    highs: list[list[int]] = [[] for _ in range(k)]
    count = k
    new_path = True
    newnum[0] = 1
    nxt = [0] * k
    stack = [0]
    while stack:
        v = stack[-1]
        i = nxt[v]
        if i < len(out[v]):
            nxt[v] = i + 1
            e = out[v][i]
            if new_path:
                new_path = False
                starts[e] = 1
            w = dst[e]
            if is_tree[e]:
                newnum[w] = count - nd[w] + 1
                stack.append(w)
            else:
                in_high[e] = len(high_src)
                highs[w].append(len(high_src))
                high_src.append(newnum[v])
                high_live.append(1)
                new_path = True
            continue
        stack.pop()
        count -= 1
    for h in highs:
        h.reverse()
    old2new = [0] * (k + 1)
    at = [0] * (k + 1)  # vertex by new number
    for v in range(k):
        old2new[num[v]] = newnum[v]
        at[newnum[v]] = v
    low1 = [old2new[x] for x in low1]
    low2 = [old2new[x] for x in low2]

    def new_edge(a, b):  # a virtual edge, in no out-list and no frond list yet
        src.append(a)
        dst.append(b)
        slot.append(-1)
        in_high.append(-1)
        return len(src) - 1

    def unlink(e):  # take e out of its out-list and its frond list
        out[src[e]][slot[e]] = -1
        if in_high[e] >= 0:
            high_live[in_high[e]] = 0

    def high(u):  # the source of the first visited frond into u still there
        hu = highs[u]
        while hu and not high_live[hu[-1]]:
            hu.pop()
        return high_src[hu[-1]] if hu else 0

    deg = [len(nbrs) for nbrs in adj]
    first = [0] * k  # lower bound on the first live slot of each out-list
    estack: list[int] = []
    # triples (h, a, b) of possible type-2 pairs; a == -1 marks end of stack
    eos = (0, -1, 0)
    tstack = [eos]
    comps: list[tuple[int, list[int]]] = []
    via = [-1] * k  # the edge a vertex descended through, while below it
    nxt = [0] * k
    stack = [0]
    while stack:
        v = stack[-1]
        vnum = newnum[v]
        row = out[v]
        i = nxt[v]
        e = via[v]
        if e >= 0:  # back from the child w reached over slot i - 1
            via[v] = -1
            idx = i - 1
            w = dst[e]
            estack.append(tree_arc[w])
            wnum = newnum[w]
            # type-2 pairs
            while vnum != 1:
                h, a, b = tstack[-1]
                deg2 = False
                if deg[w] == 2:
                    rw = out[w]
                    j = first[w]
                    while j < len(rw) and rw[j] < 0:
                        j += 1
                    first[w] = j
                    deg2 = j < len(rw) and newnum[dst[rw[j]]] > wnum
                if a != vnum and not deg2:
                    break
                if a == vnum and parent[at[b]] == v:
                    tstack.pop()
                    continue
                e_ab = -1
                if deg2:
                    e1 = estack.pop()
                    e2 = estack.pop()
                    unlink(e2)
                    x = dst[e2]
                    ev = new_edge(v, x)
                    deg[x] -= 1
                    deg[v] -= 1
                    comps.append((_POLYGON, [e1, e2, ev]))
                    if estack and src[estack[-1]] == x and dst[estack[-1]] == v:
                        e_ab = estack.pop()
                        unlink(e_ab)
                else:
                    tstack.pop()
                    comp = []
                    while estack:
                        xy = estack[-1]
                        xn, yn = newnum[src[xy]], newnum[dst[xy]]
                        if not (a <= xn <= h and a <= yn <= h):
                            break
                        estack.pop()
                        if (xn == a and yn == b) or (yn == a and xn == b):
                            e_ab = xy
                            unlink(xy)
                            continue
                        if xy != row[idx]:
                            unlink(xy)
                        comp.append(xy)
                        deg[src[xy]] -= 1
                        deg[dst[xy]] -= 1
                    x = at[b]
                    ev = new_edge(v, x)
                    comp.append(ev)
                    comps.append((_RIGID if len(comp) > 3 else _POLYGON, comp))
                if e_ab >= 0:
                    ev2 = new_edge(v, x)
                    comps.append((_BOND, [e_ab, ev, ev2]))
                    deg[x] -= 1
                    deg[v] -= 1
                    ev = ev2
                estack.append(ev)
                row[idx] = ev
                slot[ev] = idx
                deg[x] += 1
                deg[v] += 1
                parent[x] = v
                tree_arc[x] = ev
                w = x
                wnum = newnum[w]
            # a type-1 pair {low1(w), v}
            l1 = low1[w]
            if low2[w] >= vnum and l1 < vnum and (parent[v] != 0 or idx + 1 < len(row)):
                comp = []
                xn = yn = 0
                end = wnum + nd[w]
                while estack:
                    xy = estack[-1]
                    xn, yn = newnum[src[xy]], newnum[dst[xy]]
                    if not (wnum <= xn < end or wnum <= yn < end):
                        break
                    estack.pop()
                    comp.append(xy)
                    if in_high[xy] >= 0:
                        high_live[in_high[xy]] = 0
                    deg[src[xy]] -= 1
                    deg[dst[xy]] -= 1
                u = at[l1]
                ev = new_edge(v, u)
                comp.append(ev)
                comps.append((_RIGID if len(comp) > 3 else _POLYGON, comp))
                if (xn == vnum and yn == l1) or (yn == vnum and xn == l1):
                    eh = estack.pop()
                    if eh != row[idx]:
                        out[src[eh]][slot[eh]] = -1
                    ev2 = new_edge(v, u)
                    in_high[ev2] = in_high[eh]  # the frond list keeps its place
                    comps.append((_BOND, [eh, ev, ev2]))
                    deg[v] -= 1
                    deg[u] -= 1
                    ev = ev2
                if u != parent[v]:
                    estack.append(ev)
                    row[idx] = ev
                    slot[ev] = idx
                    if in_high[ev] < 0 and high(u) < vnum:  # now the first into u
                        in_high[ev] = len(high_src)
                        highs[u].append(len(high_src))
                        high_src.append(vnum)
                        high_live.append(1)
                    deg[v] += 1
                    deg[u] += 1
                else:
                    row[idx] = -1
                    ev2 = new_edge(u, v)
                    eh = tree_arc[v]
                    slot[ev2] = slot[eh]
                    comps.append((_BOND, [ev, ev2, eh]))
                    tree_arc[v] = ev2
                    out[u][slot[eh]] = ev2
            if starts[e]:
                while tstack.pop() is not eos:
                    pass
            high_v = high(v)
            while tstack[-1] is not eos:
                h, a, b = tstack[-1]
                if a == vnum or b == vnum or high_v <= h:
                    break
                tstack.pop()
        if i == len(row):
            stack.pop()
            continue
        nxt[v] = i + 1
        e = row[i]
        w = dst[e]
        if is_tree[e]:
            if starts[e]:
                l1 = low1[w]
                h = newnum[w] + nd[w] - 1
                b = vnum
                while tstack[-1][1] > l1:
                    h = max(h, tstack[-1][0])
                    b = tstack.pop()[2]
                tstack.append((h, l1, b))
                tstack.append(eos)
            via[v] = e
            stack.append(w)
        else:
            if starts[e]:
                wnum = newnum[w]
                if tstack[-1][1] > wnum:
                    h = 0
                    while tstack[-1][1] > wnum:
                        h = max(h, tstack[-1][0])
                        b = tstack.pop()[2]
                    tstack.append((h, wnum, b))
                else:
                    tstack.append((vnum, wnum, vnum))
            estack.append(e)
    comps.append((_RIGID if len(estack) > 3 else _POLYGON, estack))
    # merge bonds that share a virtual edge, and polygons likewise
    root = list(range(len(comps)))
    holder = [-1] * (len(src) - m)
    merged = bytearray(len(src) - m)
    for c, (kind, edges) in enumerate(comps):
        for e in edges:
            if e < m:
                continue
            d = holder[e - m]
            if d < 0:
                holder[e - m] = c
            elif kind != _RIGID and comps[d][0] == kind:
                merged[e - m] = 1
                root[_find(root, c)] = _find(root, d)
    nodes: dict[int, tuple[int, list[int]]] = {}
    for c, (kind, edges) in enumerate(comps):
        node = nodes.setdefault(_find(root, c), (kind, []))
        node[1].extend(e for e in edges if e < m or not merged[e - m])
    return src, dst, list(nodes.values()), m


def _spqr_pairs(adj, tree, ids, host_deg, pairs: dict, cycles: list) -> None:
    """Add the separation pairs of one 2-connected block to ``pairs`` and
    ``cycles`` (see ``_Blocks.separations``).  The block is given by local
    adjacency lists ``adj``, a DFS tree of it as ``_triconnected_components``
    takes it, the host id of each local vertex and the host degrees."""
    src, dst, nodes, m = _triconnected_components(adj, tree)
    deg = [host_deg[v] for v in ids]
    holder = [[] for _ in range(len(src) - m)]
    odd = []  # per node: its vertices whose host degree is not 2
    for c, (kind, edges) in enumerate(nodes):
        ends = 0
        for e in edges:
            ends += (deg[src[e]] != 2) + (deg[dst[e]] != 2)
            if e >= m:
                holder[e - m].append(c)
        odd.append(ends // 2 if kind == _POLYGON else -1)

    def bare(c, a, b):  # the side of the tree at node c is a bare a-b path
        return odd[c] == (deg[a] != 2) + (deg[b] != 2)

    for c, (kind, edges) in enumerate(nodes):
        if kind == _BOND:
            a, b = src[edges[0]], dst[edges[0]]
            sides = [d for e in edges if e >= m for d in holder[e - m] if d != c]
            pairs[min(ids[a], ids[b]), max(ids[a], ids[b])] = (
                len(sides), sum(bare(d, a, b) for d in sides))
        elif kind == _POLYGON:
            nbrs = {}
            for e in edges:
                nbrs.setdefault(src[e], []).append(dst[e])
                nbrs.setdefault(dst[e], []).append(src[e])
            prev = start = src[edges[0]]
            cycle = [ids[start]]
            cur = nbrs[start][0]
            while cur != start:
                cycle.append(ids[cur])
                x, y = nbrs[cur]
                prev, cur = cur, y if x == prev else x
            cycles.append(cycle)
    for e in range(m, len(src)):  # virtual edges not merged away, between two non-bonds
        if len(holder[e - m]) == 2:
            c, d = holder[e - m]
            if nodes[c][0] != _BOND and nodes[d][0] != _BOND:
                a, b = src[e], dst[e]
                pairs[min(ids[a], ids[b]), max(ids[a], ids[b])] = (
                    2, bare(c, a, b) + bare(d, a, b))


class _Blocks:
    """The degree of each vertex (``deg``) and the cut vertices (``cuts``)
    of a connected graph, from one ``_low_points`` DFS (``tree``), and on
    demand the vertex lists of its blocks and their separation pairs.

    Raises ValueError when the graph is not connected.
    """

    __slots__ = ("g", "tree", "cuts", "deg", "_blocks", "_separations")

    def __init__(self, g: Graph):
        self.g = g
        self.tree = _low_points(g._adj)
        if len(self.tree[0]) < g.n:
            raise ValueError("input must be connected")
        self.cuts = self.tree[6]
        self.deg = [mask.bit_count() for mask in g._adj]
        self._blocks = None
        self._separations = None

    def blocks(self) -> list[list[int]]:
        """The vertices of each block of g, in the preorder of the DFS.  Each
        block lists its vertices in preorder, its head, the vertex it hangs
        from, first: the DFS root for the first block, and for every later
        one a vertex of an earlier block.  A non-root vertex v opens a block
        under its parent p when low1[v] >= num[p].  Built on the first call,
        then kept; O(n).
        """
        if self._blocks is None:
            order, num, parent, low1, _, _, _ = self.tree
            block = [-1] * self.g.n  # the block of the tree edge into each vertex
            members: list[list[int]] = []
            for v in order[1:]:
                p = parent[v]
                if low1[v] >= num[p]:
                    block[v] = len(members)
                    members.append([p])
                else:
                    block[v] = block[p]
                members[block[v]].append(v)
            self._blocks = members
        return self._blocks

    def separations(self) -> tuple[dict, list]:
        """The separation pairs of every block B with four or more vertices,
        from its triconnected components (SPQR tree): ``(pairs, cycles)``.
        Built on the first call, then kept.

        ``pairs`` maps each pair (a, b), a < b, that is the two ends of a
        virtual edge to ``(components, bare)``: how many components B - {a, b}
        has (the virtual edges of the P-node at {a, b}, or 2), and how many of
        them are bare a-b paths.  ``cycles`` lists the cycle of every S-node;
        its non-adjacent pairs are the other separation pairs, each with the
        two arcs as its components.  A component is a bare path when every
        vertex of it has degree 2 in g: it is then an S-node arc of real
        edges.  There are no other separation pairs: an R-node skeleton is
        3-connected and a P-node has only its two poles, so any other pair
        leaves every skeleton, and with them B, connected.

        A 2-connected g is its own block and hands its SPQR tree the DFS of
        g.  Every block of a graph with a cut vertex is built as an induced
        subgraph and gets a DFS of its own.  O(n + m) time and memory.
        """
        if self._separations is not None:
            return self._separations
        g = self.g
        pairs: dict[tuple[int, int], tuple[int, int]] = {}
        cycles: list[list[int]] = []
        for ids in self.blocks():
            if len(ids) < 4:
                continue
            if len(ids) == g.n:  # g is 2-connected: its own block
                block, ids, tree = g, range(g.n), self.tree
            else:
                block, ids = induced_subgraph(g, mask_of(ids))
                tree = _low_points(block._adj)
            adj = [list(bits(mask)) for mask in block._adj]
            _spqr_pairs(adj, tree[1:6], ids, self.deg, pairs, cycles)
        self._separations = pairs, cycles
        return pairs, cycles


# (graph, its _Blocks) of the last search.  The colorers ask both searches
# about the same block in turn, so they share one DFS and one set of SPQR
# trees.  Graphs are immutable and the entry holds its graph, so identity
# finds the right one; it is replaced whole, so threads cannot pair one
# graph with another's blocks, and it keeps one graph alive at most.
_last_blocks: tuple = (None, None)

# Graphs with fewer vertices sweep their candidates one by one and build no
# SPQR tree.  The crossover, measured on cutset-free atoms, where the sweeps
# try every candidate (their worst case): both searches on a cubic prism,
# Moebius ladder or line graph of a subdivided K4 take 55-65 us by sweeping
# against 75-95 us with the tree at 8 vertices, 86 against 94 at 9, 90-100
# against 88-99 at 10, and 131-161 against 100-105 at 11 and 12.  On
# series-parallel blocks of 8 to 12 vertices, where the sweep stops at its
# first hit, it takes 10-24 us against 76-131.  Best of 5 x 300 calls with
# ``time.process_time``, CPython 3.11, 2-CPU x86-64 machine.
_SWEEP_BELOW = 10


def _blocks_of(g: Graph) -> _Blocks:
    global _last_blocks
    last_g, blocks = _last_blocks
    if last_g is not g:
        blocks = _Blocks(g)
        _last_blocks = g, blocks
    return blocks


def find_clique_cutset(g: Graph) -> CliqueCutset | None:
    """First (lex) clique of size <= 3 whose removal disconnects g.

    Callers must pass connected, K4-free graphs; both are checked.  The K4
    bound is what caps clique cutsets at three vertices.

    The cliques are walked in ``_cliques_lex`` order, and a clique goes
    through the component sweep only when it can split g:
    - one that holds a cut vertex (``_Blocks`` finds them in one DFS);
    - an edge ab with deg a >= 3 and deg b >= 3 that is a separation pair
      of its block B.  With neither end a cut vertex, g - {a, b} is
      disconnected exactly when B - {a, b} is, that is, when ab is the
      real edge of a P-node of B's SPQR tree (``_Blocks.separations``,
      built when the walk first reaches such an edge).  A graph with fewer
      than ``_SWEEP_BELOW`` vertices sweeps every such edge instead and
      builds no tree;
    - a triangle whose vertices have at least four edges leaving it,
      sum(deg v - 2) >= 4.
    Every other clique leaves g connected.  For a clique K of two or three
    vertices with no cut vertex, a component of g - K that met K in one
    vertex v only would make v a cut vertex, so every component meets K in
    at least two vertices.  Two components then need two neighbours
    outside K at each end of an edge, and at least four (vertex, component)
    contacts, each over its own edge leaving K, for a triangle.

    So the first clique and its sides are those of a sweep over all
    cliques.  Cost: O(n + m) for the DFS and for the SPQR trees, one step
    per clique for the walk, and one component sweep for each cut-vertex
    clique and triangle that passes and for the winner; below
    ``_SWEEP_BELOW`` vertices, one sweep per edge that passes the degree
    bound too.  The walk stops at the first cut vertex on a path or tree,
    and on a cycle no edge passes the degree bound, so neither builds an
    SPQR tree.
    """
    blocks = _blocks_of(g)
    cuts, deg = blocks.cuts, blocks.deg
    k4 = find_k4(g)
    if k4 is not None:
        raise ValueError(f"input contains a K4 {k4}; clique cutsets may exceed size 3")
    spqr = g.n >= _SWEEP_BELOW
    for clique in _cliques_lex(g):
        removed = mask_of(clique)
        if not removed & cuts:
            if len(clique) == 1:
                continue
            if len(clique) == 2:
                if deg[clique[0]] < 3 or deg[clique[1]] < 3:
                    continue
                if spqr and clique not in blocks.separations()[0]:
                    continue
            elif sum(deg[v] - 2 for v in clique) < 4:
                continue
        comps = component_masks(g, removed)
        if len(comps) >= 2:
            return CliqueCutset(clique, comps[0], ((1 << g.n) - 1) & ~removed & ~comps[0])
    return None


def _cycle_pair(cycle: list[int], deg: list[int]) -> tuple[int, int] | None:
    """Lex-first pair of an S-node cycle whose two arcs are both no bare
    path, that is, both hold a vertex of degree other than 2.

    For the vertex at position p, let f and l be the first such vertex after
    p and the last one before it (p itself not counted).  Its partners are
    exactly the positions strictly between f and l on the side away from p.
    The relation is symmetric, so the smallest vertex that has a partner
    comes first, with its smallest partner.  O(len(cycle)).
    """
    k = len(cycle)
    branch = [i for i, v in enumerate(cycle) if deg[v] != 2]
    if len(branch) < 2:
        return None
    after = [0] * k
    before = [0] * k
    q = branch[0]
    for t in range(1, k + 1):  # positions branch[0] - 1, ..., branch[0]
        p = (branch[0] - t) % k
        after[p] = q
        if deg[cycle[p]] != 2:
            q = p
    q = branch[-1]
    for t in range(1, k + 1):
        p = (branch[-1] + t) % k
        before[p] = q
        if deg[cycle[p]] != 2:
            q = p
    best = None
    for p in range(k):
        if (before[p] - after[p]) % k >= 2 and (best is None or cycle[p] < cycle[best]):
            best = p
    if best is None:
        return None
    f, gap = after[best], (before[best] - after[best]) % k
    return cycle[best], min(cycle[(f + t) % k] for t in range(1, gap))


def find_proper_2cutset(g: Graph) -> Proper2Cutset | None:
    """First (lex) non-adjacent pair {a,b} with a split of the components of
    g - {a,b} into two sides such that neither side together with {a,b}
    induces an a-b path.

    g must be connected and have no cut vertex; both are checked (ValueError).
    The colorers meet that: a cut vertex is a clique cutset of one vertex,
    and their clique cutset rule comes before this one, so a block that
    gets here has none.

    Only a single component can form an a-b path, and it does exactly when
    all of it has degree 2 in g and it touches both a and b (a bare path).
    With no cut vertex every component touches both.  So two components
    split when neither is bare, three when one is not bare and goes alone,
    and four or more always split.  The first side is the first component
    that is not bare, or else the first two components.  One mask of the
    degree-2 vertices serves that test and the exit on cycles.

    The candidates are the separation pairs of g, from its SPQR tree
    (``_Blocks.separations``): the ends of a virtual edge with the number of
    components of g - {a, b} and of bare ones, and the non-adjacent pairs
    of each S-node cycle (``_cycle_pair``).  Every other pair leaves g
    connected, so the one component sweep on the winner gives the sides of
    a sweep over all non-adjacent pairs.  Cost: O(n + m) for the DFS, the
    SPQR tree and the candidates, plus that sweep; the DFS and the tree are
    those of ``find_clique_cutset`` when it was asked about g just before.
    A graph with fewer than ``_SWEEP_BELOW`` vertices builds no tree: it
    sweeps the non-adjacent pairs in lex order and stops at the first that
    splits, one O(n + m) sweep per pair.  Cliques and graphs with fewer than
    four vertices (no non-adjacent pair splits) and cycles (every component
    is a bare path) sweep nothing.
    """
    blocks = _blocks_of(g)
    if blocks.cuts:
        raise ValueError("input has a cut vertex; split it on a clique cutset first")
    n, deg = g.n, blocks.deg
    deg2 = mask_of(v for v in range(n) if deg[v] == 2)
    if n < 4 or g.m == n * (n - 1) // 2 or deg2 == (1 << n) - 1:
        return None
    if n < _SWEEP_BELOW:
        return _swept_2cutset(g, deg2)
    pairs, cycles = blocks.separations()
    best = None
    for (a, b), (comps, bare) in pairs.items():
        if (
            (comps >= 4 or (comps == 3 and bare < 3) or (comps == 2 and not bare))
            and not g.mask(a) >> b & 1
            and (best is None or (a, b) < best)
        ):
            best = a, b
    for cycle in cycles:
        pair = _cycle_pair(cycle, deg)
        if pair is not None and (best is None or pair < best):
            best = pair
    if best is None:
        return None
    a, b = best
    return _proper_split(g, a, b, component_masks(g, (1 << a) | (1 << b)), deg2)


def _swept_2cutset(g: Graph, deg2: int) -> Proper2Cutset | None:
    """``find_proper_2cutset`` by one component sweep per non-adjacent pair,
    in lex order, with the same rule on the components and bare ones."""
    full = (1 << g.n) - 1
    for a in range(g.n):
        for b in bits(full & ~g.mask(a) & ~((2 << a) - 1)):
            comps = component_masks(g, (1 << a) | (1 << b))
            k = len(comps)
            if k < 2:
                continue
            bare = sum(not c & ~deg2 for c in comps)  # each touches a and b
            if k == 2 and bare or k == 3 and bare == 3:
                continue
            return _proper_split(g, a, b, comps, deg2)
    return None


def _proper_split(g: Graph, a: int, b: int, comps: list[int], deg2: int) -> Proper2Cutset:
    """The sides of the proper 2-cutset {a, b}, given the components of
    g - {a, b}: the first component that is no bare path, or else the first
    two components, against the rest."""
    ab = (1 << a) | (1 << b)
    xm = next((c for c in comps if c & ~deg2), comps[0] | comps[1])
    return Proper2Cutset(a, b, xm, ((1 << g.n) - 1) & ~ab & ~xm)


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
    ab = (1 << cut.a) | (1 << cut.b)
    bx, ix = induced_plus_edge(g, cut.side_x | ab, cut.a, cut.b)
    by, iy = induced_plus_edge(g, cut.side_y | ab, cut.a, cut.b)
    return bx, ix, by, iy


def _validate_2cutset(g: Graph, cut: Proper2Cutset) -> None:
    x, y = cut.side_x, cut.side_y
    ab = (1 << cut.a) | (1 << cut.b)
    if g.has_edge(cut.a, cut.b):
        raise ValueError("cut vertices are adjacent")
    if not x or not y:
        raise ValueError("cutset sides must be non-empty")
    if (x | y) & ab:
        raise ValueError("a side holds a cut vertex")
    if x | y | ab != (1 << g.n) - 1 or x & y:
        raise ValueError("sides must partition the remaining vertices")
    if any(g.mask(u) & y for u in bits(x)):
        raise ValueError("edge crosses the cut")


def _merge_blocks(x, y, shared):
    """The union of two block colorings ``({vertex: color}, palette)`` that
    overlap on ``shared``, Y's renamed to agree with X's (X's dict grows).
    The shared vertices must be rainbow in both blocks.  The renaming takes
    each shared vertex's color in Y to its color in X, and Y's other
    colors, in increasing order, to the ones X leaves free on ``shared``."""
    (colors, px), (colors_y, py) = x, y
    palette = max(px, py)
    shared_x = [colors[v] for v in shared]
    shared_y = [colors_y[v] for v in shared]
    if palette < len(shared_x):
        raise ValueError("palette smaller than the shared overlap")
    if len(set(shared_x)) != len(shared_x) or len(set(shared_y)) != len(shared_y):
        raise ValueError("shared vertices are not rainbow in both blocks")
    perm = [-1] * palette
    for cy, cx in zip(shared_y, shared_x):
        perm[cy] = cx
    free = iter(sorted(set(range(palette)).difference(shared_x)))
    perm = [next(free) if c == -1 else c for c in perm]
    for v, c in colors_y.items():
        colors[v] = perm[c]
    return colors, palette


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
    x = dict(zip(ids1, c1.assignment))
    y = dict(zip(ids2, c2.assignment))
    if any(v not in x or v not in y for v in shared):
        raise ValueError("a shared vertex is missing from a block")
    colors, palette = _merge_blocks((x, c1.palette_size), (y, c2.palette_size), shared)
    if colors.keys() != set(range(g.n)):
        raise ValueError("blocks do not cover the host graph")
    merged = Coloring(tuple(colors[v] for v in range(g.n)), palette)
    if not is_proper_coloring(g, merged):
        raise ValueError("merged coloring is not proper; the overlap was not a clique")
    return merged
