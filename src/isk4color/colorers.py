"""Constructive bounded colorers.

``color_triangle_free`` colors {K4-subdivision, triangle}-free graphs with at
most 4 colors; ``color_general`` colors K4-subdivision-free graphs with at
most 24.  Each colorer is a table of rules, and one driver, ``_drive``,
colors a connected block by the first rule whose detector finds a witness.
The rules split on clique cutsets and proper 2-cutsets, color the structured
leaf cases (thick complete multipartite, line graph of a subcubic root, rich
square), and otherwise color by nested BFS layerings whose layers are
progressively simpler (4-wheel-free, then boat-free, then girth >= 5).

The decomposition terminates because every cutset block misses a non-empty
side of its cut and so is smaller than its parent.  A split rule returns its
blocks to ``_drive``, which keeps them on one explicit stack and merges
their colorings on the cuts, so a long chain of clique cutsets or proper
2-cutsets costs no Python frames; only the layer tables call ``_drive``
again, at most three deep.  A cut vertex splits the block at every cut
vertex at once, into all of its blocks, read off the one DFS that found it:
a path, a tree or a caterpillar takes one search at its root and one merge
per edge, each renaming only the edge's own coloring, so it colors in
linear time.  The trace holds one entry per block, with the block's size
and its parent entry, so it grows linearly with the number of blocks.  A
one-vertex layer, or a one-vertex component of a layer, is no block: it
takes color 0 with no entry, and its layering's entry counts it.

Small blocks repeat, and ``_drive`` replays them.  A block of at most five
vertices is keyed by its rule table and labelled adjacency; the first time
its subtree finishes, its coloring and trace entries are recorded, and a
later block with the same key replays them: the many edges that split off
a tree are decomposed once.  The table lasts for one call, or for one
``run_suite`` call, whose graphs share it; no replay state outlives it.  A
replayed block costs a constant, runs no detector and builds no subgraph,
so a rebound detector sees only the blocks that are decomposed.

Class assumptions are checked operationally along the way.  In strict mode
the first failure raises ``ClassViolationError`` with a witness; in tolerant
mode the offending piece falls back to a greedy coloring and the failure is
recorded.  Output colorings are proper in every mode: ``_color`` checks the
coloring and the palette bound once per call and raises ``AssertionError``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import NamedTuple, Sequence

from .graph import (
    Graph,
    Coloring,
    bfs_layering,
    bits,
    component_masks,
    degeneracy_order,
    find_cycle,
    greedy_coloring,
    induced_subgraph,
    is_proper_coloring,
    k_core,
    mask_of,
    shortest_cycle,
)
from .decompose import (
    _blocks_of,
    _merge_blocks,
    build_2cutset_blocks,
    find_clique_cutset,
    find_proper_2cutset,
)
from .layering import combine_layer_colorings
from .oracle import _colorable
from .patterns import (
    KrauszPartition,
    MultipartiteShape,
    PatternWitness,
    check_rich_square,
    find_k4,
    find_k222,
    find_k33,
    find_prism,
    find_rich_square,
    find_triangle,
    recognize_line_graph_subcubic,
    recognize_thick_multipartite,
)

BOUND_TRIANGLE_FREE = 4
BOUND_GENERAL = 24
BOUND_C1 = 6
BOUND_C2 = 12
BOUND_C3 = 24


class Violation(NamedTuple):
    kind: str
    message: str
    vertices: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message, "vertices": list(self.vertices)}


class ClassViolationError(Exception):
    """Strict-mode abort carrying the first class-assumption failure."""

    def __init__(self, violation: Violation):
        super().__init__(f"{violation.kind}: {violation.message}")
        self.violation = violation


class NotAForestError(ValueError):
    def __init__(self, cycle):
        super().__init__(f"input contains the cycle {tuple(cycle)}")
        self.cycle = tuple(cycle)


class ColoringResult(NamedTuple):
    coloring: Coloring
    bound_claimed: int
    trace: Sequence[dict] = ()
    violations: Sequence[Violation] = ()

    def to_dict(self) -> dict:
        return {
            "palette_size": self.coloring.palette_size,
            "assignment": list(self.coloring.assignment),
            "bound_claimed": self.bound_claimed,
            "trace": self.trace,
            "violations": [v.to_dict() for v in self.violations],
        }


def _check_mode(mode: str) -> None:
    if mode not in ("strict", "tolerant"):
        raise ValueError(f"mode must be 'strict' or 'tolerant', got {mode!r}")


class _Run:
    """Mutable per-call context: mode, trace log, and violation collection.

    Every block that a rule colors has one trace entry: the rule, its
    details, the block's vertex count ``size`` and ``parent``, the index of
    the entry whose rule produced the block (None for a component of the
    input).  ``note`` appends the entry when the rule fires, so a parent
    comes before its children, and makes it ``parent``, the entry that the
    blocks the rule goes on to produce point to.  ``templates`` holds the
    small blocks already decomposed in this call or suite (``_drive``).
    """

    def __init__(self, mode: str, templates: dict):
        _check_mode(mode)
        self.mode = mode
        self.templates = templates
        self.trace: list[dict] = []
        self.violations: list[Violation] = []
        self.parent: int | None = None

    def note(self, rule: str, size: int, **detail) -> dict:
        entry = {"rule": rule}
        entry.update(detail)
        entry["size"] = size
        entry["parent"] = self.parent
        self.parent = len(self.trace)
        self.trace.append(entry)
        return entry

    def violate(self, kind: str, message: str, vertices=()) -> None:
        violation = Violation(kind, message, tuple(sorted(vertices)))
        if self.mode == "strict":
            raise ClassViolationError(violation)
        self.violations.append(violation)


def _map_ids(ids, sub_ids) -> tuple[int, ...]:
    return tuple(ids[v] for v in sub_ids)


# ---------------------------------------------------------------------------
# leaf colorers


def color_forest(g: Graph) -> Coloring:
    """Proper 2-coloring of a forest (1 color if edgeless, 0 if empty)."""
    cyc = find_cycle(g)
    if cyc is not None:
        raise NotAForestError(cyc)
    if g.n == 0:
        return Coloring((), 0)
    if g.m == 0:
        return Coloring((0,) * g.n, 1)
    assign = [-1] * g.n
    for comp in component_masks(g):
        for i, layer in enumerate(bfs_layering(g, (comp & -comp).bit_length() - 1)):
            for v in bits(layer):
                assign[v] = i % 2
    return Coloring(tuple(assign), 2)


def color_girth5(g: Graph) -> Coloring:
    """Greedy 3-coloring along reverse degeneracy order; sound for graphs of
    degeneracy <= 2, which covers K4-subdivision-free graphs of girth >= 5."""
    order, degeneracy = degeneracy_order(g)
    if degeneracy > 2:
        core = tuple(k_core(g, 3))
        raise ClassViolationError(
            Violation("degeneracy", f"degeneracy {degeneracy} exceeds 2", core)
        )
    return greedy_coloring(g, reversed(order))


def color_thick_multipartite(shape: MultipartiteShape) -> Coloring:
    """One color per part."""
    n = sum(len(p) for p in shape.parts)
    seen = sorted(v for p in shape.parts for v in p)
    if seen != list(range(n)):
        raise ValueError("parts must partition 0..n-1")
    assign = [0] * n
    for c, part in enumerate(shape.parts):
        for v in part:
            assign[v] = c
    return Coloring(tuple(assign), len(shape.parts))


def _edge(v: int, w: int) -> tuple[int, int]:
    """The key of the edge vw in an edge coloring: its ends in order."""
    return (v, w) if v < w else (w, v)


class EdgeColoring(NamedTuple):
    assignment: dict[tuple[int, int], int]
    palette_size: int
    out_of_contract: bool  # set when the input exceeded max degree 3


def edge_color_subcubic(h: Graph) -> EdgeColoring:
    """Proper edge coloring with at most max_degree + 1 colors via the
    fan-rotation and alternating-path method.

    Intended for max degree <= 3 (then at most 4 colors); larger inputs are
    still colored with max_degree + 1 colors but flagged out of contract.
    When the fan pass spends the extra color on a small graph, a bounded
    exact search tries to bring the palette down to max_degree, so desk-scale
    outputs match the optimum.
    """
    delta = max((h.degree(v) for v in range(h.n)), default=0)
    k = delta + 1 if delta else 0
    color: dict[tuple[int, int], int] = {}
    used: list[set[int]] = [set() for _ in range(h.n)]

    def free_colors(v):
        return [c for c in range(k) if c not in used[v]]

    def edge_at(v, c):
        for w in h.neighbors(v):
            e = _edge(v, w)
            if color.get(e) == c:
                return w, e
        return None

    def recount(v):
        used[v] = {color[e] for w in h.neighbors(v) if (e := _edge(v, w)) in color}

    def invert_path(start, c, d):
        # flip colors along the maximal path from ``start`` alternating d, c
        chain = []
        cur = start
        want = d
        while True:
            hit = edge_at(cur, want)
            if hit is None:
                break
            cur, e = hit
            chain.append(e)
            want = c if want == d else d
        for e in chain:
            color[e] = c if color[e] == d else d
        for v in set(x for e in chain for x in e):
            recount(v)

    for u, v in sorted(h.edges()):
        e = (u, v)
        both = sorted(set(free_colors(u)) & set(free_colors(v)))
        if both:
            color[e] = both[0]
            used[u].add(both[0])
            used[v].add(both[0])
            continue
        # build a maximal fan at u starting from v
        fan = [v]
        fan_edges = {v: e}
        while True:
            last = fan[-1]
            ext = None
            for w in h.neighbors(u):
                if w in fan:
                    continue
                ew = _edge(u, w)
                if ew in color and color[ew] not in used[last]:
                    ext = (w, ew)
                    break
            if ext is None:
                break
            fan.append(ext[0])
            fan_edges[ext[0]] = ext[1]
        c = free_colors(u)[0]
        d = free_colors(fan[-1])[0]
        invert_path(u, c, d)
        # after inversion find the first fan prefix endpoint where d is free
        w_idx = None
        for idx, w in enumerate(fan):
            if idx > 0 and color[fan_edges[w]] in used[fan[idx - 1]]:
                break  # fan property broken past here by the inversion
            if d not in used[w]:
                w_idx = idx
                break
        if w_idx is None:
            raise AssertionError("internal error: the alternating path freed no color")
        # rotate the fan prefix toward the uncolored edge, then finish with d;
        # apply in one batch (used-sets cannot track the transient duplicates)
        new_colors = {fan_edges[fan[idx]]: color[fan_edges[fan[idx + 1]]] for idx in range(w_idx)}
        new_colors[fan_edges[fan[w_idx]]] = d
        for e2, c2 in new_colors.items():
            color[e2] = c2
        for x in {u, *fan[: w_idx + 1]}:
            recount(x)

    palette = max(color.values(), default=-1) + 1
    # each color class is a matching of at most n // 2 edges, so an overfull
    # root, one with more than delta * (n // 2) edges, needs delta + 1 colors
    if palette == delta + 1 and h.m <= min(_EXACT_EDGE_SEARCH_EDGE_CAP, delta * (h.n // 2)):
        tight = _exact_edge_coloring(h, delta)
        if tight is not None:
            color = tight
            palette = delta
    _assert_proper_edge_coloring(h, color)
    return EdgeColoring(color, palette, delta > 3)


_EXACT_EDGE_SEARCH_EDGE_CAP = 60


def _exact_edge_coloring(h: Graph, k: int) -> dict | None:
    """A proper k-edge-coloring of h, as a k-coloring of its line graph by
    ``oracle._colorable``, or None.

    The edges, in sorted order, are the vertices of L(h), taken in the order
    of a stack walk that keeps assignments forced: pop the last edge, push
    its unseen neighbours in increasing order; then the edges the walk
    missed, in order.  Along that order the search returns the
    lexicographically first proper k-coloring, the same one as a search that
    tries every color at every edge: the first coloring is first-use
    canonical, since one that skipped a color at some edge would, with the
    two colors swapped from there on, give a smaller coloring, so the
    first-use pruning never cuts it off.
    """
    edges = sorted(h.edges())
    at = [0] * h.n  # the edges at each vertex, as a mask of edge indices
    for i, (u, v) in enumerate(edges):
        at[u] |= 1 << i
        at[v] |= 1 << i
    line = Graph.from_masks((at[u] | at[v]) ^ 1 << i for i, (u, v) in enumerate(edges))
    order: list[int] = []
    seen = 0
    stack = [0] if edges else []
    while stack:
        i = stack.pop()
        if not seen >> i & 1:
            seen |= 1 << i
            order.append(i)
            stack += bits(line.mask(i) & ~seen)
    order += [i for i in range(len(edges)) if not seen >> i & 1]
    colors = _colorable(line, order, k)
    return None if colors is None else dict(zip(edges, colors))


def _assert_proper_edge_coloring(h: Graph, color) -> None:
    for u, v in h.edges():
        if (u, v) not in color:
            raise AssertionError(f"edge ({u},{v}) left uncolored")
    for v in range(h.n):
        cs = [color[_edge(v, w)] for w in h.neighbors(v)]
        if len(cs) != len(set(cs)):
            raise AssertionError(f"color clash at vertex {v}")


def color_line_graph(g: Graph, kp: KrauszPartition) -> Coloring:
    """Pull an edge coloring of the subcubic root back through the
    vertex-of-g <-> edge-of-root bijection."""
    rebuilt_edges = sorted(tuple(sorted(kp.root_edge_of[v])) for v in range(g.n))
    if rebuilt_edges != sorted(kp.root.edges()) or len(rebuilt_edges) != g.n:
        raise ValueError("partition does not match the graph")
    ec = edge_color_subcubic(kp.root)
    assign = [ec.assignment[_edge(*kp.root_edge_of[v])] for v in range(g.n)]
    palette = max(assign, default=-1) + 1
    coloring = Coloring(tuple(assign), max(palette, 1) if g.n else 0)
    if not is_proper_coloring(g, coloring):
        raise ValueError("invalid partition: pulled-back coloring is not proper")
    return coloring


def color_rich_square(g: Graph, witness: PatternWitness) -> Coloring:
    """The fixed scheme for a rich square: opposite square corners share a
    color, one-vertex attachments take a third color, two-ended attachment
    paths take the third and fourth colors at their ends and alternate the
    square colors inside."""
    if witness.kind != "rich_square":
        raise ValueError("witness must be a rich_square")
    square = tuple(witness.extra["square"])
    links = check_rich_square(g, square)
    if links is None or set(witness.vertices) != set(range(g.n)):
        raise ValueError("invalid rich square witness")
    u1, u2, u3, u4 = square
    assign = [-1] * g.n
    assign[u1] = assign[u3] = 0
    assign[u2] = assign[u4] = 1
    for link in links:
        if len(link) == 1:
            assign[link[0]] = 2
        else:
            assign[link[0]] = 2
            assign[link[-1]] = 3
            for k, v in enumerate(link[1:-1]):
                assign[v] = k % 2
    coloring = Coloring(tuple(assign), max(assign) + 1)
    if not is_proper_coloring(g, coloring):
        raise AssertionError("internal error: the rich square scheme produced an improper coloring")
    return coloring


def greedy_fallback(g: Graph) -> Coloring:
    """Reverse-degeneracy greedy; proper with at most degeneracy+1 colors."""
    return greedy_coloring(g)


# ---------------------------------------------------------------------------
# rules and the driver


def _drive(g: Graph, ids, run: _Run, rules) -> Coloring:
    """Color the connected graph ``g`` (input ids ``ids``) by its
    decomposition, on one explicit stack.

    A rule is ``(detector, handler, *params)``.  The detector names a function
    of this module, looked up at call time so that rebinding the module
    attribute (as a tracer does) reaches every call on a block that is
    decomposed.  The handler is called as
    ``handler(b, ids, run, witness, rules[i:])`` and reads its params from
    its own rule, ``rules[0]`` (a fixed-arity call is cheaper than
    ``*params`` on the many small blocks of the cutsets).  It returns the
    block's coloring; a split ``(cuts, children)``, each child a
    ``(block, ids, rules)`` and ``cuts`` the input ids that each child after
    the first shares with the children before it; or None, which passes on
    to the next rule.  The children's subtrees are colored in order; then
    each child after the first is folded into the first, its coloring
    renamed to agree on its cut (``_merge_blocks``, on input ids), so a
    merge costs O(child) however many blocks came before.

    A block decomposes the same way wherever it occurs: its rules and its
    labelled adjacency decide its subtree, and the input ids only name its
    vertices in the trace.  So a block of at most ``_TEMPLATE_MAX_N``
    vertices is keyed by ``(rules, adjacency)`` in ``run.templates``, the
    first time its subtree finishes it is recorded there (``_record``), and
    a later block with the same key appends the entries renamed to its own
    ids and takes the coloring, running no rule and no detector; it then
    leaves as a colored block does.  ``run.parent``, the parent of ``g``'s
    entry, is set to each block's parent before its rules run and restored
    on return.
    """
    outer = run.parent
    templates = run.templates
    # blocks (graph, ids, rules, parent entry), and after the children of a
    # split, (None, cuts, the split block's ``_record`` arguments or None, None)
    todo = [(g, ids, rules, outer)]
    done = []  # colorings of finished blocks, ({input id: color}, palette)
    while todo:
        b, bids, brules, parent = todo.pop()
        if b is None:  # every child of the split is colored: fold them into the first
            k = len(bids)
            first = done[-k - 1]
            for cut, child in zip(bids, done[-k:]):
                first = _merge_blocks(first, child, cut)
            done[-k - 1:] = [first]
            if brules is not None:  # the split block is small: record it
                key, split_ids, start, violations = brules
                colors, palette = first
                out = Coloring(tuple(colors[v] for v in split_ids), palette)
                _record(run, key, split_ids, start, violations, out)
            continue
        key = (brules, b._adj) if b.n <= _TEMPLATE_MAX_N else None
        template = key and templates.get(key)
        if template is not None:
            entries, old_ids, start, out = template
            names = dict(zip(old_ids, bids))
            run.trace += _remap(entries, names, len(run.trace) - start, parent)
        else:
            start, violations = len(run.trace), len(run.violations)
            run.parent = parent
            for i, rule in enumerate(brules):
                detector = rule[0]
                witness = globals()[detector](b) if detector else None
                if witness is not None or not detector:
                    out = rule[1](b, bids, run, witness, brules[i:])
                    if out is not None:
                        break
            if type(out) is not Coloring:  # a split: its rule's entry parents the children
                cuts, children = out
                pending = None if key is None else (key, bids, start, violations)
                todo.append((None, cuts, pending, None))
                todo += [(*child, run.parent) for child in reversed(children)]
                continue
            if key is not None:
                _record(run, key, bids, start, violations, out)
        if not todo:  # ``g`` itself was not split
            run.parent = outer
            return out
        done.append((dict(zip(bids, out.assignment)), out.palette_size))
    run.parent = outer
    colors, palette = done.pop()
    return Coloring(tuple(colors[v] for v in ids), palette)


# Blocks of at most this many vertices replay templates (``_drive``), so a
# table holds at most 1,099 labelled adjacencies per rule table.  The two
# colorer suites at n = 8 take 2.29 CPU-s with no templates, 1.70 with a
# cap of 4 and 1.62 with 5 (0.9 MB more peak memory); 6 saves 0.04 more
# for 4 MB more, and 8 saves nothing more for 41 MB, storing large blocks
# that rarely repeat (CPython 3.11, a 2-CPU machine).
_TEMPLATE_MAX_N = 5

# The trace fields that list vertices by input id; ``root`` names one.
_VERTEX_LISTS = frozenset(("clique", "cut", "cuts", "square"))

# The coloring of a one-vertex layer or component of a layer.
_ONE_COLORING = Coloring((0,), 1)


def _record(run: _Run, key, ids, start: int, violations: int, out: Coloring) -> None:
    """Store the finished subtree of the block ``key`` as ``(entries, ids,
    start, coloring)``: its trace entries, which begin at index ``start``
    and name the block's vertices by the input ids ``ids``, and its
    coloring in block order.  A replay renames them (``_remap``), so
    recording a block that never repeats copies no entry.  A rule notes
    before it makes a block, so the first entry, if any, is the block's own.

    A subtree that recorded a violation (its count moved from
    ``violations``) is not stored, so a strict call still meets the
    violation.
    """
    if len(run.violations) == violations:
        run.templates[key] = run.trace[start:], ids, start, out


def _remap(entries, names, shift: int, parent) -> list[dict]:
    """Copies of the trace ``entries`` of one subtree, the vertices they
    name renamed through ``names[old input id]`` and their parent indices
    moved by ``shift``; the first entry, the subtree's root, gets
    ``parent``.  The other fields, the rule and counts, are copied as they
    are."""
    out = []
    for entry in entries:
        copy = entry.copy()
        for k, x in entry.items():
            if type(x) is list:
                copy[k] = [names[v] for v in x] if k in _VERTEX_LISTS else x[:]
        if "root" in entry:
            copy["root"] = names[entry["root"]]
        copy["parent"] = entry["parent"] + shift if out else parent
        out.append(copy)
    return out


def _per_component(g: Graph, ids, run: _Run, rules, layer: bool = True) -> Coloring:
    """Color each component of g with ``_drive``.  A one-vertex component
    of a ``layer`` takes color 0 with no ``_drive`` call and no trace entry:
    the layering's entry counts it in its layer sizes and palettes.  One of
    the input is a block like any other."""
    comps = component_masks(g)
    if len(comps) == 1:
        return _drive(g, ids, run, rules)
    if g.n == 0:
        return Coloring((), 0)
    assign = [-1] * g.n
    palette = 0
    for comp in comps:
        if comp & (comp - 1) or not layer:
            sub, sub_ids = induced_subgraph(g, comp)
            c = _drive(sub, _map_ids(ids, sub_ids), run, rules)
        else:  # one vertex of a layer: no subgraph to build
            sub_ids = (comp.bit_length() - 1,)
            c = _ONE_COLORING
        for k, v in enumerate(sub_ids):
            assign[v] = c.assignment[k]
        palette = max(palette, c.palette_size)
    return Coloring(tuple(assign), max(palette, 1))


def _fallback(g: Graph, ids, run: _Run, vertices, rules) -> Coloring:
    """Record the violation ``rules[0]`` ends with (kind, message), color greedily."""
    kind, message = rules[0][-2:]
    run.violate(kind, message, _map_ids(ids, vertices))
    run.note("greedy_fallback", g.n)
    return greedy_fallback(g)


def _recurse_clique_cutset(g, ids, run, _witness, rules):
    """Split ``g`` on its first clique cutset K into the blocks induced on
    X + K and Y + K.  When ``g`` has a cut vertex, split it at every cut
    vertex at once instead, into its blocks in the preorder of the DFS that
    the search has just run (``_Blocks.blocks``), each sharing its head
    with the blocks before it.  That holds also when K is an edge or a
    triangle through a cut vertex, which comes first when a leaf is
    numbered below its neighbour: peeling K would take one level, and one
    search of the rest, per cut vertex.  Every block keeps ``rules``, so
    what the rules before this one ruled out stays ruled out; a block with
    no clique cutset is an atom and goes on to the rest of the table."""
    cut = find_clique_cutset(g)
    if cut is None:
        return None
    blocks = _blocks_of(g)
    if blocks.cuts:
        members = blocks.blocks()
        cuts = [(ids[block[0]],) for block in members[1:]]  # each cut vertex heads one or more
        run.note("cut_vertices", g.n, cuts=sorted({v for v, in cuts}), blocks=len(members))
        masks = map(mask_of, members)  # lazily: a mask has up to g.n bits
    else:
        run.note("clique_cutset", g.n, clique=[ids[v] for v in cut.clique],
                 sides=[cut.side_x.bit_count(), cut.side_y.bit_count()])
        cuts = [_map_ids(ids, cut.clique)]
        clique = mask_of(cut.clique)
        masks = [cut.side_x | clique, cut.side_y | clique]
    subs = (induced_subgraph(g, mask) for mask in masks)
    return cuts, [(sub, _map_ids(ids, sub_ids), rules) for sub, sub_ids in subs]


def _recurse_2cutset(g, ids, run, cut2, _rules):
    """Split on a proper 2-cutset {a, b}.  The marker edge of a block can
    close a K4, so both blocks restart at the first rule of ``_GENERAL``."""
    run.note("proper_2cutset", g.n, cut=[ids[cut2.a], ids[cut2.b]],
             sides=[cut2.side_x.bit_count(), cut2.side_y.bit_count()])
    bx, ids_x, by, ids_y = build_2cutset_blocks(g, cut2)
    return ([(ids[cut2.a], ids[cut2.b])], [(bx, _map_ids(ids, ids_x), _GENERAL),
                                           (by, _map_ids(ids, ids_y), _GENERAL)])


def _thick(g, ids, run, k33, rules) -> Coloring:
    """A block with a K33 and no clique cutset must be a thick complete
    multipartite graph with at most the rule's ``max_parts`` parts."""
    rule, max_parts = rules[0][2:4]
    shape = recognize_thick_multipartite(g)
    if shape is not None and shape.thick and len(shape.parts) <= max_parts:
        run.note(rule, g.n, parts=[len(p) for p in shape.parts])
        return color_thick_multipartite(shape)
    return _fallback(g, ids, run, k33.vertices, rules)


def _structured(g, ids, run, trigger, rules) -> Coloring:
    """A block with a K222 or a prism and no cutset must be a line graph of
    a subcubic root or a rich square."""
    kp = recognize_line_graph_subcubic(g)
    if kp is not None:
        run.note("line_graph_subcubic", g.n, root_n=kp.root.n, cliques=len(kp.cliques))
        return color_line_graph(g, kp)
    rs = find_rich_square(g)
    if rs is not None:
        run.note("rich_square", g.n, square=[ids[v] for v in rs.extra["square"]],
                 links=len(rs.extra["links"]))
        return color_rich_square(g, rs)
    return _fallback(g, ids, run, trigger.vertices, rules)


def _layered(g: Graph, ids, run: _Run, _witness, rules) -> Coloring:
    """Layer a connected graph from its lowest vertex and color each layer
    with ``color_layer(layer, ids, run, layer_rules)``, combining odd and
    even palettes."""
    rule, color_layer, layer_rules = rules[0][2:]
    layers = bfs_layering(g, 0)
    entry = run.note(rule, g.n, root=ids[0], layer_sizes=[layer.bit_count() for layer in layers])
    per_layer = []
    for layer in layers:
        if layer & (layer - 1):
            sub, sub_ids = induced_subgraph(g, layer)
            per_layer.append(color_layer(sub, _map_ids(ids, sub_ids), run, layer_rules))
        else:  # one vertex: color 0, no subgraph and no trace entry
            per_layer.append(_ONE_COLORING)
    combined = combine_layer_colorings(g, layers, per_layer)
    entry["layer_palettes"] = [c.palette_size for c in per_layer]
    entry["palette"] = combined.palette_size
    return combined


def _c1_layer(g: Graph, ids, run: _Run, _rules) -> Coloring:
    """Color one innermost layer, which is girth >= 5 for inputs in class C1."""
    cyc = shortest_cycle(g)
    if cyc is not None and len(cyc) < 5:
        run.violate(
            "short_cycle_in_layer",
            f"layer contains a cycle of length {len(cyc)} (girth must be >= 5)",
            _map_ids(ids, cyc),
        )
        return greedy_fallback(g)
    try:
        return color_girth5(g)
    except ClassViolationError as exc:
        run.violate(
            "layer_degeneracy",
            "layer is not 2-degenerate",
            _map_ids(ids, exc.violation.vertices),
        )
        return greedy_fallback(g)


def _tf_layer(g: Graph, ids, run: _Run, _rules) -> Coloring:
    try:
        return color_forest(g)
    except NotAForestError as exc:
        run.violate(
            "cycle_in_layer",
            "a layer induces a cycle; the input is outside the triangle-free class",
            _map_ids(ids, exc.cycle),
        )
        return greedy_fallback(g)


# The nested layering chain (K222-free, 4-wheel-free, boat-free classes): the
# components of a layer go to the next table, the innermost layers to _c1_layer.
_C1 = ((None, _layered, "layering_girth5", _c1_layer, None),)
_C2 = ((None, _layered, "layering_boat_free", _per_component, _C1),)
_C3 = ((None, _layered, "layering_4wheel_free", _per_component, _C2),)

_NOT_DECOMPOSABLE = ("graph contains a %s but is neither a subcubic line graph "
                     "nor a rich square, and has no cutset")

# After the K4 rule, a complete multipartite block has at most 3 parts.
_GENERAL = (
    ("find_k4", _fallback, "k4", "graph contains K4, so it is not K4-subdivision-free"),
    (None, _recurse_clique_cutset),
    ("find_k33", _thick, "thick_multipartite", 3, "k33_not_multipartite",
     "graph contains K33 but is neither thick complete multipartite "
     "nor clique-cutset decomposable"),
    ("find_proper_2cutset", _recurse_2cutset),
    ("find_k222", _structured, "k222_not_decomposable", _NOT_DECOMPOSABLE % "k222"),
    ("find_prism", _structured, "prism_not_decomposable", _NOT_DECOMPOSABLE % "prism"),
) + _C3

_TRIANGLE_FREE = (
    (None, _recurse_clique_cutset),
    ("find_k33", _thick, "thick_bipartite", 2, "k33_not_bipartite",
     "graph contains K33 but is not a thick complete bipartite graph "
     "and has no clique cutset"),
    (None, _layered, "layering_forest", _tf_layer, None),
)


# The block templates of the running ``run_suite`` call, shared by its graphs.
_SUITE_TEMPLATES: ContextVar[dict | None] = ContextVar("suite_templates", default=None)


@contextmanager
def _suite_templates():
    """Share one table of block templates among the colorer calls inside
    the ``with`` block (or the decorated function), and drop it on exit."""
    token = _SUITE_TEMPLATES.set({})
    try:
        yield
    finally:
        _SUITE_TEMPLATES.reset(token)


def _color(g: Graph, mode: str, rules, bound: int) -> ColoringResult:
    """Color each component by ``rules`` and check the certificate once: the
    coloring is proper, and it stays within ``bound`` unless a class
    violation was recorded.  The block templates are the suite's, inside
    ``run_suite``, and this call's own otherwise."""
    templates = _SUITE_TEMPLATES.get()
    run = _Run(mode, {} if templates is None else templates)
    coloring = _per_component(g, tuple(range(g.n)), run, rules, layer=False)
    if not is_proper_coloring(g, coloring):
        raise AssertionError("internal error: produced an improper coloring")
    if not run.violations and coloring.palette_size > bound:
        raise AssertionError(
            f"internal error: palette {coloring.palette_size} exceeds bound {bound} without violations"
        )
    return ColoringResult(coloring, bound, run.trace, run.violations)


def color_c1(g: Graph, mode: str = "strict") -> ColoringResult:
    """Layered coloring for {K4-subdivision, K33, prism, boat}-free graphs:
    every layer has girth >= 5, so 3 colors per parity class suffice (<= 6)."""
    return _color(g, mode, _C1, BOUND_C1)


def color_c2(g: Graph, mode: str = "strict") -> ColoringResult:
    """{K4-subdivision, K33, prism, 4-wheel}-free graphs: layers are boat-free,
    so each colors with 6 and the whole graph with <= 12."""
    return _color(g, mode, _C2, BOUND_C2)


def color_c3(g: Graph, mode: str = "strict") -> ColoringResult:
    """{K4-subdivision, K33, prism, K222}-free graphs: layers are 4-wheel-free,
    so each colors with 12 and the whole graph with <= 24."""
    return _color(g, mode, _C3, BOUND_C3)


def color_triangle_free(g: Graph, mode: str = "strict") -> ColoringResult:
    """Proper coloring of a {K4-subdivision, triangle}-free graph with at most
    4 colors.  A triangle in the input is rejected in both modes; other class
    failures follow the strict/tolerant contract."""
    _check_mode(mode)
    tri = find_triangle(g)
    if tri is not None:
        raise ClassViolationError(
            Violation("triangle", "input contains a triangle", tuple(sorted(tri.vertices)))
        )
    return _color(g, mode, _TRIANGLE_FREE, BOUND_TRIANGLE_FREE)


def color_general(g: Graph, mode: str = "strict") -> ColoringResult:
    """Proper coloring of a K4-subdivision-free graph with at most 24 colors."""
    return _color(g, mode, _GENERAL, BOUND_GENERAL)


def color_auto(g: Graph, mode: str = "strict") -> tuple[str, ColoringResult]:
    """triangle-free algorithm when no triangle exists, else the general one."""
    if find_triangle(g) is None:
        return "triangle-free", color_triangle_free(g, mode)
    return "general", color_general(g, mode)
