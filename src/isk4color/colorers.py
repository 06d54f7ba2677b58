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
two blocks to ``_drive``, which keeps them on one explicit stack and merges
their colorings on the cut, so a long chain of clique cutsets or proper
2-cutsets (a path peels one vertex per cutset) costs no Python frames; only
the layer tables call ``_drive`` again, at most three deep.  The trace holds
one entry per block, with the block's size and its parent entry, so it grows
linearly with the number of blocks.

Class assumptions are checked operationally along the way.  In strict mode
the first failure raises ``ClassViolationError`` with a witness; in tolerant
mode the offending piece falls back to a greedy coloring and the failure is
recorded.  Output colorings are proper in every mode: ``_color`` checks the
coloring and the palette bound once per call and raises ``AssertionError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import (
    Graph,
    Coloring,
    bfs_layering,
    connected_components,
    degeneracy_order,
    find_cycle,
    greedy_coloring,
    induced_subgraph,
    is_proper_coloring,
    k_core,
    shortest_cycle,
)
from .decompose import (
    _merge_blocks,
    build_2cutset_blocks,
    find_clique_cutset,
    find_proper_2cutset,
)
from .layering import combine_layer_colorings
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


@dataclass
class Violation:
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


@dataclass
class ColoringResult:
    coloring: Coloring
    bound_claimed: int
    trace: list[dict] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "palette_size": self.coloring.palette_size,
            "assignment": list(self.coloring.assignment),
            "bound_claimed": self.bound_claimed,
            "trace": self.trace,
            "violations": [v.to_dict() for v in self.violations],
        }


class _Run:
    """Mutable per-call context: mode, trace log, and violation collection.

    Every block that a rule colors has one trace entry: the rule, its
    details, the block's vertex count ``size`` and ``parent``, the index of
    the entry whose rule produced the block (None for a component of the
    input).  ``enter`` reserves the entry when the block is entered, so a
    parent comes before its children; ``slot`` is the entry of the block
    whose rule is running.
    """

    def __init__(self, mode: str):
        if mode not in ("strict", "tolerant"):
            raise ValueError(f"mode must be 'strict' or 'tolerant', got {mode!r}")
        self.mode = mode
        self.trace: list = []
        self.violations: list[Violation] = []
        self.slot: int | None = None

    def enter(self, parent: int | None) -> None:
        """Reserve the entry of a block produced by the rule of entry
        ``parent`` and make it the running one."""
        self.slot = len(self.trace)
        self.trace.append(parent)  # until ``note`` fills the entry

    def note(self, rule: str, size: int, **detail):
        entry = {"rule": rule}
        entry.update(detail)
        entry["size"] = size
        entry["parent"] = self.trace[self.slot]
        self.trace[self.slot] = entry

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
    for comp in connected_components(g):
        root = min(comp)
        layering = bfs_layering(g, root)
        for i, layer in enumerate(layering.layers):
            for v in layer:
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


@dataclass
class EdgeColoring:
    assignment: dict[tuple[int, int], int]
    palette_size: int
    max_degree: int
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

    def set_color(e, c):
        old = color.get(e)
        if old is not None:
            used[e[0]].discard(old)
            used[e[1]].discard(old)
        color[e] = c
        used[e[0]].add(c)
        used[e[1]].add(c)

    def edge_at(v, c):
        for w in h.neighbors(v):
            e = (min(v, w), max(v, w))
            if color.get(e) == c:
                return w, e
        return None

    def invert_path(start, c, d):
        # flip colors along the maximal path from ``start`` alternating d, c
        chain = []
        cur = start
        want = d
        prev = -1
        while True:
            hit = edge_at(cur, want)
            if hit is None:
                break
            w, e = hit
            if w == prev:
                break
            chain.append(e)
            prev, cur = cur, w
            want = c if want == d else d
        for e in chain:
            color[e] = c if color[e] == d else d
        for v in set(x for e in chain for x in e):
            used[v] = {color[(min(v, w), max(v, w))] for w in h.neighbors(v)
                       if (min(v, w), max(v, w)) in color}

    for u, v in sorted(h.edges()):
        e = (u, v)
        both = sorted(set(free_colors(u)) & set(free_colors(v)))
        if both:
            set_color(e, both[0])
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
                ew = (min(u, w), max(u, w))
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
            used[x] = {
                color[(min(x, y), max(x, y))]
                for y in h.neighbors(x)
                if (min(x, y), max(x, y)) in color
            }

    palette = max(color.values(), default=-1) + 1
    if palette == delta + 1 and h.m <= _EXACT_EDGE_SEARCH_EDGE_CAP:
        tight = _exact_edge_coloring(h, delta)
        if tight is not None:
            color = tight
            palette = delta
    _assert_proper_edge_coloring(h, color)
    return EdgeColoring(color, palette, delta, delta > 3)


_EXACT_EDGE_SEARCH_EDGE_CAP = 60


def _exact_edge_coloring(h: Graph, k: int) -> dict | None:
    """Backtracking k-edge-coloring; edges ordered to keep assignments forced."""
    edges = sorted(h.edges())
    order: list[tuple[int, int]] = []
    seen = set()
    frontier = list(edges[:1])
    while frontier:
        e = frontier.pop()
        if e in seen:
            continue
        seen.add(e)
        order.append(e)
        for f in edges:
            if f not in seen and set(e) & set(f):
                frontier.append(f)
    order += [e for e in edges if e not in seen]
    used: list[set[int]] = [set() for _ in range(h.n)]
    assign: dict[tuple[int, int], int] = {}

    def rec(i):
        if i == len(order):
            return True
        u, v = order[i]
        for c in range(k):
            if c in used[u] or c in used[v]:
                continue
            used[u].add(c)
            used[v].add(c)
            assign[(u, v)] = c
            if rec(i + 1):
                return True
            used[u].discard(c)
            used[v].discard(c)
            del assign[(u, v)]
        return False

    return dict(assign) if rec(0) else None


def _assert_proper_edge_coloring(h: Graph, color) -> None:
    for u, v in h.edges():
        if (u, v) not in color:
            raise AssertionError(f"edge ({u},{v}) left uncolored")
    for v in range(h.n):
        cs = [color[(min(v, w), max(v, w))] for w in h.neighbors(v)]
        if len(cs) != len(set(cs)):
            raise AssertionError(f"color clash at vertex {v}")


def color_line_graph(g: Graph, kp: KrauszPartition) -> Coloring:
    """Pull an edge coloring of the subcubic root back through the
    vertex-of-g <-> edge-of-root bijection."""
    rebuilt_edges = sorted(tuple(sorted(kp.root_edge_of[v])) for v in range(g.n))
    if rebuilt_edges != sorted(kp.root.edges()) or len(rebuilt_edges) != g.n:
        raise ValueError("partition does not match the graph")
    ec = edge_color_subcubic(kp.root)
    assign = []
    for v in range(g.n):
        a, b = kp.root_edge_of[v]
        assign.append(ec.assignment[(min(a, b), max(a, b))])
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
    attribute (as a tracer does) reaches every call; None always applies.
    The handler is called as ``handler(b, ids, run, witness, rules[i:])`` and
    reads its params from its own rule, ``rules[0]`` (a fixed-arity call is
    cheaper than ``*params`` on the many small blocks of the cutsets).  It
    returns the block's coloring; a split ``(shared input ids, x, y)``, each
    side a ``(block, ids, rules)``; or None, which passes on to the next rule.
    X's subtree is colored first; Y's coloring is then renamed to agree with
    X's on the cut (``_merge_blocks``), on input ids.
    """
    outer = run.slot
    todo = [(g, ids, rules, outer)]  # blocks (graph, ids, rules, parent entry)
    done = []  # colorings of finished blocks, ({input id: color}, palette)
    while todo:
        b, bids, brules, parent = todo.pop()
        if b is None:  # both sides of the split on the cut ``bids`` are colored
            done.append(_merge_blocks(done.pop(-2), done.pop(), bids))
            continue
        run.enter(parent)
        for i, rule in enumerate(brules):
            detector = rule[0]
            witness = globals()[detector](b) if detector else None
            if witness is not None or not detector:
                out = rule[1](b, bids, run, witness, brules[i:])
                if out is not None:
                    break
        if type(out) is Coloring:
            if not todo:  # ``g`` itself was not split
                run.slot = outer
                return out
            done.append((dict(zip(bids, out.assignment)), out.palette_size))
        else:
            shared, x, y = out
            todo.append((None, shared, None, None))
            todo.append((*y, run.slot))
            todo.append((*x, run.slot))
    run.slot = outer
    colors, palette = done.pop()
    return Coloring(tuple(colors[v] for v in ids), palette)


def _per_component(g: Graph, ids, run: _Run, rules) -> Coloring:
    comps = connected_components(g)
    if len(comps) == 1:
        return _drive(g, ids, run, rules)
    if g.n == 0:
        return Coloring((), 0)
    assign = [-1] * g.n
    palette = 0
    for comp in comps:
        sub, sub_ids = induced_subgraph(g, comp)
        c = _drive(sub, _map_ids(ids, sub_ids), run, rules)
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
    X + K and Y + K.  Both keep ``rules``, so what the rules before this one
    ruled out stays ruled out; a block with no clique cutset is an atom and
    goes on to the rest of the table."""
    cut = find_clique_cutset(g)
    if cut is None:
        return None
    run.note("clique_cutset", g.n, clique=[ids[v] for v in cut.clique],
             sides=[len(cut.side_x), len(cut.side_y)])
    clique = set(cut.clique)
    bx, ids_x = induced_subgraph(g, cut.side_x | clique)
    by, ids_y = induced_subgraph(g, cut.side_y | clique)
    return (_map_ids(ids, cut.clique), (bx, _map_ids(ids, ids_x), rules),
            (by, _map_ids(ids, ids_y), rules))


def _recurse_2cutset(g, ids, run, cut2, _rules):
    """Split on a proper 2-cutset {a, b}.  The marker edge of a block can
    close a K4, so both blocks restart at the first rule of ``_GENERAL``."""
    run.note("proper_2cutset", g.n, cut=[ids[cut2.a], ids[cut2.b]],
             sides=[len(cut2.side_x), len(cut2.side_y)])
    bx, ids_x, by, ids_y = build_2cutset_blocks(g, cut2)
    return ((ids[cut2.a], ids[cut2.b]), (bx, _map_ids(ids, ids_x), _GENERAL),
            (by, _map_ids(ids, ids_y), _GENERAL))


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
    layering = bfs_layering(g, 0)
    per_layer = []
    layer_palettes = []
    for layer in layering.layers:
        sub, sub_ids = induced_subgraph(g, layer)
        per_layer.append(color_layer(sub, _map_ids(ids, sub_ids), run, layer_rules))
        layer_palettes.append(per_layer[-1].palette_size)
    combined = combine_layer_colorings(g, layering, per_layer)
    run.note(
        rule,
        g.n,
        root=ids[0],
        layer_sizes=[len(l) for l in layering.layers],
        layer_palettes=layer_palettes,
        palette=combined.palette_size,
    )
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


def _color(g: Graph, mode: str, rules, bound: int) -> ColoringResult:
    """Color each component by ``rules`` and check the certificate once: the
    coloring is proper, and it stays within ``bound`` unless a class
    violation was recorded."""
    run = _Run(mode)
    coloring = _per_component(g, tuple(range(g.n)), run, rules)
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
