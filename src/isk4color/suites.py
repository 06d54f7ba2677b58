"""Verification suites: stream exhaustively enumerated small graphs (plus
seeded random graphs where a claim calls for them) through per-claim checks,
and aggregate counts, violations, and extremal examples into a report.

Reports are deterministic given (suite, n range, seed): graphs are visited in
canonical enumeration order and worker pools preserve that order.
"""

from __future__ import annotations

import os
import random
import time
from functools import partial
from itertools import combinations
from typing import NamedTuple

from .colorers import (
    BOUND_GENERAL,
    BOUND_TRIANGLE_FREE,
    ClassViolationError,
    _suite_templates,
    color_general,
    color_girth5,
    color_triangle_free,
)
from .formats import write_graph6_line
from .graph import (
    Graph,
    bfs_layering,
    bits,
    chordless_order,
    component_masks,
    induced_plus_edge,
    is_proper_coloring,
    mask_of,
)
from .layering import find_confluence, upstairs_path
from .oracle import (
    ENUMERATION_CAP,
    HEREDITARY_CLASSES,
    _levels,
    chromatic_number_exact,
    classify_hole_attachment,
    contains_isk4,
    verify_layer_forests,
)
from .patterns import (
    enumerate_holes,
    find_boat,
    find_k222,
    find_k33,
    find_prism,
    find_triangle,
    find_wheel,
)

EXTREMAL_KEEP = 10
# the random part of ``upstairs``: graph orders 4..RANDOM_N_MAX; per layer of
# one random root, RANDOM_PAIR_CAP random pairs and one random triple
RANDOM_N_MAX = 30
RANDOM_PAIR_CAP = 3

# the per-graph test of each filter; run_suite decides the hereditary
# classes and ``isk4-free`` while it enumerates, so they hold none
FILTERS = {
    "triangle-free": None,
    "girth5": None,
    "k33-free": lambda g: find_k33(g) is None,
    "k222-free": lambda g: find_k222(g) is None,
    "prism-free": lambda g: find_prism(g) is None,
    "boat-free": lambda g: find_boat(g) is None,
    "wheel-free": lambda g: find_wheel(g) is None,
    "isk4-free": None,
}


class SuiteReport(NamedTuple):
    suite: str
    parameters: dict
    counts: dict
    max_observed: dict
    violations: list[dict]
    extremal: list[dict]
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "parameters": self.parameters,
            "counts": self.counts,
            "max_observed": self.max_observed,
            "violations": self.violations,
            "extremal": self.extremal,
        }

    def summary(self) -> str:
        total = self.counts.get("total", {})
        parts = [
            f"suite={self.suite}",
            f"graphs={total.get('passed_filters', 0)}/{total.get('enumerated', 0)}",
            f"checks={total.get('checks', 0)}",
            f"violations={len(self.violations)}",
        ]
        for k, v in sorted(self.max_observed.items()):
            parts.append(f"max_{k}={v}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# per-graph checks (top level so worker processes can pickle them)


def _violation(g: Graph, detail: str) -> dict:
    return {"graph6": write_graph6_line(g), "n": g.n, "detail": detail}


def is_flat_path(g: Graph, vertices) -> bool:
    """Do ``vertices``, in this order, form an induced path of at least two
    vertices whose interior vertices have degree 2 in g (a flat path)?"""
    vs = tuple(vertices)
    order = chordless_order(g, vs, hole=False)
    return len(vs) >= 2 and order in (vs, vs[::-1]) and all(g.degree(v) == 2 for v in vs[1:-1])


def maximal_flat_paths(g: Graph) -> list[tuple[int, ...]]:
    """Every maximal flat path with at least three vertices, each read from
    its lower end, in sorted order.

    The interior of a flat path lies in a chain: a component of the
    vertices of degree 2.  A chain that is a whole cycle component (of four
    or more vertices) gives the cycle minus one vertex, once per vertex.
    Any other chain is an induced path d1..dk with an outer neighbour x of
    d1 and y of dk (the lower and the higher neighbour when k = 1).  When
    x = y, the paths are d1..dk, x d1..dk-1 and d2..dk x; when x and y are
    adjacent, x d1..dk and d1..dk y; otherwise x d1..dk y.  Those with
    fewer than three vertices are dropped.
    """
    out = []
    for c in component_masks(g, mask_of(v for v in range(g.n) if g.degree(v) != 2)):
        chain = chordless_order(g, bits(c), hole=False)
        if chain is None:  # a cycle component
            cycle = chordless_order(g, bits(c), hole=True) or ()
            out += [cycle[i + 1:] + cycle[:i] for i in range(len(cycle))]
            continue
        x = min(bits(g.mask(chain[0]) & ~c))
        y = max(bits(g.mask(chain[-1]) & ~c))
        if x == y:
            out += [(x,) + chain[:-1], chain, chain[1:] + (x,)]
        elif g.has_edge(x, y):
            out += [(x,) + chain, chain + (y,)]
        else:
            out.append((x,) + chain + (y,))
    return sorted(min(p, p[::-1]) for p in out if len(p) >= 3)


def reduce_flat_path(g: Graph, path) -> tuple[Graph, tuple[int, ...]]:
    """Delete the interior of a flat path of at least three vertices and
    join its ends.  Returns the new graph plus the map new id -> original id.
    """
    vs = tuple(path)
    if len(vs) < 3:
        raise ValueError("flat path must have length at least 2")
    if not is_flat_path(g, vs):
        raise ValueError(f"{vs} is not a flat path of the graph")
    return induced_plus_edge(g, ((1 << g.n) - 1) & ~mask_of(vs[1:-1]), vs[0], vs[-1])


def _check_flat_reduction(g: Graph) -> dict:
    violations = []
    checks = 0
    for fp in maximal_flat_paths(g):
        reduced, _ = reduce_flat_path(g, fp)
        checks += 1
        w = contains_isk4(reduced)
        if w is not None:
            violations.append(_violation(
                g, f"reducing flat path {list(fp)} created an induced K4 subdivision",
            ))
    return {"checks": checks, "violations": violations}


def _check_layer_forests(g: Graph) -> dict:
    w = verify_layer_forests(g)
    if w is None:
        return {"checks": g.n, "violations": []}
    return {
        "checks": g.n,
        "violations": [_violation(
            g, f"layer {w.layer} from root {w.root} contains the cycle {list(w.cycle)}",
        )],
    }


def _check_wheel_free_chi(g: Graph) -> dict:
    chi = chromatic_number_exact(g)
    violations = []
    if chi > 3:
        violations.append(_violation(g, f"wheel-free graph with chromatic number {chi} > 3"))
    return {"checks": 1, "violations": violations, "chi": chi}


def _check_girth5_degree(g: Graph) -> dict:
    violations = []
    min_deg = min((g.degree(v) for v in range(g.n)), default=0)
    if min_deg > 2:
        violations.append(_violation(g, f"girth >= 5 graph with minimum degree {min_deg} > 2"))
    try:
        coloring = color_girth5(g)
        if coloring.palette_size > 3 or not is_proper_coloring(g, coloring):
            violations.append(_violation(
                g, f"greedy 3-coloring failed (palette {coloring.palette_size})",
            ))
    except ClassViolationError as exc:
        violations.append(_violation(g, f"degeneracy check failed: {exc.violation.message}"))
    return {"checks": 2, "violations": violations}


def _check_triangle_free_bound(g: Graph) -> dict:
    return _check_colorer_bound(g, color_triangle_free, BOUND_TRIANGLE_FREE)


def _check_general_bound(g: Graph) -> dict:
    return _check_colorer_bound(g, color_general, BOUND_GENERAL)


def _check_colorer_bound(g: Graph, colorer, bound: int) -> dict:
    violations = []
    palette = None
    try:
        res = colorer(g, "strict")
        palette = res.coloring.palette_size
        if not is_proper_coloring(g, res.coloring):
            violations.append(_violation(g, "coloring not proper"))
        if palette > bound:
            violations.append(_violation(g, f"palette {palette} exceeds the bound {bound}"))
        if res.violations:
            violations.append(_violation(
                g, f"unexpected class violations: {[v.kind for v in res.violations]}",
            ))
    except ClassViolationError as exc:
        violations.append(_violation(
            g, f"strict colorer aborted: {exc.violation.kind}: {exc.violation.message}",
        ))
    return {"checks": 1, "violations": violations, "palette": palette}


def _check_max_chi(g: Graph) -> dict:
    return {"checks": 1, "violations": [], "chi": chromatic_number_exact(g)}


def _check_min_degree(g: Graph, bound: int) -> dict:
    min_deg = min((g.degree(v) for v in range(g.n)), default=0)
    record = {"checks": 1, "violations": []}
    if min_deg > bound:
        record["counterexample"] = _violation(g, f"minimum degree {min_deg} exceeds {bound}")
    return record


def _check_hole_attachment(g: Graph) -> dict:
    checks = 0
    violations = []
    for order in enumerate_holes(g):
        hole_set = set(order)
        attachers = [v for v in range(g.n)
                     if v not in hole_set and any(g.has_edge(v, c) for c in order)]
        # every dominating subset: a hole has >= 4 vertices and enumeration
        # stops at ENUMERATION_CAP, so there are few attachers
        for r in range(1, len(attachers) + 1):
            for s in combinations(attachers, r):
                if not all(any(g.has_edge(v, c) for v in s) for c in order):
                    continue
                checks += 1
                if classify_hole_attachment(g, order, s) is None:
                    violations.append(_violation(
                        g, f"no attachment case matched hole {list(order)} with set {sorted(s)}",
                    ))
    return {"checks": checks, "violations": violations}


def _validate_upstairs_path(g, layers, i, x, y, path) -> str | None:
    if not path or path[0] != x or path[-1] != y:
        return "wrong endpoints"
    if len(set(path)) != len(path):
        return "repeated vertex"
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            return "consecutive vertices not adjacent"
    for k in range(len(path)):
        for j in range(k + 2, len(path)):
            if g.has_edge(path[k], path[j]):
                return "path has a chord"
    pmask = mask_of(path)
    if any(pmask & layer for layer in layers[i + 1:]):
        return "path leaves the allowed layers"
    if any((pmask & layer).bit_count() > 2 for layer in layers[1:i + 1]):
        return "more than two vertices in one layer"
    return None


def _check_tips(g, layers, root, i, pairs, triples, triangle_free) -> list[dict]:
    """Check the upstairs path of each pair and the confluence of each triple
    of layer ``i``; return the violations."""
    violations = []
    for x, y in pairs:
        path = upstairs_path(g, layers, i, x, y)
        err = _validate_upstairs_path(g, layers, i, x, y, path)
        if err:
            violations.append(_violation(
                g, f"upstairs path {path} for ({x},{y}) at layer {i} from {root}: {err}",
            ))
    for x, y, z in triples:
        conf = find_confluence(g, layers, i, x, y, z)
        if triangle_free and conf.kind != 1:
            violations.append(_violation(
                g, "triangle-free graph produced a triangle-centered confluence",
            ))
    return violations


def _check_upstairs(g: Graph) -> dict:
    checks = 0
    violations = []
    triangle_free = find_triangle(g) is None
    for root in range(g.n):
        layers = bfs_layering(g, root)
        for i, layer in enumerate(layers):
            verts = list(bits(layer))
            pairs = list(combinations(verts, 2))
            triples = list(combinations(verts, 3))
            checks += len(pairs) + len(triples)
            violations += _check_tips(g, layers, root, i, pairs, triples, triangle_free)
    return {"checks": checks, "violations": violations}


class SuiteSpec(NamedTuple):
    name: str
    alias: str
    description: str
    filters: tuple[str, ...]
    check: object
    expected_max_chi: int | None = None
    randomized: bool = False


SUITES: dict[str, SuiteSpec] = {
    s.name: s
    for s in [
        SuiteSpec(
            "flat-reduction", "lemma3",
            "reducing any maximal flat path of length >= 2 preserves freedom "
            "from induced K4 subdivisions",
            ("isk4-free",), _check_flat_reduction,
        ),
        SuiteSpec(
            "upstairs", "lemma45",
            "upstairs paths are induced, stay in layers 0..i with at most two "
            "vertices per layer, and confluences verify structurally",
            (), _check_upstairs, randomized=True,
        ),
        SuiteSpec(
            "hole-attachment", "lemma7",
            "every dominating attachment set of every hole matches one of the "
            "three attachment cases",
            ("triangle-free", "k33-free", "isk4-free"), _check_hole_attachment,
        ),
        SuiteSpec(
            "layer-forests", "lemma8",
            "every BFS layer from every root induces a forest",
            ("triangle-free", "k33-free", "isk4-free"), _check_layer_forests,
        ),
        SuiteSpec(
            "wheel-free-chi", "theorem1",
            "wheel-free graphs in the class have chromatic number at most 3 "
            "(statement check by exact oracle)",
            ("isk4-free", "wheel-free"), _check_wheel_free_chi,
        ),
        SuiteSpec(
            "girth5-degree", "theorem2",
            "girth >= 5 graphs in the class have a vertex of degree <= 2 and "
            "3-color greedily",
            ("girth5", "isk4-free"), _check_girth5_degree,
        ),
        SuiteSpec(
            "triangle-free-bound", "theorem5",
            "the triangle-free colorer is proper with at most 4 colors and no "
            "class violations",
            ("triangle-free", "isk4-free"), _check_triangle_free_bound,
        ),
        SuiteSpec(
            "general-bound", "theorem6",
            "the general colorer is proper with at most 24 colors and no "
            "class violations",
            ("isk4-free",), _check_general_bound,
        ),
        SuiteSpec(
            "max-chi-general", "conjecture1",
            "search for the maximum chromatic number over the class "
            "(expected <= 4)",
            ("isk4-free",), _check_max_chi, expected_max_chi=4,
        ),
        SuiteSpec(
            "max-chi-triangle-free", "conjecture2",
            "search for the maximum chromatic number over the triangle-free "
            "subclass (expected <= 3)",
            ("triangle-free", "isk4-free"), _check_max_chi, expected_max_chi=3,
        ),
        SuiteSpec(
            "min-degree-c3", "conjecture3",
            "search for a graph of minimum degree > 3 in the prism/K222/K33-"
            "free subclass (none expected)",
            ("k33-free", "k222-free", "prism-free", "isk4-free"),
            partial(_check_min_degree, bound=3),
        ),
        SuiteSpec(
            "min-degree-triangle-free", "conjecture4",
            "search for a graph of minimum degree > 2 in the triangle/K33-free "
            "subclass (none expected)",
            ("triangle-free", "k33-free", "isk4-free"),
            partial(_check_min_degree, bound=2),
        ),
    ]
}

SUITE_ALIASES = {s.alias: s.name for s in SUITES.values()}


def resolve_suite(name: str) -> SuiteSpec:
    key = SUITE_ALIASES.get(name, name)
    if key not in SUITES:
        known = sorted(SUITES) + sorted(SUITE_ALIASES)
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(known)}")
    return SUITES[key]


# ---------------------------------------------------------------------------
# the driver


@_suite_templates()
def run_suite(
    suite: str,
    n_max: int,
    *,
    connected: bool = True,
    extra_filters: tuple[str, ...] = (),
    jobs: int = 1,
    seed: int = 0,
    random_graphs: int = 1000,
) -> SuiteReport:
    """Run one verification suite over all graphs with 1..n_max vertices;
    ``n_max`` lies in 1..``ENUMERATION_CAP``.

    The graphs come from one pass of ``oracle._levels``, each order grown
    from the one before and pruned by the strictest hereditary class among
    the filters, which implies the others.  The enumeration decides
    ``isk4-free`` too, from each graph's parents or else one
    ``contains_isk4`` search.  The other filters run their ``FILTERS`` test
    on each graph.
    ``seed`` only drives the ``random_graphs`` random graphs of ``upstairs``;
    ``random_graphs`` must not be negative.
    Workers only parallelize the per-graph checks; aggregation order is the
    enumeration order.  ``jobs`` is clamped to the CPU count; at one job no
    process pool is started, nor its module imported.  The colorer
    calls of one run share their table of small-block templates, which is
    dropped when the run ends.
    """
    if n_max < 1:
        raise ValueError(f"n_max={n_max} is out of range: a suite runs over orders 1..{ENUMERATION_CAP}")
    if random_graphs < 0:
        raise ValueError(f"random_graphs={random_graphs} is negative")
    spec = resolve_suite(suite)
    t0 = time.monotonic()
    filters = list(dict.fromkeys(list(spec.filters) + list(extra_filters)))
    for f in filters:
        if f not in FILTERS:
            raise ValueError(f"unknown filter {f!r}; known: {', '.join(FILTERS)}")
    hereditary = next((c for c in HEREDITARY_CLASSES if c in filters), None)
    runtime = [test for f, test in FILTERS.items() if f in filters and test is not None]
    levels = _levels(n_max, connected=connected, hereditary=hereditary, isk4="isk4-free" in filters)

    by_n: dict[str, dict] = {}
    violations: list[dict] = []
    max_chi = None
    max_palette = None
    chi_examples: list[dict] = []
    exceed_examples: list[dict] = []
    counter_examples: list[dict] = []

    jobs = min(jobs, os.cpu_count() or 1)
    pool = None
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        for n, source in enumerate(levels, 1):
            enumerated = 0
            graphs = []
            for g, holds in source:
                enumerated += 1
                if not holds and all(test(g) for test in runtime):
                    graphs.append(g)
            if pool is None or len(graphs) < 4:
                records = map(spec.check, graphs)
            else:
                records = pool.map(spec.check, graphs, chunksize=max(1, len(graphs) // 64))
            checks = 0
            for g, rec in zip(graphs, records):
                checks += rec["checks"]
                violations.extend(rec["violations"])
                chi = rec.get("chi")
                if chi is not None:
                    if max_chi is None or chi > max_chi:
                        max_chi = chi
                        chi_examples = []
                    if chi == max_chi and len(chi_examples) < EXTREMAL_KEEP:
                        chi_examples.append({"graph6": write_graph6_line(g), "n": g.n, "chi": chi})
                    if spec.expected_max_chi is not None and chi > spec.expected_max_chi:
                        exceed_examples.append({
                            "graph6": write_graph6_line(g), "n": g.n, "chi": chi,
                            "exceeds_expected": True,
                        })
                if rec.get("palette") is not None:
                    max_palette = max(max_palette or 0, rec["palette"])
                if rec.get("counterexample"):
                    counter_examples.append(rec["counterexample"])
            by_n[str(n)] = {
                "enumerated": enumerated,
                "passed_filters": len(graphs),
                "checks": checks,
            }
        random_bucket = None
        if spec.randomized and random_graphs > 0:
            random_bucket = _run_random_upstairs(seed, random_graphs, violations)
    finally:
        if pool is not None:
            pool.shutdown()

    total = {
        key: sum(b[key] for b in by_n.values())
        for key in ("enumerated", "passed_filters", "checks")
    }
    counts = {"by_n": by_n, "total": total}
    if random_bucket is not None:
        counts["random"] = random_bucket
    max_observed = {}
    if max_chi is not None:
        max_observed["chi"] = max_chi
    if max_palette is not None:
        max_observed["palette"] = max_palette
    extremal = exceed_examples + counter_examples
    if spec.expected_max_chi is not None:
        extremal = extremal + chi_examples
    # jobs and wall time are execution details, not part of the report
    parameters = {
        "suite": spec.name,
        "alias": spec.alias,
        "n_max": n_max,
        "connected": connected,
        "filters": filters,
        "seed": seed,
    }
    if spec.randomized:
        parameters["random_graphs"] = random_graphs
        parameters["random_n_max"] = RANDOM_N_MAX
    if spec.expected_max_chi is not None:
        parameters["expected_max_chi"] = spec.expected_max_chi
    return SuiteReport(
        suite=spec.name,
        parameters=parameters,
        counts=counts,
        max_observed=max_observed,
        violations=violations,
        extremal=extremal,
        wall_time_s=time.monotonic() - t0,
    )


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Random spanning tree plus independent extra edges with probability p."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return Graph(n, sorted(edges))


def _run_random_upstairs(seed, count, violations):
    checks = 0
    for idx in range(count):
        rng = random.Random(f"{seed}:upstairs-random:{idx}")
        n = rng.randint(4, RANDOM_N_MAX)
        p = rng.uniform(0.05, 0.45)
        g = random_connected_graph(rng, n, p)
        root = rng.randrange(g.n)
        layers = bfs_layering(g, root)
        triangle_free = find_triangle(g) is None
        for i, layer in enumerate(layers):
            verts = list(bits(layer))
            pairs = list(combinations(verts, 2))
            rng.shuffle(pairs)
            triples = list(combinations(verts, 3))
            rng.shuffle(triples)
            pairs, triples = pairs[:RANDOM_PAIR_CAP], triples[:1]
            checks += len(pairs) + len(triples)
            violations += _check_tips(g, layers, root, i, pairs, triples, triangle_free)
    return {"graphs": count, "checks": checks}
