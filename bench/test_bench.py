"""Tests of the benchmark's own code: the output checker, the ladder rule and
the input generators.  Run with ``python3 -m pytest -q bench``."""

import json

import check
import gen
import run


def _color_report(assignment, palette, algorithm="triangle-free", violations=()):
    return json.dumps({
        "result": {"assignment": assignment, "palette_size": palette, "algorithm": algorithm},
        "violations": list(violations),
    })


SQUARE = gen.cycle(4)


def test_checker_accepts_a_proper_coloring():
    out = _color_report([0, 1, 0, 1], 2)
    assert check.check_coloring(SQUARE, "auto", "triangle-free", 0, out) == (2, None)


def test_checker_rejects_an_improper_coloring():
    out = _color_report([0, 0, 1, 1], 2)
    palette, reason = check.check_coloring(SQUARE, "auto", "triangle-free", 0, out)
    assert palette is None and "edge (0, 1)" in reason


def test_checker_rejects_a_palette_over_the_bound():
    n = 5
    star = (n, [(0, v) for v in range(1, n)])
    out = _color_report([0, 1, 2, 3, 4], 5)
    palette, reason = check.check_coloring(star, "auto", "triangle-free", 0, out)
    assert palette is None and "exceeds the triangle-free bound 4" in reason
    out = _color_report([0, 1, 2, 3, 4], 25, algorithm="general")
    palette, reason = check.check_coloring(star, "general", "general", 0, out)
    assert palette is None and "exceeds the general bound 24" in reason


def test_checker_rejects_colors_outside_the_claimed_palette_and_violations():
    assert check.check_coloring(SQUARE, "auto", "triangle-free", 0, _color_report([0, 2, 0, 2], 2))[0] is None
    bad = _color_report([0, 1, 0, 1], 2, violations=[{"kind": "k4"}])
    assert check.check_coloring(SQUARE, "auto", "triangle-free", 0, bad)[0] is None
    assert check.check_coloring(SQUARE, "auto", "triangle-free", 1, _color_report([0, 1, 0, 1], 2))[0] is None
    assert check.check_coloring(SQUARE, "auto", "general", 0, _color_report([0, 1, 0, 1], 2))[0] is None


def test_suite_checker_requires_the_known_counts():
    report = {"result": {"counts": {"total": {"enumerated": 10, "passed_filters": 4}},
                         "violations": [], "max_observed": {"palette": 3}}}
    text = json.dumps(report)
    assert check.check_suite(0, text, {"enumerated": 10, "passed_filters": 4}) == (3, None)
    assert check.check_suite(0, text, {"enumerated": 11})[0] is None
    report["result"]["violations"] = [{"detail": "x"}]
    assert check.check_suite(0, json.dumps(report), {"enumerated": 10})[0] is None


def test_ladder_stops_at_the_first_undecided_step(monkeypatch):
    monkeypatch.setattr(run, "LADDERS", (
        ("a", "general", [1, 2, 4, 8, 16], 1),
        ("b", "general", [3, 6, 12], 1),
    ))
    monkeypatch.setattr(run, "ladder_job", lambda fam, alg, n: run.Job(
        f"{fam}-{n}", fam, [], 1.0, None, size=n))
    attempted = []

    def fake_invoke(job, tracer=None):
        attempted.append(job.name)
        if job.name in ("a-4", "b-6"):
            job.failure = "timeout"
            return False, 1.0
        return True, 0.0

    monkeypatch.setattr(run, "invoke", fake_invoke)
    anchors = [run.Job("a-1", "a", [], 1.0, None, size=1), run.Job("b-3", "b", [], 1.0, None, size=3)]
    result = run.climb_ladders(anchors)
    assert attempted == ["a-2", "a-4", "b-6"]
    assert result["a"][0] == 2 and result["b"][0] == 3
    assert [j.name for j in result["a"][1]] == ["a-2", "a-4"]

    anchors[0].failure = "exception:RecursionError"
    attempted.clear()
    result = run.climb_ladders(anchors)
    assert result["a"] == (0, []) and attempted == ["b-6"]


def test_generators_repeat_for_the_same_seed():
    first, again, other = gen.corpus(7), gen.corpus(7), gen.corpus(8)
    assert first == again
    assert [i.graph for i in first] != [i.graph for i in other]
    assert len(first) >= 100
    assert [gen.write(i.graph, i.fmt) for i in first] == [gen.write(i.graph, i.fmt) for i in again]


def test_graph6_writer_matches_the_format():
    # the 4-cycle 0-1-2-3-0: n = 4 is "C", edge bits 1 01 101 pad to 101101 = "l"
    assert gen.write(gen.cycle(4), "graph6") == "Cl\n"


def test_line_of_subdivided_ladder_sizes():
    for k in (2, 3, 4, 8):
        n, edges = gen.line_of_subdivided_ladder(k)
        assert n == 6 * k
        degrees = [0] * n
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        # each vertex is a subdivided edge: one end at a cubic vertex (2
        # neighbours there) and one at a subdivision vertex (1 neighbour)
        assert set(degrees) == {3}


def test_tracer_rebinds_every_reference_and_restores_them():
    import sys
    import time
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import tracing
    from isk4color import colorers, decompose, patterns, suites
    from isk4color.families import path_graph

    originals = (colorers.find_k33, patterns.find_k33, suites.contains_isk4, decompose.find_k4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert colorers.find_k33 is patterns.find_k33 is not originals[0]
        assert suites.contains_isk4 is not originals[2] and decompose.find_k4 is not originals[3]
        t0 = time.perf_counter_ns()
        colorers.color_general(path_graph(12))
        wall = time.perf_counter_ns() - t0
    finally:
        tracer.uninstall()
    assert (colorers.find_k33, patterns.find_k33, suites.contains_isk4, decompose.find_k4) == originals
    m = tracer.metrics()
    assert m["colorers.color_general.calls"][0] == 1
    assert m["decompose.find_clique_cutset.calls"][0] > 0
    assert m["decompose.find_clique_cutset.hit_ratio"][0] > 0
    assert m["decompose.clique_cutset.max_depth"][0] > 0
    # self times partition the outermost span, which lies inside the call
    assert 0.5 * wall < tracer.total_self_ns() <= wall
