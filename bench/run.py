#!/usr/bin/env python3
"""Benchmark of the isk4color CLI: three closed-loop, single-process
workloads (one caller; each call starts when the previous one returns).

    python3 bench/run.py --workload color-families --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each call goes through ``isk4color.cli.cli_main`` in this process with its
stdout captured, on input files generated from ``--seed``, and every output
is re-checked independently (``check.py``).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` makes one untraced and one traced pass
and prints the per-layer metrics (``tracing.py``).  The last line of stdout
is one JSON object; the lines before it are a readable report.  See
``README.md`` for what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import gen
import speed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, so command lines and reports repeat

WORKLOADS = ("color-families", "verify-n8", "color-scale")

# Per-call limits in CPU seconds of this process (ITIMER_PROF), so that time
# spent descheduled does not count.  The colorer limit sits about 2x from
# every ladder step's time at the commit that introduced this benchmark, even
# at half CPU speed: the slowest decided steps (general C_100, triangle-free
# C_280) take about 1.6 s and 2.0 s, up to 3.4 s; the fastest undecided one
# (general C_200) about 13 s.
COLOR_LIMIT_S = 6.5
SUITE_LIMIT_S = 100.0

# Within a pass, an input is called up to REPEAT_MAX times within
# REPEAT_WITHIN_S, and at least REPEAT_MIN times unless that takes more than
# REPEAT_LONG_S.  Its latency is the median of its calls, each taken at the
# reference speed (``speed.py``).
REPEAT_MAX, REPEAT_WITHIN_S = 7, 0.5
REPEAT_MIN, REPEAT_LONG_S = 3, 4.0

SETUP_LAUNCHES = 9

# Known totals of the verification reports at n = 8 (connected graphs).
SUITE_COUNTS = {
    "general-bound": {"enumerated": 12113, "passed_filters": 2316, "checks": 2316},
    "triangle-free-bound": {"enumerated": 357, "passed_filters": 261, "checks": 261},
}

# color-scale: (family, CLI algorithm, sizes, anchor steps).  Sizes double up
# to a fixed top.  The first ``anchor`` steps of each ladder are the ones
# decided when this benchmark was introduced; they are the timed inputs, so
# the timed set stays the same when later changes decide more steps.
LADDERS = (
    ("path", "general", [75 * 2**i for i in range(7)], 3),
    ("cycle_general", "general", [25 * 2**i for i in range(7)], 3),
    ("cycle_tf", "triangle-free", [35 * 2**i for i in range(7)], 4),
    ("line_chordless", "general", [6 * 2**i for i in range(1, 10)], 2),
)


class StepTimeout(BaseException):
    """Raised by SIGPROF when a call exceeds its CPU limit.  A BaseException,
    so that no handler in the program can swallow it."""


def _on_sigprof(signum, frame):
    raise StepTimeout()


@dataclass
class Job:
    name: str
    slice: str  # family or suite, for the per-slice trace tables
    argv: list
    limit_s: float
    check: object  # (exit_code, stdout) -> (palette, reason)
    size: int = 0
    latencies: list = field(default_factory=list)
    digest: str | None = None
    out_bytes: int = 0
    palette: int | None = None
    failure: str | None = None  # kind of the first failure, if any
    failed_in: str | None = None


def invoke(job, tracer=None):
    """One call of the CLI; records latency, checks and compares the output."""
    out, err = io.StringIO(), io.StringIO()
    kind = None
    code = None
    if tracer is not None:
        tracer.reset_call()
        tracer.slice = job.slice
    gc.collect()  # start each call from a collected heap, as a fresh CLI process does
    probe = speed.Probe(during=tracer is None)
    with probe:
        signal.setitimer(signal.ITIMER_PROF, job.limit_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_mod.cli_main(list(job.argv))
        except StepTimeout:
            kind = "timeout"
        except Exception as exc:  # the program crashed: record the kind, go on
            kind = f"exception:{type(exc).__name__}"
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
    elapsed = probe.elapsed_s
    if tracer is not None:
        tracer.call_s += elapsed
    if kind is None and code == 1:
        kind = "class_violation"
    elif kind is None and code != 0:
        kind = f"exit_{code}"
    text = out.getvalue()
    if kind is None:
        palette, reason = job.check(code, text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if reason is None and job.digest is not None and digest != job.digest:
            reason = "stdout differs from the first call on the same input"
        if reason is not None:
            kind = "wrong_output"
            print(f"  wrong output on {job.name}: {reason}")
        elif job.digest is None:
            job.digest, job.out_bytes, job.palette = digest, len(text), palette
    if kind is not None:
        job.failure = job.failure or kind
        if tracer is not None and job.failed_in is None:
            job.failed_in = tracer.failed_in
    else:
        job.latencies.append(probe.scaled_s)
    return kind is None, elapsed


def run_pass(jobs, repeat=True):
    """Call each job (repeating cheap ones); return the pass wall time."""
    t0 = time.perf_counter()
    for job in jobs:
        spent = calls = 0
        while True:
            ok, elapsed = invoke(job)
            spent += elapsed
            calls += 1
            more = (calls < REPEAT_MAX and spent < REPEAT_WITHIN_S) or (
                calls < REPEAT_MIN and spent < REPEAT_LONG_S)
            if not ok or not repeat or not more:
                break
    return time.perf_counter() - t0


def run_passes(jobs, seconds):
    """Passes until the next one would overrun ``seconds`` (at least one)."""
    start = time.perf_counter()
    while True:
        last = run_pass(jobs)
        if time.perf_counter() - start + last > seconds:
            return


# ---------------------------------------------------------------------------
# inputs


def _write_input(graph, fmt, name, workload):
    path = WORK / workload / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(gen.write(graph, fmt))
    return str(path)


def confirm_isk4_free(graphs):
    """Set-up check, outside the timed region: every input with at most 16
    vertices is confirmed free of induced K4 subdivisions by the oracle."""
    from isk4color.graph import Graph
    from isk4color.oracle import contains_isk4

    for name, (n, edges) in graphs:
        if n <= 16 and contains_isk4(Graph(n, edges)) is not None:
            raise SystemExit(f"set-up error: generated input {name} contains an induced K4 subdivision")


def _color_job(name, family, graph, algorithm, fmt, workload):
    path = _write_input(graph, fmt, name, workload)
    expected = algorithm
    if algorithm == "auto":
        expected = "general" if gen.has_triangle(graph) else "triangle-free"

    def check_one(code, text):
        return check.check_coloring(graph, algorithm, expected, code, text)

    return Job(name, family, ["color", path, "--json", "--algorithm", algorithm],
               COLOR_LIMIT_S, check_one, size=graph[0])


def families_jobs(seed):
    items = gen.corpus(seed)
    confirm_isk4_free([(it.name, it.graph) for it in items])
    return [_color_job(it.name, it.family, it.graph, it.algorithm, it.fmt, "color-families")
            for it in items]


def verify_jobs():
    jobs = []
    for suite, counts in SUITE_COUNTS.items():
        def check_one(code, text, counts=counts):
            return check.check_suite(code, text, counts)
        jobs.append(Job(suite, suite, ["enumerate", "--n", "8", "--check", suite, "--json", "--jobs", "1"],
                        SUITE_LIMIT_S, check_one, size=8))
    return jobs


def ladder_graph(family, size):
    if family == "path":
        return gen.path(size)
    if family.startswith("cycle"):
        return gen.cycle(size)
    return gen.line_of_subdivided_ladder(size // 6)


def ladder_job(family, algorithm, size):
    graph = ladder_graph(family, size)
    confirm_isk4_free([(f"{family}-{size}", graph)])
    return _color_job(f"{family}-{size:05d}.col", family, graph, algorithm, "dimacs-col", "color-scale")


def scale_anchor_jobs():
    return [ladder_job(fam, alg, n) for fam, alg, sizes, anchor in LADDERS for n in sizes[:anchor]]


def climb_ladders(anchors, tracer=None):
    """Continue each ladder past its anchor steps, one call per step, until
    the first undecided step or the top.  Returns ``{family: (max_n, steps)}``
    where ``steps`` lists every step run beyond the anchors."""
    by_family = {}
    for fam, alg, sizes, anchor in LADDERS:
        done = [j for j in anchors if j.slice == fam]
        max_n = 0
        for j in done:
            if j.failure is not None:
                break
            max_n = j.size
        extra = []
        if all(j.failure is None for j in done):
            for n in sizes[anchor:]:
                job = ladder_job(fam, alg, n)
                ok, _ = invoke(job, tracer)
                extra.append(job)
                if not ok:
                    break
                max_n = n
        by_family[fam] = (max_n, extra)
    return by_family


# ---------------------------------------------------------------------------
# metrics


def nearest_rank(values, p):
    xs = sorted(values)
    return xs[max(1, math.ceil(p / 100 * len(xs))) - 1]


def measure_setup_s():
    """Median time, at the reference speed, for a fresh interpreter to import
    the package and have its CLI parser ready (``--version`` builds the
    parser and parses)."""
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[2])\n"
            "import speed\n"
            "with speed.Probe(during=False) as probe:\n"
            "    sys.path.insert(0, sys.argv[1])\n"
            "    import io, contextlib\n"
            "    import isk4color.cli as cli\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.cli_main(['--version'])\n"
            "if code != 0:\n"
            "    raise SystemExit(f'--version exited with {code}')\n"
            "print(probe.scaled_s)\n")
    times = []
    for i in range(SETUP_LAUNCHES + 1):  # the first launch writes bytecode caches
        done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC), str(BENCH)],
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def job_latency(job):
    """Median call of a job; a job that failed counts at its limit."""
    return statistics.median(job.latencies) if job.failure is None else job.limit_s


def end_to_end(jobs, decided, setup_s):
    timed = [job_latency(j) for j in jobs]
    ok = [j for j in jobs if j.failure is None]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "call_p50_ms": (nearest_rank(timed, 50) * 1000, "ms"),
        "call_p90_ms": (nearest_rank(timed, 90) * 1000, "ms"),
        "pass_s": (sum(timed), "s"),
        "out_kb_mean": (statistics.fmean(j.out_bytes for j in ok) / 1024 if ok else 0.0, "KB"),
        "palette_mean": (statistics.fmean(j.palette for j in ok) if ok else 0.0, "count"),
        "decided": (decided, "count"),
    }


def failure_counts(jobs):
    kinds = {}
    for j in jobs:
        if j.failure is not None:
            kinds[j.failure] = kinds.get(j.failure, 0) + 1
    return kinds


def stdout_digest(jobs):
    h = hashlib.sha256()
    for j in jobs:
        h.update(f"{j.name} {j.digest}\n".encode())
    return h.hexdigest()[:16]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "isk4color").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def show(name, value, unit, note=""):
    text = f"{value:.4f}" if isinstance(value, float) else str(value)
    print(f"  {name:<34} {text:>14} {unit:<6} {note}".rstrip())


# ---------------------------------------------------------------------------
# workloads


def workload_report(workload, jobs, scale, timings):
    """Print the workload's own figures by name and unit (the per-workload
    view of the end-to-end metrics; timings only when untraced).  Returns
    ``(attempted, failed)``."""
    kinds = failure_counts(jobs)
    failed = sum(kinds.values())
    attempted = len(jobs)
    if workload == "color-families" and timings:
        lat = [job_latency(j) for j in jobs if j.failure is None]
        samples = sum(len(j.latencies) for j in jobs)
        if lat:
            show("color_p50_ms", nearest_rank(lat, 50) * 1000, "ms", f"over {len(lat)} inputs, {samples} calls")
            show("color_p90_ms", nearest_rank(lat, 90) * 1000, "ms", f"{len(lat) - math.ceil(0.9 * len(lat))} inputs beyond")
            show("graphs_per_s", len(lat) / sum(lat), "1/s")
            show("json_kb_mean", statistics.fmean(j.out_bytes for j in jobs if j.failure is None) / 1024, "KB")
            show("palette_mean", statistics.fmean(j.palette for j in jobs if j.failure is None), "count")
    elif workload == "verify-n8" and timings:
        for j in jobs:
            key = "suite_general_s" if j.name == "general-bound" else "suite_tf_s"
            if j.failure is None:
                show(key, job_latency(j), "s", f"median of {len(j.latencies)} calls")
    elif workload == "color-scale":
        for fam, (max_n, extra) in scale.items():
            show(f"max_n.{fam}", max_n, "n")
            attempted += len(extra)
            for j in extra:
                if j.failure is not None:
                    where = f" in {j.failed_in}" if j.failed_in else ""
                    print(f"    undecided: {j.name} ({j.failure}{where})")
                    kinds[j.failure] = kinds.get(j.failure, 0) + 1
                    failed += j.failure == "wrong_output"
    missed = sum(kinds.values())
    detail = ", ".join(f"{k} {v}" for k, v in sorted(kinds.items())) or "none"
    show("failed_share", missed / attempted, "ratio", f"{missed}/{attempted} inputs undecided: {detail}")
    return attempted, failed


def run_workload(workload, seed, seconds, trace):
    if workload == "color-families":
        jobs = families_jobs(seed)
    elif workload == "verify-n8":
        jobs = verify_jobs()
    else:
        jobs = scale_anchor_jobs()

    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}")
    print(f"  python {platform.python_version()}  cpus {os.cpu_count()}  source {source_digest()}"
          f"  color limit {COLOR_LIMIT_S} CPU-s  inputs {len(jobs)}")

    tracer = None
    scale = {}
    if trace:
        run_pass(jobs, repeat=False)
        untraced = sum(j.latencies[-1] for j in jobs if j.latencies)
        for j in jobs:  # the traced outputs must still match the untraced ones
            j.latencies.clear()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for j in jobs:
                invoke(j, tracer)
            traced = sum(j.latencies[-1] for j in jobs if j.latencies)
            if workload == "color-scale":
                scale = climb_ladders(jobs, tracer)
        finally:
            tracer.uninstall()
    else:
        setup_s = measure_setup_s()
        run_passes(jobs, seconds)
        if workload == "color-scale":
            scale = climb_ladders(jobs)

    attempted, failed = workload_report(workload, jobs, scale, timings=not trace)
    wrong = any(j.failure == "wrong_output" for j in jobs)
    wrong |= any(j.failure == "wrong_output" for _, extra in scale.values() for j in extra)
    print(f"  stdout digest {stdout_digest(jobs)}")

    if trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        metrics["trace.coverage"] = (tracer.total_self_ns() / 1e9 / tracer.call_s, "ratio")
        print(f"  timed inputs at reference speed: traced {traced:.3f} s, untraced {untraced:.3f} s, "
              f"overhead {traced - untraced:.3f} s")
        print(f"  spans cover {metrics['trace.coverage'][0]:.3f} of the {tracer.call_s:.3f} s "
              f"(wall) of traced calls")
        print("  top self time:")
        for ns, name in tracer.top(6):
            print(f"    {name:<42} {ns / 1e9:9.3f} s")
        for label in sorted(tracer.slices):
            top = ", ".join(f"{n} {ns / 1e9:.3f}s" for ns, n in tracer.top(3, label))
            print(f"    [{label}] {top}")
    else:
        decided = sum(j.failure is None for j in jobs)
        decided += sum(j.failure is None for _, extra in scale.values() for j in extra)
        metrics = end_to_end(jobs, decided, setup_s)
        print("  end-to-end:")
        for name, (value, unit) in metrics.items():
            show(name, value, unit)
    return {
        "correct": not wrong and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        for w in WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)], check=True)
        return 0

    global cli_mod
    cli_mod = _import_package()
    os.chdir(ROOT)
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    signal.signal(signal.SIGPROF, _on_sigprof)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other workload is using it
    print(json.dumps(result))
    return 0


def _import_package():
    if not (SRC / "isk4color" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'isk4color'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import isk4color.cli

    if Path(isk4color.cli.__file__).resolve().parent != (SRC / "isk4color").resolve():
        sys.exit(f"error: isk4color was imported from {isk4color.cli.__file__}, not from {SRC}")
    return isk4color.cli


cli_mod = None  # isk4color.cli, imported by main() from this checkout's src/

if __name__ == "__main__":
    sys.exit(main())
