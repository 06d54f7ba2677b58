import json
import os

import pytest

from isk4color import suites
from isk4color.suites import FILTERS, SUITES, SUITE_ALIASES, resolve_suite, run_suite


def test_suite_registry_complete():
    assert set(SUITE_ALIASES.values()) == set(SUITES)
    assert len(SUITES) == 12
    for alias in ("lemma3", "lemma45", "lemma7", "lemma8", "theorem1", "theorem2",
                  "theorem5", "theorem6", "conjecture1", "conjecture2",
                  "conjecture3", "conjecture4"):
        assert alias in SUITE_ALIASES
    with pytest.raises(ValueError):
        resolve_suite("nope")


def test_layer_forests_small():
    report = run_suite("layer-forests", 6)
    assert report.violations == []
    assert report.counts["total"]["passed_filters"] > 0
    assert report.parameters["connected"] is True


def test_flat_reduction_small():
    report = run_suite("flat-reduction", 6)
    assert report.violations == []


def test_upstairs_small_with_random():
    report = run_suite("upstairs", 5, random_graphs=25)
    assert report.violations == []
    assert report.counts["random"]["graphs"] == 25


def test_girth5_degree_small():
    report = run_suite("girth5-degree", 7)
    assert report.violations == []


def test_conjecture_suites_report_extremal():
    report = run_suite("max-chi-triangle-free", 6)
    assert report.violations == []
    assert report.max_observed["chi"] == 3
    assert report.extremal, "extremal examples must be reported"
    assert all(e["chi"] == 3 for e in report.extremal)
    assert not any(e.get("exceeds_expected") for e in report.extremal)


def test_min_degree_suites_small():
    r3 = run_suite("min-degree-c3", 6)
    assert r3.violations == [] and r3.extremal == []
    r4 = run_suite("min-degree-triangle-free", 6)
    assert r4.extremal == []


def test_wheel_free_chi_small():
    report = run_suite("wheel-free-chi", 6)
    assert report.violations == []
    assert report.max_observed["chi"] <= 3


def test_colorer_suites_small():
    t5 = run_suite("triangle-free-bound", 6)
    assert t5.violations == []
    assert t5.max_observed["palette"] <= 4
    t6 = run_suite("general-bound", 6)
    assert t6.violations == []
    assert t6.max_observed["palette"] <= 24


def test_hole_attachment_small():
    # n = 7 is the smallest order admitting a hole with a dominating
    # attachment set inside the filtered class
    report = run_suite("hole-attachment", 7)
    assert report.violations == []
    assert report.counts["total"]["checks"] > 0


def test_parallel_jobs_match_serial():
    serial = run_suite("layer-forests", 6, jobs=1)
    parallel = run_suite("layer-forests", 6, jobs=2)
    assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
        parallel.to_dict(), sort_keys=True
    )


def test_jobs_clamped_to_cpu_count(monkeypatch):
    started = []

    class FakePool:
        # records the requested size and runs the checks in-process
        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

        def shutdown(self):
            pass

    monkeypatch.setattr(suites, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    run_suite("layer-forests", 5, jobs=10**6)
    assert started == [3]
    run_suite("layer-forests", 5, jobs=2)
    assert started == [3, 2]


def test_extra_filters_and_unknown_filter():
    report = run_suite("layer-forests", 5, extra_filters=("k222-free",))
    assert report.violations == []
    with pytest.raises(ValueError):
        run_suite("layer-forests", 5, extra_filters=("shiny",))
    assert set(FILTERS) >= {"triangle-free", "isk4-free", "girth5"}


def test_corpus_injection_matches_enumeration(connected_corpus_8):
    corpus = {n: connected_corpus_8[n] for n in range(1, 6)}
    injected = run_suite("layer-forests", 5, corpus=corpus)
    direct = run_suite("layer-forests", 5)
    assert injected.counts == direct.counts
