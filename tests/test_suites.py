import hashlib
import json
import os
import random

import pytest

from isk4color import oracle, suites
from isk4color.graph import Graph
from isk4color.suites import (
    FILTERS,
    SUITES,
    SUITE_ALIASES,
    maximal_flat_paths,
    random_connected_graph,
    resolve_suite,
    run_suite,
)

from reference import ref_maximal_flat_paths


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


def test_maximal_flat_paths_agree_with_reference(connected_corpus_8):
    graphs = [g for n in range(1, 8) for g in connected_corpus_8[n]]
    rng = random.Random(13)
    for _ in range(300):
        # sparse, so that long chains of degree-2 vertices occur, and again
        # with a cycle component beside it
        g = random_connected_graph(rng, rng.randint(3, 40), rng.uniform(0.0, 0.1))
        k = rng.randint(3, 8)
        ring = [(g.n + i, g.n + (i + 1) % k) for i in range(k)]
        graphs += [g, Graph(g.n + k, list(g.edges()) + ring)]
    for g in graphs:
        assert maximal_flat_paths(g) == ref_maximal_flat_paths(g), list(g.edges())


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


def test_suite_grows_each_order_once(monkeypatch):
    # without a corpus, run_suite takes every order from one pass of the
    # enumeration: as many canonical labelings as enumerate_graphs(8) alone
    # (29,005 when each order was enumerated from scratch)
    calls = []
    min_encoding = oracle._min_encoding
    monkeypatch.setattr(oracle, "_min_encoding", lambda masks: calls.append(1) or min_encoding(masks))
    monkeypatch.setitem(FILTERS, "isk4-free", lambda g: False)  # enumeration only
    report = run_suite("general-bound", 8)
    assert report.counts["total"]["enumerated"] == 12113 and len(calls) == 26497


def test_corpus_injection_matches_enumeration(connected_corpus_8):
    corpus = {n: connected_corpus_8[n] for n in range(1, 6)}
    injected = run_suite("layer-forests", 5, corpus=corpus)
    direct = run_suite("layer-forests", 5)
    assert injected.counts == direct.counts


# sha256 of json.dumps(report.to_dict(), sort_keys=True) for every suite:
# counts, violations and extremal examples stay byte-identical
SUITE_REPORT_SHA256 = {
    "flat-reduction": "72e17c700b5c8d893576ead05bab1c439f9afaf2c64a09d049fbc3f941afddc0",
    "general-bound": "83b64291649de3d30ce04e7b8d31edb15aaa474f3dc29667e64280eee9d0417b",
    "girth5-degree": "21068bfcc8b5ea542a349a7003148fb0cd847de524087a000f2d4fc97948b76b",
    "hole-attachment": "4d1d910c226dabd3b3aef1f5ef5237ac540da4ee173c042e62d40836443ad08f",
    "layer-forests": "b3a6a07ebf796c87fba921cf9aa881e654e1acfe9dd7119decf633f61ac33f8b",
    "max-chi-general": "6cf3946ac057b3249610a029b3f466a95136b926cdebb3497fd440ee5cedb7d7",
    "max-chi-triangle-free": "26bb81c29fb21c397eec254443e589cd3d6e2b85e01538a71d21d219d8b2199f",
    "min-degree-c3": "96e8f762e87e786bbac38eeb4a07e0cc5f350da314fa16b9c7ad5f00f528a5cf",
    "min-degree-triangle-free": "45f2a49990687404b8717532e0182db5e3f966eefc799831fe1c3592528be71b",
    "triangle-free-bound": "f9bcb31fa009c88e4ad7a3df6e174ce29960b4de93d5796928431f8e5bfc37b0",
    "upstairs": "9302308d85319f6f687d76a4b5b84fdb76b60a838ccbe2874537d6f275e35d29",
    "wheel-free-chi": "8c645f211e598bce31667ef01e79e120ae2ade011e2a195c0ceaf3240e3b44fb",
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_report_bytes_pinned(name):
    # n = 7 is the smallest order with hole-attachment checks
    n = 7 if name == "hole-attachment" else 6
    kwargs = {"random_graphs": 25} if name == "upstairs" else {}
    payload = json.dumps(run_suite(name, n, **kwargs).to_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == SUITE_REPORT_SHA256[name]
