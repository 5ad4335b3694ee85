"""Per-layer arithmetic on synthetic spans and job records, and the
agreement of BENCHMARK.json with the runner's metric tables."""

import json
import os
from array import array

import pytest

import run
from layers import PER_LAYER, layer_metrics, service_metrics, span_totals
from tracer import SpanDump, ThreadSpans

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def synthetic_dump():
    names = ["framework:is_inverse", "composition:composition_membership",
             "mapping:is_solution"]
    layers = ["framework", "composition", "mapping"]
    # is_inverse [1, 9] > membership [2, 6] > is_solution [3, 4]; membership [7, 8]
    thread = ThreadSpans(
        array("i", [0, 1, 2, 1]),
        array("d", [1.0, 2.0, 3.0, 7.0]),
        array("d", [9.0, 6.0, 4.0, 8.0]),
        array("i", [-1, 0, 1, 0]),
    )
    calls = {names[0]: 1, names[1]: 2, names[2]: 1}
    tallies = {"membership_accepted": 1.0, "sweep_pairs": 4.0, "sweep_instances": 2.0}
    return SpanDump(names, layers, [thread], calls, tallies)


def test_self_times_and_unattributed_time_account_for_the_wall():
    totals = span_totals(synthetic_dump(), (0.0, 10.0))
    assert totals["layer"] == pytest.approx(
        {"framework": 3.0, "composition": 4.0, "mapping": 1.0}
    )
    assert totals["attributed"] == pytest.approx(8.0)
    assert totals["unattributed"] == pytest.approx(2.0)


def test_layer_metrics_report_every_per_layer_metric():
    counters = {"membership_candidates_tried": 4, "verdict_cache_hits": 3,
                "verdict_cache_misses": 1}
    metrics = layer_metrics(synthetic_dump(), counters, (0.0, 10.0), untraced_wall=8.0)
    assert list(metrics) == [name for name, _unit, _moves in PER_LAYER]
    assert metrics["composition.membership_calls"] == 2
    assert metrics["composition.membership_self_s"] == pytest.approx(4.0)
    assert metrics["composition.candidate_yield"] == pytest.approx(0.25)
    assert metrics["cache.verdict.hit_ratio"] == pytest.approx(0.75)
    assert metrics["sweep.pairs_checked"] == 4
    assert metrics["trace.overhead_ratio"] == pytest.approx(0.25)
    assert metrics["trace.attributed_s"] + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"]
    )


def _job(job_id, submitted, started, seconds, backend=None):
    spec = {"kind": "subset"}
    if backend:
        spec["backend"] = backend
    return {"id": job_id, "submitted_at": submitted, "started_at": started,
            "spec": spec, "outcome": {"seconds": seconds}}


def test_service_metrics_split_latency_into_wait_exec_and_overhead():
    first = _job("j1", 10.0, 10.2, 0.5)
    observations = [
        {"latency": 1.0, "pinned": False, "job": first},
        {"latency": 0.9, "pinned": False, "job": first},  # joined through dedup
        {"latency": 2.0, "pinned": True, "job": _job("j2", 11.0, 11.0, 1.5, "sql")},
    ]
    metrics = service_metrics(observations)
    assert metrics["service.queue_wait_s"] == pytest.approx(0.1)
    assert metrics["service.exec_s"] == pytest.approx(1.0)
    assert metrics["service.overhead_s"] == pytest.approx(0.4)
    assert metrics["service.exec_s.sql"] == pytest.approx(1.5)
    assert metrics["service.exec_s.object"] == 0.0


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _moves in PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
