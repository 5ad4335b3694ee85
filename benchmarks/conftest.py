"""Shared benchmark helpers.

Every per-experiment benchmark runs the experiment end-to-end through
``benchmark.pedantic`` (one round — the experiments are deterministic
and some take tens of seconds) and asserts that every check against
the paper passes, so the benchmark suite doubles as the reproduction
gate.
"""

from __future__ import annotations

import os

from repro.experiments import run_experiment

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")


def scale_params(full, quick):
    """Parameter sweep for scale benchmarks.

    CI's bench jobs set ``BENCH_QUICK=1`` to run the reduced sweep;
    local runs get the full curve.
    """
    return quick if QUICK else full


def run_and_verify(benchmark, experiment_id: str, rounds: int = 1):
    report = benchmark.pedantic(
        run_experiment, args=(experiment_id,), rounds=rounds, iterations=1
    )
    assert report.passed, report.render()
    return report
