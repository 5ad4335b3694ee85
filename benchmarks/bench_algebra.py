"""Plan-directed algebra sweeps vs naive materialization.

The claim the planner gates on: for composed-mapping sweeps whose
MinGen materialization blows up (fan-in heads feeding chain joins),
running the sweep through the staged pipeline the planner picks under
``--plan auto`` must beat materializing the composition with MinGen by
>= ``ACCEPTANCE_SPEEDUP`` — with byte-identical reports, because the
plan is an execution detail, never a result.

The fan-in/chain scenario runs at a width where MinGen emits
hundreds of rules.  Interleaved cold runs (caches reset before every
run), median-of-``ROUNDS`` on each side, unique- and subset-sweep
kinds both gated.

Plan x backend x workers identity is the parity harness's
(``benchmarks/bench_parity.py``, ``tests/test_parity.py``).
"""

from __future__ import annotations

import statistics
import time

from benchmarks.conftest import QUICK

from repro.algebra.scenarios import fan_in_chain_expression
from repro.algebra.sweeps import check_expression
from repro.engine.cache import reset_all_caches

#: Width of the fan-in/chain blow-up scenario.  Width 3 composes to
#: ~80 MinGen rules (sub-second), width 4 to ~600 (tens of seconds on
#: the naive side) — CI's BENCH_QUICK job runs width 3.
WIDTH = 3 if QUICK else 4
ACCEPTANCE_SPEEDUP = 3.0
ROUNDS = 3
SWEEP_KINDS = ("unique", "subset")


def _timed_sweep(kind: str, plan: str) -> tuple[float, str]:
    reset_all_caches()
    expr = fan_in_chain_expression(WIDTH)
    started = time.perf_counter()
    report = check_expression(expr, kind, plan=plan)
    return time.perf_counter() - started, report.render()


def test_planned_sweep_speedup_acceptance(benchmark):
    """auto-planned sweeps >= 3x faster than materialize, same bytes."""

    def interleaved():
        naive_seconds = {kind: [] for kind in SWEEP_KINDS}
        planned_seconds = {kind: [] for kind in SWEEP_KINDS}
        renderings = {}
        for _ in range(ROUNDS):
            for kind in SWEEP_KINDS:
                seconds, naive_text = _timed_sweep(kind, "materialize")
                naive_seconds[kind].append(seconds)
                seconds, planned_text = _timed_sweep(kind, "auto")
                planned_seconds[kind].append(seconds)
                renderings[kind] = (naive_text, planned_text)
        return naive_seconds, planned_seconds, renderings

    naive_seconds, planned_seconds, renderings = benchmark.pedantic(
        interleaved, rounds=1, iterations=1
    )
    for kind in SWEEP_KINDS:
        naive_text, planned_text = renderings[kind]
        assert naive_text == planned_text, (
            f"{kind} sweep reports diverge between plans"
        )
        naive_median = statistics.median(naive_seconds[kind])
        planned_median = statistics.median(planned_seconds[kind])
        speedup = naive_median / planned_median
        assert speedup >= ACCEPTANCE_SPEEDUP, (
            f"planned {kind} sweep only {speedup:.2f}x faster than "
            f"materialize on width-{WIDTH} fan-in/chain (acceptance: "
            f">= {ACCEPTANCE_SPEEDUP}x): materialize median "
            f"{naive_median:.3f}s vs planned {planned_median:.3f}s"
        )
