"""The SQL (SQLite-hosted) backend vs the in-process backends.

Two workloads, two claims:

* **Scale** — a 100,000-fact chain instance chased to its 299,000-fact
  fixpoint.  The set-based SQL rounds finish this in seconds; the
  interpreted backends re-enumerate every premise match per round and
  do not finish within any CI-shaped budget (the kernel needs minutes
  for 1% of this size), so the run is SQL-only and gated by a
  wall-clock :class:`~repro.engine.budget.Budget`.

* **Speedup** — at a kernel-feasible scale the two backends must
  chase to the *same* fixpoint, and the SQL backend must win by
  >= ``ACCEPTANCE_SPEEDUP`` (median of interleaved cold runs).

The experiment catalog under every backend x worker count is a set of
rows of the parity harness (``benchmarks/bench_parity.py``).

The chain workload is deliberately join-heavy: the transitive
one-step/two-step dependencies make every round a self-join of ``E``
against the growing ``F``, which is exactly the shape set-based SQL
evaluation is good at and per-match interpretation is not.
"""

from __future__ import annotations

import statistics
import time

from benchmarks.conftest import QUICK

from repro.chase.standard import chase
from repro.datamodel.instances import Instance
from repro.dependencies.parser import parse_dependency
from repro.engine import use_backend
from repro.engine.budget import Budget, use_budget
from repro.engine.cache import reset_all_caches

#: The scale leg: 1000 chains x 100 edges = 100,000 source facts.
#: Kept full-size even under BENCH_QUICK — the whole point is that
#: the SQL backend makes this size routine.
LARGE_CHAINS, LARGE_LENGTH = 1_000, 100
LARGE_DEADLINE_SECONDS = 240.0

#: The comparison leg runs on both backends, so it must stay inside
#: what the kernel can chase in a few seconds per round.
SPEEDUP_CHAINS, SPEEDUP_LENGTH = (10, 30) if QUICK else (20, 50)
ACCEPTANCE_SPEEDUP = 3.0
ROUNDS = 3

DEPS = (
    parse_dependency("E(x, y) -> F(x, y)"),
    parse_dependency("E(x, y) & E(y, z) -> F(x, z)"),
)


def chains(n_chains: int, length: int) -> Instance:
    """``n_chains`` disjoint paths of ``length`` edges over ``E``."""
    rows = []
    for c in range(n_chains):
        for i in range(length):
            rows.append((f"v{c}_{i}", f"v{c}_{i + 1}"))
    return Instance.build({"E": rows})


def fixpoint_size(n_chains: int, length: int) -> int:
    """|E| + |F|: edges, their copies, and one two-step path per
    interior vertex — ``3nL - n`` facts in total."""
    return 3 * n_chains * length - n_chains


def _chase_to_fixpoint(backend: str, source: Instance):
    reset_all_caches()
    with use_backend(backend):
        # the default max_steps guard (10k firings) is sized for sweep
        # instances; the scale leg alone fires ~200k full tgds
        return chase(source, DEPS, trace=False, max_steps=1_000_000)


def test_large_chase_sql_within_budget(benchmark):
    """100k-fact instance to fixpoint, SQL-only, under a deadline."""
    source = chains(LARGE_CHAINS, LARGE_LENGTH)
    assert len(source.facts) == LARGE_CHAINS * LARGE_LENGTH

    def run():
        reset_all_caches()
        with use_budget(Budget(deadline=LARGE_DEADLINE_SECONDS)):
            return _chase_to_fixpoint("sql", source)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(result.instance.facts) == fixpoint_size(
        LARGE_CHAINS, LARGE_LENGTH
    )


def test_sql_speedup_acceptance(benchmark):
    """Same fixpoint as the kernel, >= 3x faster (interleaved medians)."""
    source = chains(SPEEDUP_CHAINS, SPEEDUP_LENGTH)

    def timed(backend):
        started = time.perf_counter()
        result = _chase_to_fixpoint(backend, source)
        return time.perf_counter() - started, result

    def interleaved():
        kernel_seconds, sql_seconds = [], []
        kernel_result = sql_result = None
        for _ in range(ROUNDS):
            seconds, kernel_result = timed("kernel")
            kernel_seconds.append(seconds)
            seconds, sql_result = timed("sql")
            sql_seconds.append(seconds)
        return kernel_seconds, kernel_result, sql_seconds, sql_result

    kernel_seconds, kernel_result, sql_seconds, sql_result = (
        benchmark.pedantic(interleaved, rounds=1, iterations=1)
    )
    expected = fixpoint_size(SPEEDUP_CHAINS, SPEEDUP_LENGTH)
    assert len(kernel_result.instance.facts) == expected
    assert sql_result.instance.facts == kernel_result.instance.facts
    kernel_median = statistics.median(kernel_seconds)
    sql_median = statistics.median(sql_seconds)
    speedup = kernel_median / sql_median
    assert speedup >= ACCEPTANCE_SPEEDUP, (
        f"sql chase only {speedup:.2f}x faster than kernel on "
        f"{SPEEDUP_CHAINS}x{SPEEDUP_LENGTH} chains (acceptance: "
        f">= {ACCEPTANCE_SPEEDUP}x): kernel median {kernel_median:.3f}s "
        f"vs sql {sql_median:.3f}s"
    )
