"""The SQL (SQLite-hosted) backend vs the in-process backends.

Two workloads, two claims:

* **Scale** — a 100,000-fact chain instance chased to its 299,000-fact
  fixpoint.  The set-based SQL rounds finish this in seconds; the
  interpreted backends re-enumerate every premise match per round and
  do not finish within any CI-shaped budget (the kernel needs minutes
  for 1% of this size), so the run is SQL-only and gated by a
  wall-clock :class:`~repro.engine.budget.Budget`.

* **Parity** — at a kernel-feasible scale the two backends must chase
  to the *same* fixpoint, and the SQL backend must win by
  >= ``ACCEPTANCE_SPEEDUP`` (median of interleaved cold runs).  On top
  of that, the whole experiment catalog is rendered under every
  backend x worker-count combination and the reports must be
  byte-identical — the backend is an execution detail, never a result.
  Each leg picks its backend with ``use_backend``, and the serial sql
  leg must show that it reached the sql backend.

The chain workload is deliberately join-heavy: the transitive
one-step/two-step dependencies make every round a self-join of ``E``
against the growing ``F``, which is exactly the shape set-based SQL
evaluation is good at and per-match interpretation is not.
"""

from __future__ import annotations

import os
import statistics
import time

from benchmarks.conftest import QUICK

from repro.chase.standard import chase
from repro.datamodel.instances import Instance
from repro.dependencies.parser import parse_dependency
from repro.engine import engine_stats, reset_engine_stats, use_backend
from repro.engine.budget import Budget, use_budget
from repro.engine.cache import reset_all_caches
from repro.engine.parallel import fork_available
from repro.experiments.registry import run_all

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


def _catalog_text(backend: str, workers: int) -> str:
    if workers:
        os.environ["REPRO_WORKERS"] = str(workers)
    else:
        os.environ.pop("REPRO_WORKERS", None)
    reset_engine_stats()  # clears the caches too
    with use_backend(backend):
        return "\n\n".join(report.render() for report in run_all())


def test_catalog_reports_byte_identical(benchmark):
    """Every experiment report, byte for byte, across backend x workers.

    This is the acceptance gate for the backend as a whole: E1-E14
    rendered under ``object | kernel | sql`` x ``serial | parallel``
    must be a single fixed string.  Runs the full catalog even under
    BENCH_QUICK — a reduced catalog would gate a weaker claim.
    """
    worker_counts = (0, 2) if fork_available() else (0,)
    saved = os.environ.get("REPRO_WORKERS")

    def all_modes():
        texts, routed = {}, 0
        try:
            for backend in ("object", "kernel", "sql"):
                for workers in worker_counts:
                    texts[backend, workers] = _catalog_text(backend, workers)
                    if (backend, workers) == ("sql", 0):
                        routed = engine_stats().counter("sql_small_routed")
            return texts, routed
        finally:
            if saved is None:
                os.environ.pop("REPRO_WORKERS", None)
            else:
                os.environ["REPRO_WORKERS"] = saved
            reset_all_caches()

    texts, routed = benchmark.pedantic(all_modes, rounds=1, iterations=1)
    # The sql backend counts every chase it hands to the interpreted
    # loop; a leg that never reached it would pass the identity check
    # vacuously.
    assert routed > 0, "the serial sql leg never ran on the sql backend"
    baseline = texts[("object", 0)]
    assert baseline  # the catalog rendered something
    divergent = [key for key, text in texts.items() if text != baseline]
    assert not divergent, (
        f"catalog reports diverge from (object, serial) under: {divergent}"
    )
