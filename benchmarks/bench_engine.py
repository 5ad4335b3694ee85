"""Engine-level benchmarks: memo-cache effectiveness and parallel
universe fan-out.

These complement the per-primitive scale benchmarks: they measure the
shared execution layer itself — cold-cache versus warm-cache bounded
checks, and the :class:`ParallelUniverseRunner`'s serial/parallel
agreement on a fixed universe."""

import pytest

from benchmarks.conftest import scale_params

from repro.catalog import decomposition
from repro.core import SolutionEquivalence, subset_property
from repro.engine import (
    ParallelUniverseRunner,
    engine_stats,
    reset_engine_stats,
    verdict_cache,
)
from repro.workloads import instance_universe


@pytest.mark.parametrize("max_facts", scale_params([1, 2], [1]))
def test_subset_property_cold_cache(benchmark, max_facts):
    """The bounded subset-property check with every memo cache empty."""
    mapping = decomposition()
    universe = instance_universe(mapping.source, [0, 1], max_facts=max_facts)
    relation = SolutionEquivalence(mapping)

    def run():
        reset_engine_stats()
        return subset_property(mapping, relation, relation, universe)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.holds
    assert verdict_cache.stats().hits > 0  # reuse happens within one check


@pytest.mark.parametrize("max_facts", scale_params([1, 2], [1]))
def test_subset_property_warm_cache(benchmark, max_facts):
    """The same check re-run against fully warmed caches."""
    mapping = decomposition()
    universe = instance_universe(mapping.source, [0, 1], max_facts=max_facts)
    relation = SolutionEquivalence(mapping)
    reset_engine_stats()
    expected = subset_property(mapping, relation, relation, universe)

    report = benchmark.pedantic(
        lambda: subset_property(mapping, relation, relation, universe),
        rounds=1,
        iterations=1,
    )
    assert report == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_subset_property_workers(benchmark, workers):
    """The parallel path's overhead, visible in the n=… comparison
    (that both render the same verdict is a row of the parity harness,
    ``tests/test_parity.py``)."""
    mapping = decomposition()
    universe = instance_universe(mapping.source, [0, 1], max_facts=2)
    relation = SolutionEquivalence(mapping)
    reset_engine_stats()
    report = benchmark.pedantic(
        lambda: subset_property(
            mapping, relation, relation, universe, workers=workers
        ),
        rounds=1,
        iterations=1,
    )
    assert report.holds


def test_parallel_runner_fan_out(benchmark):
    """Raw fan-out cost of the runner on a trivial task."""
    runner = ParallelUniverseRunner(2, chunk_size=8)

    def run():
        return runner.map(len, [(i,) * (i % 3) for i in range(64)])

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert results == [i % 3 for i in range(64)]
    assert engine_stats().instances_processed >= 64
