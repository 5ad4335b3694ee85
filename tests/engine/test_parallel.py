"""Serial/parallel equivalence and determinism of the universe runner."""

import pytest

from repro.catalog import (
    decomposition,
    decomposition_quasi_inverse_join,
    projection,
    projection_quasi_inverse,
)
from repro.core import SolutionEquivalence, subset_property
from repro.core.framework import is_inverse, is_quasi_inverse, unique_solutions_property
from repro.engine import (
    ParallelUniverseRunner,
    default_workers,
    fork_available,
    reset_all_caches,
    set_defaults,
)
from repro.workloads import instance_universe

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

WORKER_COUNTS = [2, 3, 4]


class TestRunner:
    def test_serial_map_preserves_order(self):
        runner = ParallelUniverseRunner(workers=1)
        assert not runner.parallel
        assert runner.map(lambda x: x * x, range(10)) == [i * i for i in range(10)]

    @needs_fork
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_parallel_map_matches_serial(self, workers):
        runner = ParallelUniverseRunner(workers=workers, chunk_size=3)
        assert runner.map(len, [(i,) * (i % 5) for i in range(40)]) == [
            i % 5 for i in range(40)
        ]

    def test_serial_map_iter_is_lazy(self):
        produced = []

        def task(item):
            produced.append(item)
            return item

        runner = ParallelUniverseRunner(workers=1)
        stream = runner.map_iter(task, range(100))
        assert next(stream) == 0
        stream.close()
        assert produced == [0]  # nothing beyond the consumed prefix

    def test_default_workers_round_trip(self):
        original = default_workers()
        previous = set_defaults(workers=3)
        try:
            assert previous == {"workers": original}
            assert default_workers() == 3
            assert ParallelUniverseRunner().workers == 3
        finally:
            set_defaults(**previous)
        assert default_workers() == original


@needs_fork
class TestCheckerEquivalence:
    """Every bounded checker must give byte-identical verdicts for any
    worker count (the merge replays the serial control flow)."""

    def setup_method(self):
        reset_all_caches()

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_subset_property_verdicts(self, workers):
        mapping = decomposition()
        universe = instance_universe(mapping.source, [0, 1], max_facts=2)
        relation = SolutionEquivalence(mapping)
        serial = subset_property(
            mapping, relation, relation, universe, workers=1
        )
        assert (
            subset_property(mapping, relation, relation, universe, workers=workers)
            == serial
        )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_subset_property_full_scan_verdicts(self, workers):
        mapping = projection()
        universe = instance_universe(mapping.source, [0, 1], max_facts=2)
        relation = SolutionEquivalence(mapping)
        serial = subset_property(
            mapping,
            relation,
            relation,
            universe,
            workers=1,
            stop_at_first_violation=False,
        )
        parallel = subset_property(
            mapping,
            relation,
            relation,
            universe,
            workers=workers,
            stop_at_first_violation=False,
        )
        assert parallel == serial

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_unique_solutions_verdicts(self, workers):
        mapping = decomposition()
        universe = instance_universe(mapping.source, [0, 1], max_facts=3)
        serial = unique_solutions_property(mapping, universe, workers=1)
        assert unique_solutions_property(mapping, universe, workers=workers) == serial

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_is_inverse_verdicts(self, workers):
        mapping = projection()
        candidate = projection_quasi_inverse()
        universe = instance_universe(mapping.source, [0, 1], max_facts=2)
        serial = is_inverse(mapping, candidate, universe, workers=1)
        assert is_inverse(mapping, candidate, universe, workers=workers) == serial

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_is_quasi_inverse_verdicts(self, workers):
        mapping = decomposition()
        candidate = decomposition_quasi_inverse_join()
        universe = instance_universe(mapping.source, [0, 1], max_facts=1)
        serial = is_quasi_inverse(
            mapping, candidate, universe, workers=1, stop_at_first_mismatch=False
        )
        parallel = is_quasi_inverse(
            mapping,
            candidate,
            universe,
            workers=workers,
            stop_at_first_mismatch=False,
        )
        assert parallel == serial
