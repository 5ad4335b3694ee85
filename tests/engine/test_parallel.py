"""Determinism of the universe runner.  That every bounded checker
reports the same under 2, 3 and 4 workers is a row of the parity
harness (``tests/test_parity.py``)."""

import pytest

from repro.engine import (
    ParallelUniverseRunner,
    default_workers,
    fork_available,
    set_defaults,
)

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
