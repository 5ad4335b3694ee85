"""The compiled-kernel backend vs the object backend.

Sweeps the (∼M,∼M)-subset property over the ≤2-fact |domain|=4
universe of a binary projection mapping (137 instances, orbit-reduced)
on both execution backends.  The witness pool is prebuilt once and
passed to every sweep so both backends time exactly the same work —
the pool construction is backend-independent setup, not the workload
under test.

The acceptance gate of the kernel change: the kernel sweep must beat
the object sweep by >= 5x (median of several interleaved cold runs,
which absorbs machine noise on the object side), with identical
verdicts, violations, and coverage.  The same sweep under
``object|kernel`` x ``serial|parallel`` is a row of the parity
harness (``tests/test_parity.py``).
"""

from __future__ import annotations

import statistics
import time

import pytest

from benchmarks.conftest import QUICK

from repro.core.framework import (
    SolutionEquivalence,
    _default_witnesses,
    subset_property,
)
from repro.core.mapping import SchemaMapping
from repro.datamodel.schemas import Schema
from repro.datamodel.terms import Constant
from repro.engine.cache import reset_all_caches
from repro.workloads.universes import instance_universe

ACCEPTANCE_DOMAIN = 4
ACCEPTANCE_SPEEDUP = 5.0

#: Cold runs per backend for the median; quick mode keeps CI short.
ROUNDS = 3 if QUICK else 5


def _projection_mapping() -> SchemaMapping:
    return SchemaMapping.from_text(
        Schema.of({"R": 2}),
        Schema.of({"S": 1}),
        "R(x, y) -> S(x)",
        name="Projection",
    )


def _universe(mapping: SchemaMapping, domain_size: int):
    domain = [Constant(f"c{index}") for index in range(domain_size)]
    return instance_universe(mapping.source, domain, max_facts=2)


def _sweep(mapping, universe, witnesses, backend, workers=0):
    equivalence = SolutionEquivalence(mapping)
    return subset_property(
        mapping,
        equivalence,
        equivalence,
        universe,
        witness_universe=witnesses,
        stop_at_first_violation=False,
        workers=workers,
        symmetry="orbits",
        backend=backend,
    )


def _verdict(report):
    """The backend-independent part of a report (cache counters and
    phase timings differ by design; verdicts and witnesses may not)."""
    return repr(
        (
            report.holds,
            report.violations,
            report.coverage,
            report.checked,
            report.instances_checked,
            report.orbits_checked,
        )
    )


@pytest.mark.parametrize("backend", ["object", "kernel"])
def test_subset_property_sweep(benchmark, backend):
    mapping = _projection_mapping()
    universe = _universe(mapping, ACCEPTANCE_DOMAIN)
    witnesses = _default_witnesses(universe)

    def run():
        reset_all_caches()
        return _sweep(mapping, universe, witnesses, backend)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.holds
    assert report.instances_checked == len(universe)
    assert 0 < report.orbits_checked < len(universe)


def test_kernel_speedup_acceptance(benchmark):
    """|domain|=4: kernel must beat object by >= 5x, reports identical."""
    mapping = _projection_mapping()
    universe = _universe(mapping, ACCEPTANCE_DOMAIN)
    witnesses = _default_witnesses(universe)

    def timed(backend):
        reset_all_caches()
        started = time.perf_counter()
        report = _sweep(mapping, universe, witnesses, backend)
        return time.perf_counter() - started, report

    def interleaved():
        object_seconds, kernel_seconds = [], []
        object_report = kernel_report = None
        for _ in range(ROUNDS):
            seconds, object_report = timed("object")
            object_seconds.append(seconds)
            seconds, kernel_report = timed("kernel")
            kernel_seconds.append(seconds)
        return object_seconds, object_report, kernel_seconds, kernel_report

    object_seconds, object_report, kernel_seconds, kernel_report = (
        benchmark.pedantic(interleaved, rounds=1, iterations=1)
    )
    assert _verdict(object_report) == _verdict(kernel_report)
    object_median = statistics.median(object_seconds)
    kernel_median = statistics.median(kernel_seconds)
    speedup = object_median / kernel_median
    assert speedup >= ACCEPTANCE_SPEEDUP, (
        f"kernel sweep only {speedup:.2f}x faster than object at "
        f"|domain|={ACCEPTANCE_DOMAIN} (acceptance: >= {ACCEPTANCE_SPEEDUP}x): "
        f"object median {object_median:.3f}s vs kernel {kernel_median:.3f}s"
    )
