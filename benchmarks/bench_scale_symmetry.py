"""Scaling: symmetry-reduced sweeps vs full universe enumeration.

Sweeps the (∼M,∼M)-subset property over all ≤2-fact universes of a
binary projection mapping for |domain| ∈ {2..5}, in both ``full`` and
``orbits`` mode.  The orbit count grows like ``universe / |domain|!``,
so the gap widens with the domain; the acceptance gate asserts the
|domain|=4 sweep is at least 3x faster orbit-reduced (median of
interleaved cold runs), with verdicts byte-identical to the full
sweep.
"""

from __future__ import annotations

import statistics
import time

import pytest

from benchmarks.conftest import scale_params

from repro.core.framework import SolutionEquivalence, subset_property
from repro.core.mapping import SchemaMapping
from repro.datamodel.schemas import Schema
from repro.datamodel.terms import Constant
from repro.engine.cache import reset_all_caches
from repro.workloads.universes import instance_universe

#: |domain| values swept; CI's quick mode stops at the acceptance size.
DOMAIN_SIZES = scale_params([2, 3, 4, 5], [2, 3, 4])

#: The gate of the symmetry-reduction change: minimum full/orbits
#: wall-clock ratio on the |domain|=4 subset-property sweep.
ACCEPTANCE_DOMAIN = 4
ACCEPTANCE_SPEEDUP = 3.0

#: Interleaved cold (full, orbits) pairs for the medians; one pair
#: alone sits on the bound on a noisy host.
ROUNDS = 5


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


def _sweep(mapping, universe, symmetry):
    equivalence = SolutionEquivalence(mapping)
    return subset_property(
        mapping,
        equivalence,
        equivalence,
        universe,
        stop_at_first_violation=False,
        workers=0,
        symmetry=symmetry,
    )


def _verdict(report):
    """The mode-independent part of a report (counters differ by design)."""
    return repr((report.holds, report.violations, report.coverage))


@pytest.mark.parametrize("symmetry", ["full", "orbits"])
@pytest.mark.parametrize("domain_size", DOMAIN_SIZES)
def test_subset_property_sweep(benchmark, domain_size, symmetry):
    mapping = _projection_mapping()
    universe = _universe(mapping, domain_size)

    def run():
        reset_all_caches()
        return _sweep(mapping, universe, symmetry)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.holds
    assert report.instances_checked == len(universe)
    if symmetry == "orbits":
        assert 0 < report.orbits_checked < len(universe)
    else:
        assert report.orbits_checked == 0


def test_symmetry_speedup_acceptance(benchmark):
    """|domain|=4: orbits must beat full by >= 3x (interleaved medians),
    verdicts identical."""
    mapping = _projection_mapping()
    universe = _universe(mapping, ACCEPTANCE_DOMAIN)

    def timed(symmetry):
        reset_all_caches()
        started = time.perf_counter()
        report = _sweep(mapping, universe, symmetry)
        return time.perf_counter() - started, report

    def interleaved():
        full_seconds, orbit_seconds = [], []
        full = orbits = None
        for _ in range(ROUNDS):
            seconds, full = timed("full")
            full_seconds.append(seconds)
            seconds, orbits = timed("orbits")
            orbit_seconds.append(seconds)
        return full_seconds, full, orbit_seconds, orbits

    full_seconds, full, orbit_seconds, orbits = benchmark.pedantic(
        interleaved, rounds=1, iterations=1
    )
    assert _verdict(full) == _verdict(orbits)
    assert full.instances_checked == orbits.instances_checked == len(universe)
    full_median = statistics.median(full_seconds)
    orbit_median = statistics.median(orbit_seconds)
    speedup = full_median / orbit_median
    assert speedup >= ACCEPTANCE_SPEEDUP, (
        f"orbit sweep only {speedup:.2f}x faster than full at "
        f"|domain|={ACCEPTANCE_DOMAIN} (acceptance: >= {ACCEPTANCE_SPEEDUP}x): "
        f"full median {full_median:.3f}s vs orbits {orbit_median:.3f}s"
    )
