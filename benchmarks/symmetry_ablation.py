"""CI smoke ablation: full vs orbit sweeps must reach equal verdicts.

Runs the bounded checkers over a tiny universe in both symmetry modes
— serially, parallel, and parallel under deterministic fault injection
(``REPRO_FAULTS="worker.kill:task=1"``) — and fails loudly when any
pair of runs disagrees.  This is the cheap end-to-end guard for the
soundness of the orbit reduction: whatever else changes in the engine,
``full`` and ``orbits`` must remain observationally identical.  Under a
``worker.kill`` rule with ``--workers`` above 1 it also fails unless a
worker really died (``engine_stats().worker_faults``), so the fault
run proves recovery rather than a run that injected nothing.

Usage (CI runs both)::

    PYTHONPATH=src python benchmarks/symmetry_ablation.py
    REPRO_FAULTS=worker.kill:task=1 PYTHONPATH=src python benchmarks/symmetry_ablation.py --workers 2
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.catalog import decomposition
from repro.core.framework import (
    SolutionEquivalence,
    subset_property,
    unique_solutions_property,
)
from repro.core.quasi_inverse import quasi_inverse
from repro.core.framework import is_quasi_inverse
from repro.engine.cache import reset_all_caches
from repro.engine.faults import active_plane
from repro.engine.instrumentation import engine_stats
from repro.workloads.universes import instance_universe


def _verdicts(mapping, universe, symmetry: str, workers: int) -> dict:
    reset_all_caches()
    equivalence = SolutionEquivalence(mapping)
    subset = subset_property(
        mapping,
        equivalence,
        equivalence,
        universe,
        stop_at_first_violation=False,
        workers=workers,
        symmetry=symmetry,
    )
    unique_ok, _pairs = unique_solutions_property(
        mapping, universe, workers=workers, symmetry=symmetry
    )
    inverse = is_quasi_inverse(
        mapping,
        quasi_inverse(mapping),
        universe,
        stop_at_first_mismatch=False,
        workers=workers,
        symmetry=symmetry,
    )
    return {
        "subset.holds": subset.holds,
        "subset.coverage": subset.coverage,
        "subset.instances_checked": subset.instances_checked,
        "subset.violations": len(subset.violations),
        "unique.ok": unique_ok,
        "inverse.holds": inverse.holds,
        "inverse.coverage": inverse.coverage,
        "inverse.instances_checked": inverse.instances_checked,
        "inverse.mismatches": len(inverse.mismatches),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes per sweep (0 = serial)",
    )
    parser.add_argument(
        "--domain-size", type=int, default=2, help="constants in the universe"
    )
    arguments = parser.parse_args(argv)

    mapping = decomposition()
    domain = [f"c{index}" for index in range(arguments.domain_size)]
    universe = instance_universe(mapping.source, domain, max_facts=2)
    print(
        f"symmetry ablation: |universe|={len(universe)} "
        f"workers={arguments.workers} "
        f"faults={os.environ.get('REPRO_FAULTS') or 'none'}"
    )

    full = _verdicts(mapping, universe, "full", arguments.workers)
    orbits = _verdicts(mapping, universe, "orbits", arguments.workers)

    disagreements = []
    for key, full_value in full.items():
        if key.endswith(".violations") or key.endswith(".mismatches"):
            continue  # orbit sweeps report representatives, not members
        if full_value != orbits[key]:
            disagreements.append(f"{key}: full={full_value} orbits={orbits[key]}")
    for key in sorted(full):
        marker = " " if orbits[key] == full[key] else "!"
        print(f" {marker} {key:<28} full={full[key]!r:<14} orbits={orbits[key]!r}")
    if disagreements:
        print(f"\nFAIL: {len(disagreements)} verdict disagreement(s)")
        return 1
    worker_faults = engine_stats().worker_faults
    if arguments.workers > 1 and active_plane().rule("worker.kill") is not None:
        print(f"\nworker faults recovered: {worker_faults}")
        if worker_faults == 0:
            print("FAIL: a worker.kill rule is active but no worker died")
            return 1
    print("\nOK: full and orbit sweeps agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
