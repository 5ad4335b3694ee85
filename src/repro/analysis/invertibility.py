"""Invertibility analysis combining the paper's criteria.

For a mapping specified by s-t tgds, the report aggregates:

* the constant-propagation property (Definition 5.2) — necessary for
  invertibility (Proposition 5.3), decidable exactly;
* the unique-solutions property over a bounded universe — necessary
  for invertibility ([3]); a violation certifies non-invertibility;
* the (∼M,∼M)-subset property over a bounded universe — necessary
  and sufficient for quasi-invertibility (Theorem 3.5); a violation
  certifies that no quasi-inverse exists;
* guaranteed positives: LAV mappings are always quasi-invertible
  (Proposition 3.11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.datamodel.instances import Instance
from repro.core.framework import (
    SolutionEquivalence,
    SubsetPropertyReport,
    subset_property,
    unique_solutions_property,
)
from repro.core.inverse import has_constant_propagation
from repro.core.mapping import SchemaMapping
from repro.engine.budget import COVERAGE_EXHAUSTIVE, Budget, worst_coverage
from repro.engine.checkpoint import CheckpointJournal


@dataclass(frozen=True)
class InvertibilityReport:
    """Aggregated invertibility evidence for one mapping.

    ``coverage`` is the worst coverage among the bounded sweeps the
    report aggregates: ``"exhaustive"`` when every check examined its
    full universe, otherwise the most degraded status
    (``"budget"`` < ``"deadline"`` < ``"faulted"``).  Violation-based
    verdicts (:attr:`certainly_not_invertible`,
    :attr:`certainly_not_quasi_invertible`) remain definite even under
    partial coverage; passes only speak for the instances checked.
    """

    mapping_name: str
    is_lav: bool
    is_full: bool
    constant_propagation: bool
    unique_solutions: bool
    unique_solutions_witness: Optional[Tuple[Instance, Instance]]
    quasi_subset_property: SubsetPropertyReport
    coverage: str = COVERAGE_EXHAUSTIVE
    instances_checked: int = 0
    orbits_checked: int = 0

    @property
    def exhaustive(self) -> bool:
        return self.coverage == COVERAGE_EXHAUSTIVE

    @property
    def certainly_not_invertible(self) -> bool:
        """A necessary condition for invertibility failed."""
        return not self.constant_propagation or not self.unique_solutions

    @property
    def certainly_not_quasi_invertible(self) -> bool:
        """The (∼M,∼M)-subset property failed on a bounded universe."""
        return not self.quasi_subset_property.holds

    @property
    def certainly_quasi_invertible(self) -> bool:
        """A sufficient condition for quasi-invertibility holds."""
        return self.is_lav

    def verdict(self) -> str:
        if self.certainly_not_quasi_invertible:
            return "no quasi-inverse (subset-property violation)"
        if self.certainly_not_invertible and self.certainly_quasi_invertible:
            return "quasi-invertible (LAV) but not invertible"
        if self.certainly_not_invertible:
            return "not invertible; quasi-invertibility open (bounded pass)"
        if self.certainly_quasi_invertible:
            return "quasi-invertible (LAV); invertibility open (bounded pass)"
        return "all bounded checks pass"


def invertibility_report(
    mapping: SchemaMapping,
    universe: Sequence[Instance],
    *,
    workers: Optional[int] = None,
    budget: Optional[Budget] = None,
    symmetry: Optional[str] = None,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
    shard_id: Optional[int] = None,
    checkpoint: Optional[CheckpointJournal] = None,
    syntax_mapping: Optional[SchemaMapping] = None,
) -> InvertibilityReport:
    """Run every invertibility criterion over *universe*.

    *syntax_mapping* (default: *mapping*) supplies the syntactic
    fields of the report — name, LAV/full classification, constant
    propagation — while *mapping* drives the bounded sweeps.  The
    algebra planner passes a staged evaluation pipeline as *mapping*
    (cheap sweeps, no MinGen in the hot loop) with the materialized
    composition as *syntax_mapping*, so the report is byte-identical
    to running the materialized mapping everywhere.

    *workers* fans the bounded checkers out through the engine's
    :class:`~repro.engine.parallel.ParallelUniverseRunner`; the report
    is identical for every worker count.  *budget* (default: ambient,
    else the default limits) is shared by the bounded sweeps; a trip degrades
    the report's ``coverage`` instead of raising.  *symmetry*
    (default: ``REPRO_SYMMETRY``) selects full or orbit-reduced sweeps
    for both bounded checks; ``orbits_checked`` aggregates their orbit
    counters.  *backend* (default: the calling thread's
    :func:`~repro.engine.use_backend` scope, else the process default,
    :func:`~repro.engine.default_backend`) selects the object or SQL
    (SQLite-hosted) execution backend for both sweeps; the report is
    identical in each case.  *shards* / *shard_id* (default:
    ``REPRO_SHARDS`` / ``REPRO_SHARD_ID``) partition both bounded
    sweeps by content digest; with a fixed *shard_id* the report
    covers that shard alone, merged shard reports reproduce the
    unsharded run.  *checkpoint* journals the subset-property sweep —
    the expensive, resumable phase — so an interrupted report picks up
    where it stopped (the unique-solutions pass is re-run; it is the
    cheap phase and carries no journal support).
    """
    equivalence = SolutionEquivalence(mapping)
    unique_verdict = unique_solutions_property(
        mapping,
        universe,
        workers=workers,
        budget=budget,
        symmetry=symmetry,
        backend=backend,
        shards=shards,
        shard_id=shard_id,
    )
    unique, violations = unique_verdict
    subset = subset_property(
        mapping,
        equivalence,
        equivalence,
        universe,
        workers=workers,
        budget=budget,
        symmetry=symmetry,
        backend=backend,
        shards=shards,
        shard_id=shard_id,
        checkpoint=checkpoint,
    )
    syntax = syntax_mapping if syntax_mapping is not None else mapping
    return InvertibilityReport(
        mapping_name=syntax.name or str(syntax),
        is_lav=syntax.is_lav(),
        is_full=syntax.is_full(),
        constant_propagation=has_constant_propagation(syntax),
        unique_solutions=unique,
        unique_solutions_witness=violations[0] if violations else None,
        quasi_subset_property=subset,
        coverage=worst_coverage(unique_verdict.coverage, subset.coverage),
        instances_checked=unique_verdict.instances_checked
        + subset.instances_checked,
        orbits_checked=unique_verdict.orbits_checked + subset.orbits_checked,
    )
