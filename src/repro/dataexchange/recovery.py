"""Soundness and faithfulness (Definition 6.5) and recovery.

Let M be specified by s-t tgds and M' be a reverse mapping in the
disjunctive language.  For a ground instance I with U = chase_Sigma(I),
V = chase_Sigma'(U) and U' = chase_Sigma(V):

* M' is *sound* w.r.t. M when some member of U' maps homomorphically
  into U — the round trip invents no facts beyond U;
* M' is *faithful* w.r.t. M when some member of U' is homomorphically
  equivalent to U — no exported information is lost either, and the
  corresponding member of V is "data-exchange equivalent" to I.

Theorem 6.7: every quasi-inverse specified by disjunctive tgds with
constants and inequalities among constants is sound.  Theorem 6.8:
the output of algorithm QuasiInverse is faithful.  The experiments
validate both over the catalog and random workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.chase.homomorphism import instance_homomorphism
from repro.datamodel.instances import Instance
from repro.dataexchange.exchange import RoundTrip, round_trip
from repro.core.mapping import SchemaMapping
from repro.engine.budget import (
    Budget,
    COVERAGE_EXHAUSTIVE,
    SweepVerdict,
    current_budget,
    record_coverage,
    use_budget,
)
from repro.engine.cache import mapping_key
from repro.engine.checkpoint import CheckpointJournal, default_journal, sweep_key
from repro.engine.parallel import get_shared
from repro.engine.sweep import Fold, run_sweep, sweep_fingerprint
from repro.engine.symmetry import plan_sweep
from repro.errors import BudgetExceeded, governed_coverage


@dataclass(frozen=True)
class RecoveryReport:
    """Per-instance soundness/faithfulness verdicts for a round trip.

    ``trip`` is None exactly when ``coverage`` is not ``"exhaustive"``:
    the governing budget tripped mid-chase, so no verdict exists for
    this instance (``sound`` / ``faithful`` are then vacuously False).
    """

    trip: Optional[RoundTrip]
    sound: bool
    faithful: bool
    faithful_index: Optional[int] = None
    coverage: str = COVERAGE_EXHAUSTIVE

    @property
    def exhaustive(self) -> bool:
        return self.coverage == COVERAGE_EXHAUSTIVE

    @property
    def recovered_instance(self) -> Optional[Instance]:
        """The member of V whose re-exchange is equivalent to U."""
        if self.faithful_index is None or self.trip is None:
            return None
        return self.trip.recovered[self.faithful_index]


def analyze_round_trip(
    mapping: SchemaMapping,
    reverse_mapping: SchemaMapping,
    instance: Instance,
    *,
    budget: Optional[Budget] = None,
) -> RecoveryReport:
    """Run the Figure-1 flow and judge soundness and faithfulness.

    *budget* (default: the ambient one) bounds the chases; if it trips
    mid-flow the report comes back with ``trip=None`` and a partial
    ``coverage`` instead of raising.
    """
    if budget is None:
        budget = current_budget()
    try:
        with use_budget(budget):
            trip = round_trip(mapping, reverse_mapping, instance)
    except BudgetExceeded as error:
        coverage = governed_coverage(error)
        if coverage is None:
            raise
        record_coverage("check.round_trip", coverage, str(error), 0)
        return RecoveryReport(None, False, False, coverage=coverage)
    sound, faithful, faithful_index = _judge_round_trip(trip)
    return RecoveryReport(trip, sound, faithful, faithful_index)


def _judge_round_trip(trip: RoundTrip) -> Tuple[bool, bool, Optional[int]]:
    """The (sound, faithful, faithful_index) verdict of Definition 6.5."""
    sound = False
    faithful = False
    faithful_index: Optional[int] = None
    for index, re_exported in enumerate(trip.re_exported):
        if instance_homomorphism(re_exported, trip.exported) is not None:
            sound = True
            if instance_homomorphism(trip.exported, re_exported) is not None:
                faithful = True
                faithful_index = index
                break
    return sound, faithful, faithful_index


def is_sound(
    mapping: SchemaMapping,
    reverse_mapping: SchemaMapping,
    instance: Instance,
    *,
    budget: Optional[Budget] = None,
) -> bool:
    """Definition 6.5(1) on one ground instance."""
    return analyze_round_trip(
        mapping, reverse_mapping, instance, budget=budget
    ).sound


def is_faithful(
    mapping: SchemaMapping,
    reverse_mapping: SchemaMapping,
    instance: Instance,
    *,
    budget: Optional[Budget] = None,
) -> bool:
    """Definition 6.5(2) on one ground instance."""
    return analyze_round_trip(
        mapping, reverse_mapping, instance, budget=budget
    ).faithful


def _round_trip_task(position: int) -> Tuple[bool, bool]:
    # Budget trips propagate out of the task (rather than being folded
    # into the per-instance report) so the surrounding sweep stops with
    # partial coverage instead of mislabeling cut-short instances as
    # violators.
    mapping, reverse_mapping, outer = get_shared()
    trip = round_trip(mapping, reverse_mapping, outer[position])
    sound, faithful, _ = _judge_round_trip(trip)
    return sound, faithful


def _unsound(instance: Instance, verdict: Tuple[bool, bool]) -> Tuple[Optional[Instance]]:
    return (None if verdict[0] else instance,)


def _unfaithful(instance: Instance, verdict: Tuple[bool, bool]) -> Tuple[Optional[Instance]]:
    return (None if verdict[1] else instance,)


def _sweep_round_trips(
    mapping: SchemaMapping,
    reverse_mapping: SchemaMapping,
    instances: Iterable[Instance],
    fold: Fold,
    *,
    label: str,
    workers: Optional[int],
    budget: Optional[Budget],
    checkpoint: Optional[CheckpointJournal],
    symmetry: Optional[str],
    backend: Optional[str],
) -> SweepVerdict:
    """Fan the Figure-1 round trip out over *instances* and collect,
    in input order, those *fold* flags as violators.

    Returns a :class:`~repro.engine.budget.SweepVerdict` — unpacks as
    the historical ``(ok, violators)`` pair and carries ``coverage`` /
    ``instances_checked``.  A governing *budget* (default: ambient,
    else environment) that trips mid-sweep yields a partial verdict
    over the instances already judged; *checkpoint* (default: the
    ``REPRO_CHECKPOINT`` journal) lets an interrupted sweep resume
    from the verified prefix.

    The per-instance verdict is invariant under constant permutation
    whenever both mappings are (chases commute with renaming, and
    homomorphism existence between renamed instances is unchanged), so
    ``symmetry="orbits"`` sweeps one representative per orbit; listed
    violators are then representatives of violating orbits.
    """
    ordered = list(instances)
    plan = plan_sweep(symmetry, ordered, mappings=(mapping, reverse_mapping))
    return run_sweep(
        plan,
        _round_trip_task,
        (mapping, reverse_mapping, plan.outer),
        fold,
        label=label,
        workers=workers,
        budget=budget,
        backend=backend,
        journal=checkpoint if checkpoint is not None else default_journal(),
        key=sweep_key(
            label,
            mapping.name or mapping,
            reverse_mapping.name or reverse_mapping,
            len(ordered),
            plan.mode,
        ),
        fingerprint=sweep_fingerprint(
            label,
            plan.mode,
            (mapping_key(mapping), mapping_key(reverse_mapping)),
            (ordered,),
        ),
        shards=1,
    ).verdict()


def sound_on(
    mapping: SchemaMapping,
    reverse_mapping: SchemaMapping,
    instances: Iterable[Instance],
    *,
    workers: Optional[int] = None,
    budget: Optional[Budget] = None,
    checkpoint: Optional[CheckpointJournal] = None,
    symmetry: Optional[str] = None,
    backend: Optional[str] = None,
) -> Tuple[bool, Tuple[Instance, ...]]:
    """Check soundness over many instances; returns (ok, violators).

    The result is a :class:`~repro.engine.budget.SweepVerdict`, so it
    also exposes ``coverage`` and ``instances_checked``.
    """
    return _sweep_round_trips(
        mapping,
        reverse_mapping,
        instances,
        _unsound,
        label="check.sound_on",
        workers=workers,
        budget=budget,
        checkpoint=checkpoint,
        symmetry=symmetry,
        backend=backend,
    )


def faithful_on(
    mapping: SchemaMapping,
    reverse_mapping: SchemaMapping,
    instances: Iterable[Instance],
    *,
    workers: Optional[int] = None,
    budget: Optional[Budget] = None,
    checkpoint: Optional[CheckpointJournal] = None,
    symmetry: Optional[str] = None,
    backend: Optional[str] = None,
) -> Tuple[bool, Tuple[Instance, ...]]:
    """Check faithfulness over many instances; returns (ok, violators).

    The result is a :class:`~repro.engine.budget.SweepVerdict`, so it
    also exposes ``coverage`` and ``instances_checked``.
    """
    return _sweep_round_trips(
        mapping,
        reverse_mapping,
        instances,
        _unfaithful,
        label="check.faithful_on",
        workers=workers,
        budget=budget,
        checkpoint=checkpoint,
        symmetry=symmetry,
        backend=backend,
    )


def recover(
    mapping: SchemaMapping,
    reverse_mapping: SchemaMapping,
    instance: Instance,
) -> Optional[Instance]:
    """Recover a source instance data-exchange equivalent to *instance*.

    Searches the members of V = chase_Sigma'(chase_Sigma(I)) for one
    whose re-exchange is homomorphically equivalent to the original
    export (the selection procedure described after Definition 6.5).
    Returns None when the reverse mapping is not faithful on I.
    """
    return analyze_round_trip(mapping, reverse_mapping, instance).recovered_instance
