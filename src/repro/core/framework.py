"""The unifying framework of Section 3: (∼1,∼2)-inverses.

The key idea is to relax the identity Inst(Id) = Inst(M ∘ M') modulo
equivalence relations contained in ∼M (equal solution spaces):

* :class:`Equality` is ``=`` — plugging it in on both sides gives the
  notion of an *inverse* (Corollary 3.6);
* :class:`SolutionEquivalence` is ∼M itself — giving *quasi-inverses*
  (Definition 3.8), the most relaxed notion in the spectrum
  (Proposition 3.7).

Theorem 3.5 makes the (∼1,∼2)-subset property (Definition 3.4) the
exact existence criterion.  The subset property and the
(∼1,∼2)-inverse definition quantify over *all* ground instances; the
checkers here quantify over explicitly supplied finite universes and
are therefore *falsifiers*: a reported violation (with witnesses) is
a real violation, while a pass is evidence bounded by the universe.
All of the paper's counterexamples have witnesses small enough for
these checkers to find (see experiments E2, E4, E8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Protocol, Sequence, Tuple

from repro.datamodel.instances import Instance
from repro.core.mapping import (
    SchemaMapping,
    data_exchange_equivalent,
    solutions_contained,
)
from repro.core.composition import composition_membership
from repro.engine.budget import Budget, COVERAGE_EXHAUSTIVE
from repro.engine.cache import mapping_key
from repro.engine.checkpoint import CheckpointJournal, default_journal, sweep_key
from repro.engine.parallel import get_shared
from repro.engine.sweep import run_sweep, sweep_fingerprint
from repro.engine.symmetry import (
    SweepPlan,
    mapping_permutation_invariant,
    plan_sweep,
)


class EquivalenceRelation(Protocol):
    """An equivalence relation on ground instances."""

    def related(self, left: Instance, right: Instance) -> bool:
        """Are the two ground instances equivalent?"""
        ...


@dataclass(frozen=True)
class Equality:
    """The equality relation ``=`` (gives inverses)."""

    def related(self, left: Instance, right: Instance) -> bool:
        return left == right

    def __str__(self) -> str:
        return "="


@dataclass(frozen=True)
class SolutionEquivalence:
    """The paper's ∼M: equal spaces of solutions (gives quasi-inverses)."""

    mapping: SchemaMapping

    def related(self, left: Instance, right: Instance) -> bool:
        return data_exchange_equivalent(self.mapping, left, right)

    def __str__(self) -> str:
        return f"∼{self.mapping.name or 'M'}"


def _relation_permutation_invariant(relation: EquivalenceRelation) -> bool:
    """Is *relation* invariant under permutations of the constants?

    Equality always is; a solution-space relation inherits invariance
    from its mapping.  Unknown custom relations are conservatively
    treated as non-invariant, which keeps their sweeps on the full
    universe.
    """
    if isinstance(relation, Equality):
        return True
    mapping = getattr(relation, "mapping", None)
    if mapping is not None and hasattr(mapping, "dependencies"):
        return mapping_permutation_invariant(mapping)
    return False


def _plan_sweep(
    symmetry: Optional[str],
    universe: Sequence[Instance],
    *,
    mappings: Sequence[SchemaMapping] = (),
    relations: Sequence[EquivalenceRelation] = (),
) -> SweepPlan:
    """:func:`repro.engine.symmetry.plan_sweep`, additionally vetoing
    the reduction when any equivalence relation involved is not known
    to be permutation-invariant."""
    return plan_sweep(
        symmetry,
        universe,
        mappings=mappings,
        extra_invariant=all(
            _relation_permutation_invariant(rel) for rel in relations
        ),
    )


def _relation_content_key(relation: EquivalenceRelation) -> Tuple:
    """Content identity of an equivalence relation for fingerprinting:
    solution-space relations digest their mapping's dependencies, so
    two anonymous mappings with different constraints never collide."""
    inner = getattr(relation, "mapping", None)
    if inner is not None and hasattr(inner, "dependencies"):
        return (type(relation).__name__, mapping_key(inner))
    return (type(relation).__name__, str(relation))


@dataclass(frozen=True)
class SubsetPropertyReport:
    """Outcome of a bounded (∼1,∼2)-subset property check.

    ``violations`` lists pairs (I1, I2) with Sol(I2) ⊆ Sol(I1) for
    which no witness pair (I1', I2') with I1 ∼1 I1', I2 ∼2 I2' and
    I1' ⊆ I2' exists in the witness universe.  ``checked`` counts the
    containment pairs examined.

    ``coverage`` records whether the sweep ran to completion
    (``"exhaustive"``) or was cut short by the governance layer
    (``"deadline"`` / ``"budget"`` / ``"faulted"``); for a partial
    sweep, ``holds`` speaks only for the ``instances_checked`` leading
    universe instances actually examined (cumulative across resumed
    runs).

    ``orbits_checked`` is non-zero only for symmetry-reduced sweeps
    (``symmetry="orbits"``): the orbit representatives examined, with
    ``instances_checked`` counting the universe instances they stand
    for.  Violations then name representatives — concrete, replayable
    instances; :func:`repro.engine.symmetry.orbit_transport` carries
    them onto any other orbit member.
    """

    holds: bool
    checked: int
    violations: Tuple[Tuple[Instance, Instance], ...] = ()
    coverage: str = COVERAGE_EXHAUSTIVE
    instances_checked: int = 0
    orbits_checked: int = 0

    @property
    def exhaustive(self) -> bool:
        return self.coverage == COVERAGE_EXHAUSTIVE


def _default_witnesses(universe: Sequence[Instance]) -> List[Instance]:
    """Universe closed under pairwise unions.

    The paper's positive subset-property proofs (Example 3.10,
    Proposition 3.11) construct the witness I2' = I1 ∪ I2, so closing
    the witness pool under unions makes the bounded check complete on
    those arguments.
    """
    pool = list(universe)
    seen = set(pool)
    for left in universe:
        for right in universe:
            union = left.union(right)
            if union not in seen:
                seen.add(union)
                pool.append(union)
    return pool


def _subset_property_task(position: int) -> List[Tuple[Instance, bool]]:
    """Per-outer-instance worker: ``(right, witnessed)`` for every
    containment pair, in the serial iteration order."""
    mapping, relation1, relation2, outer, universe, witnesses = get_shared()
    left = outer[position]
    events: List[Tuple[Instance, bool]] = []
    for right in universe:
        if not solutions_contained(mapping, right, left):
            continue  # only pairs with Sol(I2) ⊆ Sol(I1) matter
        events.append(
            (right, _has_subset_witness(relation1, relation2, left, right, witnesses))
        )
    return events


def _subset_fold(
    left: Instance, events: List[Tuple[Instance, bool]]
) -> Iterator[Optional[Tuple[Instance, Instance]]]:
    for right, witnessed in events:
        yield None if witnessed else (left, right)


def subset_property(
    mapping: SchemaMapping,
    relation1: EquivalenceRelation,
    relation2: EquivalenceRelation,
    universe: Sequence[Instance],
    *,
    witness_universe: Optional[Sequence[Instance]] = None,
    stop_at_first_violation: bool = True,
    workers: Optional[int] = None,
    budget: Optional[Budget] = None,
    checkpoint: Optional[CheckpointJournal] = None,
    symmetry: Optional[str] = None,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
    shard_id: Optional[int] = None,
) -> SubsetPropertyReport:
    """Bounded check of the (∼1,∼2)-subset property (Definition 3.4).

    For every pair from *universe* with Sol(M, I2) ⊆ Sol(M, I1), look
    for witnesses (I1', I2') in *witness_universe* (default: the
    universe closed under pairwise unions) with I1 ∼1 I1', I2 ∼2 I2'
    and I1' ⊆ I2'.

    The outer loop fans out per left instance through the engine's
    :class:`ParallelUniverseRunner` (*workers* defaults to the
    engine-wide setting); results merge in input order, so the report
    is identical for every worker count.

    *budget* (default: ambient, else the process default limits,
    ``REPRO_DEADLINE`` & co.) bounds the sweep; when it trips, the
    report comes back with partial ``coverage`` instead of an
    exception.  *checkpoint* (default: the process default journal,
    ``REPRO_CHECKPOINT``) records the verified
    prefix so an interrupted sweep resumes where it stopped; every
    entry carries the sweep fingerprint, so a journal written for a
    different mapping or universe is discarded, never honoured.

    *symmetry* (default: ``REPRO_SYMMETRY``, else ``"full"``): with
    ``"orbits"``, only one representative per domain-permutation
    orbit enters the outer loop — sound because the property is
    invariant under constant renaming for permutation-invariant
    mappings and relations; the inner (witness) quantifiers still
    range over the full pools.  Unsound situations (literal constants
    in a mapping, a non-closed universe) silently fall back to the
    full sweep.

    *backend* (a backend name, see :func:`repro.engine.resolve_backend`;
    default: the calling thread's :func:`~repro.engine.use_backend`
    scope, else the process default :func:`~repro.engine.default_backend`,
    which starts as ``REPRO_BACKEND`` or the object backend): on the
    kernel backend homomorphism probes, premise matching, and verdict
    keys run on the compiled integer kernel (:mod:`repro.engine.kernel`);
    the sql backend runs the same kernel code and chases instances of
    128 facts or more inside SQLite (:mod:`repro.engine.sqlbackend`,
    scratch file via ``REPRO_SQL_DB``) — identical verdicts and
    witnesses either way, installed before the fan-out so forked
    workers inherit it.

    *shards* / *shard_id* (default: ``REPRO_SHARDS`` /
    ``REPRO_SHARD_ID``): partition the outer stream by content digest
    of each instance's canonical form (orbits never straddle shards).
    With a fixed *shard_id* this process sweeps exactly that shard and
    the report covers it alone — independent workers each take one id
    and coordinate through the shared checkpoint journal (per-shard
    entries plus lease files; an expired lease is stolen, so a dead
    worker's shard is re-run by whoever notices).  With *shards* > 1
    and no *shard_id*, this process claims every shard not already
    done elsewhere and merges the shard reports back into exactly the
    unsharded report (byte-identical under
    ``stop_at_first_violation=False``; with early stopping each shard
    stops at its own first violation, so only the verdict — not the
    pair counts — matches the serial run).
    """
    universe = list(universe)
    witnesses = (
        list(witness_universe)
        if witness_universe is not None
        else _default_witnesses(universe)
    )
    plan = _plan_sweep(
        symmetry, universe, mappings=(mapping,), relations=(relation1, relation2)
    )
    result = run_sweep(
        plan,
        _subset_property_task,
        (mapping, relation1, relation2, plan.outer, universe, witnesses),
        _subset_fold,
        label="check.subset_property",
        stop_at_first_violation=stop_at_first_violation,
        workers=workers,
        budget=budget,
        backend=backend,
        journal=checkpoint if checkpoint is not None else default_journal(),
        key=sweep_key(
            "subset_property",
            mapping.name or mapping,
            relation1,
            relation2,
            len(universe),
            len(witnesses),
            plan.mode,
        ),
        fingerprint=sweep_fingerprint(
            "subset_property",
            plan.mode,
            (
                mapping_key(mapping),
                _relation_content_key(relation1),
                _relation_content_key(relation2),
            ),
            (universe, witnesses),
        ),
        shards=shards,
        shard_id=shard_id,
    )
    return SubsetPropertyReport(*result)


def _has_subset_witness(
    relation1: EquivalenceRelation,
    relation2: EquivalenceRelation,
    left: Instance,
    right: Instance,
    witnesses: Sequence[Instance],
) -> bool:
    """Is there a witness pair (I1', I2') with I1 ∼1 I1', I2 ∼2 I2'
    and I1' ⊆ I2'?  Also membership of (I1, I2) in Inst(Id)[∼1,∼2]."""
    for left_prime in witnesses:
        if not relation1.related(left, left_prime):
            continue
        for right_prime in witnesses:
            if left_prime.issubset(right_prime) and relation2.related(
                right, right_prime
            ):
                return True
    return False


def _unique_solutions_task(position: int) -> List[Tuple[Instance, Instance]]:
    """Per-outer-instance worker: ∼M-equivalent pairs (left, right).

    A full sweep pairs each instance with the later ones only (the
    upper triangle of the universe).  An orbit sweep cannot cut there
    — a permuted copy π(I) of a later universe instance can precede
    the orbit representative in universe order — so it pairs each
    representative with every *other* instance.
    """
    mapping, outer, ordered, reduced = get_shared()
    left = outer[position]
    rights = ordered if reduced else ordered[position + 1 :]
    return [
        (left, right)
        for right in rights
        if left != right and data_exchange_equivalent(mapping, left, right)
    ]


def _found_pairs(
    left: Instance, pairs: List[Tuple[Instance, Instance]]
) -> List[Tuple[Instance, Instance]]:
    return pairs  # the task returns violations only


def unique_solutions_property(
    mapping: SchemaMapping,
    universe: Sequence[Instance],
    *,
    workers: Optional[int] = None,
    budget: Optional[Budget] = None,
    symmetry: Optional[str] = None,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
    shard_id: Optional[int] = None,
) -> Tuple[bool, Tuple[Tuple[Instance, Instance], ...]]:
    """Bounded check of the unique-solutions property (from [3]).

    Returns (holds, violations): pairs of *distinct* instances from
    the universe with equal solution spaces.  A violation certifies
    non-invertibility.  Fans out per left instance with deterministic
    merge order.

    The return value is a :class:`~repro.engine.budget.SweepVerdict`:
    it unpacks as the historical 2-tuple and additionally carries
    ``coverage`` / ``instances_checked`` when a *budget* (explicit,
    ambient, or a process default) cuts the sweep short.

    In ``symmetry="orbits"`` mode only orbit representatives drive the
    outer loop (the inner loop still ranges over the full universe, so
    the verdict matches the full sweep exactly); ``orbits_checked`` on
    the verdict counts them.

    *shards* / *shard_id* partition the outer loop by instance content
    digest (see :func:`repro.engine.symmetry.shard_of_instance`): a
    fixed *shard_id* sweeps just that slice, no *shard_id* sweeps all
    shards here and merges the slices back into exactly the unsharded
    verdict.
    """
    ordered = list(universe)
    plan = _plan_sweep(symmetry, ordered, mappings=(mapping,))
    return run_sweep(
        plan,
        _unique_solutions_task,
        (mapping, plan.outer, ordered, plan.reduced),
        _found_pairs,
        label="check.unique_solutions",
        workers=workers,
        budget=budget,
        backend=backend,
        shards=shards,
        shard_id=shard_id,
    ).verdict()


@dataclass(frozen=True)
class InverseCheckReport:
    """Outcome of a bounded (∼1,∼2)-inverse check.

    ``mismatches`` are pairs (I1, I2) on which the two sides of
    Definition 3.3 disagree, with the direction recorded:
    ``"id_only"`` means (I1,I2) ∈ Inst(Id)[∼1,∼2] but not in
    Inst(M∘M')[∼1,∼2] over the witness pool, and ``"comp_only"`` the
    converse.

    ``coverage`` / ``instances_checked`` mirror
    :class:`SubsetPropertyReport`: ``"exhaustive"`` means every pair
    was examined, anything else means the governance layer stopped the
    sweep after ``instances_checked`` left instances.
    ``orbits_checked`` is non-zero only under ``symmetry="orbits"``,
    counting the orbit representatives that drove the outer loop.
    """

    holds: bool
    checked: int
    mismatches: Tuple[Tuple[Instance, Instance, str], ...] = ()
    coverage: str = COVERAGE_EXHAUSTIVE
    instances_checked: int = 0
    orbits_checked: int = 0

    @property
    def exhaustive(self) -> bool:
        return self.coverage == COVERAGE_EXHAUSTIVE


def is_quasi_inverse(
    mapping: SchemaMapping,
    candidate: SchemaMapping,
    universe: Sequence[Instance],
    *,
    witness_universe: Optional[Sequence[Instance]] = None,
    max_nulls: int = 7,
    stop_at_first_mismatch: bool = True,
    workers: Optional[int] = None,
    budget: Optional[Budget] = None,
    symmetry: Optional[str] = None,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
    shard_id: Optional[int] = None,
    composition_test: Optional["CompositionTest"] = None,
) -> InverseCheckReport:
    """Bounded check that *candidate* is a quasi-inverse of *mapping*.

    Instantiates Definition 3.8: both ∼1 and ∼2 are ∼M.  Use
    :func:`is_generalized_inverse` for other relation pairs.
    """
    equivalence = SolutionEquivalence(mapping)
    return is_generalized_inverse(
        mapping,
        candidate,
        equivalence,
        equivalence,
        universe,
        workers=workers,
        witness_universe=witness_universe,
        max_nulls=max_nulls,
        stop_at_first_mismatch=stop_at_first_mismatch,
        budget=budget,
        symmetry=symmetry,
        backend=backend,
        shards=shards,
        shard_id=shard_id,
        composition_test=composition_test,
    )


def is_generalized_inverse(
    mapping: SchemaMapping,
    candidate: SchemaMapping,
    relation1: EquivalenceRelation,
    relation2: EquivalenceRelation,
    universe: Sequence[Instance],
    *,
    witness_universe: Optional[Sequence[Instance]] = None,
    max_nulls: int = 7,
    stop_at_first_mismatch: bool = True,
    workers: Optional[int] = None,
    budget: Optional[Budget] = None,
    symmetry: Optional[str] = None,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
    shard_id: Optional[int] = None,
    composition_test: Optional["CompositionTest"] = None,
) -> InverseCheckReport:
    """Bounded check of Definition 3.3: is *candidate* a
    (∼1,∼2)-inverse of *mapping*?

    For every pair (I1, I2) from *universe*, compares membership of
    (I1, I2) in Inst(Id)[∼1,∼2] and in Inst(M∘M')[∼1,∼2], with the
    existential witnesses (I1', I2') drawn from *witness_universe*
    (default: the universe closed under pairwise unions).  A reported
    mismatch of kind ``"comp_only"`` is a definite refutation; one of
    kind ``"id_only"`` refutes up to the witness pool.

    *budget* (default: ambient, else the default limits) governs the sweep;
    when it trips, the report carries partial ``coverage``.
    ``symmetry="orbits"`` reduces the outer (I1) loop to orbit
    representatives when both mappings and both relations are
    permutation-invariant; the inner loops stay on the full pools.
    *shards* / *shard_id* partition the outer loop exactly as in
    :func:`subset_property` (merged reports reproduce the serial one
    under ``stop_at_first_mismatch=False``).
    """
    universe = list(universe)
    witnesses = (
        list(witness_universe)
        if witness_universe is not None
        else _default_witnesses(universe)
    )
    plan = _plan_sweep(
        symmetry,
        universe,
        mappings=(mapping, candidate),
        relations=(relation1, relation2),
    )
    shared = (
        mapping,
        candidate,
        relation1,
        relation2,
        plan.outer,
        universe,
        witnesses,
        max_nulls,
        composition_test,
    )
    return InverseCheckReport(
        *run_sweep(
            plan,
            _generalized_inverse_task,
            shared,
            _inverse_fold,
            label="check.generalized_inverse",
            stop_at_first_violation=stop_at_first_mismatch,
            workers=workers,
            budget=budget,
            backend=backend,
            shards=shards,
            shard_id=shard_id,
        )
    )


def _in_comp_closure(
    mapping: SchemaMapping,
    candidate: SchemaMapping,
    relation1: EquivalenceRelation,
    relation2: EquivalenceRelation,
    witnesses: Sequence[Instance],
    left: Instance,
    right: Instance,
    max_nulls: int,
    composition_test: Optional["CompositionTest"] = None,
) -> bool:
    for left_prime in witnesses:
        if not relation1.related(left, left_prime):
            continue
        for right_prime in witnesses:
            if not relation2.related(right, right_prime):
                continue
            if _composition_test_membership(
                composition_test, mapping, candidate,
                left_prime, right_prime, max_nulls,
            ):
                return True
    return False


#: A pluggable composition-membership decision procedure: called as
#: ``test(mapping, candidate, left, right, max_nulls)`` and expected to
#: return exactly what :func:`composition_membership` would.  The
#: algebra planner passes evaluation-plan-specific tests (materialized
#: model checks, expression-directed membership); ``None`` keeps the
#: default.  Must be picklable — it ships to forked workers as shared
#: state.
CompositionTest = Callable[
    [SchemaMapping, SchemaMapping, Instance, Instance, int], bool
]


def _composition_test_membership(
    test: Optional[CompositionTest],
    mapping: SchemaMapping,
    candidate: SchemaMapping,
    left: Instance,
    right: Instance,
    max_nulls: int,
) -> bool:
    if test is None:
        return composition_membership(
            mapping, candidate, left, right, max_nulls=max_nulls
        )
    return test(mapping, candidate, left, right, max_nulls)


_InverseEvents = Tuple[List[Tuple[Instance, bool, bool]], Optional[BaseException]]


def _generalized_inverse_task(position: int) -> _InverseEvents:
    """Per-outer-instance worker for :func:`is_generalized_inverse`:
    the two closure memberships per right, in serial order.  An
    exception is returned (not raised) with the events that preceded
    it, so the fold can replay the serial control flow exactly."""
    (
        mapping,
        candidate,
        relation1,
        relation2,
        outer,
        universe,
        witnesses,
        max_nulls,
        composition_test,
    ) = get_shared()
    left = outer[position]
    events: List[Tuple[Instance, bool, bool]] = []
    for right in universe:
        try:
            in_id = _has_subset_witness(relation1, relation2, left, right, witnesses)
            in_comp = _in_comp_closure(
                mapping, candidate, relation1, relation2, witnesses,
                left, right, max_nulls, composition_test,
            )
        except Exception as error:  # replayed in-order by the fold
            return events, error
        events.append((right, in_id, in_comp))
    return events, None


def _is_inverse_task(position: int) -> _InverseEvents:
    """Per-outer-instance worker for :func:`is_inverse` (exact
    membership)."""
    mapping, candidate, outer, universe, max_nulls, composition_test = get_shared()
    left = outer[position]
    events: List[Tuple[Instance, bool, bool]] = []
    for right in universe:
        try:
            in_comp = _composition_test_membership(
                composition_test, mapping, candidate, left, right, max_nulls
            )
        except Exception as error:
            return events, error
        events.append((right, left.issubset(right), in_comp))
    return events, None


def _inverse_fold(
    left: Instance, outcome: _InverseEvents
) -> Iterator[Optional[Tuple[Instance, Instance, str]]]:
    """Replay one left instance's pairs as the serial loop would: a
    pair whose two memberships disagree is a mismatch, and an error
    the task handed back surfaces after the pairs before it (a
    governed one degrades the report to partial coverage)."""
    events, error = outcome
    for right, in_id, in_comp in events:
        if in_id == in_comp:
            yield None
        else:
            yield (left, right, "id_only" if in_id else "comp_only")
    if error is not None:
        raise error


def is_inverse(
    mapping: SchemaMapping,
    candidate: SchemaMapping,
    universe: Sequence[Instance],
    *,
    max_nulls: int = 7,
    stop_at_first_mismatch: bool = True,
    workers: Optional[int] = None,
    budget: Optional[Budget] = None,
    symmetry: Optional[str] = None,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
    shard_id: Optional[int] = None,
    composition_test: Optional[CompositionTest] = None,
) -> InverseCheckReport:
    """Bounded check that *candidate* is an inverse of *mapping*.

    Definition (Section 2): Inst(Id) = Inst(M ∘ M') — i.e. for ground
    pairs, I1 ⊆ I2 iff (I1, I2) ∈ Inst(M ∘ M').  Equality of the two
    relations is checked pairwise over *universe*; both membership
    tests are exact, so any mismatch is a definite refutation.

    *budget* (default: ambient, else the default limits) governs the sweep;
    when it trips, the report carries partial ``coverage``.
    ``symmetry="orbits"`` reduces the outer loop to orbit
    representatives when both mappings are permutation-invariant.
    *shards* / *shard_id* partition the outer loop exactly as in
    :func:`subset_property`.  *composition_test* substitutes a
    plan-chosen decision procedure for the default
    :func:`composition_membership` — it must decide the same relation
    (the algebra layer passes materialized or expression-directed
    tests), so the report is identical for every choice.
    """
    universe = list(universe)
    plan = _plan_sweep(symmetry, universe, mappings=(mapping, candidate))
    shared = (mapping, candidate, plan.outer, universe, max_nulls, composition_test)
    return InverseCheckReport(
        *run_sweep(
            plan,
            _is_inverse_task,
            shared,
            _inverse_fold,
            label="check.is_inverse",
            stop_at_first_violation=stop_at_first_mismatch,
            workers=workers,
            budget=budget,
            backend=backend,
            shards=shards,
            shard_id=shard_id,
        )
    )
