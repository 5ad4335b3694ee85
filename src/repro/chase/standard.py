"""The standard (restricted) chase.

Chasing a ground instance I with a finite set of s-t tgds produces a
universal solution for I (Section 2).  The implementation is the
*restricted* chase: a dependency fires on a premise match only when no
extension of the match already satisfies its conclusion, so chase
results are small and match the paper's worked examples (e.g. the
instance U of Figure 1) exactly.

The engine is more general than s-t tgds: it accepts any
disjunction-free dependencies, including tgds with ``Constant(x)``
and inequalities in the premise (needed to chase back with the output
of the Inverse algorithm), and it chases canonical instances
containing logic variables (needed by MinGen and by the
constant-propagation check).  A step bound guards non-terminating
dependency sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.chase.homomorphism import Assignment, all_homomorphisms, find_homomorphism
from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Null, Term
from repro.dependencies.dependency import Dependency
from repro.engine.budget import current_budget
from repro.engine.kernel import active_operations
from repro.errors import ChaseError


class NullFactory:
    """Produces fresh labeled nulls with deterministic names."""

    def __init__(self, prefix: str = "N", taken: Iterable[str] = ()) -> None:
        self._prefix = prefix
        self._counter = 0
        self._taken: Set[str] = set(taken)

    def fresh(self, hint: str = "") -> Null:
        while True:
            base = f"{hint}_" if hint else ""
            name = f"{base}{self._prefix}{self._counter}"
            self._counter += 1
            if name not in self._taken:
                self._taken.add(name)
                return Null(name)


@dataclass(frozen=True)
class ChaseStep:
    """One firing: which dependency, on which match, adding which facts."""

    dependency: Dependency
    homomorphism: Tuple[Tuple[Term, Term], ...]
    added: Tuple[Atom, ...]


@dataclass(frozen=True)
class ChaseResult:
    """The outcome of a chase run."""

    instance: Instance
    produced: Instance
    steps: Tuple[ChaseStep, ...]

    def __iter__(self):
        return iter(self.instance)


def _sorted_matches(
    dependency: Dependency, instance: Instance
) -> Sequence[Assignment]:
    """Premise matches in a deterministic order (by matched images)."""
    operations = active_operations()
    if operations is not None:
        # Same matches, same order — from the kernel's compiled
        # search or a premise join in SQLite.
        return operations.premise_matches(dependency, instance)
    variables = dependency.premise_variables()
    matches = list(
        all_homomorphisms(
            dependency.premise.atoms,
            instance,
            constant_vars=dependency.premise.constant_vars,
            inequalities=dependency.premise.inequalities,
        )
    )
    matches.sort(key=lambda h: tuple(h[v].sort_key() for v in variables))
    return matches


def _conclusion_satisfied(
    dependency: Dependency, match: Assignment, instance: Instance
) -> bool:
    """Is some disjunct satisfied under an extension of *match*?"""
    for disjunct in dependency.disjuncts:
        if find_homomorphism(disjunct, instance, fixed=match) is not None:
            return True
    return False


def _apply(
    dependency: Dependency,
    match: Assignment,
    factory: NullFactory,
) -> Tuple[Atom, ...]:
    """Instantiate the (single) disjunct, inventing nulls for the y's."""
    assignment: Dict[Term, Term] = dict(match)
    for variable in dependency.existential_variables(0):
        assignment[variable] = factory.fresh(hint=variable.name)
    return tuple(atom.substitute(assignment) for atom in dependency.disjuncts[0])


def _fire(dependency, match, null_factory, facts, steps, budget, max_steps) -> None:
    """One firing: charge the budget, add its facts, record the step."""
    if budget is not None:
        budget.charge_chase_steps()
    added = _apply(dependency, match, null_factory)
    facts.update(added)
    steps.append(_record(dependency, match, added))
    if len(steps) > max_steps:
        raise ChaseError.step_overflow(max_steps)


def chase(
    instance: Instance,
    dependencies: Sequence[Dependency],
    *,
    null_factory: Optional[NullFactory] = None,
    max_steps: int = 10_000,
    oblivious: bool = False,
    trace: bool = True,
) -> ChaseResult:
    """Run the restricted chase of *instance* with *dependencies*.

    Dependencies must be disjunction-free (use
    :func:`repro.chase.disjunctive.disjunctive_chase` otherwise).
    Returns the combined instance, the produced (new) facts, and the
    step trace.  Raises :class:`ChaseError` when *max_steps* firings
    do not reach a fixpoint.  When a :class:`~repro.engine.budget.Budget`
    is ambient (see :func:`~repro.engine.budget.use_budget`), every
    firing is charged against its chase-step cap and wall-clock
    deadline, so a runaway chase stops mid-run with
    :class:`~repro.errors.BudgetExceeded` instead of holding a sweep
    hostage.

    With ``oblivious=True`` the chase fires on *every* premise match,
    never checking whether the conclusion is already satisfied (the
    naive/oblivious chase).  The result is larger but homomorphically
    equivalent for s-t tgds; the restricted default matches the
    paper's worked examples (e.g. Figure 1's U) exactly.  The
    oblivious variant terminates only for stratified (s-t style)
    dependency sets and refuses premises with constraints, where
    skipping the satisfaction check would change semantics subtly.

    ``trace=False`` declares the caller will not read ``.steps`` (the
    facts and fresh-null names are unaffected).  The object and kernel
    backends ignore it; the SQL backend uses it to run full tgds as
    bulk set operations instead of per-match firings.
    """
    dependencies = tuple(dependencies)
    for dependency in dependencies:
        if not dependency.is_disjunction_free():
            raise ChaseError(
                "the standard chase cannot apply disjunctive dependencies; "
                "use disjunctive_chase"
            )
    if null_factory is None:
        null_factory = NullFactory(
            taken=(null.name for null in instance.nulls())
        )
    budget = current_budget()

    # When no conclusion relation feeds back into any premise relation
    # (the s-t tgd case), premise matches are fixed once and for all.
    premise_relations = frozenset(
        relation for dep in dependencies for relation in dep.premise_relations()
    )
    conclusion_relations = frozenset(
        relation for dep in dependencies for relation in dep.conclusion_relations()
    )
    stratified = premise_relations.isdisjoint(conclusion_relations)

    facts: Set[Atom] = set(instance.facts)
    current = instance
    steps: List[ChaseStep] = []

    if oblivious:
        if not stratified:
            raise ChaseError(
                "the oblivious chase is only supported for stratified "
                "(source-to-target style) dependency sets"
            )
        for dependency in dependencies:
            if not dependency.premise.is_plain():
                raise ChaseError(
                    "the oblivious chase does not support Constant()/"
                    "inequality premises"
                )
            for match in _sorted_matches(dependency, current):
                _fire(dependency, match, null_factory, facts, steps, budget, max_steps)
        final = Instance(frozenset(facts))
        return ChaseResult(final, final.difference(instance), tuple(steps))

    if stratified:
        operations = active_operations()
        if operations is not None:
            # A whole-chase plan (SQL rounds); None means the backend
            # has none for this input — fall through to the interpreted
            # loop, whose match lists still come from the backend.
            result = operations.stratified_chase(
                instance,
                dependencies,
                null_factory=null_factory,
                max_steps=max_steps,
                trace=trace,
            )
            if result is not None:
                return result
        # The working instance (and therefore its fact index) is only
        # rebuilt when a firing actually added facts, not per match.
        working = instance
        for dependency in dependencies:
            for match in _sorted_matches(dependency, current):
                if budget is not None:
                    budget.check()
                if len(working) != len(facts):
                    working = Instance(frozenset(facts))
                if _conclusion_satisfied(dependency, match, working):
                    continue
                _fire(dependency, match, null_factory, facts, steps, budget, max_steps)
        final = Instance(frozenset(facts)) if len(facts) != len(working) else working
        return ChaseResult(final, final.difference(instance), tuple(steps))

    # General (possibly recursive) case: recompute matches to fixpoint.
    while True:
        working = Instance(frozenset(facts))
        fired = False
        for dependency in dependencies:
            for match in _sorted_matches(dependency, working):
                if budget is not None:
                    budget.check()
                if _conclusion_satisfied(dependency, match, working):
                    continue
                _fire(dependency, match, null_factory, facts, steps, budget, max_steps)
                fired = True
                break
            if fired:
                break
        if not fired:
            final = working
            return ChaseResult(final, final.difference(instance), tuple(steps))


def _record(
    dependency: Dependency, match: Assignment, added: Tuple[Atom, ...]
) -> ChaseStep:
    ordered = tuple(sorted(match.items(), key=lambda kv: kv[0].sort_key()))
    return ChaseStep(dependency, ordered, added)
