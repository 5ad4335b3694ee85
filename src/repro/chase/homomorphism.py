"""Homomorphism search.

The paper's homomorphisms (Section 2 and Definition 6.2) map constants
to themselves and nulls/variables to arbitrary terms, such that every
fact maps into the target instance; premise matching additionally
respects ``Constant(x)`` conjuncts and inequalities.

The search is a deterministic backtracking join: atoms are ordered
greedily (most-bound first, smallest relation first) and candidate
facts are scanned in sorted order, so the first homomorphism found is
stable across runs.  The greedy order is a function of the atoms, the
pre-bound terms and each atom's relation extent in the target, so it
is computed once per such signature and memoized.  Candidates come
from the engine's per-instance fact index — a hash probe on the most
selective (relation, position, term) posting list — which skips facts
a linear scan would only reject, without changing which homomorphisms
are found or their order.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Null, Term, Variable
from repro.engine.budget import current_budget
from repro.engine.cache import register_reset_hook
from repro.engine.indexing import fact_index

Assignment = Dict[Term, Term]


def _is_mappable(term: Term) -> bool:
    """Nulls and variables are mappable; constants are rigid."""
    return isinstance(term, (Null, Variable))


# Join orders by (atoms, pre-bound terms, per-atom relation extents),
# the whole input of the greedy order; cleared when full and with the
# caches, like the shared-key table.  No lock: an entry is a function
# of its key, so racing threads can only store the same order twice.
_ORDERS: Dict[Tuple, Tuple[Atom, ...]] = {}
_ORDERS_MAX = 16_384
register_reset_hook(_ORDERS.clear)


def _order_atoms(
    atoms: Sequence[Atom], target: Instance, bound: Iterable[Term]
) -> Tuple[Atom, ...]:
    """The greedy join order of :func:`_greedy_order`, memoized."""
    atoms = tuple(atoms)
    facts_for = target.facts_for
    key = (
        atoms,
        frozenset(bound),
        tuple([len(facts_for(atom.relation)) for atom in atoms]),
    )
    ordered = _ORDERS.get(key)
    if ordered is None:
        ordered = _greedy_order(atoms, target, bound)
        if len(_ORDERS) >= _ORDERS_MAX:
            _ORDERS.clear()
        _ORDERS[key] = ordered
    return ordered


def _greedy_order(
    atoms: Sequence[Atom], target: Instance, bound: Iterable[Term]
) -> Tuple[Atom, ...]:
    """Greedy join order: prefer atoms with more bound positions, then
    atoms over smaller relations, then lexicographic, for determinism.

    Scores are maintained incrementally: extents and sort keys are
    computed once, and binding a term decrements the unbound count of
    each atom position it occurs in, so selection is a cheap tuple
    comparison per candidate instead of a full rescore."""
    remaining = sorted(atoms, key=Atom.sort_key)
    count = len(remaining)
    keys = [candidate.sort_key() for candidate in remaining]
    extents = [
        len(target.facts_for(candidate.relation)) for candidate in remaining
    ]
    bound = set(bound)
    unbound_counts: List[int] = []
    occurrences: Dict[Term, List[int]] = {}
    for index, candidate in enumerate(remaining):
        unbound = 0
        for arg in candidate.args:
            if _is_mappable(arg):
                occurrences.setdefault(arg, []).append(index)
                if arg not in bound:
                    unbound += 1
        unbound_counts.append(unbound)

    ordered: List[Atom] = []
    alive = [True] * count
    for _ in range(count):
        best = min(
            (i for i in range(count) if alive[i]),
            key=lambda i: (unbound_counts[i], extents[i], keys[i]),
        )
        alive[best] = False
        ordered.append(remaining[best])
        for arg in remaining[best].args:
            if _is_mappable(arg) and arg not in bound:
                bound.add(arg)
                for position in occurrences[arg]:
                    if alive[position]:
                        unbound_counts[position] -= 1
    return tuple(ordered)


def _check_constraints(
    assignment: Assignment,
    constant_vars: FrozenSet[Variable],
    inequalities: FrozenSet[Tuple[Variable, Variable]],
) -> bool:
    for variable in constant_vars:
        image = assignment.get(variable)
        if image is not None and not isinstance(image, Constant):
            return False
    for left, right in inequalities:
        left_image = assignment.get(left)
        right_image = assignment.get(right)
        if left_image is not None and right_image is not None:
            if left_image == right_image:
                return False
    return True


def _match_atom(current: Atom, fact: Atom, assignment: Assignment) -> Optional[Assignment]:
    """Try to extend *assignment* so that *current* maps onto *fact*."""
    if current.relation != fact.relation or current.arity != fact.arity:
        return None
    extension: Assignment = {}
    for arg, value in zip(current.args, fact.args):
        if _is_mappable(arg):
            bound_value = assignment.get(arg, extension.get(arg))
            if bound_value is None:
                extension[arg] = value
            elif bound_value != value:
                return None
        elif arg != value:
            return None
    return extension


def all_homomorphisms(
    atoms: Sequence[Atom],
    target: Instance,
    *,
    fixed: Optional[Mapping[Term, Term]] = None,
    constant_vars: Iterable[Variable] = (),
    inequalities: Iterable[Tuple[Variable, Variable]] = (),
) -> Iterator[Assignment]:
    """Enumerate homomorphisms from the conjunction *atoms* into *target*.

    ``fixed`` pre-assigns some mappable terms.  ``constant_vars`` and
    ``inequalities`` are the premise constraints of Definition 6.2:
    ``Constant(x)`` holds when the image is a constant, and each
    inequality requires distinct images.  Results are full assignments
    covering every mappable term occurring in *atoms* (plus the fixed
    pairs), yielded in a deterministic order.
    """
    budget = current_budget()
    if budget is not None:
        # One deadline/RSS probe per search keeps even a sweep that
        # never fires a chase step responsive to its budget.
        budget.check()
    constant_vars = frozenset(constant_vars)
    inequalities = frozenset(
        (left, right) if not right < left else (right, left)
        for left, right in inequalities
    )
    base: Assignment = dict(fixed or {})
    if not _check_constraints(base, constant_vars, inequalities):
        return
    ordered = _order_atoms(atoms, target, base)
    target_index = fact_index(target)

    def search(index: int, assignment: Assignment) -> Iterator[Assignment]:
        if index == len(ordered):
            yield dict(assignment)
            return
        current = ordered[index]
        for fact in target_index.candidates(current, assignment):
            extension = _match_atom(current, fact, assignment)
            if extension is None:
                continue
            assignment.update(extension)
            if _check_constraints(assignment, constant_vars, inequalities):
                yield from search(index + 1, assignment)
            for key in extension:
                del assignment[key]

    yield from search(0, base)


def find_homomorphism(
    atoms: Sequence[Atom],
    target: Instance,
    *,
    fixed: Optional[Mapping[Term, Term]] = None,
    constant_vars: Iterable[Variable] = (),
    inequalities: Iterable[Tuple[Variable, Variable]] = (),
) -> Optional[Assignment]:
    """The first homomorphism from *atoms* into *target*, or None."""
    for assignment in all_homomorphisms(
        atoms,
        target,
        fixed=fixed,
        constant_vars=constant_vars,
        inequalities=inequalities,
    ):
        return assignment
    return None


def instance_homomorphism(
    source: Instance, target: Instance, *, fixed: Optional[Mapping[Term, Term]] = None
) -> Optional[Assignment]:
    """A homomorphism between instances: constants fixed, nulls and
    variables of *source* mapped so every fact lands in *target*."""
    return find_homomorphism(source.sorted_facts(), target, fixed=fixed)


def is_homomorphically_equivalent(left: Instance, right: Instance) -> bool:
    """Homomorphisms exist in both directions (Section 2)."""
    if instance_homomorphism(left, right) is None:
        return False
    return instance_homomorphism(right, left) is not None


def core(instance: Instance) -> Instance:
    """A core of *instance*: a smallest retract.

    Repeatedly looks for an endomorphism that identifies one null with
    another term; the image shrinks until no such endomorphism exists.
    The result is unique up to isomorphism and homomorphically
    equivalent to the input.
    """
    current = instance
    improved = True
    while improved:
        improved = False
        for null in sorted(current.nulls()):
            candidates = sorted(
                term for term in current.active_domain() if term != null
            )
            for candidate in candidates:
                assignment = instance_homomorphism(
                    current, current, fixed={null: candidate}
                )
                if assignment is not None:
                    image = current.substitute(assignment)
                    if len(image) <= len(current):
                        current = image
                        improved = True
                        break
            if improved:
                break
    return current
