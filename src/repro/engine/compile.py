"""Premise compilation: conjunctive patterns as ordered array join plans.

The object-backend homomorphism search works on terms: on every call
it re-checks which terms are mappable as it matches them, and it
memoizes its join order keyed by the atoms themselves.  A
:class:`CompiledPremise` analyses a premise exactly once per distinct
``(atoms, constant_vars, inequalities)`` pattern and lowers it to
integer form:

* every mappable term (null or logic variable) becomes a dense *slot*
  index, so a partial assignment is a flat ``list[int]`` (``-1`` =
  unbound) instead of a term-keyed dict;
* every atom argument becomes an op — ``(position, is_const,
  constant_id_or_slot)`` — over the engine-wide intern table of
  :mod:`repro.engine.kernel`;
* ``Constant(x)`` conjuncts and inequalities become per-slot check
  lists evaluated at bind time;
* the greedy join order (most-bound first, then smallest relation,
  then lexicographic — byte-for-byte the order
  :func:`repro.chase.homomorphism._greedy_order` produces) is computed
  per ``(relation extents, bound-slot mask)`` signature and cached, so
  repeated searches against same-shaped targets skip the ordering
  entirely.

Compilation touches no instance data: plans bind to a concrete
:class:`~repro.engine.kernel.KernelInstance` only at search time,
which is what lets one compiled premise serve every target in a sweep.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.datamodel.atoms import Atom
from repro.datamodel.terms import Constant, Term, Variable


class CompiledAtom:
    """One premise atom lowered to interned ops.

    ``ops`` holds one ``(position, is_const, value)`` triple per
    argument: a rigid constant's intern id, or the slot of a mappable
    term.  ``mappable_occurrences`` lists the slot of every mappable
    argument *with repetitions, in argument order* — the exact
    sequence the object backend's ordering heuristic walks.
    """

    __slots__ = ("relation", "arity", "ops", "mappable_occurrences")

    def __init__(
        self,
        relation: str,
        arity: int,
        ops: Tuple[Tuple[int, bool, int], ...],
        mappable_occurrences: Tuple[int, ...],
    ) -> None:
        self.relation = relation
        self.arity = arity
        self.ops = ops
        self.mappable_occurrences = mappable_occurrences


class CompiledPremise:
    """A conjunctive pattern compiled to slots, ops, and plan cache."""

    __slots__ = (
        "atoms",
        "catoms",
        "keys",
        "slots",
        "slot_terms",
        "nslots",
        "occurrences",
        "const_slots",
        "const_slot_set",
        "ineq_pairs",
        "ineq_of",
        "_plans",
    )

    def __init__(
        self,
        atoms: Tuple[Atom, ...],
        constant_vars: FrozenSet[Variable],
        inequalities: FrozenSet[Tuple[Variable, Variable]],
        intern,
    ) -> None:
        # Atoms sorted exactly as the object backend's `remaining`.
        self.atoms: Tuple[Atom, ...] = tuple(sorted(atoms, key=Atom.sort_key))
        self.keys = [atom.sort_key() for atom in self.atoms]

        # Slot allocation: first occurrence in sorted-atom order, with
        # extra slots for constraint variables that never occur in an
        # atom (reachable only through `fixed`).
        slots: Dict[Term, int] = {}
        for atom in self.atoms:
            for arg in atom.args:
                if not isinstance(arg, Constant) and arg not in slots:
                    slots[arg] = len(slots)
        for variable in sorted(constant_vars):
            if variable not in slots:
                slots[variable] = len(slots)
        for left, right in sorted(inequalities):
            for variable in (left, right):
                if variable not in slots:
                    slots[variable] = len(slots)
        self.slots = slots
        self.slot_terms: List[Term] = [None] * len(slots)  # type: ignore[list-item]
        for term, slot in slots.items():
            self.slot_terms[slot] = term
        self.nslots = len(slots)

        catoms: List[CompiledAtom] = []
        occurrences: Dict[int, List[int]] = {}
        for index, atom in enumerate(self.atoms):
            ops: List[Tuple[int, bool, int]] = []
            mappable: List[int] = []
            for position, arg in enumerate(atom.args):
                if isinstance(arg, Constant):
                    ops.append((position, True, intern(arg)))
                else:
                    slot = slots[arg]
                    ops.append((position, False, slot))
                    mappable.append(slot)
                    occurrences.setdefault(slot, []).append(index)
            catoms.append(
                CompiledAtom(
                    atom.relation, atom.arity, tuple(ops), tuple(mappable)
                )
            )
        self.catoms = catoms
        self.occurrences = occurrences

        self.const_slots = tuple(slots[v] for v in sorted(constant_vars))
        self.const_slot_set = frozenset(self.const_slots)
        self.ineq_pairs = tuple(
            (slots[left], slots[right]) for left, right in sorted(inequalities)
        )
        ineq_of: Dict[int, List[int]] = {}
        for left_slot, right_slot in self.ineq_pairs:
            ineq_of.setdefault(left_slot, []).append(right_slot)
            ineq_of.setdefault(right_slot, []).append(left_slot)
        self.ineq_of: Dict[int, Tuple[int, ...]] = {
            slot: tuple(others) for slot, others in ineq_of.items()
        }
        self._plans: Dict[Tuple[Tuple[int, ...], int], Tuple[int, ...]] = {}

    def plan(
        self, extents: Tuple[int, ...], bound_mask: int
    ) -> Tuple[int, ...]:
        """The join order (indices into ``catoms``) for targets with
        the given relation *extents* and pre-bound slot mask.

        Replicates :func:`repro.chase.homomorphism._greedy_order`
        exactly — greedy minimum of ``(unbound count, extent,
        sort key)`` with incremental unbound maintenance — so the
        kernel search visits atoms in the object backend's order.
        """
        cache_key = (extents, bound_mask)
        cached = self._plans.get(cache_key)
        if cached is not None:
            return cached
        count = len(self.catoms)
        bound = bound_mask
        unbound_counts = []
        for catom in self.catoms:
            unbound = 0
            for slot in catom.mappable_occurrences:
                if not (bound >> slot) & 1:
                    unbound += 1
            unbound_counts.append(unbound)
        alive = [True] * count
        keys = self.keys
        ordered: List[int] = []
        for _ in range(count):
            best = min(
                (i for i in range(count) if alive[i]),
                key=lambda i: (unbound_counts[i], extents[i], keys[i]),
            )
            alive[best] = False
            ordered.append(best)
            for slot in self.catoms[best].mappable_occurrences:
                if not (bound >> slot) & 1:
                    bound |= 1 << slot
                    for position in self.occurrences[slot]:
                        if alive[position]:
                            unbound_counts[position] -= 1
        plan = tuple(ordered)
        self._plans[cache_key] = plan
        return plan

    def extents_for(self, rows: Dict[str, Sequence]) -> Tuple[int, ...]:
        """Per-atom relation extents in a concrete target."""
        return tuple(
            len(rows.get(catom.relation, ())) for catom in self.catoms
        )


def compile_premise(
    atoms: Sequence[Atom],
    constant_vars: FrozenSet[Variable],
    inequalities: FrozenSet[Tuple[Variable, Variable]],
    intern,
) -> CompiledPremise:
    """Compile one conjunctive pattern (no memoization here — the
    kernel layer owns the cache so stats and resets stay unified)."""
    return CompiledPremise(
        tuple(atoms), frozenset(constant_vars), frozenset(inequalities), intern
    )
