"""Premise compilation: conjunctive patterns over interned ids.

The SQL backend (:mod:`repro.engine.sqlbackend`) lowers each premise
it chases to one SQL join.  A :class:`CompiledPremise` analyses a
premise exactly once per distinct ``(atoms, constant_vars,
inequalities)`` pattern and lowers it to integer form:

* every mappable term (null or logic variable) becomes a dense *slot*
  index, which names the join column that binds it;
* every atom argument becomes an op — ``(position, is_const,
  constant_id_or_slot)`` — over the engine-wide intern table of
  :mod:`repro.engine.sqlbackend`;
* ``Constant(x)`` conjuncts and inequalities become slot lists the
  join turns into predicates.

Compilation touches no instance data, which is what lets one compiled
premise serve every chase that fires the dependency;
:func:`repro.engine.sqlbackend.compiled_premise` memoizes it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.datamodel.atoms import Atom
from repro.datamodel.terms import Constant, Term, Variable


class CompiledAtom:
    """One premise atom lowered to interned ops: one ``(position,
    is_const, value)`` triple per argument, holding a rigid constant's
    intern id or the slot of a mappable term."""

    __slots__ = ("relation", "arity", "ops")

    def __init__(
        self, relation: str, arity: int, ops: Tuple[Tuple[int, bool, int], ...]
    ) -> None:
        self.relation = relation
        self.arity = arity
        self.ops = ops


class CompiledPremise:
    """A conjunctive pattern compiled to slots and ops."""

    __slots__ = ("catoms", "slots", "const_slots", "ineq_pairs")

    def __init__(
        self,
        atoms: Tuple[Atom, ...],
        constant_vars: FrozenSet[Variable],
        inequalities: FrozenSet[Tuple[Variable, Variable]],
        intern,
    ) -> None:
        atoms = tuple(sorted(atoms, key=Atom.sort_key))
        # Slot allocation: first occurrence in sorted-atom order, with
        # extra slots for constraint variables that never occur in an
        # atom.
        slots: Dict[Term, int] = {}
        for atom in atoms:
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
        catoms: List[CompiledAtom] = []
        for atom in atoms:
            ops = tuple(
                (position, True, intern(arg))
                if isinstance(arg, Constant)
                else (position, False, slots[arg])
                for position, arg in enumerate(atom.args)
            )
            catoms.append(CompiledAtom(atom.relation, atom.arity, ops))
        self.catoms = catoms
        self.const_slots = tuple(slots[v] for v in sorted(constant_vars))
        self.ineq_pairs = tuple(
            (slots[left], slots[right]) for left, right in sorted(inequalities)
        )

