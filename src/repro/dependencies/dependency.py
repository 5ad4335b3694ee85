"""Dependencies: tgds and disjunctive tgds with constants/inequalities.

One class, :class:`Dependency`, covers the whole language of the
paper's Definition 2.1:

    forall x ( phi(x)  ->  OR_i  exists y_i  psi_i(x_i, y_i) )

where the premise ``phi`` is a conjunction of atoms, ``Constant(x)``
conjuncts and inequalities, and each disjunct ``psi_i`` is a
conjunction of atoms.  Plain s-t tgds are the special case with a
single disjunct and no premise constraints.

Existential variables are implicit: a disjunct variable not occurring
in the premise is existentially quantified in that disjunct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Mapping,
    Sequence,
    Tuple,
)

from repro.datamodel.atoms import Atom, atoms_variables
from repro.datamodel.schemas import Schema
from repro.datamodel.terms import Term, Variable


class DependencyError(ValueError):
    """Raised for malformed dependencies."""


def _normalize_inequality(pair: Sequence[Variable]) -> Tuple[Variable, Variable]:
    left, right = pair
    if not isinstance(left, Variable) or not isinstance(right, Variable):
        raise DependencyError("inequalities must relate two variables")
    if left == right:
        raise DependencyError(f"inequality {left} != {right} relates a variable to itself")
    if right < left:
        left, right = right, left
    return (left, right)


@dataclass(frozen=True)
class Premise:
    """The left-hand side of a dependency.

    ``atoms`` is a conjunction of relational atoms; ``constant_vars``
    are the variables x with a ``Constant(x)`` conjunct; and
    ``inequalities`` is a set of unordered variable pairs x != x'.
    """

    atoms: Tuple[Atom, ...]
    constant_vars: FrozenSet[Variable] = frozenset()
    inequalities: FrozenSet[Tuple[Variable, Variable]] = frozenset()

    def __post_init__(self) -> None:
        normalized = frozenset(_normalize_inequality(pair) for pair in self.inequalities)
        object.__setattr__(self, "inequalities", normalized)
        object.__setattr__(self, "atoms", tuple(self.atoms))
        atom_vars = set(atoms_variables(self.atoms))
        for variable in self.constant_vars:
            if variable not in atom_vars:
                raise DependencyError(
                    f"Constant({variable}) refers to a variable absent from the premise atoms"
                )
        for left, right in normalized:
            if left not in atom_vars or right not in atom_vars:
                raise DependencyError(
                    f"inequality {left} != {right} refers to a variable absent "
                    "from the premise atoms"
                )
        # the generated hash's value, paid once: premises sit inside
        # every dependency, and dependencies inside every mapping key
        object.__setattr__(
            self, "_hash", hash((self.atoms, self.constant_vars, self.inequalities))
        )

    def __hash__(self) -> int:
        return self._hash

    def variables(self) -> Tuple[Variable, ...]:
        """Distinct premise variables, in order of first occurrence."""
        return atoms_variables(self.atoms)

    def is_plain(self) -> bool:
        """True when there are no Constant() conjuncts or inequalities."""
        return not self.constant_vars and not self.inequalities

    def inequalities_among_constants(self) -> bool:
        """Definition 2.1(2): every inequality is between Constant() vars."""
        return all(
            left in self.constant_vars and right in self.constant_vars
            for left, right in self.inequalities
        )

    def substitute(self, mapping: Mapping[Term, Term]) -> "Premise":
        """Apply a variable renaming (must stay variable-to-variable)."""

        def map_var(variable: Variable) -> Variable:
            image = mapping.get(variable, variable)
            if not isinstance(image, Variable):
                raise DependencyError(
                    f"premise substitution must map variables to variables, "
                    f"got {variable} -> {image}"
                )
            return image

        atoms = tuple(current.substitute(mapping) for current in self.atoms)
        constant_vars = frozenset(map_var(v) for v in self.constant_vars)
        inequalities = []
        for left, right in self.inequalities:
            new_left, new_right = map_var(left), map_var(right)
            if new_left == new_right:
                raise DependencyError(
                    f"substitution collapses inequality {left} != {right}"
                )
            inequalities.append((new_left, new_right))
        return Premise(atoms, constant_vars, frozenset(inequalities))


@dataclass(frozen=True)
class LanguageFeatures:
    """Which extensions of plain full tgds a dependency (set) uses.

    Mirrors the features whose necessity Section 4.1 establishes:
    ``Constant()`` in the premise, inequalities in the premise,
    disjunctions in the conclusion, existential quantifiers in the
    conclusion.
    """

    constants: bool = False
    inequalities: bool = False
    disjunctions: bool = False
    existentials: bool = False

    def __or__(self, other: "LanguageFeatures") -> "LanguageFeatures":
        return LanguageFeatures(
            self.constants or other.constants,
            self.inequalities or other.inequalities,
            self.disjunctions or other.disjunctions,
            self.existentials or other.existentials,
        )

    def describe(self) -> str:
        used = [
            name
            for name, flag in (
                ("constants", self.constants),
                ("inequalities", self.inequalities),
                ("disjunctions", self.disjunctions),
                ("existentials", self.existentials),
            )
            if flag
        ]
        return "+".join(used) if used else "plain full tgds"


@dataclass(frozen=True)
class Dependency:
    """A (disjunctive) tgd with constants and inequalities."""

    premise: Premise
    disjuncts: Tuple[Tuple[Atom, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "disjuncts", tuple(tuple(d) for d in self.disjuncts)
        )
        if not self.premise.atoms:
            raise DependencyError("a dependency needs at least one premise atom")
        if not self.disjuncts:
            raise DependencyError("a dependency needs at least one disjunct")
        for disjunct in self.disjuncts:
            if not disjunct:
                raise DependencyError("disjuncts must be non-empty conjunctions")
        # the generated hash's value, paid once (mapping keys are
        # tuples of dependencies, re-hashed on every memo probe)
        object.__setattr__(self, "_hash", hash((self.premise, self.disjuncts)))

    def __hash__(self) -> int:
        return self._hash

    # -- structure -------------------------------------------------------

    def premise_variables(self) -> Tuple[Variable, ...]:
        return self.premise.variables()

    def frontier(self) -> Tuple[Variable, ...]:
        """Premise variables that also occur in some disjunct (the x)."""
        conclusion_vars = set()
        for disjunct in self.disjuncts:
            conclusion_vars.update(atoms_variables(disjunct))
        return tuple(v for v in self.premise.variables() if v in conclusion_vars)

    def existential_variables(self, index: int) -> Tuple[Variable, ...]:
        """The y_i of disjunct *index*: its variables absent from the premise."""
        premise_vars = set(self.premise.variables())
        return tuple(
            v for v in atoms_variables(self.disjuncts[index]) if v not in premise_vars
        )

    def premise_relations(self) -> FrozenSet[str]:
        return frozenset(current.relation for current in self.premise.atoms)

    def conclusion_relations(self) -> FrozenSet[str]:
        return frozenset(
            current.relation for disjunct in self.disjuncts for current in disjunct
        )

    # -- classification ----------------------------------------------------

    def is_tgd(self) -> bool:
        """A plain tgd: one disjunct, no Constant() or inequalities."""
        return len(self.disjuncts) == 1 and self.premise.is_plain()

    def is_disjunction_free(self) -> bool:
        return len(self.disjuncts) == 1

    def is_full(self) -> bool:
        """No existential quantifiers in any disjunct."""
        return all(
            not self.existential_variables(i) for i in range(len(self.disjuncts))
        )

    def is_lav(self) -> bool:
        """LAV: the premise is a single atom (and the dependency is a tgd)."""
        return self.is_tgd() and len(self.premise.atoms) == 1

    def language_features(self) -> LanguageFeatures:
        return LanguageFeatures(
            constants=bool(self.premise.constant_vars),
            inequalities=bool(self.premise.inequalities),
            disjunctions=len(self.disjuncts) > 1,
            existentials=not self.is_full(),
        )

    # -- validation ---------------------------------------------------------

    def validate(self, source: Schema, target: Schema) -> "Dependency":
        """Check the dependency maps *source* premises to *target* conclusions.

        Raises :class:`DependencyError` for unknown relations and arity
        mismatches alike.
        """
        from repro.datamodel.schemas import SchemaError

        try:
            for current in self.premise.atoms:
                if current.relation not in source:
                    raise DependencyError(
                        f"premise atom {current} uses relation outside the "
                        "source schema"
                    )
                source.validate_atom(current)
            for disjunct in self.disjuncts:
                for current in disjunct:
                    if current.relation not in target:
                        raise DependencyError(
                            f"conclusion atom {current} uses relation outside "
                            "the target schema"
                        )
                    target.validate_atom(current)
        except SchemaError as error:
            raise DependencyError(str(error)) from error
        return self

    # -- transformation -------------------------------------------------------

    def substitute(self, mapping: Mapping[Term, Term]) -> "Dependency":
        """Apply a variable renaming to premise and conclusions."""
        premise = self.premise.substitute(mapping)
        disjuncts = tuple(
            tuple(current.substitute(mapping) for current in disjunct)
            for disjunct in self.disjuncts
        )
        return Dependency(premise, disjuncts)

    def canonical_form(self) -> "Dependency":
        """A renaming-invariant normal form (for dedup and comparison).

        Atoms are sorted, then variables renamed v0, v1, ... in order
        of first occurrence (premise first, then each disjunct).  Two
        dependencies equal up to variable renaming and conjunct order
        get equal canonical forms in the common case; the form is used
        for deduplication, where an occasional miss is harmless.
        """
        sorted_premise_atoms = tuple(sorted(self.premise.atoms))
        sorted_disjuncts = tuple(
            tuple(sorted(disjunct)) for disjunct in self.disjuncts
        )
        renaming: Dict[Term, Term] = {}

        def visit(variable: Variable) -> None:
            if variable not in renaming:
                renaming[variable] = Variable(f"v{len(renaming)}")

        for current in sorted_premise_atoms:
            for variable in current.variables():
                visit(variable)
        for disjunct in sorted_disjuncts:
            for current in disjunct:
                for variable in current.variables():
                    visit(variable)

        premise = Premise(
            tuple(sorted(a.substitute(renaming) for a in sorted_premise_atoms)),
            frozenset(renaming[v] for v in self.premise.constant_vars),
            frozenset(
                _normalize_inequality((renaming[l], renaming[r]))
                for l, r in self.premise.inequalities
            ),
        )
        disjuncts = tuple(
            sorted(
                tuple(sorted(current.substitute(renaming) for current in disjunct))
                for disjunct in sorted_disjuncts
            )
        )
        return Dependency(premise, disjuncts)

    def __str__(self) -> str:
        from repro.dependencies.rendering import render_dependency

        return render_dependency(self)


def tgd(
    premise_atoms: Iterable[Atom],
    conclusion_atoms: Iterable[Atom],
    *,
    constant_vars: Iterable[Variable] = (),
    inequalities: Iterable[Tuple[Variable, Variable]] = (),
) -> Dependency:
    """Build a disjunction-free dependency (optionally with constraints)."""
    premise = Premise(
        tuple(premise_atoms), frozenset(constant_vars), frozenset(inequalities)
    )
    return Dependency(premise, (tuple(conclusion_atoms),))


def language_audit(dependencies: Iterable[Dependency]) -> LanguageFeatures:
    """The union of language features used across *dependencies*."""
    combined = LanguageFeatures()
    for dependency in dependencies:
        combined = combined | dependency.language_features()
    return combined
