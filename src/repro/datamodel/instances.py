"""Immutable relational instances.

An :class:`Instance` is a finite set of atoms, indexed by relation
symbol.  Ground instances contain constants only; target instances
may contain labeled nulls; *canonical* instances (the paper's
``I_alpha``, whose "facts" are instantiated atoms) may additionally
contain logic variables.  One class covers all three, with predicates
(:meth:`is_ground`, :meth:`has_variables`) to discriminate.

The per-relation index (each relation's facts, sorted by
:meth:`~repro.datamodel.atoms.Atom.sort_key`) is built on the first
read — :meth:`Instance.facts_for`, :meth:`Instance.relations`,
:meth:`Instance.to_rows`, :meth:`Instance.pretty` — not at
construction, so an instance that is only counted, unioned, lowered
into SQL or used as a memo key never sorts its facts.  The index is
built into a local dict and published on the instance only once
complete: threads that read a fresh instance at the same time can at
worst each build it once, and never see a partial index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    ClassVar,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.datamodel.atoms import Atom, RawTerm, atom as make_atom
from repro.datamodel.schemas import Schema
from repro.datamodel.terms import Constant, Null, Term, Variable


@dataclass(frozen=True)
class Instance:
    """An immutable set of atoms with a per-relation index, built on
    first read."""

    facts: FrozenSet[Atom]

    #: Each relation's facts in sorted order; None until the first
    #: read publishes the instance's own (:meth:`_index`).
    _by_relation: ClassVar[Optional[Mapping[str, Tuple[Atom, ...]]]] = None
    #: :meth:`is_ground`'s answer, cached the same way (never through
    #: ``self.__dict__``; see :mod:`repro.datamodel.terms`).
    _ground: ClassVar[Optional[bool]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.facts))

    def __hash__(self) -> int:
        return self._hash

    def _index(self) -> Mapping[str, Tuple[Atom, ...]]:
        index = self._by_relation
        if index is None:
            grouped: Dict[str, List[Atom]] = {}
            for fact in self.facts:
                grouped.setdefault(fact.relation, []).append(fact)
            index = {
                name: tuple(sorted(atoms, key=Atom.sort_key))
                for name, atoms in grouped.items()
            }
            # published whole: a concurrent reader sees no index or a
            # complete one, never a partial dict
            object.__setattr__(self, "_by_relation", index)
        return index

    # -- construction -------------------------------------------------

    @classmethod
    def of(cls, atoms: Iterable[Atom]) -> "Instance":
        return cls(frozenset(atoms))

    @classmethod
    def empty(cls) -> "Instance":
        return _EMPTY

    @classmethod
    def build(cls, rows: Mapping[str, Iterable[Sequence[RawTerm]]]) -> "Instance":
        """Build from ``{"P": [("a", "b"), ...]}`` with raw-value coercion.

        Strings and integers become constants; pass explicit
        :class:`Null`/:class:`Variable` objects for other terms.
        """
        atoms = [
            make_atom(relation, *row)
            for relation, tuples in rows.items()
            for row in tuples
        ]
        return cls.of(atoms)

    # -- basic queries -------------------------------------------------

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.sorted_facts())

    def __len__(self) -> int:
        return len(self.facts)

    def __contains__(self, fact: Atom) -> bool:
        return fact in self.facts

    def __bool__(self) -> bool:
        return bool(self.facts)

    def sorted_facts(self) -> Tuple[Atom, ...]:
        return tuple(sorted(self.facts))

    def relations(self) -> Tuple[str, ...]:
        return tuple(sorted(self._index()))

    def facts_for(self, relation: str) -> Tuple[Atom, ...]:
        index = self._by_relation  # the hot path skips a method call
        if index is None:
            index = self._index()
        return index.get(relation, ())

    def active_domain(self) -> FrozenSet[Term]:
        return frozenset(term for fact in self.facts for term in fact.args)

    def constants(self) -> FrozenSet[Constant]:
        return self._terms_of(Constant)

    def nulls(self) -> FrozenSet[Null]:
        return self._terms_of(Null)

    def variables(self) -> FrozenSet[Variable]:
        return self._terms_of(Variable)

    def _terms_of(self, kind: type) -> FrozenSet:
        # one pass over the facts, without building the active domain
        return frozenset(
            term
            for fact in self.facts
            for term in fact.args
            if isinstance(term, kind)
        )

    def is_ground(self) -> bool:
        """True when every term is a constant (a *ground instance*)."""
        # computed once per instance: every chase and verdict lookup
        # asks, and a warm lookup does little else
        ground = self._ground
        if ground is None:
            ground = all(fact.is_ground() for fact in self.facts)
            object.__setattr__(self, "_ground", ground)
        return ground

    def has_variables(self) -> bool:
        return any(not fact.is_fact() for fact in self.facts)

    # -- set operations -------------------------------------------------

    def union(self, other: Union["Instance", Iterable[Atom]]) -> "Instance":
        extra = other.facts if isinstance(other, Instance) else frozenset(other)
        return Instance(self.facts | extra)

    def difference(self, other: "Instance") -> "Instance":
        return Instance(self.facts - other.facts)

    def issubset(self, other: "Instance") -> bool:
        return self.facts <= other.facts

    def restrict_to(self, schema: Union[Schema, Iterable[str]]) -> "Instance":
        """Keep only facts whose relation belongs to *schema*."""
        names = set(schema.names()) if isinstance(schema, Schema) else set(schema)
        return Instance(frozenset(f for f in self.facts if f.relation in names))

    def substitute(self, mapping: Mapping[Term, Term]) -> "Instance":
        """The homomorphic image under *mapping* (identity where absent)."""
        return Instance(frozenset(fact.substitute(mapping) for fact in self.facts))

    # -- validation and rendering ---------------------------------------

    def validate(self, schema: Schema) -> "Instance":
        """Raise unless every fact conforms to *schema*; returns self."""
        for fact in self.facts:
            schema.validate_atom(fact)
        return self

    def to_rows(self) -> Dict[str, List[Tuple[str, ...]]]:
        """Per-relation rows of rendered terms (for tabular display)."""
        return {
            relation: [tuple(str(arg) for arg in fact.args) for fact in facts]
            for relation, facts in sorted(self._index().items())
        }

    def pretty(self, indent: str = "") -> str:
        """A stable multi-line rendering, one relation block per line."""
        if not self.facts:
            return f"{indent}(empty)"
        lines = []
        for relation in self.relations():
            rendered = ", ".join(str(fact) for fact in self.facts_for(relation))
            lines.append(f"{indent}{rendered}")
        return "\n".join(lines)

    def __str__(self) -> str:
        rendered = ", ".join(str(fact) for fact in self.sorted_facts())
        return f"{{{rendered}}}"


_EMPTY = Instance(frozenset())


def rename_apart(
    instance: Instance, taken: Iterable[Term], prefix: str = "N"
) -> Tuple[Instance, Dict[Term, Term]]:
    """Rename nulls of *instance* so they avoid the terms in *taken*.

    Returns the renamed instance and the applied mapping.  Useful when
    combining chase results produced by independent null factories.
    """
    taken_names = {t.name for t in taken if isinstance(t, Null)}
    mapping: Dict[Term, Term] = {}
    counter = 0
    for null in sorted(instance.nulls()):
        if null.name not in taken_names:
            continue
        while True:
            candidate = f"{prefix}{counter}"
            counter += 1
            if candidate not in taken_names:
                break
        fresh = Null(candidate)
        taken_names.add(candidate)
        mapping[null] = fresh
    if not mapping:
        return instance, {}
    return instance.substitute(mapping), mapping
