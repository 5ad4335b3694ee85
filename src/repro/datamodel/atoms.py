"""Atoms and facts over a relational schema.

An atom is a relation symbol applied to a tuple of terms.  A *fact*
is an atom containing no logic variables (constants and nulls only);
atoms with variables appear in dependencies and in canonical
instances (the paper's ``I_alpha`` / prime instances).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Tuple, Union

from repro.datamodel.terms import Constant, Null, Term, Variable


@dataclass(frozen=True, order=False)
class Atom:
    """A relational atom ``relation(args...)``."""

    relation: str
    args: Tuple[Term, ...]

    _sort_key = None  # see repro.datamodel.terms

    def __post_init__(self) -> None:
        # atoms live inside the frozensets every cache key and
        # instance is built from; precomputing the hash makes those
        # constructions (and dict probes) O(1) per atom
        object.__setattr__(self, "_hash", hash((self.relation, self.args)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def arity(self) -> int:
        return len(self.args)

    def is_fact(self) -> bool:
        """True when the atom contains no logic variables."""
        return not any(isinstance(arg, Variable) for arg in self.args)

    def is_ground(self) -> bool:
        """True when every argument is a constant."""
        return all(isinstance(arg, Constant) for arg in self.args)

    def terms(self) -> Iterator[Term]:
        return iter(self.args)

    def variables(self) -> Iterator[Variable]:
        for arg in self.args:
            if isinstance(arg, Variable):
                yield arg

    def nulls(self) -> Iterator[Null]:
        for arg in self.args:
            if isinstance(arg, Null):
                yield arg

    def constants(self) -> Iterator[Constant]:
        for arg in self.args:
            if isinstance(arg, Constant):
                yield arg

    def substitute(self, mapping: Mapping[Term, Term]) -> "Atom":
        """Apply *mapping* to every argument (identity where absent)."""
        return Atom(self.relation, tuple(mapping.get(arg, arg) for arg in self.args))

    def sort_key(self):
        # computed once per atom: sorting facts is the hot path of
        # instance indexing and canonicalization
        key = self._sort_key
        if key is None:
            key = (self.relation, tuple(arg.sort_key() for arg in self.args))
            object.__setattr__(self, "_sort_key", key)
        return key

    def __lt__(self, other: "Atom") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        rendered = ", ".join(str(arg) for arg in self.args)
        return f"{self.relation}({rendered})"

    def __repr__(self) -> str:
        return f"Atom({self.relation!r}, {self.args!r})"


RawTerm = Union[Term, str, int]


def atom(relation: str, *raw_args: RawTerm) -> Atom:
    """Convenience constructor coercing raw values to terms.

    Strings and integers become constants; ``Term`` instances pass
    through unchanged.  Use explicit :class:`Variable`/:class:`Null`
    objects for non-constant arguments.
    """
    return Atom(relation, tuple(_coerce(arg) for arg in raw_args))


def _coerce(value: RawTerm) -> Term:
    if isinstance(value, (Constant, Null, Variable)):
        return value
    if isinstance(value, (str, int)):
        return Constant(value)
    raise TypeError(f"cannot coerce {value!r} to a term")


def atoms_variables(atoms: Iterable[Atom]) -> Tuple[Variable, ...]:
    """The distinct variables of *atoms*, in order of first occurrence."""
    seen = {}
    for current in atoms:
        for variable in current.variables():
            seen.setdefault(variable, None)
    return tuple(seen)
