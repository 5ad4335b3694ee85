"""Terms: constants, labeled nulls, and logic variables.

The paper fixes an infinite set ``Const`` of constants and an infinite
set ``Var`` of nulls disjoint from ``Const``.  Ground (source)
instances use constants only; target instances produced by the chase
may also contain labeled nulls.  Dependencies and canonical instances
(the paper's I_alpha) additionally use logic variables.

All three kinds are immutable, hashable, and totally ordered (first by
kind, then by name), which keeps every algorithm in the library
deterministic.

Terms and atoms cache their sort key on first use.  The cache is read
as an attribute over a class-level ``None`` default, never through
``self.__dict__``: on CPython 3.11, building an object's ``__dict__``
can run the garbage collector part-way, and a second thread touching
the same object meanwhile corrupts it (a segfault when threads sort
the same fresh facts at once).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple, Union


@dataclass(frozen=True, order=False)
class Constant:
    """A constant value from ``Const``.

    Values are strings or integers; two constants are equal exactly
    when their values are equal.
    """

    value: Union[str, int]

    _KIND_RANK = 0
    _sort_key = None

    def __post_init__(self) -> None:
        # terms are hashed millions of times per sweep (every fact
        # set, cache key, and substitution); pay for it once
        object.__setattr__(self, "_hash", hash((self._KIND_RANK, self.value)))

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> Tuple[int, str]:
        key = self._sort_key
        if key is None:
            key = (self._KIND_RANK, _value_key(self.value))
            object.__setattr__(self, "_sort_key", key)
        return key

    def __lt__(self, other: "Term") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


@dataclass(frozen=True, order=False)
class Null:
    """A labeled null (an element of the paper's ``Var``).

    Nulls are produced by the chase for existentially quantified
    variables.  Their identity is their label.
    """

    name: str

    _KIND_RANK = 1
    _sort_key = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self._KIND_RANK, self.name)))

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> Tuple[int, str]:
        key = self._sort_key
        if key is None:
            key = (self._KIND_RANK, _value_key(self.name))
            object.__setattr__(self, "_sort_key", key)
        return key

    def __lt__(self, other: "Term") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return f"⊥{self.name}"

    def __repr__(self) -> str:
        return f"Null({self.name!r})"


@dataclass(frozen=True, order=False)
class Variable:
    """A logic variable, used in dependencies and canonical instances."""

    name: str

    _KIND_RANK = 2
    _sort_key = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self._KIND_RANK, self.name)))

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> Tuple[int, str]:
        key = self._sort_key
        if key is None:
            key = (self._KIND_RANK, _value_key(self.name))
            object.__setattr__(self, "_sort_key", key)
        return key

    def __lt__(self, other: "Term") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


Term = Union[Constant, Null, Variable]


def _value_key(value: Union[str, int]) -> str:
    """A string key giving a stable total order over mixed values.

    Integers sort before strings and numerically among themselves.
    """
    if isinstance(value, int):
        return f"0:{value:020d}"
    return f"1:{value}"


def is_constant(term: Term) -> bool:
    """Return True when *term* is a constant (satisfies Constant(x))."""
    return isinstance(term, Constant)


def constants(terms: Iterable[Term]) -> Iterator[Constant]:
    """Yield the constants among *terms*, in input order."""
    for term in terms:
        if isinstance(term, Constant):
            yield term


def nulls(terms: Iterable[Term]) -> Iterator[Null]:
    """Yield the labeled nulls among *terms*, in input order."""
    for term in terms:
        if isinstance(term, Null):
            yield term


def variables(terms: Iterable[Term]) -> Iterator[Variable]:
    """Yield the logic variables among *terms*, in input order."""
    for term in terms:
        if isinstance(term, Variable):
            yield term
