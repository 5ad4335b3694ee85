"""Conjunctive queries, naive evaluation, and certain answers.

Data-exchange query answering (from the paper's reference [4], Fagin,
Kolaitis, Miller, Popa — "Data Exchange: Semantics and Query
Answering"): the certain answers of a conjunctive query q over the
solutions of I can be computed by evaluating q naively on a universal
solution and discarding tuples containing nulls.  This is the
machinery that makes "data-exchange equivalent" recovery useful: a
recovered instance yields the same certain answers as the original.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet, List, Set, Tuple

from repro.chase.homomorphism import all_homomorphisms
from repro.datamodel.atoms import Atom, atoms_variables
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Term, Variable
from repro.dependencies.parser import ParseError, _Parser
from repro.core.mapping import SchemaMapping, universal_solution


@dataclass(frozen=True)
class ConjunctiveQuery:
    """q(head_vars) :- atoms."""

    head: Tuple[Variable, ...]
    atoms: Tuple[Atom, ...]
    name: str = "q"

    def __post_init__(self) -> None:
        body_vars = set(atoms_variables(self.atoms))
        for variable in self.head:
            if variable not in body_vars:
                raise ValueError(
                    f"head variable {variable} does not occur in the body"
                )

    def __str__(self) -> str:
        head = ", ".join(v.name for v in self.head)
        body = ", ".join(str(a) for a in self.atoms)
        return f"{self.name}({head}) :- {body}"


_HEAD_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(([^)]*)\)\s*:-\s*(.*)$")


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse ``q(x, y) :- P(x, z), Q(z, y)``."""
    match = _HEAD_RE.match(text.strip())
    if match is None:
        raise ParseError(f"not a conjunctive query: {text!r}")
    name, head_text, body_text = match.groups()
    head = tuple(
        Variable(token.strip())
        for token in head_text.split(",")
        if token.strip()
    )
    parser = _Parser(body_text)
    atoms: List[Atom] = [parser._parse_atom()]
    while parser._accept("comma") or parser._accept("and"):
        atoms.append(parser._parse_atom())
    if parser._peek() is not None:
        token = parser._peek()
        raise ParseError(f"trailing input {token.text!r} in query body {body_text!r}")
    return ConjunctiveQuery(head, tuple(atoms), name=name)


def evaluate(query: ConjunctiveQuery, instance: Instance) -> FrozenSet[Tuple[Term, ...]]:
    """Naive evaluation: nulls are treated as ordinary values."""
    answers: Set[Tuple[Term, ...]] = set()
    for assignment in all_homomorphisms(query.atoms, instance):
        answers.add(tuple(assignment[v] for v in query.head))
    return frozenset(answers)


def certain_answers(
    query: ConjunctiveQuery, mapping: SchemaMapping, instance: Instance
) -> FrozenSet[Tuple[Constant, ...]]:
    """The certain answers of *query* over the solutions for *instance*.

    Evaluates naively on the universal solution chase(I) and keeps the
    all-constant tuples — correct for conjunctive queries per [4].
    """
    solution = universal_solution(mapping, instance)
    return frozenset(
        answer
        for answer in evaluate(query, solution)
        if all(isinstance(value, Constant) for value in answer)
    )
