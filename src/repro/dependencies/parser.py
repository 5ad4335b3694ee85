"""A small text syntax for dependencies.

Examples::

    P(x,y) -> Q(x)
    Q(x,y) & R(y,z) -> P(x,y,z)
    S(x) -> P(x) | Q(x)
    Q(x,z) & Q(z,y) & Constant(x) & Constant(y) -> P(x,y)
    S(x1,x2,y) & Constant(x1) & x1 != x2 -> exists x3 . P(x1,x2,x3)

Rules:

* identifiers in argument positions are logic variables; integer
  literals and single-quoted strings are constants;
* ``&`` (or ``∧``) separates premise conjuncts; ``|`` (or ``∨``)
  separates conclusion disjuncts; ``,`` separates conjuncts inside a
  disjunct as well as atom arguments (parenthesis depth decides);
* ``Constant(x)`` and ``x != y`` (or ``x ≠ y``) are premise
  constraints; they may not appear in conclusions;
* an optional ``exists v1, v2 .`` prefix on a disjunct documents its
  existential variables; it is validated against the inferred ones.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.datamodel.atoms import Atom
from repro.datamodel.terms import Constant, Term, Variable
from repro.dependencies.dependency import Dependency, DependencyError, Premise
from repro.errors import ParseError


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->|→)
  | (?P<neq>!=|≠)
  | (?P<and>&|∧)
  | (?P<or>\||∨)
  | (?P<exists>exists\b|∃)
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<int>-?\d+)
  | (?P<str>'[^']*')
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<dot>\.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(f"unexpected character {text[position]!r} at {position}")
        kind = match.lastgroup or ""
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), position))
        position = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    # -- token helpers ----------------------------------------------------

    def _peek(self) -> Optional[_Token]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ParseError(f"unexpected end of input in {self.text!r}")
        self.index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._next()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind} but found {token.text!r} at {token.position} "
                f"in {self.text!r}"
            )
        return token

    def _accept(self, kind: str) -> Optional[_Token]:
        token = self._peek()
        if token is not None and token.kind == kind:
            self.index += 1
            return token
        return None

    # -- grammar ------------------------------------------------------------

    def parse_dependency(self) -> Dependency:
        premise = self._parse_premise()
        self._expect("arrow")
        disjuncts = [self._parse_disjunct(premise)]
        while self._accept("or"):
            disjuncts.append(self._parse_disjunct(premise))
        if self._peek() is not None:
            token = self._peek()
            raise ParseError(
                f"trailing input {token.text!r} at {token.position} in {self.text!r}"
            )
        return Dependency(premise, tuple(disjuncts))

    def _parse_premise(self) -> Premise:
        atoms: List[Atom] = []
        constant_vars: Set[Variable] = set()
        inequalities: Set[Tuple[Variable, Variable]] = set()
        while True:
            self._parse_premise_conjunct(atoms, constant_vars, inequalities)
            if not (self._accept("and") or self._accept("comma")):
                break
        try:
            return Premise(tuple(atoms), frozenset(constant_vars), frozenset(inequalities))
        except DependencyError as error:
            raise ParseError(str(error)) from error

    def _parse_premise_conjunct(
        self,
        atoms: List[Atom],
        constant_vars: Set[Variable],
        inequalities: Set[Tuple[Variable, Variable]],
    ) -> None:
        token = self._peek()
        if token is None:
            raise ParseError(f"unexpected end of premise in {self.text!r}")
        if token.kind == "name":
            after = (
                self.tokens[self.index + 1] if self.index + 1 < len(self.tokens) else None
            )
            if after is not None and after.kind == "neq":
                left = self._parse_variable()
                self._expect("neq")
                right = self._parse_variable()
                if left == right:
                    raise ParseError(f"inequality {left} != {right} is trivially false")
                inequalities.add((left, right))
                return
            if token.text == "Constant":
                self._next()
                self._expect("lparen")
                variable = self._parse_variable()
                self._expect("rparen")
                constant_vars.add(variable)
                return
            atoms.append(self._parse_atom())
            return
        raise ParseError(
            f"expected an atom, Constant(x), or inequality at {token.position} "
            f"in {self.text!r}"
        )

    def _parse_disjunct(self, premise: Premise) -> Tuple[Atom, ...]:
        declared: Optional[Tuple[Variable, ...]] = None
        if self._accept("exists"):
            # Variable list: the first name is always a variable, then
            # comma-separated further ones; an optional "." closes the
            # list ("exists z . Q(z)" and "∃z Q(z)" both parse).
            names = [self._parse_variable()]
            while self._accept("comma"):
                names.append(self._parse_variable())
            self._accept("dot")
            declared = tuple(names)
        if self._accept("lparen"):
            # Parenthesized conjunction: "(A ∧ B)".
            atoms = [self._parse_atom()]
            while self._accept("and") or self._accept("comma"):
                atoms.append(self._parse_atom())
            self._expect("rparen")
        else:
            atoms = [self._parse_atom()]
            while self._accept("and") or self._accept("comma"):
                atoms.append(self._parse_atom())
        if declared is not None:
            premise_vars = set(v for a in premise.atoms for v in a.variables())
            inferred = {
                v
                for current in atoms
                for v in current.variables()
                if v not in premise_vars
            }
            if set(declared) != inferred:
                raise ParseError(
                    f"declared existentials {sorted(v.name for v in declared)} do not "
                    f"match inferred {sorted(v.name for v in inferred)} in {self.text!r}"
                )
        return tuple(atoms)

    def _parse_atom(self) -> Atom:
        name = self._expect("name").text
        self._expect("lparen")
        args: List[Term] = []
        if self._peek() is not None and self._peek().kind != "rparen":
            args.append(self._parse_term())
            while self._accept("comma"):
                args.append(self._parse_term())
        self._expect("rparen")
        return Atom(name, tuple(args))

    def _parse_term(self) -> Term:
        token = self._next()
        if token.kind == "name":
            return Variable(token.text)
        if token.kind == "int":
            return Constant(int(token.text))
        if token.kind == "str":
            return Constant(token.text[1:-1])
        raise ParseError(
            f"expected a term but found {token.text!r} at {token.position} "
            f"in {self.text!r}"
        )

    def _parse_variable(self) -> Variable:
        token = self._expect("name")
        return Variable(token.text)


def parse_dependency(text: str) -> Dependency:
    """Parse a single dependency from *text*."""
    return _Parser(text).parse_dependency()


def parse_dependencies(text: str) -> Tuple[Dependency, ...]:
    """Parse dependencies separated by newlines or semicolons.

    Blank lines and ``#`` comments are ignored.
    """
    pieces: List[str] = []
    for line in text.replace(";", "\n").splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            pieces.append(stripped)
    return tuple(parse_dependency(piece) for piece in pieces)
