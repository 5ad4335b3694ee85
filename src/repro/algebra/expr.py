"""Expression trees of mapping operators.

An expression denotes a schema mapping built from named atoms with
``compose`` (sequential composition, [FKPT05]-style), ``union``
(union of constraint sets over shared schemas), ``restrict``
(projection of the target schema onto a subset of its relations) and
``rename`` (isomorphic renaming of target relations).  Expressions
are *symbolic*: nothing is chased or composed at construction time.
The evaluator (:mod:`repro.algebra.evaluate`) decides how to run one,
and the rewrite library (:mod:`repro.algebra.rewrite`) normalizes it
first.

Expression labels round-trip through :func:`parse_expression`, which
is also the grammar the CLI and service accept::

    expr    := NAME
             | "compose" "(" expr "," expr {"," expr} ")"
             | "union" "(" expr "," expr ")"
             | "restrict" "(" expr "," NAME {"," NAME} ")"
             | "rename" "(" expr "," NAME "=" NAME {"," NAME "=" NAME} ")"
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.datamodel.atoms import Atom
from repro.datamodel.schemas import Schema
from repro.dependencies.dependency import Dependency
from repro.core.mapping import MappingError, SchemaMapping
from repro.engine.cache import mapping_key
from repro.errors import ParseError

_OPERATORS = ("compose", "union", "restrict", "rename")


@dataclass(frozen=True)
class MappingExpr:
    """Base class for algebra expression nodes.

    Every node derives ``source`` and ``target`` schemas at
    construction time (schema errors surface before any evaluation)
    and exposes a re-parsable :meth:`label`, a content-addressed
    :meth:`key` for caching, and its :meth:`children`.
    """

    source: Schema = field(init=False, compare=False)
    target: Schema = field(init=False, compare=False)

    def label(self) -> str:
        raise NotImplementedError

    def key(self) -> Tuple:
        raise NotImplementedError

    def children(self) -> Tuple["MappingExpr", ...]:
        return ()

    def __str__(self) -> str:
        return self.label()


@dataclass(frozen=True)
class MappingAtom(MappingExpr):
    """A leaf: one concrete schema mapping."""

    mapping: SchemaMapping = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.mapping is None:
            raise MappingError("a mapping atom needs a mapping")
        object.__setattr__(self, "source", self.mapping.source)
        object.__setattr__(self, "target", self.mapping.target)

    def label(self) -> str:
        return self.mapping.name or "<inline>"

    def key(self) -> Tuple:
        return ("atom", mapping_key(self.mapping))

    def children(self) -> Tuple[MappingExpr, ...]:
        return ()


@dataclass(frozen=True)
class Compose(MappingExpr):
    """Sequential composition: first, then second."""

    first: MappingExpr = None  # type: ignore[assignment]
    second: MappingExpr = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.first is None or self.second is None:
            raise MappingError("compose needs two subexpressions")
        if self.first.target.relations != self.second.source.relations:
            raise MappingError(
                f"compose middle schemas differ: {self.first.target} "
                f"vs {self.second.source}"
            )
        object.__setattr__(self, "source", self.first.source)
        object.__setattr__(self, "target", self.second.target)

    def label(self) -> str:
        return f"compose({self.first.label()}, {self.second.label()})"

    def key(self) -> Tuple:
        return ("compose", self.first.key(), self.second.key())

    def children(self) -> Tuple[MappingExpr, ...]:
        return (self.first, self.second)


@dataclass(frozen=True)
class UnionOf(MappingExpr):
    """Union of constraint sets over identical source/target schemas.

    Solutions of the union are exactly the common solutions of both
    operands (an instance pair satisfies Sigma_1 ∪ Sigma_2 iff it
    satisfies each), so membership checks distribute over it.
    """

    left: MappingExpr = None  # type: ignore[assignment]
    right: MappingExpr = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.left is None or self.right is None:
            raise MappingError("union needs two subexpressions")
        if self.left.source != self.right.source:
            raise MappingError(
                f"union source schemas differ: {self.left.source} "
                f"vs {self.right.source}"
            )
        if self.left.target != self.right.target:
            raise MappingError(
                f"union target schemas differ: {self.left.target} "
                f"vs {self.right.target}"
            )
        object.__setattr__(self, "source", self.left.source)
        object.__setattr__(self, "target", self.left.target)

    def label(self) -> str:
        return f"union({self.left.label()}, {self.right.label()})"

    def key(self) -> Tuple:
        return ("union", self.left.key(), self.right.key())

    def children(self) -> Tuple[MappingExpr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Restrict(MappingExpr):
    """Restrict the target schema to a subset of its relations."""

    child: MappingExpr = None  # type: ignore[assignment]
    relations: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.child is None:
            raise MappingError("restrict needs a subexpression")
        keep = tuple(sorted(set(self.relations)))
        object.__setattr__(self, "relations", keep)
        if not keep:
            raise MappingError("restrict needs at least one relation to keep")
        names = set(self.child.target.names())
        missing = [name for name in keep if name not in names]
        if missing:
            raise MappingError(
                f"restrict keeps {missing} not in target {self.child.target}"
            )
        target = Schema.of(
            [
                (name, arity)
                for name, arity in self.child.target.relations
                if name in keep
            ]
        )
        object.__setattr__(self, "source", self.child.source)
        object.__setattr__(self, "target", target)

    def label(self) -> str:
        keeps = ", ".join(self.relations)
        return f"restrict({self.child.label()}, {keeps})"

    def key(self) -> Tuple:
        return ("restrict", self.child.key(), self.relations)

    def children(self) -> Tuple[MappingExpr, ...]:
        return (self.child,)


@dataclass(frozen=True)
class Rename(MappingExpr):
    """Isomorphic renaming of target relations (old -> new)."""

    child: MappingExpr = None  # type: ignore[assignment]
    renaming: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.child is None:
            raise MappingError("rename needs a subexpression")
        pairs = tuple(sorted(set(self.renaming)))
        object.__setattr__(self, "renaming", pairs)
        if not pairs:
            raise MappingError("rename needs at least one old=new pair")
        olds = [old for old, _ in pairs]
        if len(set(olds)) != len(olds):
            raise MappingError("rename maps a relation twice")
        names = set(self.child.target.names())
        missing = [old for old in olds if old not in names]
        if missing:
            raise MappingError(
                f"rename of {missing} not in target {self.child.target}"
            )
        mapped = dict(pairs)
        renamed = [mapped.get(name, name) for name in self.child.target.names()]
        if len(set(renamed)) != len(renamed):
            raise MappingError("rename collides target relation names")
        target = Schema.of(
            [
                (mapped.get(name, name), arity)
                for name, arity in self.child.target.relations
            ]
        )
        object.__setattr__(self, "source", self.child.source)
        object.__setattr__(self, "target", target)

    def label(self) -> str:
        pairs = ", ".join(f"{old}={new}" for old, new in self.renaming)
        return f"rename({self.child.label()}, {pairs})"

    def key(self) -> Tuple:
        return ("rename", self.child.key(), self.renaming)

    def children(self) -> Tuple[MappingExpr, ...]:
        return (self.child,)


# -- mapping surgery ----------------------------------------------------


def rename_mapping(
    mapping: SchemaMapping, renaming: Mapping[str, str]
) -> SchemaMapping:
    """Rename target relations of a concrete mapping.

    Renaming is an isomorphism of the target schema, so solutions of
    the renamed mapping are exactly the renamed solutions of the
    original — every verdict transfers verbatim.
    """
    mapped = dict(renaming)
    target = Schema.of(
        [
            (mapped.get(name, name), arity)
            for name, arity in mapping.target.relations
        ]
    )

    def rename_disjunct(disjunct: Tuple[Atom, ...]) -> Tuple[Atom, ...]:
        return tuple(
            Atom(mapped.get(current.relation, current.relation), current.args)
            for current in disjunct
        )

    dependencies = tuple(
        Dependency(
            dep.premise,
            tuple(rename_disjunct(disjunct) for disjunct in dep.disjuncts),
        )
        for dep in mapping.dependencies
    )
    pairs = ",".join(f"{old}->{new}" for old, new in sorted(mapped.items()))
    return SchemaMapping(
        source=mapping.source,
        target=target,
        dependencies=dependencies,
        name=f"ρ[{pairs}]({mapping.name})" if mapping.name else "",
    )


def restrict_mapping(
    mapping: SchemaMapping, keep: Iterable[str]
) -> SchemaMapping:
    """Restrict a concrete mapping's target schema to *keep*.

    Semantics are solution projection: (I, J) satisfies the
    restriction iff J extends to a solution of *mapping* over the
    full target.  For a tgd, pruning the conclusion atoms in dropped
    relations is exact — any assignment satisfying the kept atoms
    extends by adding the dropped facts it needs, since dropped
    relations are unconstrained.  A disjunct that prunes to nothing
    makes its dependency vacuous, so the dependency is dropped whole.
    The one inexact case is a dropped relation that is also a source
    relation (its facts could feed other premises through a chase
    cascade); :class:`MappingError` signals the rule does not apply
    there.
    """
    kept = frozenset(keep)
    source_names = frozenset(mapping.source.names())
    dependencies = []
    for dep in mapping.dependencies:
        conclusions = frozenset(dep.conclusion_relations())
        dropped = conclusions - kept
        if not dropped:
            dependencies.append(dep)
            continue
        if dropped & source_names:
            raise MappingError(
                f"restrict drops source-named relations "
                f"{sorted(dropped & source_names)}; a chase cascade could "
                f"feed the kept relations, so restrict is not exact here"
            )
        pruned_disjuncts = []
        vacuous = False
        for disjunct in dep.disjuncts:
            pruned = tuple(
                current for current in disjunct if current.relation in kept
            )
            if not pruned:
                vacuous = True
                break
            pruned_disjuncts.append(pruned)
        if vacuous:
            continue
        dependencies.append(Dependency(dep.premise, tuple(pruned_disjuncts)))
    target = Schema.of(
        [
            (name, arity)
            for name, arity in mapping.target.relations
            if name in kept
        ]
    )
    keeps = ",".join(sorted(kept))
    return SchemaMapping(
        source=mapping.source,
        target=target,
        dependencies=tuple(dependencies),
        name=f"π[{keeps}]({mapping.name})" if mapping.name else "",
    )


# -- classification -----------------------------------------------------


def expr_is_tgd(expr: MappingExpr) -> bool:
    """Conservatively: every leaf mapping is specified by tgds."""
    if isinstance(expr, MappingAtom):
        return expr.mapping.is_tgd_mapping()
    return all(expr_is_tgd(child) for child in expr.children())


def expr_is_full(expr: MappingExpr) -> bool:
    """Conservatively: every leaf mapping is full."""
    if isinstance(expr, MappingAtom):
        return expr.mapping.is_full()
    return all(expr_is_full(child) for child in expr.children())


def materializable(expr: MappingExpr) -> bool:
    """Whether MinGen composition can materialize the expression.

    Composition requires a full-tgd left operand and a tgd right
    operand at every ``compose`` node ([FKPT05]'s exactness regime).
    Structural only — restrict surgery can still refuse at
    materialization time.
    """
    if isinstance(expr, MappingAtom):
        return True
    if isinstance(expr, Compose):
        return (
            materializable(expr.first)
            and materializable(expr.second)
            and expr_is_tgd(expr.first)
            and expr_is_full(expr.first)
            and expr_is_tgd(expr.second)
        )
    return all(materializable(child) for child in expr.children())


def producible_relations(expr: MappingExpr) -> FrozenSet[str]:
    """Over-approximate the target relations an expression can populate.

    Used by dead-branch pruning: a dependency whose premise mentions
    a relation outside this set can never fire on any chase result of
    the upstream expression.  Over-approximation keeps pruning sound.
    """
    if isinstance(expr, MappingAtom):
        mapping = expr.mapping
        shared = frozenset(mapping.source.names()) & frozenset(
            mapping.target.names()
        )
        relations = set(shared)
        for dep in mapping.dependencies:
            relations |= set(dep.conclusion_relations())
        return frozenset(relations)
    if isinstance(expr, Compose):
        available = producible_relations(expr.first)
        second = expr.second
        if isinstance(second, MappingAtom):
            mapping = second.mapping
            relations = set(available & frozenset(mapping.target.names()))
            for dep in mapping.dependencies:
                if frozenset(dep.premise_relations()) <= available:
                    relations |= set(dep.conclusion_relations())
            return frozenset(relations)
        return producible_relations(second)
    if isinstance(expr, UnionOf):
        return producible_relations(expr.left) | producible_relations(
            expr.right
        )
    if isinstance(expr, Restrict):
        return producible_relations(expr.child) & frozenset(expr.relations)
    if isinstance(expr, Rename):
        mapped = dict(expr.renaming)
        return frozenset(
            mapped.get(name, name)
            for name in producible_relations(expr.child)
        )
    raise MappingError(f"unknown expression node {type(expr).__name__}")


# -- parsing ------------------------------------------------------------

_PUNCT = "(),="


def _tokenize(text: str):
    tokens = []
    index = 0
    while index < len(text):
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if char in _PUNCT:
            tokens.append(char)
            index += 1
            continue
        start = index
        while (
            index < len(text)
            and not text[index].isspace()
            and text[index] not in _PUNCT
        ):
            index += 1
        tokens.append(text[start:index])
    return tokens


def default_resolver() -> Dict[str, SchemaMapping]:
    """Catalog mappings plus the paper's named (quasi-)inverses: a
    fresh dict (callers may extend it) over the process's shared
    mapping objects (:func:`repro.catalog.named_mappings`)."""
    from repro.catalog import named_mappings

    return dict(named_mappings())


class _Parser:
    def __init__(self, tokens, resolve: Callable[[str], SchemaMapping]):
        self.tokens = tokens
        self.position = 0
        self.resolve = resolve

    def peek(self) -> Optional[str]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of expression")
        self.position += 1
        return token

    def expect(self, wanted: str) -> None:
        token = self.take()
        if token != wanted:
            raise ParseError(f"expected {wanted!r}, found {token!r}")

    def name(self) -> str:
        token = self.take()
        if token in _PUNCT:
            raise ParseError(f"expected a name, found {token!r}")
        return token

    def expression(self) -> MappingExpr:
        token = self.name()
        if token in _OPERATORS and self.peek() == "(":
            return self.operator(token)
        return MappingAtom(mapping=self.resolve(token))

    def operator(self, which: str) -> MappingExpr:
        self.expect("(")
        if which == "compose":
            operands = [self.expression()]
            while self.peek() == ",":
                self.take()
                operands.append(self.expression())
            self.expect(")")
            if len(operands) < 2:
                raise ParseError("compose needs at least two operands")
            result = operands[-1]
            for operand in reversed(operands[:-1]):
                result = Compose(first=operand, second=result)
            return result
        if which == "union":
            left = self.expression()
            self.expect(",")
            right = self.expression()
            self.expect(")")
            return UnionOf(left=left, right=right)
        if which == "restrict":
            child = self.expression()
            keeps = []
            while self.peek() == ",":
                self.take()
                keeps.append(self.name())
            self.expect(")")
            return Restrict(child=child, relations=tuple(keeps))
        if which == "rename":
            child = self.expression()
            pairs = []
            while self.peek() == ",":
                self.take()
                old = self.name()
                self.expect("=")
                new = self.name()
                pairs.append((old, new))
            self.expect(")")
            return Rename(child=child, renaming=tuple(pairs))
        raise ParseError(f"unknown operator {which!r}")


def parse_expression(
    text: str,
    resolver: Optional[Mapping[str, SchemaMapping]] = None,
) -> MappingExpr:
    """Parse expression *text* against a name -> mapping table.

    The default table holds every catalog mapping plus the paper's
    named (quasi-)inverses (``Projection'``, ``Union'``, ...).
    :class:`ParseError` flags bad syntax; :class:`MappingError` flags
    unknown names and schema mismatches.
    """
    table = dict(resolver) if resolver is not None else default_resolver()

    def resolve(name: str) -> SchemaMapping:
        try:
            return table[name]
        except KeyError:
            known = ", ".join(sorted(table))
            raise MappingError(
                f"unknown mapping {name!r}; known names: {known}"
            ) from None

    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    parser = _Parser(tokens, resolve)
    expr = parser.expression()
    if parser.peek() is not None:
        raise ParseError(f"trailing input at {parser.peek()!r}")
    return expr
