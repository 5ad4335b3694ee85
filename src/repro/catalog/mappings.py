"""The paper's named schema mappings, examples, and expected outputs.

Every schema mapping that the paper names or constructs is available
here as a ready-made object, together with the formulas the paper
states as expected algorithm outputs (used by the experiments to
compare conjunct-for-conjunct) and the worked-example instances
(Example 3.10's witnesses, Figure 1's instance I).

Each constructor builds a fresh object.  Lookups *by name* — the
service's catalog names, the algebra parser's default table, ``repro.cli
export`` — go through :func:`catalog_by_name` and
:func:`named_mappings` instead: each process holds one shared,
immutable mapping per name, built on the first lookup.  Mappings are
frozen, so daemon threads share them safely, and what is cached on a
mapping object (its ``mapping_key``, ``kernel.small_id``) stays warm
from one request to the next.
"""

from __future__ import annotations

import threading
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

from repro.datamodel.instances import Instance
from repro.datamodel.schemas import Schema
from repro.dependencies.dependency import Dependency
from repro.dependencies.parser import parse_dependency
from repro.core.mapping import SchemaMapping


# ----------------------------------------------------------------------
# Section 1: the three motivating non-invertible mappings.
# ----------------------------------------------------------------------

def projection() -> SchemaMapping:
    """Projection: P(x, y) -> Q(x)."""
    return SchemaMapping.from_text(
        Schema.of({"P": 2}),
        Schema.of({"Q": 1}),
        "P(x, y) -> Q(x)",
        name="Projection",
    )


def projection_quasi_inverse() -> SchemaMapping:
    """The paper's quasi-inverse of Projection: Q(x) -> exists y P(x, y)."""
    return SchemaMapping.from_text(
        Schema.of({"Q": 1}),
        Schema.of({"P": 2}),
        "Q(x) -> P(x, y)",
        name="Projection'",
    )


def union_mapping() -> SchemaMapping:
    """Union: P(x) -> S(x) and Q(x) -> S(x)."""
    return SchemaMapping.from_text(
        Schema.of({"P": 1, "Q": 1}),
        Schema.of({"S": 1}),
        "P(x) -> S(x)\nQ(x) -> S(x)",
        name="Union",
    )


def union_quasi_inverse() -> SchemaMapping:
    """The paper's quasi-inverse of Union: S(x) -> P(x) ∨ Q(x)."""
    return SchemaMapping.from_text(
        Schema.of({"S": 1}),
        Schema.of({"P": 1, "Q": 1}),
        "S(x) -> P(x) | Q(x)",
        name="Union'",
    )


def decomposition() -> SchemaMapping:
    """Decomposition: P(x, y, z) -> Q(x, y) ∧ R(y, z)."""
    return SchemaMapping.from_text(
        Schema.of({"P": 3}),
        Schema.of({"Q": 2, "R": 2}),
        "P(x, y, z) -> Q(x, y) & R(y, z)",
        name="Decomposition",
    )


def decomposition_quasi_inverse_join() -> SchemaMapping:
    """Example 3.10's M': Q(x, y) ∧ R(y, z) -> P(x, y, z)."""
    return SchemaMapping.from_text(
        Schema.of({"Q": 2, "R": 2}),
        Schema.of({"P": 3}),
        "Q(x, y) & R(y, z) -> P(x, y, z)",
        name="Decomposition'",
    )


def decomposition_quasi_inverse_split() -> SchemaMapping:
    """Example 3.10's M'': Q(x,y) -> ∃z P(x,y,z); R(y,z) -> ∃x P(x,y,z)."""
    return SchemaMapping.from_text(
        Schema.of({"Q": 2, "R": 2}),
        Schema.of({"P": 3}),
        "Q(x, y) -> P(x, y, z)\nR(y, z) -> P(x, y, z)",
        name="Decomposition''",
    )


def example_3_10_witnesses() -> Tuple[Instance, Instance]:
    """Example 3.10's unique-solutions violation for Decomposition.

    P^{I1} = {(0,0,0), (0,0,1), (1,0,0)} and P^{I2} additionally has
    (1,0,1); the two instances have exactly the same solutions.
    """
    left = Instance.build({"P": [(0, 0, 0), (0, 0, 1), (1, 0, 0)]})
    right = Instance.build({"P": [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]})
    return left, right


# ----------------------------------------------------------------------
# Proposition 3.12: a full s-t tgd with no quasi-inverse.
# ----------------------------------------------------------------------

def prop_3_12() -> SchemaMapping:
    """E(x, z) ∧ E(z, y) -> F(x, y) ∧ M(z): no quasi-inverse exists."""
    return SchemaMapping.from_text(
        Schema.of({"E": 2}),
        Schema.of({"F": 2, "M": 1}),
        "E(x, z) & E(z, y) -> F(x, y) & M(z)",
        name="Prop3.12",
    )


# ----------------------------------------------------------------------
# Example 4.5: the QuasiInverse algorithm walk-through.
# ----------------------------------------------------------------------

def example_4_5() -> SchemaMapping:
    """The four-tgd mapping of Example 4.5."""
    text = """
    P(x1, x2, x3) -> S(x1, x2, y) & Q(y, y)
    U(x1) -> S(x1, x1, y) & Q(y, y) & Q(x1, y)
    T(x3, x4) -> S(x4, x4, x3)
    R(x1, x2, x4) -> Q(x1, x2)
    """
    return SchemaMapping.from_text(
        Schema.of({"P": 3, "U": 1, "T": 2, "R": 3}),
        Schema.of({"S": 3, "Q": 2}),
        text,
        name="Example4.5",
    )


def example_4_5_expected_sigma1_prime() -> Dependency:
    """The paper's sigma'_1."""
    return parse_dependency(
        "S(x1, x2, y) & Q(y, y) & Constant(x1) & Constant(x2) & x1 != x2 "
        "-> P(x1, x2, x3)"
    )


def example_4_5_expected_sigma2_prime(pruned: bool = True) -> Dependency:
    """The paper's sigma'_2 (with or without the implied third disjunct).

    Unpruned, the conclusion has four disjuncts; the paper remarks the
    third (∃x4 T(x1,x1) ∧ R(x1,x1,x4)) is implied by the fourth and
    can be removed.
    """
    disjuncts = [
        "P(x1, x1, x3)",
        "U(x1)",
        "T(x1, x1) & R(x1, x1, x4)",
        "T(x3, x1) & R(x3, x3, x4)",
    ]
    if pruned:
        disjuncts.pop(2)
    return parse_dependency(
        "S(x1, x1, y) & Q(y, y) & Constant(x1) -> " + " | ".join(disjuncts)
    )


# ----------------------------------------------------------------------
# Section 4.1: the four language-necessity mappings.
# ----------------------------------------------------------------------

def thm_4_8() -> SchemaMapping:
    """Necessity of constants: P(x, y) -> ∃z (Q(x, z) ∧ Q(z, y))."""
    return SchemaMapping.from_text(
        Schema.of({"P": 2}),
        Schema.of({"Q": 2}),
        "P(x, y) -> Q(x, z) & Q(z, y)",
        name="Thm4.8",
    )


def thm_4_8_inverse() -> SchemaMapping:
    """The paper's inverse of the Theorem 4.8 mapping."""
    return SchemaMapping.from_text(
        Schema.of({"Q": 2}),
        Schema.of({"P": 2}),
        "Q(x, z) & Q(z, y) & Constant(x) & Constant(y) -> P(x, y)",
        name="Thm4.8'",
    )


def thm_4_9() -> SchemaMapping:
    """Necessity of inequalities (a full LAV mapping with an inverse)."""
    text = """
    P(x, y) -> P2(x, y)
    P(x, x) -> Q(x)
    T(x) -> T2(x)
    T(x) -> P2(x, x)
    """
    return SchemaMapping.from_text(
        Schema.of({"P": 2, "T": 1}),
        Schema.of({"P2": 2, "Q": 1, "T2": 1}),
        text,
        name="Thm4.9",
    )


def thm_4_10() -> SchemaMapping:
    """Necessity of disjunctions (full, quasi-invertible)."""
    text = """
    P1(x) -> S1(x)
    P2(x) -> S1(x)
    P3(x) -> S2(x)
    P4(x) -> S2(x)
    P1(x) & P3(x) -> R13(x)
    P1(x) & P4(x) -> R14(x)
    P2(x) & P3(x) -> R23(x)
    P2(x) & P4(x) -> R24(x)
    """
    return SchemaMapping.from_text(
        Schema.of({"P1": 1, "P2": 1, "P3": 1, "P4": 1}),
        Schema.of({"S1": 1, "S2": 1, "R13": 1, "R14": 1, "R23": 1, "R24": 1}),
        text,
        name="Thm4.10",
    )


def thm_4_11() -> SchemaMapping:
    """Necessity of existential quantifiers (full LAV)."""
    return SchemaMapping.from_text(
        Schema.of({"P": 2}),
        Schema.of({"R": 1, "S": 1}),
        "P(x, y) -> R(x)\nP(x, x) -> S(x)",
        name="Thm4.11",
    )


# ----------------------------------------------------------------------
# Example 5.4: the Inverse algorithm walk-through.
# ----------------------------------------------------------------------

def example_5_4() -> SchemaMapping:
    """The three-tgd mapping of Example 5.4."""
    text = """
    R(x1, x2) & R(x2, x1) -> Q(x1, y)
    R(x1, x2) -> S(x1, x2, y)
    R(x1, x1) -> U(x1)
    """
    return SchemaMapping.from_text(
        Schema.of({"R": 2}),
        Schema.of({"Q": 2, "S": 3, "U": 1}),
        text,
        name="Example5.4",
    )


def example_5_4_expected_inverse() -> Tuple[Dependency, Dependency]:
    """The paper's dependencies (1) and (2) output by Inverse."""
    omega_equal = parse_dependency(
        "Q(x1, y1) & S(x1, x1, y2) & U(x1) & Constant(x1) -> R(x1, x1)"
    )
    omega_distinct = parse_dependency(
        "S(x1, x2, y) & Constant(x1) & Constant(x2) & x1 != x2 -> R(x1, x2)"
    )
    return omega_equal, omega_distinct


# ----------------------------------------------------------------------
# Section 3 remark (full version): unique solutions without the
# (=,=)-subset property.
# ----------------------------------------------------------------------

def unique_solutions_separation() -> SchemaMapping:
    """A mapping with unique solutions but no (=,=)-subset property.

    The paper states (proof in the full version) that the
    unique-solutions property of [3] is necessary but *not* sufficient
    for invertibility.  This witness was found by exhaustive search
    over small full mappings and is analytically checkable: the chase
    profile is (C, D, E) = (A ∪ B, B, A ∩ B), from which A and B are
    recoverable (so solutions are unique), yet
    Sol({B(0)}) ⊆ Sol({A(0)}) while {A(0)} ⊄ {B(0)} — an exact
    violation of the (=,=)-subset property, hence no inverse exists
    (Corollary 3.6).
    """
    text = """
    A(x) -> C(x)
    B(x) -> C(x) & D(x)
    A(x) & B(x) -> E(x)
    """
    return SchemaMapping.from_text(
        Schema.of({"A": 1, "B": 1}),
        Schema.of({"C": 1, "D": 1, "E": 1}),
        text,
        name="UniqueNotSubset",
    )


def unique_solutions_separation_witnesses() -> Tuple[Instance, Instance]:
    """The exact (=,=)-subset violation pair for the mapping above."""
    return Instance.build({"A": [(0,)]}), Instance.build({"B": [(0,)]})


# ----------------------------------------------------------------------
# Figure 1 / Example 6.1.
# ----------------------------------------------------------------------

def figure_1_instance() -> Instance:
    """The ground instance I of Figure 1: P = {(a,b,c), (a',b,c')}."""
    return Instance.build({"P": [("a", "b", "c"), ("a'", "b", "c'")]})


def all_catalog_mappings() -> Tuple[SchemaMapping, ...]:
    """Every forward mapping in the catalog (for sweep experiments)."""
    return (
        projection(),
        union_mapping(),
        decomposition(),
        prop_3_12(),
        example_4_5(),
        thm_4_8(),
        thm_4_9(),
        thm_4_10(),
        thm_4_11(),
        example_5_4(),
        unique_solutions_separation(),
    )


_Table = Mapping[str, SchemaMapping]

_SHARED_LOCK = threading.Lock()
_SHARED: Optional[Tuple[_Table, _Table]] = None


def _shared_tables() -> Tuple[_Table, _Table]:
    """(catalog, catalog + named inverses), built once under a lock so
    that concurrent first lookups still get one object per name."""
    global _SHARED
    if _SHARED is None:
        with _SHARED_LOCK:
            if _SHARED is None:
                catalog = {mapping.name: mapping for mapping in all_catalog_mappings()}
                named = dict(catalog)
                for inverse in (
                    projection_quasi_inverse(),
                    union_quasi_inverse(),
                    decomposition_quasi_inverse_join(),
                    decomposition_quasi_inverse_split(),
                    thm_4_8_inverse(),
                ):
                    named[inverse.name] = inverse
                _SHARED = (MappingProxyType(catalog), MappingProxyType(named))
    return _SHARED


def catalog_by_name() -> Mapping[str, SchemaMapping]:
    """:func:`all_catalog_mappings` by name, as the process's one
    read-only table: every lookup of a name returns the same object."""
    return _shared_tables()[0]


def named_mappings() -> Mapping[str, SchemaMapping]:
    """:func:`catalog_by_name` plus the paper's named (quasi-)inverses
    that mapping expressions may mention (``Projection'``, ...): the
    same shared objects, read-only."""
    return _shared_tables()[1]
