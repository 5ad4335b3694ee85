"""The QuasiInverse algorithm (Section 4, Theorem 4.1).

Given M = (S, T, Sigma) with Sigma a finite set of s-t tgds, the
algorithm produces M' = (T, S, Sigma') where Sigma' is a finite set
of target-to-source disjunctive tgds with constants and inequalities
(inequalities among constants only), such that M' is a quasi-inverse
of M whenever M has one:

1. build Sigma* by quotienting each tgd with every complete
   description of its frontier;
2. for each sigma in Sigma* with conclusion ``exists y psi_T(x, y)``,
   emit sigma' whose premise is psi_T(x, y) plus ``Constant(x_i)`` for
   every frontier variable and ``x_i != x_j`` for every distinct pair,
   and whose conclusion is the disjunction of ``exists z beta(x, z)``
   over the minimal generators beta of the conclusion.

Following the remark at the end of Example 4.5, an optional pruning
step removes disjuncts that are implied by (less specific than) other
disjuncts, keeping only the most general ones.

Theorem 4.6: when Sigma is full, Constant() conjuncts are not needed;
``quasi_inverse`` drops them automatically in that case (disable with
``drop_constants_when_full=False``).

Theorem 4.7: for LAV mappings :func:`lav_quasi_inverse` produces a
disjunction-free quasi-inverse (tgds with constants and inequalities).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.chase.homomorphism import find_homomorphism
from repro.datamodel.atoms import Atom, atoms_variables
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Term, Variable
from repro.dependencies.dependency import Dependency, Premise
from repro.dependencies.descriptions import sigma_star
from repro.core.generators import Generator, MinGenConfig, minimal_generators
from repro.core.mapping import MappingError, SchemaMapping
from repro.engine.cache import derived_mapping


def _disjunct_implies(
    specific: Sequence[Atom],
    general: Sequence[Atom],
    frontier: Sequence[Variable],
) -> bool:
    """Does ``exists z specific`` logically imply ``exists z' general``?

    True exactly when there is a homomorphism from the general
    conjunction into the specific one fixing the frontier.
    """
    fixed: Dict[Term, Term] = {v: v for v in frontier}
    return (
        find_homomorphism(general, Instance.of(specific), fixed=fixed) is not None
    )


def prune_disjuncts(
    disjuncts: Sequence[Tuple[Atom, ...]], frontier: Sequence[Variable]
) -> Tuple[Tuple[Atom, ...], ...]:
    """Keep only the most general disjuncts (Example 4.5's remark).

    A disjunct implied by another is redundant in a disjunction and is
    removed.  Mutually equivalent disjuncts keep one representative
    (the lexicographically least).
    """
    ordered = sorted(disjuncts, key=lambda d: tuple(a.sort_key() for a in d))
    kept: List[Tuple[Atom, ...]] = []
    for index, candidate in enumerate(ordered):
        redundant = False
        for other_index, other in enumerate(ordered):
            if other_index == index:
                continue
            if not _disjunct_implies(candidate, other, frontier):
                continue
            # candidate implies other: other is at least as general.
            if _disjunct_implies(other, candidate, frontier):
                # Equivalent: keep only the first of the pair.
                if other_index < index:
                    redundant = True
                    break
            else:
                redundant = True
                break
        if not redundant:
            kept.append(candidate)
    return tuple(kept)


def _rename_away_from(
    generator: Generator, taken_names: Set[str]
) -> Tuple[Atom, ...]:
    """Rename the generator's fresh variables to avoid *taken_names*."""
    renaming: Dict[Term, Term] = {}
    counter = 1
    for variable in generator.fresh_variables():
        if variable.name not in taken_names:
            continue
        while f"z{counter}" in taken_names:
            counter += 1
        fresh = Variable(f"z{counter}")
        taken_names.add(fresh.name)
        renaming[variable] = fresh
    if not renaming:
        return generator.atoms
    return tuple(a.substitute(renaming) for a in generator.atoms)


def reverse_dependency(
    sigma: Dependency,
    disjunct_bodies: Sequence[Tuple[Atom, ...]],
    *,
    with_constants: bool,
    distinguish_existentials: bool = False,
) -> Dependency:
    """Assemble sigma' from sigma's conclusion and the given disjuncts.

    The premise is sigma's conclusion psi_T(x, y) plus ``Constant(x_i)``
    for every frontier variable and pairwise inequalities over the
    frontier (the paper's Step 2).  With ``distinguish_existentials``
    the inequalities additionally cover the conclusion's existential
    variables y, so the premise only matches the fresh-null patterns
    sigma's own firings create — the refinement the disjunction-free
    LAV construction needs.
    """
    frontier = sigma.frontier()
    conclusion = sigma.disjuncts[0]
    constant_vars = frozenset(frontier) if with_constants else frozenset()
    scope: Tuple[Variable, ...] = frontier
    if distinguish_existentials:
        scope = frontier + sigma.existential_variables(0)
    inequalities = frozenset(
        (left, right) for left, right in combinations(scope, 2)
    )
    premise = Premise(conclusion, constant_vars, inequalities)
    return Dependency(premise, tuple(disjunct_bodies))


@derived_mapping
def quasi_inverse(
    mapping: SchemaMapping,
    *,
    prune_implied: bool = True,
    drop_constants_when_full: bool = True,
    mingen_config: Optional[MinGenConfig] = None,
    name: str = "",
) -> SchemaMapping:
    """Algorithm QuasiInverse(M).

    Returns M' = (T, S, Sigma').  If M has a quasi-inverse, M' is one
    (Theorem 4.1); the algorithm does not decide existence.  Every
    inequality produced is between Constant() variables, so Sigma' is
    a set of disjunctive tgds with constants and inequalities *among
    constants* — the language Theorem 6.7's soundness result needs.
    The output is memoized per exact input (the mapping, its name and
    every option; :func:`~repro.engine.cache.derived_mapping`).
    """
    if not mapping.is_tgd_mapping():
        raise MappingError("QuasiInverse requires a mapping specified by s-t tgds")
    with_constants = not (drop_constants_when_full and mapping.is_full())

    reversed_dependencies: List[Dependency] = []
    seen = set()
    for sigma in sigma_star(mapping.dependencies):
        frontier = sigma.frontier()
        conclusion = sigma.disjuncts[0]
        generators = minimal_generators(
            mapping, conclusion, frontier, config=mingen_config
        )
        if not generators:
            raise MappingError(
                f"no generator found for {sigma} — the premise itself is a "
                "generator, so the MinGen budget was exceeded or misconfigured"
            )
        taken = {v.name for v in atoms_variables(conclusion)}
        taken.update(v.name for v in sigma.premise_variables())
        bodies = tuple(
            _rename_away_from(generator, set(taken)) for generator in generators
        )
        if prune_implied:
            bodies = prune_disjuncts(bodies, frontier)
        candidate = reverse_dependency(sigma, bodies, with_constants=with_constants)
        key = candidate.canonical_form()
        if key not in seen:
            seen.add(key)
            reversed_dependencies.append(candidate)

    return SchemaMapping(
        mapping.target,
        mapping.source,
        tuple(reversed_dependencies),
        name=name or (f"QuasiInverse({mapping.name})" if mapping.name else ""),
    )


@derived_mapping
def lav_quasi_inverse(
    mapping: SchemaMapping,
    *,
    with_constants: bool = True,
    name: str = "",
) -> SchemaMapping:
    """A disjunction-free quasi-inverse of a LAV mapping (Theorem 4.7).

    The construction is the Inverse algorithm's omega(Sigma, I_alpha)
    step, relaxed to allow existential quantification: for every prime
    atom alpha of every source relation, emit

        psi_alpha(x', y) ∧ Constant(x'_i)... ∧ x'_i != x'_j...
            ->  exists (x \\ x') alpha(x)

    where psi_alpha is the chase of the prime instance I_alpha (nulls
    renamed to universally quantified y's) and x' are the variables of
    alpha that survive into the chase; the lost ones are existentially
    quantified in the conclusion (so no constant-propagation property
    is required).

    Why this works for LAV mappings: each source fact fires its tgds
    independently of all others, so (a) whenever some rule's premise
    matches in chase(I), re-exchanging the recovered fact reproduces
    exactly the matched facts — soundness, per rule, by construction —
    and (b) for every original fact alpha·theta of I, universality of
    the chase embeds chase(I_alpha)·theta into chase(I), so the rule
    for theta's equality pattern fires and the fact is recovered up to
    its non-exported positions — faithfulness.  (The conference paper
    does not print Theorem 4.7's construction; the test suite
    validates this one with bounded quasi-inverse checks and
    soundness/faithfulness sweeps.)

    For Projection this yields ``Q(x) ∧ Constant(x) -> exists y P(x, y)``
    (the paper's quasi-inverse); for Union the conjunctive variant
    ``S(x) -> P(x)`` plus ``S(x) -> Q(x)`` (the paper notes
    ``S(x) -> P(x) ∧ Q(x)`` is a quasi-inverse); and for Decomposition
    the join-style reverse of Example 3.10's M' (with constants and
    inequalities), one rule per equality pattern.  On an invertible
    LAV mapping it coincides with the Inverse algorithm's output.
    Memoized like :func:`quasi_inverse`.
    """
    if not mapping.is_lav():
        raise MappingError("lav_quasi_inverse requires a LAV mapping")
    from repro.core.inverse import omega, prime_atoms

    reversed_dependencies: List[Dependency] = []
    seen = set()
    for relation, arity in mapping.source.relations:
        for alpha in prime_atoms(relation, arity):
            candidate = omega(
                mapping,
                alpha,
                with_constants=with_constants,
                allow_existentials=True,
            )
            if candidate is None:
                continue  # the relation exports nothing; ∼M ignores it
            key = candidate.canonical_form()
            if key not in seen:
                seen.add(key)
                reversed_dependencies.append(candidate)

    return SchemaMapping(
        mapping.target,
        mapping.source,
        tuple(reversed_dependencies),
        name=name or (f"LavQuasiInverse({mapping.name})" if mapping.name else ""),
    )
