"""Reference implementations of MinGen's Step 2 and Step 3, kept as test
oracles.

``embeds_into_unfiltered`` is the Step 3 subset check without its
relation-count test.  ``repro.core.generators.embeds_into`` returns
False before searching when some relation occurs more often among the
smaller generator's distinct atoms than in the larger conjunction.  The
oracle here always builds the instance and searches for an injective
renaming of z, so the differential tests can check that the count test
never changes an answer.

``is_generator`` and ``minimal_generators_exhaustive`` are the
exhaustive Algorithm MinGen as it stood before Step 2 was evaluated
from memoized firings: every candidate is chased anew with
:func:`repro.chase.standard.chase`, and the goal is searched for in the
whole chased instance.  They keep their own copies of the helpers the
library has since rewritten for speed (the canonical key, the counted
subset check and the Step 3 pass over it), so a differential test
against them shares no changed code with the library's search.  Unlike
the library, this ``is_generator`` counts a candidate's own atoms as
images of the goal when source and target name a relation alike.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.chase.homomorphism import all_homomorphisms, find_homomorphism
from repro.chase.standard import chase
from repro.core.generators import (
    Generator,
    MinGenConfig,
    _candidate_atoms,
    _fresh_prefix,
    _relation_counts,
    _relevant_relations,
    lemma_4_4_bound,
)
from repro.core.mapping import MappingError, SchemaMapping
from repro.datamodel.atoms import Atom, atoms_variables
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Null, Term, Variable
from repro.errors import MinGenBudgetError


def embeds_into_unfiltered(
    smaller: Generator, larger_atoms: FrozenSet[Atom], frontier: Sequence[Variable]
) -> bool:
    """Is *smaller* a subset of *larger_atoms* up to renaming of z?"""
    target = Instance.of(larger_atoms)
    fixed: Dict[Term, Term] = {v: v for v in frontier}
    frontier_set = set(frontier)
    fresh = smaller.fresh_variables()
    for assignment in all_homomorphisms(smaller.atoms, target, fixed=fixed):
        images = [assignment[v] for v in fresh]
        if len(set(images)) != len(images):
            continue
        if any(
            not isinstance(image, Variable) or image in frontier_set
            for image in images
        ):
            continue
        return True
    return False


def embeds_into(
    smaller: Generator, larger_atoms: FrozenSet[Atom], frontier: Sequence[Variable]
) -> bool:
    """The relation-count test, then :func:`embeds_into_unfiltered`."""
    frontier_set = set(frontier)
    distinct = set(smaller.atoms)
    if frontier_set.issuperset(smaller.frontier) and not any(
        isinstance(arg, Null) for current in distinct for arg in current.args
    ):
        available = _relation_counts(larger_atoms)
        for relation, needed in _relation_counts(distinct).items():
            if needed > available.get(relation, 0):
                return False
    return embeds_into_unfiltered(smaller, larger_atoms, frontier)


def _canonical_key(
    atoms: Sequence[Atom], frontier: Sequence[Variable]
) -> Tuple:
    """A renaming-invariant key for a candidate conjunction."""
    frontier_set = set(frontier)
    ordered = sorted(set(atoms))
    renaming: Dict[Variable, Variable] = {}
    for current in ordered:
        for variable in current.variables():
            if variable not in frontier_set and variable not in renaming:
                renaming[variable] = Variable(f"#{len(renaming)}")
    return tuple(sorted(a.substitute(renaming) for a in ordered))


def _minimize(
    found: Sequence[Generator], frontier: Sequence[Variable]
) -> Tuple[Generator, ...]:
    """Step 3 (Minimize): drop any generator containing another one."""
    minimal: List[Generator] = []
    for candidate in found:
        dominated = any(
            other is not candidate
            and len(other.atoms) <= len(candidate.atoms)
            and other.atom_set() != candidate.atom_set()
            and embeds_into(other, candidate.atom_set(), frontier)
            for other in found
        )
        if not dominated:
            minimal.append(candidate)
    minimal.sort(key=lambda g: tuple(a.sort_key() for a in g.atoms))
    return tuple(minimal)


def is_generator(
    mapping: SchemaMapping,
    candidate_atoms: Sequence[Atom],
    goal_atoms: Sequence[Atom],
    frontier: Sequence[Variable],
) -> bool:
    """Chase-based generator test (the remark after Definition 4.2).

    Chases the canonical instance I_beta with Sigma and looks for a
    homomorphic image of the goal conjunction that fixes the frontier
    pointwise (the y's may land anywhere, including on nulls).
    """
    canonical = Instance.of(candidate_atoms)
    chased = chase(canonical, mapping.dependencies).instance
    fixed: Dict[Term, Term] = {v: v for v in frontier}
    return find_homomorphism(goal_atoms, chased, fixed=fixed) is not None


def minimal_generators_exhaustive(
    mapping: SchemaMapping,
    goal_atoms: Sequence[Atom],
    frontier: Sequence[Variable],
    config: Optional[MinGenConfig] = None,
) -> Tuple[Generator, ...]:
    """Algorithm MinGen exactly as printed in the paper.

    Breadth-first by conjunct count up to the Lemma 4.4 bound, with a
    chase test per candidate and the Step 3 minimize pass; exponential
    in schema size and used as the oracle for the proof-based method.
    """
    if not mapping.is_tgd_mapping():
        raise MappingError("minimal_generators requires a tgd mapping")
    config = config or MinGenConfig(method="exhaustive")
    goal_atoms = tuple(goal_atoms)
    frontier = tuple(frontier)

    max_atoms = config.max_atoms
    if max_atoms is None:
        max_atoms = lemma_4_4_bound(mapping, goal_atoms)
    relevant_names = _relevant_relations(mapping, goal_atoms)
    relations = tuple((name, mapping.source.arity(name)) for name in relevant_names)
    if not relations:
        return ()
    max_arity = max(arity for _, arity in relations)
    fresh_budget = config.max_fresh_vars
    if fresh_budget is None:
        fresh_budget = max_atoms * max_arity
    prefix = _fresh_prefix(config, goal_atoms, frontier)

    found: List[Generator] = []
    seen: Set[Tuple] = set()
    budget = config.max_candidates

    def contains_known(atom_set: FrozenSet[Atom]) -> bool:
        return any(embeds_into(known, atom_set, frontier) for known in found)

    frontier_needed = set(frontier)
    level: List[Tuple[FrozenSet[Atom], int]] = [(frozenset(), 0)]
    for size in range(1, max_atoms + 1):
        next_level: List[Tuple[FrozenSet[Atom], int]] = []
        for atom_set, used_fresh in level:
            for candidate_atom, new_used in _candidate_atoms(
                relations, frontier, used_fresh, fresh_budget, prefix
            ):
                if candidate_atom in atom_set:
                    continue
                extended = atom_set | {candidate_atom}
                key = _canonical_key(tuple(extended), frontier)
                if key in seen:
                    continue
                seen.add(key)
                budget -= 1
                if budget < 0:
                    raise MinGenBudgetError(
                        f"MinGen exceeded {config.max_candidates} candidates",
                        kind="mingen",
                        limit=config.max_candidates,
                    )
                if contains_known(extended):
                    continue
                remaining = max_atoms - size
                missing = frontier_needed - set(atoms_variables(tuple(extended)))
                if len(missing) > remaining * max_arity:
                    continue  # cannot cover the frontier anymore
                if not missing and is_generator(
                    mapping, tuple(sorted(extended)), goal_atoms, frontier
                ):
                    found.append(Generator(tuple(sorted(extended)), frontier))
                    continue  # supersets of a generator are not minimal
                next_level.append((extended, new_used))
        level = next_level
        if not level:
            break
    return _minimize(found, frontier)
