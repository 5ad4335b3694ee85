"""Minimal generators (Definitions 4.2/4.3, Lemma 4.4, Algorithm MinGen).

A source conjunction beta(x, z) is a *generator* of a target formula
``exists y psi_T(x, y)`` (with respect to Sigma) when the s-t tgd
``beta -> exists y psi_T`` is a logical consequence of Sigma —
equivalently, when the chase of the canonical instance I_beta with
Sigma contains an image of psi_T fixing x (the remark after
Definition 4.2).  A generator is *minimal* when no strict subset of
its conjuncts is itself a generator.

That test (Step 2 of Algorithm MinGen) is evaluated on one round of
firings instead of a chase run: every premise match into I_beta fires
once, instantiating its tgd's conclusion with nulls fresh to that
firing (:class:`_Firings`).  For s-t tgds this is the oblivious chase,
which :func:`~repro.chase.standard.chase` calls homomorphically
equivalent to its restricted one, and both homomorphisms fix I_beta's
terms: each restricted firing is a firing of the round, and each
firing the restricted chase skipped has its conclusion satisfied there
by an extension of the same match.  So psi_T has an image fixing x in
the one result exactly when it has one in the other.  Only produced
facts are searched: psi_T is a target formula and I_beta a source
instance, even when source and target name a relation alike.

Two implementations are provided:

* :func:`minimal_generators` (default, ``method="proofs"``) —
  backward chaining.  Every way the chase can produce the goal facts
  is a *proof*: a partition of the goal atoms into firings, each
  firing labeled by a tgd and matching its block of goal atoms against
  that tgd's conclusion atoms; the global unification problem (where
  the frontier x is rigid, the goal's y's are flexible, the tgd's
  existential variables behave as per-firing rigid nulls) yields the
  most general generator of that proof.  Minimal generators that are
  *specializations* (the paper's Example 4.5 lists both
  ``T(x3,x1) ∧ R(x3,x3,x4)`` and its instance ``T(x1,x1) ∧ R(x1,x1,x4)``)
  are recovered by closing each most-general generator under variable
  identifications — which preserves generatorhood, since the chase is
  monotone under homomorphisms of the source instance.  The final
  subset-minimization replays the paper's Step 3.

* :func:`minimal_generators_exhaustive` (``method="exhaustive"``) —
  the paper's Algorithm MinGen: enumerate every conjunction of at
  most s1*s2 atoms (Lemma 4.4) up to renaming of z, test each, and
  minimize.  The candidates and Step 3 are the paper's; Step 2 is
  evaluated incrementally: each candidate carries the facts its
  firings produced, a candidate one atom larger adds only the firings
  of the matches that use the new atom (each instantiated once per
  search), and the test is one homomorphism search over those facts.
  Exponentially slower than the proofs; kept as the ground-truth
  oracle the test suite cross-validates the proof method against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.chase.homomorphism import _match_atom, all_homomorphisms, find_homomorphism
from repro.chase.standard import NullFactory, _apply
from repro.datamodel.atoms import Atom, atoms_variables
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Null, Term, Variable
from repro.dependencies.dependency import Dependency
from repro.dependencies.descriptions import set_partitions
from repro.core.mapping import MappingError, SchemaMapping
from repro.engine.budget import current_budget
from repro.errors import MinGenBudgetError


@dataclass(frozen=True)
class MinGenConfig:
    """Resource limits and method selection for the MinGen search.

    ``max_atoms`` defaults to the Lemma 4.4 bound s1*s2 (used by the
    exhaustive method; the proof method is bounded structurally).
    ``max_candidates`` aborts pathological searches.
    ``max_specialization_vars`` caps the variable-identification
    closure of the proof method (generators with more fresh variables
    than this keep only their most general form).
    """

    method: str = "proofs"
    max_atoms: Optional[int] = None
    max_fresh_vars: Optional[int] = None
    max_candidates: int = 2_000_000
    max_specialization_vars: int = 6
    fresh_prefix: str = "z"


@dataclass(frozen=True)
class Generator:
    """A generator beta(x, z) of a goal formula."""

    atoms: Tuple[Atom, ...]
    frontier: Tuple[Variable, ...]

    #: What :func:`embeds_into` reads of this generator alone, computed
    #: on first use (a class-level ``None`` default, never read through
    #: ``self.__dict__``; see :mod:`repro.datamodel.terms`).
    _embedding = None

    def fresh_variables(self) -> Tuple[Variable, ...]:
        """The z vector: variables of the conjunction outside the frontier."""
        frontier = set(self.frontier)
        return tuple(v for v in atoms_variables(self.atoms) if v not in frontier)

    def atom_set(self) -> FrozenSet[Atom]:
        return frozenset(self.atoms)

    def __str__(self) -> str:
        body = " ∧ ".join(str(a) for a in self.atoms)
        fresh = self.fresh_variables()
        if fresh:
            names = ",".join(v.name for v in fresh)
            return f"∃{names} ({body})"
        return body


def lemma_4_4_bound(mapping: SchemaMapping, goal_atoms: Sequence[Atom]) -> int:
    """The Lemma 4.4 bound s1*s2 on minimal-generator size."""
    s1 = max(len(dep.premise.atoms) for dep in mapping.dependencies)
    s2 = len(goal_atoms)
    return s1 * s2


class _Firings:
    """Step 2 of MinGen for one goal, over one round of tgd firings.

    A firing instantiates its tgd's conclusion under a premise match,
    with nulls fresh to that firing (:func:`repro.chase.standard._apply`
    and one :class:`NullFactory` per search).  Each (tgd, match image)
    pair is instantiated once per search, and charged to the ambient
    :class:`~repro.engine.budget.Budget` as one chase step, as
    :func:`~repro.chase.standard.chase` charges each of its firings.
    Only tgds whose conclusion names a goal relation fire: no other
    fact can be an image of a goal atom.
    """

    def __init__(
        self,
        mapping: SchemaMapping,
        goal_atoms: Sequence[Atom],
        frontier: Sequence[Variable],
        taken: Iterable[str] = (),
    ) -> None:
        self._goal = tuple(goal_atoms)
        self._fixed: Dict[Term, Term] = {v: v for v in frontier}
        goal_relations = {current.relation for current in self._goal}
        tgds = [
            dependency
            for dependency in mapping.dependencies
            if dependency.conclusion_relations() & goal_relations
        ]
        self._single = tuple(d for d in tgds if len(d.premise.atoms) == 1)
        self._joins = tuple(
            (index, dependency, dependency.premise_variables())
            for index, dependency in enumerate(tgds)
            if len(dependency.premise.atoms) > 1
        )
        self._nulls = NullFactory(taken=taken)
        self._budget = current_budget()
        self._by_atom: Dict[Atom, Tuple[Atom, ...]] = {}
        self._fired: Dict[Tuple, Tuple[Atom, ...]] = {}

    def _fire(self, dependency: Dependency, match: Dict[Term, Term]) -> Tuple[Atom, ...]:
        if self._budget is not None:
            self._budget.charge_chase_steps()
        return _apply(dependency, match, self._nulls)

    def _single_atom_facts(self, new_atom: Atom) -> Tuple[Atom, ...]:
        """The firings of every single-atom premise matching *new_atom*
        (such a match depends on that atom alone)."""
        facts = self._by_atom.get(new_atom)
        if facts is None:
            produced: List[Atom] = []
            for dependency in self._single:
                match = _match_atom(dependency.premise.atoms[0], new_atom, {})
                if match is not None:
                    produced.extend(self._fire(dependency, match))
            facts = self._by_atom[new_atom] = tuple(produced)
        return facts

    def extend(
        self, produced: FrozenSet[Atom], atoms: FrozenSet[Atom], new_atom: Atom
    ) -> FrozenSet[Atom]:
        """The facts of one round of firings into *atoms*, given
        *produced*, those of the firings into ``atoms - {new_atom}``:
        only the matches whose image holds *new_atom* are new."""
        added = set(self._single_atom_facts(new_atom))
        canonical: Optional[Instance] = None
        for index, dependency, variables in self._joins:
            premise = dependency.premise.atoms
            for pattern in premise:
                binding = _match_atom(pattern, new_atom, {})
                if binding is None:
                    continue
                if canonical is None:
                    canonical = Instance(atoms)
                for match in all_homomorphisms(premise, canonical, fixed=binding):
                    key = (index,) + tuple(match[v] for v in variables)
                    facts = self._fired.get(key)
                    if facts is None:
                        facts = self._fired[key] = self._fire(dependency, match)
                    added.update(facts)
        if added <= produced:
            return produced
        return produced | added

    def produced_by(self, atoms: Iterable[Atom]) -> FrozenSet[Atom]:
        """The facts of one round of firings into *atoms*."""
        produced: FrozenSet[Atom] = frozenset()
        so_far: FrozenSet[Atom] = frozenset()
        for current in atoms:
            if current not in so_far:
                so_far = so_far | {current}
                produced = self.extend(produced, so_far, current)
        return produced

    def has_image(self, produced: FrozenSet[Atom]) -> bool:
        """Does the goal map into *produced* with the frontier fixed?"""
        return (
            find_homomorphism(self._goal, Instance(produced), fixed=self._fixed)
            is not None
        )


def is_generator(
    mapping: SchemaMapping,
    candidate_atoms: Sequence[Atom],
    goal_atoms: Sequence[Atom],
    frontier: Sequence[Variable],
) -> bool:
    """The generator test (the remark after Definition 4.2).

    Fires every premise match into the canonical instance I_beta once
    and looks among the produced facts for a homomorphic image of the
    goal conjunction that fixes the frontier pointwise (the y's may
    land anywhere, including on nulls); the module docstring explains
    why that is the chase's verdict.
    """
    taken = (null.name for current in candidate_atoms for null in current.nulls())
    firings = _Firings(mapping, goal_atoms, frontier, taken)
    return firings.has_image(firings.produced_by(candidate_atoms))


def _fresh_prefix(
    config: MinGenConfig, goal_atoms: Sequence[Atom], frontier: Sequence[Variable]
) -> str:
    """A z-prefix whose generated names avoid the goal's variables."""
    taken = {v.name for v in atoms_variables(goal_atoms)}
    taken.update(v.name for v in frontier)
    prefix = config.fresh_prefix
    generated = re.compile(rf"^{re.escape(prefix)}\d+$")
    while any(generated.match(name) for name in taken):
        prefix = "_" + prefix
        generated = re.compile(rf"^{re.escape(prefix)}\d+$")
    return prefix


def _relation_counts(atoms: Iterable[Atom]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for current in atoms:
        counts[current.relation] = counts.get(current.relation, 0) + 1
    return counts


def _embedding(
    smaller: Generator,
) -> Tuple[Optional[Tuple[Tuple[str, int], ...]], Tuple[Variable, ...]]:
    """What :func:`embeds_into` reads of *smaller* alone, once per
    generator: the relation counts of its distinct atoms (None when it
    holds a null, which rules the count test out) and its fresh
    variables."""
    embedding = smaller._embedding
    if embedding is None:
        distinct = set(smaller.atoms)
        counts = None
        if not any(
            isinstance(arg, Null) for current in distinct for arg in current.args
        ):
            counts = tuple(_relation_counts(distinct).items())
        embedding = (counts, smaller.fresh_variables())
        object.__setattr__(smaller, "_embedding", embedding)
    return embedding


def embeds_into(
    smaller: Generator, larger_atoms: FrozenSet[Atom], frontier: Sequence[Variable]
) -> bool:
    """Is *smaller* a subset of *larger_atoms* up to renaming of z?

    Implements the paper's Step 3 subset check: an injective renaming
    of smaller's fresh variables (frontier fixed) carrying every
    conjunct of smaller into the larger conjunction.

    Before searching, the relation counts must fit: no relation may
    occur more often among smaller's distinct atoms than in
    *larger_atoms*.  The renaming fixes each frontier variable and
    constant and maps z injectively to variables outside the frontier,
    so it is injective on smaller's terms and carries distinct atoms
    to distinct atoms of the same relation.  That argument needs every
    term it may move to be a z, so the test is skipped when smaller
    holds a null (mappable, but not in ``fresh_variables()``: it may
    collapse atoms) or a variable of its own frontier outside
    *frontier*.  What depends on smaller alone is computed once per
    generator.
    """
    counts, fresh = _embedding(smaller)
    frontier_set = set(frontier)
    if counts is not None and frontier_set.issuperset(smaller.frontier):
        available = _relation_counts(larger_atoms)
        for relation, needed in counts:
            if needed > available.get(relation, 0):
                return False
    target = Instance.of(larger_atoms)
    fixed: Dict[Term, Term] = {v: v for v in frontier}
    for assignment in all_homomorphisms(smaller.atoms, target, fixed=fixed):
        images = [assignment[v] for v in fresh]
        if len(set(images)) != len(images):
            continue  # not injective on z
        if any(
            not isinstance(image, Variable) or image in frontier_set
            for image in images
        ):
            continue  # z must map to fresh variables of the larger conjunction
        return True
    return False


#: The renamed z's of canonical keys, one object per index, so each
#: computes its sort key once; larger indexes are built on demand.
_CANONICAL_VARIABLES = tuple(Variable(f"#{index}") for index in range(64))


def _canonical_key(
    atoms: Sequence[Atom], frontier: Sequence[Variable]
) -> Tuple:
    """A renaming-invariant key for a candidate conjunction."""
    frontier_set = set(frontier)
    ordered = sorted(set(atoms), key=Atom.sort_key)
    renaming: Dict[Term, Term] = {}
    for current in ordered:
        for variable in current.variables():
            if variable not in frontier_set and variable not in renaming:
                index = len(renaming)
                renaming[variable] = (
                    _CANONICAL_VARIABLES[index]
                    if index < len(_CANONICAL_VARIABLES)
                    else Variable(f"#{index}")
                )
    return tuple(sorted((a.substitute(renaming) for a in ordered), key=Atom.sort_key))


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


def minimal_generators(
    mapping: SchemaMapping,
    goal_atoms: Sequence[Atom],
    frontier: Sequence[Variable],
    config: Optional[MinGenConfig] = None,
) -> Tuple[Generator, ...]:
    """All minimal generators of ``exists y goal_atoms`` w.r.t. *mapping*.

    *frontier* is the x vector: the variables of the goal that the
    generators must carry (every other goal variable is existential).
    Dispatches on ``config.method``; see the module docstring.
    """
    if not mapping.is_tgd_mapping():
        raise MappingError("minimal_generators requires a tgd mapping")
    config = config or MinGenConfig()
    if config.method == "exhaustive":
        return minimal_generators_exhaustive(mapping, goal_atoms, frontier, config)
    if config.method != "proofs":
        raise ValueError(f"unknown MinGen method {config.method!r}")
    return _minimal_generators_proofs(mapping, goal_atoms, frontier, config)


# ----------------------------------------------------------------------
# Proof-based search (default).
# ----------------------------------------------------------------------

class _UnionFind:
    """Union-find over hashable nodes with path compression."""

    def __init__(self) -> None:
        self.parent: Dict[Hashable, Hashable] = {}

    def find(self, node: Hashable) -> Hashable:
        self.parent.setdefault(node, node)
        root = node
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[node] != root:
            self.parent[node], node = root, self.parent[node]
        return root

    def union(self, left: Hashable, right: Hashable) -> None:
        self.parent[self.find(left)] = self.find(right)

    def classes(self) -> Dict[Hashable, List[Hashable]]:
        grouped: Dict[Hashable, List[Hashable]] = {}
        for node in self.parent:
            grouped.setdefault(self.find(node), []).append(node)
        return grouped


def _proof_assignments(
    tgds: Sequence, goal: Sequence[Atom]
) -> Iterator[Tuple[Tuple[Tuple[int, ...], int, Tuple[int, ...]], ...]]:
    """Enumerate proof shapes.

    A proof shape partitions the goal atoms into firings; each firing
    is (goal-atom indices, tgd index, per-atom conclusion-atom index).
    Relation/arity compatibility is checked eagerly.
    """
    indices = list(range(len(goal)))
    for partition in set_partitions(indices):
        per_block: List[List[Tuple[Tuple[int, ...], int, Tuple[int, ...]]]] = []
        dead = False
        for block in partition:
            options: List[Tuple[Tuple[int, ...], int, Tuple[int, ...]]] = []
            for tgd_index, sigma in enumerate(tgds):
                conclusion = sigma.disjuncts[0]
                compatible_per_atom = []
                for goal_index in block:
                    compatible = [
                        k
                        for k, atom in enumerate(conclusion)
                        if atom.relation == goal[goal_index].relation
                        and atom.arity == goal[goal_index].arity
                    ]
                    compatible_per_atom.append(compatible)
                for choice in product(*compatible_per_atom):
                    options.append((tuple(block), tgd_index, tuple(choice)))
            if not options:
                dead = True
                break
            per_block.append(options)
        if dead:
            continue
        yield from product(*per_block)


def _solve_proof(
    tgds: Sequence,
    goal: Sequence[Atom],
    frontier: Sequence[Variable],
    firings: Sequence[Tuple[Tuple[int, ...], int, Tuple[int, ...]]],
    prefix: str,
) -> Optional[Tuple[Atom, ...]]:
    """Unify one proof shape; return its most general generator.

    Node kinds: goal frontier variables and constants are rigid and
    mutually distinct; goal existential variables are flexible; each
    firing's tgd variables are renamed apart, with conclusion-only
    (existential) variables acting as per-firing rigid nulls and all
    others flexible.  Returns None when unification fails.
    """
    frontier_set = set(frontier)
    uf = _UnionFind()

    def goal_node(term: Term) -> Hashable:
        if isinstance(term, Constant):
            return ("const", term.value)
        if term in frontier_set:
            return ("x", term.name)
        return ("y", term.name)

    rigid_null: Set[Hashable] = set()
    rigid_value: Dict[Hashable, Hashable] = {}

    for firing_id, (block, tgd_index, conclusion_choice) in enumerate(firings):
        sigma = tgds[tgd_index]
        premise_vars = set(sigma.premise_variables())
        conclusion = sigma.disjuncts[0]

        def firing_node(term: Term) -> Hashable:
            if isinstance(term, Constant):
                return ("const", term.value)
            if term in premise_vars:
                return ("v", firing_id, term.name)
            return ("w", firing_id, term.name)

        for goal_index, conclusion_index in zip(block, conclusion_choice):
            goal_atom = goal[goal_index]
            conclusion_atom = conclusion[conclusion_index]
            for goal_arg, conclusion_arg in zip(goal_atom.args, conclusion_atom.args):
                left = goal_node(goal_arg)
                right = firing_node(conclusion_arg)
                if right[0] == "w":
                    rigid_null.add(right)
                uf.union(left, right)

    # Validate classes: at most one rigid member; nulls only with y's.
    for root, members in uf.classes().items():
        rigids = [
            node
            for node in members
            if node[0] in ("x", "const") or node in rigid_null
        ]
        if len({node for node in rigids}) > 1:
            return None
        if rigids and rigids[0] in rigid_null:
            if any(node[0] == "v" or node[0] in ("x", "const") for node in members
                   if node != rigids[0]):
                return None

    # Assign values: rigid x/const -> themselves; flexible classes -> fresh z.
    values: Dict[Hashable, Term] = {}
    counter = 0

    def value_of(node: Hashable) -> Term:
        nonlocal counter
        root = uf.find(node)
        if root in values:
            return values[root]
        rigid: Optional[Term] = None
        for member in uf.classes().get(root, [root]):
            if member[0] == "x":
                rigid = Variable(member[1])
            elif member[0] == "const":
                rigid = Constant(member[1])
        if rigid is None:
            counter += 1
            rigid = Variable(f"{prefix}{counter}")
        values[root] = rigid
        return rigid

    # Build beta: instantiate every firing's premise deterministically.
    atoms: List[Atom] = []
    for firing_id, (block, tgd_index, conclusion_choice) in enumerate(firings):
        sigma = tgds[tgd_index]
        for premise_atom in sigma.premise.atoms:
            args: List[Term] = []
            for arg in premise_atom.args:
                if isinstance(arg, Variable):
                    args.append(value_of(("v", firing_id, arg.name)))
                else:
                    args.append(arg)
            atoms.append(Atom(premise_atom.relation, tuple(args)))
    result = tuple(sorted(set(atoms)))
    if not frontier_set <= set(atoms_variables(result)):
        return None
    return result


def _specializations(
    atoms: Tuple[Atom, ...],
    frontier: Sequence[Variable],
    config: MinGenConfig,
) -> Iterator[Tuple[Atom, ...]]:
    """All variable identifications of a most general generator.

    Fresh variables may merge with each other or collapse onto
    frontier variables; frontier variables stay fixed.  Identity
    included.  Generatorhood is preserved under these substitutions
    (the chase is monotone under source homomorphisms), so callers
    need not re-run the chase test.
    """
    frontier = tuple(frontier)
    frontier_set = set(frontier)
    fresh = [v for v in atoms_variables(atoms) if v not in frontier_set]
    if len(fresh) > config.max_specialization_vars:
        yield atoms
        return
    for partition in set_partitions(fresh):
        blocks = list(partition)
        for targets in product((None,) + frontier, repeat=len(blocks)):
            substitution: Dict[Term, Term] = {}
            for block, target in zip(blocks, targets):
                representative: Term = target if target is not None else block[0]
                for variable in block:
                    substitution[variable] = representative
            yield tuple(sorted({a.substitute(substitution) for a in atoms}))


def _minimal_generators_proofs(
    mapping: SchemaMapping,
    goal_atoms: Sequence[Atom],
    frontier: Sequence[Variable],
    config: MinGenConfig,
) -> Tuple[Generator, ...]:
    goal_atoms = tuple(goal_atoms)
    frontier = tuple(frontier)
    prefix = _fresh_prefix(config, goal_atoms, frontier)
    tgds = mapping.dependencies

    budget = config.max_candidates
    general: List[Tuple[Atom, ...]] = []
    seen_general: Set[Tuple] = set()
    for firings in _proof_assignments(tgds, goal_atoms):
        budget -= 1
        if budget < 0:
            raise MinGenBudgetError(
                f"MinGen exceeded {config.max_candidates} proof shapes",
                kind="mingen",
                limit=config.max_candidates,
            )
        solved = _solve_proof(tgds, goal_atoms, frontier, firings, prefix)
        if solved is None:
            continue
        key = _canonical_key(solved, frontier)
        if key in seen_general:
            continue
        seen_general.add(key)
        # Safety net: the construction guarantees this, but verify.
        if is_generator(mapping, solved, goal_atoms, frontier):
            general.append(solved)

    found: List[Generator] = []
    seen: Set[Tuple] = set()
    for base in general:
        for specialized in _specializations(base, frontier, config):
            budget -= 1
            if budget < 0:
                raise MinGenBudgetError(
                    f"MinGen exceeded {config.max_candidates} candidates",
                    kind="mingen",
                    limit=config.max_candidates,
                )
            if not set(frontier) <= set(atoms_variables(specialized)):
                continue
            key = _canonical_key(specialized, frontier)
            if key in seen:
                continue
            seen.add(key)
            found.append(Generator(specialized, frontier))
    return _minimize(found, frontier)


# ----------------------------------------------------------------------
# Exhaustive search (the paper's algorithm; the test oracle).
# ----------------------------------------------------------------------

def _relevant_relations(
    mapping: SchemaMapping, goal_atoms: Sequence[Atom]
) -> Tuple[str, ...]:
    """Source relations that can contribute to producing goal facts."""
    goal_relations = {a.relation for a in goal_atoms}
    relevant: Set[str] = set()
    for dependency in mapping.dependencies:
        if dependency.conclusion_relations() & goal_relations:
            relevant.update(dependency.premise_relations())
    return tuple(sorted(relevant))


def _candidate_atoms(
    relations: Sequence[Tuple[str, int]],
    frontier: Sequence[Variable],
    used_fresh: int,
    fresh_budget: int,
    prefix: str,
) -> Iterator[Tuple[Atom, int]]:
    """All next atoms, with canonical introduction of fresh variables.

    Yields (atom, new_used_fresh).  Within the atom, fresh variables
    beyond the ``used_fresh`` already introduced must appear in
    left-to-right order z_{used+1}, z_{used+2}, ... — the canonical
    naming that collapses renaming-equivalent candidates.
    """
    frontier = tuple(frontier)
    for relation, arity in relations:

        def positions(
            index: int, new_count: int
        ) -> Iterator[Tuple[Tuple[Variable, ...], int]]:
            if index == arity:
                yield (), new_count
                return
            choices: List[Variable] = list(frontier)
            choices.extend(
                Variable(f"{prefix}{i + 1}") for i in range(used_fresh + new_count)
            )
            new_allowed = used_fresh + new_count < fresh_budget
            if new_allowed:
                choices.append(Variable(f"{prefix}{used_fresh + new_count + 1}"))
            for position_index, choice in enumerate(choices):
                is_new = new_allowed and position_index == len(choices) - 1
                for rest, total_new in positions(
                    index + 1, new_count + (1 if is_new else 0)
                ):
                    yield (choice,) + rest, total_new

        for args, new_count in positions(0, 0):
            yield Atom(relation, args), used_fresh + new_count


def minimal_generators_exhaustive(
    mapping: SchemaMapping,
    goal_atoms: Sequence[Atom],
    frontier: Sequence[Variable],
    config: Optional[MinGenConfig] = None,
) -> Tuple[Generator, ...]:
    """Algorithm MinGen as printed in the paper.

    Breadth-first by conjunct count up to the Lemma 4.4 bound, with a
    generator test per candidate and the Step 3 minimize pass;
    exponential in schema size and used as the oracle for the
    proof-based method.  Each level entry carries the facts its
    firings produced, so a candidate's test adds the firings of the
    matches that use its new atom and runs one homomorphism search.
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
    firings = _Firings(mapping, goal_atoms, frontier)

    found: List[Generator] = []
    seen: Set[Tuple] = set()
    budget = config.max_candidates

    def contains_known(atom_set: FrozenSet[Atom]) -> bool:
        return any(embeds_into(known, atom_set, frontier) for known in found)

    frontier_needed = set(frontier)
    # (candidate atoms, fresh variables used, facts its firings produce)
    level: List[Tuple[FrozenSet[Atom], int, FrozenSet[Atom]]] = [
        (frozenset(), 0, frozenset())
    ]
    # The next atoms depend on the fresh variables used alone; listing
    # them once per count also reuses each atom's hash and sort key.
    next_atoms: Dict[int, List[Tuple[Atom, int]]] = {}
    for size in range(1, max_atoms + 1):
        next_level: List[Tuple[FrozenSet[Atom], int, FrozenSet[Atom]]] = []
        for atom_set, used_fresh, produced in level:
            choices = next_atoms.get(used_fresh)
            if choices is None:
                choices = next_atoms[used_fresh] = list(
                    _candidate_atoms(
                        relations, frontier, used_fresh, fresh_budget, prefix
                    )
                )
            for candidate_atom, new_used in choices:
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
                extended_produced = firings.extend(produced, extended, candidate_atom)
                if not missing and firings.has_image(extended_produced):
                    found.append(
                        Generator(tuple(sorted(extended, key=Atom.sort_key)), frontier)
                    )
                    continue  # supersets of a generator are not minimal
                next_level.append((extended, new_used, extended_produced))
        level = next_level
        if not level:
            break
    return _minimize(found, frontier)
