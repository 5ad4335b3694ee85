"""Schema mappings and solution-space reasoning.

A schema mapping is a triple M = (S, T, Sigma).  For M specified by
s-t tgds and a ground instance I, the chase of I with Sigma is a
universal solution (Section 2), and a target instance J is a solution
for I exactly when there is a homomorphism chase(I) -> J.  This gives
decision procedures for the two relations everything else in the
paper is built from:

* Sol(M, I2) ⊆ Sol(M, I1)  ⟺  chase(I1) -> chase(I2);
* I1 ∼M I2  ⟺  chase(I1) and chase(I2) homomorphically equivalent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Tuple

from repro.chase.homomorphism import (
    all_homomorphisms,
    find_homomorphism,
    instance_homomorphism,
)
from repro.chase.standard import chase
from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.schemas import Schema
from repro.datamodel.terms import Variable
from repro.dependencies.dependency import Dependency, LanguageFeatures, language_audit
from repro.dependencies.parser import parse_dependencies
from repro.engine.cache import (
    cached_chase_result,
    canonical_key,
    chase_cache,
    exact_key,
    mapping_key,
    verdict_cache,
)
from repro.engine.instrumentation import PhaseStats, engine_stats
from repro.engine.kernel import active_operations
from repro.errors import MappingError


@dataclass(frozen=True)
class SchemaMapping:
    """A schema mapping M = (source, target, dependencies)."""

    source: Schema
    target: Schema
    dependencies: Tuple[Dependency, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dependencies", tuple(self.dependencies))
        for dependency in self.dependencies:
            dependency.validate(self.source, self.target)
        # mappings key the derived-mapping memo (derived_cache); the
        # generated hash walks every dependency
        object.__setattr__(
            self, "_hash", hash((self.source, self.target, self.dependencies))
        )

    def __hash__(self) -> int:
        return self._hash

    # -- construction ------------------------------------------------------

    @classmethod
    def from_text(
        cls,
        source: Schema,
        target: Schema,
        text: str,
        name: str = "",
    ) -> "SchemaMapping":
        """Build a mapping from the parser's text syntax."""
        return cls(source, target, parse_dependencies(text), name=name)

    # -- classification ------------------------------------------------------

    def is_tgd_mapping(self) -> bool:
        """All dependencies are plain s-t tgds."""
        return all(dependency.is_tgd() for dependency in self.dependencies)

    def is_full(self) -> bool:
        """No existential quantifiers in any conclusion."""
        return all(dependency.is_full() for dependency in self.dependencies)

    def is_lav(self) -> bool:
        """Every dependency has a single-atom premise (and is a tgd)."""
        return all(dependency.is_lav() for dependency in self.dependencies)

    def language_features(self) -> LanguageFeatures:
        return language_audit(self.dependencies)

    # -- schema surgery ------------------------------------------------------

    def augment_source(self, relation: str, arity: int) -> "SchemaMapping":
        """The Introduction's M* = (S ∪ {R}, T, Sigma)."""
        return SchemaMapping(
            self.source.augment(relation, arity),
            self.target,
            self.dependencies,
            name=f"{self.name}+{relation}" if self.name else "",
        )

    def augment_target(self, relation: str, arity: int) -> "SchemaMapping":
        """Adds a fresh relation symbol to the target schema."""
        return SchemaMapping(
            self.source,
            self.target.augment(relation, arity),
            self.dependencies,
            name=f"{self.name}+{relation}" if self.name else "",
        )

    def __str__(self) -> str:
        label = self.name or "M"
        rendered = "; ".join(str(d) for d in self.dependencies)
        return f"{label}: {self.source} -> {self.target} with {{{rendered}}}"


@dataclass(frozen=True)
class StagedMapping(SchemaMapping):
    """A composition pipeline evaluated stage by stage, never composed.

    Semantically this *is* the composition ``stages[0] ∘ ... ∘
    stages[-1]``: its universal solution is computed by chasing each
    stage in turn, which is a universal solution of the composition
    whenever every stage is a tgd mapping and all but the last are
    full (the intermediate chase results are then ground, so they are
    genuine intermediate instances).  Construction enforces exactly
    that, so a :class:`StagedMapping` can be handed to any
    solution-space checker (``solutions_contained``,
    ``data_exchange_equivalent``, the sweep framework) in place of the
    MinGen-materialized composition and produce identical verdicts —
    without ever paying ``compose_full``'s blow-up.
    """

    stages: Tuple[SchemaMapping, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise MappingError("a staged mapping needs at least one stage")
        if self.dependencies:
            raise MappingError(
                "a staged mapping carries no dependencies of its own; "
                "its stages do"
            )
        if self.stages[0].source != self.source:
            raise MappingError("first stage's source must match the pipeline's")
        if self.stages[-1].target != self.target:
            raise MappingError("last stage's target must match the pipeline's")
        for before, after in zip(self.stages, self.stages[1:]):
            if before.target.relations != after.source.relations:
                raise MappingError(
                    "staged pipeline breaks: "
                    f"{before.target} feeds {after.source}"
                )
        for position, stage in enumerate(self.stages):
            if not stage.is_tgd_mapping():
                raise MappingError("staged evaluation requires tgd stages")
            if position < len(self.stages) - 1 and not stage.is_full():
                raise MappingError(
                    "staged evaluation requires full stages before the last "
                    "(intermediate chase results must be ground)"
                )
        # stages, not (empty) dependencies, are this mapping's content
        object.__setattr__(
            self, "_hash", hash((self.source, self.target, self.stages))
        )

    # -- classification delegates to the stages ---------------------------

    def is_tgd_mapping(self) -> bool:
        return all(stage.is_tgd_mapping() for stage in self.stages)

    def is_full(self) -> bool:
        return all(stage.is_full() for stage in self.stages)

    def is_lav(self) -> bool:
        # Conservative: LAV-ness does not compose in general.
        return False

    def language_features(self) -> LanguageFeatures:
        combined = LanguageFeatures()
        for stage in self.stages:
            combined = combined | stage.language_features()
        return combined

    def __str__(self) -> str:
        label = self.name or "M"
        rendered = " ∘ ".join(stage.name or "M" for stage in self.stages)
        return f"{label}: {self.source} -> {self.target} staged as {rendered}"


def identity_mapping(schema: Schema, name: str = "Id") -> SchemaMapping:
    """The identity schema mapping Id = (S, Ŝ, {R(x) -> R(x)}).

    Following the paper's notational simplification, the replica
    schema Ŝ reuses the relation names of S; Inst(Id) is then the set
    of ground pairs (I1, I2) with I1 ⊆ I2.
    """
    from repro.dependencies.dependency import Premise

    dependencies = []
    for relation, arity in schema.relations:
        variables = tuple(Variable(f"x{i + 1}") for i in range(arity))
        current = Atom(relation, variables)
        dependencies.append(Dependency(Premise((current,)), ((current,),)))
    return SchemaMapping(schema, schema, tuple(dependencies), name=name)


def _solve(mapping: SchemaMapping, source: Instance) -> Instance:
    """chase_Sigma(source) restricted to the target schema: the work
    behind a chase-memo miss (:func:`universal_solution`).

    A staged pipeline chases stage by stage, each stage through
    :func:`universal_solution`, so every intermediate result lands in
    the chase memo under the *stage's* mapping key: a pipeline sharing
    a prefix with another reuses the prefix's chases for free.
    """
    if not mapping.is_tgd_mapping():
        raise MappingError(
            "universal_solution requires a mapping specified by plain s-t tgds"
        )
    if isinstance(mapping, StagedMapping):
        current = source
        for stage in mapping.stages:
            current = universal_solution(stage, current)
        return current.restrict_to(mapping.target)
    with engine_stats().phase("chase"):
        # No caller of the cached solution reads the step trace, which
        # lets the SQL backend chase full tgds set-at-a-time.
        result = chase(source, mapping.dependencies, trace=False)
    return result.instance.restrict_to(mapping.target)


def universal_solution(mapping: SchemaMapping, instance: Instance) -> Instance:
    """chase_Sigma(I): a universal solution for *instance* under *mapping*.

    Requires a tgd mapping (:class:`MappingError` otherwise).  Results
    are memoized on every backend in the engine's one chase memo
    (:func:`repro.engine.cache.cached_chase_result`), keyed by the
    instance's exact facts, so a repeat returns the instance the first
    call computed; the backend runs only the chase behind a miss.
    """
    return cached_chase_result(mapping, instance, _solve)


def core_universal_solution(mapping: SchemaMapping, instance: Instance) -> Instance:
    """The *core* of the universal solution.

    The smallest universal solution, unique up to isomorphism; two
    ground instances are ∼M-equivalent exactly when their core
    solutions are isomorphic.  More expensive than
    :func:`universal_solution` (core computation searches for proper
    retractions), but canonical — useful for caching, display, and as
    the normal form behind data-exchange equivalence classes.
    Memoized in the chase memo under its own key head, keyed like the
    chase it reduces.
    """
    from repro.chase.homomorphism import core

    return chase_cache.memoize(
        ("core", mapping_key(mapping), exact_key(instance)),
        lambda: core(universal_solution(mapping, instance)),
    )


def is_solution(mapping: SchemaMapping, instance: Instance, candidate: Instance) -> bool:
    """Model checking: does (instance, candidate) satisfy Sigma?

    Works for the full dependency language (disjunctions, Constant(),
    inequalities): for every premise match in *instance* some disjunct
    must admit an extension into *candidate*.
    """
    for dependency in mapping.dependencies:
        for match in all_homomorphisms(
            dependency.premise.atoms,
            instance,
            constant_vars=dependency.premise.constant_vars,
            inequalities=dependency.premise.inequalities,
        ):
            satisfied = any(
                find_homomorphism(disjunct, candidate, fixed=match) is not None
                for disjunct in dependency.disjuncts
            )
            if not satisfied:
                return False
    return True


def solutions_contained(
    mapping: SchemaMapping, inner: Instance, outer: Instance
) -> bool:
    """Sol(M, inner) ⊆ Sol(M, outer)?

    Equivalent (for tgd mappings) to the existence of a homomorphism
    chase(outer) -> chase(inner).  Verdicts are memoized content-
    addressed in the engine's verdict cache on every backend: the key
    is sound under independent renamings of either side's nulls,
    because a homomorphism never constrains where a null maps (even
    one shared between the two instances).  The backend runs only the
    homomorphism test behind a miss.

    Pair verdicts deliberately do *not* key by joint canonical form
    under orbit-mode sweeps: orbit reduction already deduplicates the
    outer loop, so the residual sharing between exact pairs (bounded
    by the representative's stabilizer) is worth less than the joint
    canonicalization costs.  Orbit-level sharing happens one layer
    down, in the symmetry-keyed chase cache the verdicts build on
    (:func:`repro.engine.cache.cached_chase_result`).
    """
    key = (
        "sol-contained",
        mapping_key(mapping),
        canonical_key(outer),
        canonical_key(inner),
    )
    hit, verdict = verdict_cache.get(key)
    if hit:
        return verdict
    # Inlined engine_stats().phase("homomorphism") — same counters,
    # minus the context-manager machinery this hot path can feel.
    started = time.perf_counter()
    try:
        source = universal_solution(mapping, outer)
        target = universal_solution(mapping, inner)
        operations = active_operations()
        if operations is None:
            verdict = instance_homomorphism(source, target) is not None
        else:
            verdict = operations.has_homomorphism(source, target)
    finally:
        phases = engine_stats().phases
        phase = phases.get("homomorphism") or phases.setdefault("homomorphism", PhaseStats())
        phase.record(time.perf_counter() - started)
    verdict_cache.put(key, verdict)
    return verdict


def data_exchange_equivalent(
    mapping: SchemaMapping, left: Instance, right: Instance
) -> bool:
    """The paper's I1 ∼M I2: equal solution spaces.

    Equivalent to homomorphic equivalence of the two chase results.
    """
    return solutions_contained(mapping, left, right) and solutions_contained(
        mapping, right, left
    )
