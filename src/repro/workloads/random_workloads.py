"""Seeded random schema mappings and ground instances.

Used by the property-based tests and the sweep experiments (E3, E6,
E7, E12): Proposition 3.11 and Theorems 4.6/4.7/6.7/6.8 are universal
statements over classes of mappings, so we sample those classes
deterministically and verify the statements instance by instance.
"""

from __future__ import annotations

import random
from typing import List

from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.schemas import Schema
from repro.datamodel.terms import Constant, Variable
from repro.dependencies.dependency import Dependency, Premise
from repro.core.mapping import SchemaMapping


def _schema(prefix: str, count: int, max_arity: int, rng: random.Random) -> Schema:
    return Schema.of(
        {f"{prefix}{i + 1}": rng.randint(1, max_arity) for i in range(count)}
    )


def random_lav_mapping(
    seed: int,
    *,
    n_source: int = 3,
    n_target: int = 3,
    max_arity: int = 3,
    n_tgds: int = 4,
    max_conclusion_atoms: int = 2,
) -> SchemaMapping:
    """A random LAV mapping: every premise is a single source atom.

    Conclusions mix frontier variables (from the premise) and fresh
    existential variables; every source relation is used by at least
    one tgd when ``n_tgds >= n_source``.
    """
    rng = random.Random(seed)
    source = _schema("A", n_source, max_arity, rng)
    target = _schema("B", n_target, max_arity, rng)
    dependencies: List[Dependency] = []
    source_names = list(source.names())
    for index in range(n_tgds):
        relation = (
            source_names[index]
            if index < len(source_names)
            else rng.choice(source_names)
        )
        arity = source.arity(relation)
        premise_vars = [Variable(f"x{i + 1}") for i in range(arity)]
        premise_atom = Atom(relation, tuple(premise_vars))
        conclusion: List[Atom] = []
        pool = list(premise_vars)
        existential_counter = 0
        for _ in range(rng.randint(1, max_conclusion_atoms)):
            target_relation = rng.choice(list(target.names()))
            target_arity = target.arity(target_relation)
            args = []
            for _ in range(target_arity):
                if pool and rng.random() < 0.7:
                    args.append(rng.choice(pool))
                else:
                    existential_counter += 1
                    args.append(Variable(f"y{existential_counter}"))
            conclusion.append(Atom(target_relation, tuple(args)))
        dependencies.append(Dependency(Premise((premise_atom,)), (tuple(conclusion),)))
    return SchemaMapping(
        source, target, tuple(dependencies), name=f"RandomLAV(seed={seed})"
    )


def random_full_mapping(
    seed: int,
    *,
    n_source: int = 3,
    n_target: int = 3,
    max_arity: int = 2,
    n_tgds: int = 4,
    max_premise_atoms: int = 2,
    max_conclusion_atoms: int = 2,
) -> SchemaMapping:
    """A random full mapping (no existential quantifiers).

    Every conclusion variable is drawn from the premise variables, so
    the tgds are full; premises may join several source atoms.
    """
    rng = random.Random(seed)
    source = _schema("A", n_source, max_arity, rng)
    target = _schema("B", n_target, max_arity, rng)
    dependencies: List[Dependency] = []
    source_names = list(source.names())
    for index in range(n_tgds):
        n_premise = rng.randint(1, max_premise_atoms)
        var_counter = 0
        pool: List[Variable] = []
        premise_atoms: List[Atom] = []
        for atom_index in range(n_premise):
            relation = (
                source_names[index % len(source_names)]
                if atom_index == 0
                else rng.choice(source_names)
            )
            arity = source.arity(relation)
            args = []
            for _ in range(arity):
                if pool and rng.random() < 0.5:
                    args.append(rng.choice(pool))
                else:
                    var_counter += 1
                    fresh = Variable(f"x{var_counter}")
                    pool.append(fresh)
                    args.append(fresh)
            premise_atoms.append(Atom(relation, tuple(args)))
        conclusion: List[Atom] = []
        for _ in range(rng.randint(1, max_conclusion_atoms)):
            target_relation = rng.choice(list(target.names()))
            target_arity = target.arity(target_relation)
            conclusion.append(
                Atom(
                    target_relation,
                    tuple(rng.choice(pool) for _ in range(target_arity)),
                )
            )
        dependencies.append(
            Dependency(Premise(tuple(premise_atoms)), (tuple(conclusion),))
        )
    return SchemaMapping(
        source, target, tuple(dependencies), name=f"RandomFull(seed={seed})"
    )


def random_invertible_mapping(
    seed: int,
    *,
    n_source: int = 2,
    max_arity: int = 2,
    n_extra_tgds: int = 2,
    max_conclusion_atoms: int = 2,
) -> SchemaMapping:
    """A random mapping that is invertible *by construction*.

    Every source relation R gets a copy tgd R(x) -> R_copy(x) into a
    private target relation, which alone makes the mapping invertible
    (the copy-back mapping is an inverse); on top, random LAV "noise"
    tgds export further — possibly lossy — views into shared target
    relations.  Used by the property tests for the inverse laws
    (Theorem 5.1, Proposition 3.9).
    """
    rng = random.Random(seed)
    source = _schema("A", n_source, max_arity, rng)
    target_relations = {
        f"{name}_copy": arity for name, arity in source.relations
    }
    n_views = max(1, n_source)
    for index in range(n_views):
        target_relations[f"V{index + 1}"] = rng.randint(1, max_arity)
    target = Schema.of(target_relations)

    dependencies: List[Dependency] = []
    for name, arity in source.relations:
        variables = tuple(Variable(f"x{i + 1}") for i in range(arity))
        dependencies.append(
            Dependency(
                Premise((Atom(name, variables),)),
                ((Atom(f"{name}_copy", variables),),),
            )
        )
    source_names = list(source.names())
    view_names = [name for name in target.names() if name.startswith("V")]
    for _ in range(n_extra_tgds):
        relation = rng.choice(source_names)
        arity = source.arity(relation)
        premise_vars = [Variable(f"x{i + 1}") for i in range(arity)]
        conclusion = []
        existential_counter = 0
        for _ in range(rng.randint(1, max_conclusion_atoms)):
            view = rng.choice(view_names)
            args = []
            for _ in range(target.arity(view)):
                if rng.random() < 0.7:
                    args.append(rng.choice(premise_vars))
                else:
                    existential_counter += 1
                    args.append(Variable(f"y{existential_counter}"))
            conclusion.append(Atom(view, tuple(args)))
        dependencies.append(
            Dependency(
                Premise((Atom(relation, tuple(premise_vars)),)),
                (tuple(conclusion),),
            )
        )
    return SchemaMapping(
        source, target, tuple(dependencies), name=f"RandomInvertible(seed={seed})"
    )


def random_ground_instance(
    schema: Schema,
    seed: int,
    *,
    n_facts: int = 6,
    domain_size: int = 4,
    domain_prefix: str = "c",
) -> Instance:
    """A random ground instance over *schema* with the given fact budget."""
    rng = random.Random(seed)
    domain = [Constant(f"{domain_prefix}{i + 1}") for i in range(domain_size)]
    atoms = set()
    names = list(schema.names())
    attempts = 0
    while len(atoms) < n_facts and attempts < n_facts * 20:
        attempts += 1
        relation = rng.choice(names)
        arity = schema.arity(relation)
        atoms.add(
            Atom(relation, tuple(rng.choice(domain) for _ in range(arity)))
        )
    return Instance.of(atoms)
