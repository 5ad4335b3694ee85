"""Premises and dependencies cache their hash: the cached value must be
the one the generated dataclass ``__hash__`` would return, or set and
dict iteration orders (and with them every search order) would change.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import named_mappings
from repro.datamodel.atoms import Atom, atoms_variables
from repro.datamodel.terms import Variable
from repro.dependencies.dependency import Dependency, Premise
from repro.dependencies.parser import parse_dependency
from repro.workloads import random_lav_mapping

ARITIES = {"P": 2, "Q": 2, "R": 1, "S": 3}
VARIABLES = [Variable(name) for name in ("x", "y", "z", "w", "u")]

atoms_strategy = st.lists(
    st.sampled_from(sorted(ARITIES)).flatmap(
        lambda relation: st.tuples(
            *[st.sampled_from(VARIABLES)] * ARITIES[relation]
        ).map(lambda args, relation=relation: Atom(relation, args))
    ),
    min_size=1,
    max_size=3,
)


@st.composite
def dependencies(draw):
    """A dependency with Constant() conjuncts, inequalities (both sets
    often of two or more members) and one or two disjuncts."""
    premise_atoms = draw(atoms_strategy)
    present = sorted(set(atoms_variables(premise_atoms)))
    constant_vars = draw(st.sets(st.sampled_from(present)))
    pairs = [(left, right) for left in present for right in present if left < right]
    inequalities = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    disjuncts = draw(st.lists(atoms_strategy, min_size=1, max_size=2))
    return Dependency(
        Premise(tuple(premise_atoms), frozenset(constant_vars), frozenset(inequalities)),
        tuple(tuple(disjunct) for disjunct in disjuncts),
    )


def _assert_generated_hashes(dependency):
    premise = dependency.premise
    assert hash(premise) == hash(
        (premise.atoms, premise.constant_vars, premise.inequalities)
    )
    assert hash(dependency) == hash((dependency.premise, dependency.disjuncts))


@settings(max_examples=200, deadline=None)
@given(dependency=dependencies())
def test_random_dependencies_hash_like_the_generated_hash(dependency):
    parsed = parse_dependency(str(dependency))
    for current in (dependency, parsed, dependency.canonical_form()):
        _assert_generated_hashes(current)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_lav_dependencies_hash_like_the_generated_hash(seed):
    for dependency in random_lav_mapping(seed).dependencies:
        _assert_generated_hashes(dependency)
        _assert_generated_hashes(parse_dependency(str(dependency)))


def test_catalog_dependencies_hash_like_the_generated_hash():
    for mapping in named_mappings().values():
        for dependency in getattr(mapping, "dependencies", ()):
            _assert_generated_hashes(dependency)
            _assert_generated_hashes(dependency.canonical_form())
