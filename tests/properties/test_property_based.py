"""Property-based tests (hypothesis) for the core laws of the paper.

Mappings and instances are drawn through the library's seeded
generators (hypothesis supplies the seeds and sizes), which keeps the
search space well-formed while still exploring a wide range of shapes.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chase.homomorphism import (
    instance_homomorphism,
    is_homomorphically_equivalent,
)
from repro.core.composition import CompositionBudgetError, composition_membership
from repro.core.mapping import (
    data_exchange_equivalent,
    is_solution,
    solutions_contained,
    universal_solution,
)
from repro.core.quasi_inverse import lav_quasi_inverse, quasi_inverse
from repro.datamodel.terms import Constant
from repro.dataexchange.recovery import analyze_round_trip
from repro.dependencies.parser import parse_dependency
from repro.dependencies.rendering import render_dependency
from repro.workloads import random_ground_instance, random_lav_mapping

lav_mappings = st.builds(
    random_lav_mapping,
    st.integers(min_value=0, max_value=10_000),
    n_source=st.integers(min_value=1, max_value=2),
    n_target=st.integers(min_value=1, max_value=2),
    max_arity=st.just(2),
    n_tgds=st.integers(min_value=1, max_value=3),
)

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SLOW
@given(mapping=lav_mappings, seed=st.integers(min_value=0, max_value=1000))
def test_chase_output_is_a_solution(mapping, seed):
    source = random_ground_instance(mapping.source, seed=seed, n_facts=3, domain_size=2)
    solution = universal_solution(mapping, source)
    assert is_solution(mapping, source, solution)


@SLOW
@given(
    mapping=lav_mappings,
    seed=st.integers(min_value=0, max_value=1000),
    value=st.sampled_from(["c1", "c2", "extra"]),
)
def test_chase_output_is_universal(mapping, seed, value):
    """Any homomorphic image of the chase extended with junk is a
    solution, and the chase maps homomorphically into it."""
    source = random_ground_instance(mapping.source, seed=seed, n_facts=3, domain_size=2)
    solution = universal_solution(mapping, source)
    grounded = solution.substitute(
        {null: Constant(value) for null in solution.nulls()}
    )
    assert is_solution(mapping, source, grounded)
    assert instance_homomorphism(solution, grounded) is not None


@SLOW
@given(
    mapping=lav_mappings,
    seed_small=st.integers(min_value=0, max_value=500),
    seed_extra=st.integers(min_value=501, max_value=1000),
)
def test_source_containment_reverses_solution_spaces(mapping, seed_small, seed_extra):
    small = random_ground_instance(mapping.source, seed=seed_small, n_facts=2, domain_size=2)
    extra = random_ground_instance(mapping.source, seed=seed_extra, n_facts=2, domain_size=2)
    big = small.union(extra)
    assert solutions_contained(mapping, big, small)


@SLOW
@given(mapping=lav_mappings, seed=st.integers(min_value=0, max_value=1000))
def test_solution_equivalence_is_an_equivalence(mapping, seed):
    left = random_ground_instance(mapping.source, seed=seed, n_facts=2, domain_size=2)
    right = random_ground_instance(
        mapping.source, seed=seed + 1, n_facts=2, domain_size=2
    )
    assert data_exchange_equivalent(mapping, left, left)
    assert data_exchange_equivalent(mapping, left, right) == data_exchange_equivalent(
        mapping, right, left
    )


@SLOW
@given(mapping=lav_mappings, seed=st.integers(min_value=0, max_value=1000))
def test_equivalent_sources_have_equivalent_chases(mapping, seed):
    left = random_ground_instance(mapping.source, seed=seed, n_facts=2, domain_size=2)
    right = random_ground_instance(
        mapping.source, seed=seed + 7, n_facts=2, domain_size=2
    )
    chases_equivalent = is_homomorphically_equivalent(
        universal_solution(mapping, left), universal_solution(mapping, right)
    )
    assert chases_equivalent == data_exchange_equivalent(mapping, left, right)


@SLOW
@given(mapping=lav_mappings, seed=st.integers(min_value=0, max_value=1000))
def test_quasi_inverse_of_lav_mapping_is_faithful(mapping, seed):
    """Proposition 3.11 + Theorem 6.8, as a law over random LAV mappings."""
    reverse = quasi_inverse(mapping)
    source = random_ground_instance(mapping.source, seed=seed, n_facts=3, domain_size=2)
    report = analyze_round_trip(mapping, reverse, source)
    assert report.sound
    assert report.faithful


@SLOW
@given(mapping=lav_mappings, seed=st.integers(min_value=0, max_value=1000))
def test_lav_construction_is_sound_and_faithful(mapping, seed):
    """The Theorem 4.7 disjunction-free construction, as a law."""
    reverse = lav_quasi_inverse(mapping)
    source = random_ground_instance(mapping.source, seed=seed, n_facts=3, domain_size=2)
    report = analyze_round_trip(mapping, reverse, source)
    assert report.sound
    assert report.faithful


@SLOW
@given(
    mapping=lav_mappings,
    seed=st.integers(min_value=0, max_value=500),
    seed_extra=st.integers(min_value=501, max_value=1000),
)
def test_composition_membership_monotone_in_right_argument(
    mapping, seed, seed_extra
):
    """Conclusions are positive, so growing I2 never breaks membership."""
    reverse = quasi_inverse(mapping)
    source = random_ground_instance(mapping.source, seed=seed, n_facts=2, domain_size=2)
    extra = random_ground_instance(
        mapping.source, seed=seed_extra, n_facts=2, domain_size=2
    )
    try:
        member = composition_membership(mapping, reverse, source, source, max_nulls=8)
    except CompositionBudgetError:
        return  # random mapping blew the null budget; the law is vacuous
    if member:
        assert composition_membership(
            mapping, reverse, source, source.union(extra), max_nulls=8
        )


@SLOW
@given(mapping=lav_mappings)
def test_rendering_round_trips_through_the_parser(mapping):
    for dependency in mapping.dependencies:
        for unicode in (True, False):
            rendered = render_dependency(dependency, unicode=unicode)
            assert parse_dependency(rendered) == dependency


@SLOW
@given(mapping=lav_mappings)
def test_quasi_inverse_rendering_round_trips(mapping):
    """The algorithm's richer outputs also survive render -> parse."""
    reverse = quasi_inverse(mapping)
    for dependency in reverse.dependencies:
        rendered = render_dependency(dependency, unicode=False)
        assert parse_dependency(rendered) == dependency
