"""Object vs compiled-kernel vs SQL backend equivalence (hypothesis).

The accelerated backends must be invisible: every search and every
verdict agrees with the object backend not just on the *set* of
results but on their *order* (the chase picks the first match, so
order divergence would change downstream instances).  These properties
drive all three backends over randomly drawn premises — including
``Constant(x)`` conjuncts and inequalities — targets with nulls, and
random LAV mappings (whose tgds include *existential* conclusions),
asserting byte-identical answers.

The SQL backend normally routes operands below ``_SQL_MIN_FACTS``
facts to the kernel; the module fixture pins the threshold to 0 so
these tiny hypothesis instances exercise the actual SQL plans.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chase.homomorphism import (
    all_homomorphisms,
    find_homomorphism,
    instance_homomorphism,
)
from repro.chase.standard import chase
from repro.core.mapping import (
    data_exchange_equivalent,
    solutions_contained,
    universal_solution,
)
from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Null, Variable
from repro.engine import (
    BACKEND_MODES,
    BACKEND_OBJECT,
    reset_all_caches,
    sqlbackend,
    use_backend,
)
from repro.workloads import random_ground_instance, random_lav_mapping

ACCELERATED = tuple(mode for mode in BACKEND_MODES if mode != BACKEND_OBJECT)


@pytest.fixture(scope="module", autouse=True)
def _force_sql_path():
    """Pin the SQL small-operand threshold to 0 for this module."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sqlbackend, "_SQL_MIN_FACTS", 0)
        reset_all_caches()
        yield
    reset_all_caches()

X, Y, Z = Variable("x"), Variable("y"), Variable("z")
VARIABLES = (X, Y, Z)

_TARGET_TERMS = (
    Constant("a"),
    Constant("b"),
    Constant("c"),
    Null("n0"),
    Null("n1"),
)

target_instances = st.builds(
    lambda pairs, singles: Instance.build({"P": pairs, "Q": singles}),
    st.lists(
        st.tuples(st.sampled_from(_TARGET_TERMS), st.sampled_from(_TARGET_TERMS)),
        max_size=5,
    ),
    st.lists(st.tuples(st.sampled_from(_TARGET_TERMS)), max_size=3),
)

_PREMISE_TERMS = VARIABLES + (Constant("a"), Constant("b"))

premise_atoms = st.lists(
    st.one_of(
        st.builds(
            lambda left, right: Atom("P", (left, right)),
            st.sampled_from(_PREMISE_TERMS),
            st.sampled_from(_PREMISE_TERMS),
        ),
        st.builds(
            lambda arg: Atom("Q", (arg,)), st.sampled_from(_PREMISE_TERMS)
        ),
    ),
    min_size=1,
    max_size=3,
)

SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _constraints(premise, constant_mask, inequality_mask):
    """Constraint sets drawn over the variables the premise mentions."""
    occurring = sorted(
        {arg for atom in premise for arg in atom.args if isinstance(arg, Variable)}
    )
    constant_vars = frozenset(
        variable
        for index, variable in enumerate(occurring)
        if constant_mask & (1 << index)
    )
    pairs = [
        (left, right)
        for i, left in enumerate(occurring)
        for right in occurring[i + 1 :]
    ]
    inequalities = frozenset(
        pair for index, pair in enumerate(pairs) if inequality_mask & (1 << index)
    )
    return constant_vars, inequalities


class TestHomomorphismSearchEquivalence:
    @SLOW
    @given(
        premise=premise_atoms,
        target=target_instances,
        constant_mask=st.integers(min_value=0, max_value=7),
        inequality_mask=st.integers(min_value=0, max_value=7),
    )
    def test_all_homomorphisms_identical_results_and_order(
        self, premise, target, constant_mask, inequality_mask
    ):
        constant_vars, inequalities = _constraints(
            premise, constant_mask, inequality_mask
        )
        with use_backend("object"):
            expected = list(
                all_homomorphisms(
                    premise,
                    target,
                    constant_vars=constant_vars,
                    inequalities=inequalities,
                )
            )
        for backend in ACCELERATED:
            with use_backend(backend):
                actual = list(
                    all_homomorphisms(
                        premise,
                        target,
                        constant_vars=constant_vars,
                        inequalities=inequalities,
                    )
                )
            assert actual == expected, backend

    @SLOW
    @given(
        premise=premise_atoms,
        target=target_instances,
        constant_mask=st.integers(min_value=0, max_value=7),
        inequality_mask=st.integers(min_value=0, max_value=7),
    )
    def test_find_homomorphism_identical_first_match(
        self, premise, target, constant_mask, inequality_mask
    ):
        constant_vars, inequalities = _constraints(
            premise, constant_mask, inequality_mask
        )
        with use_backend("object"):
            expected = find_homomorphism(
                premise,
                target,
                constant_vars=constant_vars,
                inequalities=inequalities,
            )
        for backend in ACCELERATED:
            with use_backend(backend):
                actual = find_homomorphism(
                    premise,
                    target,
                    constant_vars=constant_vars,
                    inequalities=inequalities,
                )
            assert actual == expected, backend

    @SLOW
    @given(source=target_instances, target=target_instances)
    def test_instance_homomorphism_identical(self, source, target):
        with use_backend("object"):
            expected = instance_homomorphism(source, target)
        for backend in ACCELERATED:
            with use_backend(backend):
                actual = instance_homomorphism(source, target)
            assert actual == expected, backend


lav_mappings = st.builds(
    random_lav_mapping,
    st.integers(min_value=0, max_value=10_000),
    n_source=st.integers(min_value=1, max_value=2),
    n_target=st.integers(min_value=1, max_value=2),
    max_arity=st.just(2),
    n_tgds=st.integers(min_value=1, max_value=2),
)


class TestVerdictEquivalence:
    @SLOW
    @given(mapping=lav_mappings, seed=st.integers(min_value=0, max_value=500))
    def test_universal_solution_byte_identical(self, mapping, seed):
        source = random_ground_instance(
            mapping.source, seed=seed, n_facts=3, domain_size=2
        )
        reset_all_caches()
        with use_backend("object"):
            expected = universal_solution(mapping, source)
        for backend in ACCELERATED:
            # fresh caches per backend: verdict/chase memos are not
            # backend-keyed, and a cache hit would mask a divergence
            reset_all_caches()
            with use_backend(backend):
                actual = universal_solution(mapping, source)
            assert actual.facts == expected.facts, backend

    @SLOW
    @given(
        mapping=lav_mappings,
        seed_one=st.integers(min_value=0, max_value=500),
        seed_two=st.integers(min_value=0, max_value=500),
    )
    def test_verdicts_identical(self, mapping, seed_one, seed_two):
        left = random_ground_instance(
            mapping.source, seed=seed_one, n_facts=2, domain_size=2
        )
        right = random_ground_instance(
            mapping.source, seed=seed_two, n_facts=2, domain_size=2
        )
        reset_all_caches()
        with use_backend("object"):
            contained = solutions_contained(mapping, left, right)
            equivalent = data_exchange_equivalent(mapping, left, right)
        for backend in ACCELERATED:
            reset_all_caches()
            with use_backend(backend):
                assert (
                    solutions_contained(mapping, left, right) == contained
                ), backend
                assert (
                    data_exchange_equivalent(mapping, left, right)
                    == equivalent
                ), backend

    @SLOW
    @given(mapping=lav_mappings, seed=st.integers(min_value=0, max_value=500))
    def test_chase_trace_byte_identical(self, mapping, seed):
        """Traced chases — existential tgds invent fresh nulls — agree
        on the final facts, the produced delta, and every step."""
        source = random_ground_instance(
            mapping.source, seed=seed, n_facts=3, domain_size=2
        )
        reset_all_caches()
        with use_backend("object"):
            expected = chase(source, mapping.dependencies)
        for backend in ACCELERATED:
            reset_all_caches()
            with use_backend(backend):
                actual = chase(source, mapping.dependencies)
            assert actual.instance.facts == expected.instance.facts, backend
            assert actual.produced.facts == expected.produced.facts, backend
            assert actual.steps == expected.steps, backend
