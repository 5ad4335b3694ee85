"""Object vs compiled-kernel vs SQL backend equivalence (hypothesis).

The accelerated backends must be invisible: every search and every
verdict agrees with the object backend not just on the *set* of
results but on their *order* (the chase picks the first match, so
order divergence would change downstream instances).  These properties
drive all three backends over randomly drawn premises — including
``Constant(x)`` conjuncts and inequalities — targets with nulls, and
random LAV mappings (whose tgds include *existential* conclusions),
and diff each answer, one item a line in order, against the object
oracle through the parity harness (``tests/parity.py``).

The SQL backend runs homomorphism search, premise matching and
containment on the kernel, and chases inputs of ``_SQL_MIN_FACTS``
facts or more inside SQLite; the harness pins that threshold to 0, so
these tiny hypothesis instances exercise the SQL chase, traced chases
included.
"""

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
from repro.engine import BACKEND_MODES, use_backend
from repro.workloads import random_ground_instance, random_lav_mapping

from tests.parity import Case, assert_parity, grid, lines, show

BACKENDS = grid(backend=BACKEND_MODES)


def _on_every_backend(name, compute, *, in_sqlite=True):
    """Diff ``compute()``, run on each backend, against the object oracle."""

    def run(variant):
        with use_backend(variant.backend):
            return compute()

    assert_parity(Case(name, run, BACKENDS, in_sqlite=in_sqlite))


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
        search = dict(constant_vars=constant_vars, inequalities=inequalities)
        _on_every_backend(
            "all_homomorphisms",
            lambda: lines(all_homomorphisms(premise, target, **search)),
            in_sqlite=False,
        )

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
        search = dict(constant_vars=constant_vars, inequalities=inequalities)
        _on_every_backend(
            "find_homomorphism",
            lambda: show(find_homomorphism(premise, target, **search)),
            in_sqlite=False,
        )

    @SLOW
    @given(source=target_instances, target=target_instances)
    def test_instance_homomorphism_identical(self, source, target):
        _on_every_backend(
            "instance_homomorphism",
            lambda: show(instance_homomorphism(source, target)),
            in_sqlite=False,
        )


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
        _on_every_backend(
            "universal_solution",
            lambda: lines(universal_solution(mapping, source).sorted_facts()),
        )

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
        _on_every_backend("verdicts", lambda: lines([
            solutions_contained(mapping, left, right),
            data_exchange_equivalent(mapping, left, right),
        ]))

    @SLOW
    @given(mapping=lav_mappings, seed=st.integers(min_value=0, max_value=500))
    def test_chase_trace_byte_identical(self, mapping, seed):
        """Traced chases — existential tgds invent fresh nulls — agree
        on the final facts, the produced delta, and every step."""
        source = random_ground_instance(
            mapping.source, seed=seed, n_facts=3, domain_size=2
        )

        def traced():
            result = chase(source, mapping.dependencies)
            steps = [(step.dependency, step.homomorphism, step.added) for step in result.steps]
            return lines([result.instance.sorted_facts(), result.produced.sorted_facts(), *steps])

        _on_every_backend("traced chase", traced)
