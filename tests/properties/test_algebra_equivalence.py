"""Rewrite rules and evaluation plans are invisible (hypothesis).

The algebra planner promises that ``normalize`` and the strategy
choice (materialize vs staged vs membership) never change what a
sweep reports.  These properties draw random expressions over the
fan-in/chain scenario family — with rename, restrict, and union
wrappers thrown in — plus random source instances, and assert that

* the chase of the normalized expression agrees with the chase of
  the original, fact-for-fact;
* staged pipelines compute the same universal solutions as the
  materialized composition;
* ``expression_membership`` agrees with a materialized
  ``is_solution`` model check.

Plan × backend × worker identity is the parity harness's
(``tests/test_parity.py``).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.evaluate import (
    expression_membership,
    materialize,
    staged_mapping,
)
from repro.algebra.expr import (
    Compose,
    MappingAtom,
    Rename,
    Restrict,
    UnionOf,
    parse_expression,
)
from repro.algebra.rewrite import normalize
from repro.algebra.scenarios import (
    chain_join_mapping,
    chain_join_with_dead_branch,
    fan_in_mapping,
)
from repro.core.mapping import is_solution, universal_solution
from repro.workloads import random_ground_instance

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

WIDTH = 2  # keep the MinGen leg cheap; blow-up behaviour is benched, not fuzzed


def _base_expression(tail_kind: str) -> Compose:
    tail = (
        chain_join_with_dead_branch(WIDTH)
        if tail_kind == "dead"
        else chain_join_mapping(WIDTH)
    )
    return Compose(
        first=MappingAtom(mapping=fan_in_mapping(WIDTH)),
        second=MappingAtom(mapping=tail),
    )


def _wrap(expr, wrapper: str):
    if wrapper == "rename":
        return Rename(child=expr, renaming=(("W", "Result"),))
    if wrapper == "restrict":
        return Restrict(child=expr, relations=("W",))
    if wrapper == "union":
        return UnionOf(left=expr, right=expr)
    return expr


expressions = st.builds(
    lambda tail, wrapper: _wrap(_base_expression(tail), wrapper),
    st.sampled_from(["chain", "dead"]),
    st.sampled_from(["none", "rename", "restrict", "union"]),
)


class TestNormalizePreservesChase:
    @SLOW
    @given(expr=expressions, seed=st.integers(min_value=0, max_value=10_000))
    def test_normalized_chase_is_identical(self, expr, seed):
        normalized, _ = normalize(expr)
        source = random_ground_instance(
            expr.source, seed, n_facts=4, domain_size=3
        )
        assert (
            universal_solution(materialize(expr), source).facts
            == universal_solution(materialize(normalized), source).facts
        )

    @SLOW
    @given(expr=expressions, seed=st.integers(min_value=0, max_value=10_000))
    def test_staged_chase_matches_materialized(self, expr, seed):
        normalized, _ = normalize(expr)
        staged = staged_mapping(normalized)
        if staged is None:
            return
        source = random_ground_instance(
            expr.source, seed, n_facts=4, domain_size=3
        )
        assert (
            universal_solution(staged, source).facts
            == universal_solution(materialize(normalized), source).facts
        )


class TestMembershipMatchesModelCheck:
    @SLOW
    @given(
        left_seed=st.integers(min_value=0, max_value=500),
        right_seed=st.integers(min_value=0, max_value=500),
    )
    def test_membership_agrees_on_random_pairs(self, left_seed, right_seed):
        expr = parse_expression("compose(Decomposition, Decomposition')")
        concrete = materialize(expr)
        left = random_ground_instance(
            expr.source, left_seed, n_facts=2, domain_size=2
        )
        right = random_ground_instance(
            expr.target, right_seed, n_facts=2, domain_size=2
        )
        assert expression_membership(expr, left, right) == is_solution(
            concrete, left, right
        )
