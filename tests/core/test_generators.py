"""Unit tests for minimal generators (Definitions 4.2/4.3, Lemma 4.4)."""

import pytest

from repro.catalog import (
    all_catalog_mappings,
    decomposition,
    example_4_5,
    projection,
    union_mapping,
)
from repro.core import generators
from repro.core.generators import (
    Generator,
    MinGenBudgetError,
    MinGenConfig,
    _canonical_key,
    embeds_into,
    is_generator,
    lemma_4_4_bound,
    minimal_generators,
    minimal_generators_exhaustive,
)
from repro.core.mapping import SchemaMapping
from repro.datamodel.atoms import atom
from repro.datamodel.schemas import Schema
from repro.datamodel.terms import Null, Variable
from repro.dependencies.parser import parse_dependency
from repro.engine.budget import Budget, use_budget
from repro.errors import BudgetExceeded
from repro.workloads import random_full_mapping, random_lav_mapping
from tests.core import generators_oracle as reference

X1, X2 = Variable("x1"), Variable("x2")


def keys(generators, frontier):
    return {_canonical_key(g.atoms, frontier) for g in generators}


class TestIsGenerator:
    def test_premise_is_always_a_generator_of_its_conclusion(self):
        mapping = decomposition()
        sigma = mapping.dependencies[0]
        assert is_generator(
            mapping, sigma.premise.atoms, sigma.disjuncts[0], sigma.frontier()
        )

    def test_non_generator_rejected(self):
        mapping = example_4_5()
        goal = parse_dependency("U(x1) -> S(x1, x1, y) & Q(y, y)")
        premise = parse_dependency("T(x1, x1) -> S(x1, x1, y)").premise.atoms
        # T(x1,x1) alone produces S(x1,x1,x1) but no Q fact.
        assert not is_generator(mapping, premise, goal.disjuncts[0], (X1,))

    def test_generator_with_frontier_fixed(self):
        mapping = projection()
        goal = parse_dependency("P(x, u) -> Q(x)")
        assert is_generator(
            mapping, goal.premise.atoms, goal.disjuncts[0], goal.frontier()
        )

    def test_join_premises_matched_alike_fire_apart(self):
        # Both premises bind (x, y, z) to (x1, z1, x2): each tgd's
        # firing of that match is its own.
        mapping = SchemaMapping.from_text(
            Schema.of({"R": 2, "S": 2, "T": 2}),
            Schema.of({"A": 2, "B": 2}),
            "R(x, y) & S(y, z) -> A(x, z); R(x, y) & T(y, z) -> B(x, z)",
        )
        z1 = Variable("z1")
        candidate = (atom("R", X1, z1), atom("S", z1, X2), atom("T", z1, X2))
        goal = (atom("A", X1, X2), atom("B", X1, X2))
        assert is_generator(mapping, candidate, goal, (X1, X2))


class TestSharedRelationNames:
    """Source and target may name a relation alike (materializing
    ``compose(Decomposition, Decomposition')`` gives ``{P/3} -> {P/3}``).
    The goal is a target formula: a candidate's own source atoms are no
    image of it, only the facts its firings produce are."""

    FLIP = SchemaMapping.from_text(
        Schema.of({"P": 2}), Schema.of({"P": 2}), "P(x, y) -> P(y, x)"
    )
    GOAL = (atom("P", X1, X2),)

    def test_a_candidate_is_no_image_of_the_goal(self):
        assert not is_generator(self.FLIP, self.GOAL, self.GOAL, (X1, X2))
        assert is_generator(self.FLIP, (atom("P", X2, X1),), self.GOAL, (X1, X2))

    def test_both_methods_find_only_the_flipped_atom(self):
        expected = (Generator((atom("P", X2, X1),), (X1, X2)),)
        fast = minimal_generators(self.FLIP, self.GOAL, (X1, X2))
        slow = minimal_generators_exhaustive(self.FLIP, self.GOAL, (X1, X2))
        assert fast == expected
        assert slow == expected


class TestLemmaBound:
    def test_bound_is_s1_times_s2(self):
        mapping = example_4_5()  # premises all single-atom: s1 = 1
        goal = parse_dependency("U(u) -> S(x1, x1, y) & Q(y, y)").disjuncts[0]
        assert lemma_4_4_bound(mapping, goal) == 2

    def test_bound_with_multi_atom_premise(self):
        from repro.catalog import prop_3_12

        goal = parse_dependency("E(u, v) -> F(x, y) & M(z)").disjuncts[0]
        assert lemma_4_4_bound(prop_3_12(), goal) == 4  # s1=2, s2=2


class TestPaperExamples:
    def test_union_generators_are_both_sources(self):
        mapping = union_mapping()
        sigma = mapping.dependencies[0]
        generators = minimal_generators(mapping, sigma.disjuncts[0], sigma.frontier())
        relations = sorted(g.atoms[0].relation for g in generators)
        assert relations == ["P", "Q"]

    def test_example_4_5_sigma2_has_paper_generators(self):
        mapping = example_4_5()
        sigma2 = parse_dependency("P(x1, x1, x3) -> S(x1, x1, y) & Q(y, y)")
        generators = minimal_generators(mapping, sigma2.disjuncts[0], (X1,))
        shapes = sorted(
            tuple(sorted(a.relation for a in g.atoms)) for g in generators
        )
        assert ("U",) in shapes
        assert ("P",) in shapes
        assert ("R", "T") in shapes

    def test_generators_cover_the_frontier(self):
        mapping = example_4_5()
        sigma1 = mapping.dependencies[0]
        for generator in minimal_generators(
            mapping, sigma1.disjuncts[0], sigma1.frontier()
        ):
            variables = {v for a in generator.atoms for v in a.variables()}
            assert set(sigma1.frontier()) <= variables


class TestMinimality:
    def test_no_generator_embeds_into_another(self):
        mapping = example_4_5()
        sigma2 = parse_dependency("P(x1, x1, x3) -> S(x1, x1, y) & Q(y, y)")
        generators = minimal_generators(mapping, sigma2.disjuncts[0], (X1,))
        for left in generators:
            for right in generators:
                if left is right:
                    continue
                assert not embeds_into(left, right.atom_set(), (X1,))

    def test_every_output_is_a_generator(self):
        mapping = example_4_5()
        sigma2 = parse_dependency("P(x1, x1, x3) -> S(x1, x1, y) & Q(y, y)")
        goal = sigma2.disjuncts[0]
        for generator in minimal_generators(mapping, goal, (X1,)):
            assert is_generator(mapping, generator.atoms, goal, (X1,))


class TestEmbedsInto:
    def test_subset_up_to_renaming(self):
        small = Generator(
            parse_dependency("R(x1, z1) -> Q(x1)").premise.atoms, (X1,)
        )
        large = parse_dependency("R(x1, w) & T(w) -> Q(x1)").premise.atoms
        assert embeds_into(small, frozenset(large), (X1,))

    def test_z_must_not_collapse_onto_frontier(self):
        small = Generator(
            parse_dependency("R(x1, z1) -> Q(x1)").premise.atoms, (X1,)
        )
        diagonal = parse_dependency("R(x1, x1) -> Q(x1)").premise.atoms
        assert not embeds_into(small, frozenset(diagonal), (X1,))

    def test_z_renaming_must_be_injective(self):
        small = Generator(
            parse_dependency("R(z1, z2) -> Q(x1)").premise.atoms +
            parse_dependency("Q2(x1) -> Q(x1)").premise.atoms,
            (X1,),
        )
        merged = (
            parse_dependency("R(z1, z1) -> Q(x1)").premise.atoms
            + parse_dependency("Q2(x1) -> Q(x1)").premise.atoms
        )
        assert not embeds_into(small, frozenset(merged), (X1,))

    def test_relation_count_violation_skips_the_search(self, monkeypatch):
        class NoInstances:
            @staticmethod
            def of(atoms):
                raise AssertionError("built an instance")

        def no_search(*args, **kwargs):
            raise AssertionError("searched")

        monkeypatch.setattr(generators, "Instance", NoInstances)
        monkeypatch.setattr(generators, "all_homomorphisms", no_search)
        small = Generator(
            parse_dependency("R(x1, z1) & R(z1, z2) -> Q(x1)").premise.atoms,
            (X1,),
        )
        large = parse_dependency("R(x1, w) & T(w) -> Q(x1)").premise.atoms
        assert not embeds_into(small, frozenset(large), (X1,))

    def test_a_null_may_collapse_atoms(self):
        # The null is mappable but no z, so R(x1, n) and R(x1, z1) may
        # land on one atom: the count test must not reject this.
        small = Generator(
            (atom("R", X1, Null("n")), atom("R", X1, Variable("z1"))), (X1,)
        )
        large = frozenset({atom("R", X1, Variable("w"))})
        assert embeds_into(small, large, (X1,))

    def test_a_frontier_variable_outside_the_call_frontier_may_collapse_atoms(self):
        # x2 is no z of small and is not fixed by the call: it moves
        # freely, so R(x1, x2) and R(x1, z1) may land on one atom.
        small = Generator(
            (atom("R", X1, X2), atom("R", X1, Variable("z1"))), (X1, X2)
        )
        large = frozenset({atom("R", X1, Variable("w"))})
        assert embeds_into(small, large, (X1,))


class TestMethodsAgree:
    @pytest.mark.parametrize("factory", [projection, union_mapping, decomposition])
    def test_proofs_match_exhaustive_on_catalog(self, factory):
        mapping = factory()
        for sigma in mapping.dependencies:
            goal = sigma.disjuncts[0]
            frontier = sigma.frontier()
            fast = minimal_generators(mapping, goal, frontier)
            slow = minimal_generators_exhaustive(mapping, goal, frontier)
            assert keys(fast, frontier) == keys(slow, frontier)


class TestBudgets:
    def test_budget_error_on_tiny_budget(self):
        mapping = example_4_5()
        sigma = mapping.dependencies[1]
        config = MinGenConfig(max_candidates=1)
        with pytest.raises(MinGenBudgetError):
            minimal_generators(
                mapping, sigma.disjuncts[0], sigma.frontier(), config
            )

    def test_specialization_cap_keeps_general_form(self):
        mapping = decomposition()
        sigma = mapping.dependencies[0]
        config = MinGenConfig(max_specialization_vars=0)
        generators = minimal_generators(
            mapping, sigma.disjuncts[0], sigma.frontier(), config
        )
        assert generators  # the most general proofs survive

    def test_a_chase_step_cap_stops_the_exhaustive_search(self):
        mapping = example_4_5()
        sigma = mapping.dependencies[0]
        with use_budget(Budget(max_chase_steps=1)):
            with pytest.raises(BudgetExceeded) as excinfo:
                minimal_generators_exhaustive(
                    mapping, sigma.disjuncts[0], sigma.frontier()
                )
        assert excinfo.value.kind == "chase_steps"


# The exhaustive search against the chase-based reference it replaced
# (tests/core/generators_oracle.py).  Left out for time: Prop 3.12's
# dependency (about 24 s on the reference) and Decomposition's (about
# 1.6 s), both in benchmarks/bench_e05_quasiinverse_algorithm.py, and
# Example 4.5's three-atom U goal (minutes).  Example 4.5's sigma_1 is
# compared in TestMatchesTheReference.test_sigma_1_at_the_candidate_cap.
_ELSEWHERE = {
    ("Prop3.12", 0),
    ("Decomposition", 0),
    ("Example4.5", 0),
    ("Example4.5", 1),
}
CATALOG_GOALS = [
    pytest.param(mapping, sigma, id=f"{mapping.name}-{index}")
    for mapping in all_catalog_mappings()
    for index, sigma in enumerate(mapping.dependencies)
    if (mapping.name, index) not in _ELSEWHERE
]
SIGMA_2 = parse_dependency("P(x1, x1, x3) -> S(x1, x1, y) & Q(y, y)")
#: Candidates the search over Example 4.5's sigma_1 counts against
#: ``max_candidates``: the smallest cap at which it completes.
SIGMA_1_CANDIDATES = 9_246
#: Seeded random full mappings, whose premises join up to two atoms,
#: and LAV mappings, whose conclusions hold existentials.
RANDOM_MAPPINGS = [
    pytest.param(random_full_mapping(seed, n_tgds=3), id=f"full-{seed}")
    for seed in range(6)
] + [
    pytest.param(
        random_lav_mapping(seed, n_source=2, n_target=2, n_tgds=3), id=f"lav-{seed}"
    )
    for seed in range(6)
]
#: Completes 23 of the 36 random goals; the other 13 must exceed it on
#: both sides.
RANDOM_CAP = MinGenConfig(method="exhaustive", max_candidates=300)


class TestMatchesTheReference:
    @pytest.mark.parametrize("mapping, sigma", CATALOG_GOALS)
    def test_catalog_dependency(self, mapping, sigma):
        goal, frontier = sigma.disjuncts[0], sigma.frontier()
        assert minimal_generators_exhaustive(
            mapping, goal, frontier
        ) == reference.minimal_generators_exhaustive(mapping, goal, frontier)

    def test_example_4_5_sigma_2(self):
        mapping = example_4_5()
        goal, frontier = SIGMA_2.disjuncts[0], SIGMA_2.frontier()
        assert minimal_generators_exhaustive(
            mapping, goal, frontier
        ) == reference.minimal_generators_exhaustive(mapping, goal, frontier)

    def test_sigma_1_at_the_candidate_cap(self):
        mapping = example_4_5()
        sigma = mapping.dependencies[0]
        goal, frontier = sigma.disjuncts[0], sigma.frontier()
        enough = MinGenConfig(method="exhaustive", max_candidates=SIGMA_1_CANDIDATES)
        assert minimal_generators_exhaustive(
            mapping, goal, frontier, enough
        ) == reference.minimal_generators_exhaustive(mapping, goal, frontier, enough)
        short = MinGenConfig(
            method="exhaustive", max_candidates=SIGMA_1_CANDIDATES - 1
        )
        for search in (
            minimal_generators_exhaustive,
            reference.minimal_generators_exhaustive,
        ):
            with pytest.raises(MinGenBudgetError):
                search(mapping, goal, frontier, short)

    @pytest.mark.parametrize("mapping", RANDOM_MAPPINGS)
    def test_random_mapping(self, mapping):
        for sigma in mapping.dependencies:
            goal, frontier = sigma.disjuncts[0], sigma.frontier()
            outcomes = []
            for search in (
                minimal_generators_exhaustive,
                reference.minimal_generators_exhaustive,
            ):
                try:
                    outcomes.append(search(mapping, goal, frontier, RANDOM_CAP))
                except MinGenBudgetError:
                    outcomes.append(MinGenBudgetError)
            assert outcomes[0] == outcomes[1]

    def test_canonical_keys(self):
        """Every pair of candidate atoms over a ternary and a binary
        relation, and one conjunction with more z's than the prebuilt
        renamed variables, key as they did."""
        frontier = (X1, X2)
        candidates = [
            current
            for current, _ in generators._candidate_atoms(
                (("R", 3), ("T", 2)), frontier, 1, 3, "z"
            )
        ]
        conjunctions = [(left, right) for left in candidates for right in candidates]
        conjunctions.append(
            tuple(atom("T", Variable(f"z{index}"), X1) for index in range(70))
        )
        for conjunction in conjunctions:
            assert _canonical_key(conjunction, frontier) == reference._canonical_key(
                conjunction, frontier
            )
