"""Unit tests for the symmetry engine: canonical forms, orbit
enumeration, sweep planning, and the soundness fallbacks."""

from itertools import permutations

import pytest

from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.schemas import Schema
from repro.datamodel.terms import Constant, Null
from repro.core.mapping import SchemaMapping
from repro.engine import reset_all_caches
from repro.engine.symmetry import (
    SYMMETRY_FULL,
    SYMMETRY_ORBITS,
    count_orbits,
    decanonicalize,
    ground_canonical_form,
    ground_pair_key,
    mapping_permutation_invariant,
    orbit_count_estimate,
    orbit_reduce,
    orbit_transport,
    plan_sweep,
    resolve_symmetry,
)
from repro.errors import UniverseTooLarge
from repro.workloads.universes import (
    all_possible_facts,
    instance_universe,
    power_instances,
)


def _instance(*facts):
    return Instance.of(
        Atom(relation, tuple(Constant(value) for value in args))
        for relation, *args in facts
    )


SCHEMA = Schema.of({"R": 2})
DOMAIN = [Constant(f"c{index}") for index in range(3)]


class TestCanonicalForm:
    def test_permuted_instances_share_canonical_key(self):
        original = _instance(("R", "a", "b"), ("R", "b", "c"))
        renamed = original.substitute(
            {Constant("a"): Constant("z"), Constant("b"): Constant("a"),
             Constant("c"): Constant("q")}
        )
        assert ground_canonical_form(original).key() == (
            ground_canonical_form(renamed).key()
        )

    def test_distinct_structures_get_distinct_keys(self):
        path = _instance(("R", "a", "b"), ("R", "b", "c"))
        fork = _instance(("R", "a", "b"), ("R", "a", "c"))
        assert ground_canonical_form(path).key() != (
            ground_canonical_form(fork).key()
        )

    def test_forward_round_trips_through_decanonicalize(self):
        instance = _instance(("R", "x", "y"), ("R", "y", "x"))
        form = ground_canonical_form(instance)
        assert decanonicalize(form.canonical, form.forward) == instance

    def test_automorphism_count_on_symmetric_instance(self):
        # R(a,b) ∧ R(b,a): swapping a and b is the one non-trivial
        # automorphism, so |Aut| = 2 and the orbit under S_3 has
        # 3!/2 = 3 members.
        swap = _instance(("R", "a", "b"), ("R", "b", "a"))
        form = ground_canonical_form(swap)
        assert form.automorphisms == 2
        assert form.orbit_size(3) == 3

    def test_rejects_non_ground_instances(self):
        reset_all_caches()
        with_null = Instance.of([Atom("R", (Constant("a"), Null(0)))])
        with pytest.raises(ValueError):
            ground_canonical_form(with_null)


class TestPairKey:
    def test_simultaneous_renaming_preserved(self):
        # (R(a,b), R(b,a)) and (R(x,y), R(y,x)) are related by one
        # simultaneous renaming; (R(a,b), R(a,b)) is not in that orbit
        # even though each component is singly isomorphic to R(a,b).
        pair_one = ground_pair_key(
            _instance(("R", "a", "b")), _instance(("R", "b", "a"))
        )
        pair_two = ground_pair_key(
            _instance(("R", "x", "y")), _instance(("R", "y", "x"))
        )
        pair_aligned = ground_pair_key(
            _instance(("R", "a", "b")), _instance(("R", "a", "b"))
        )
        assert pair_one == pair_two
        assert pair_one != pair_aligned


class TestOrbitEnumeration:
    def test_representatives_are_first_orbit_members_in_order(self):
        # orbit_reduce's rule: each class's representative is the first
        # universe member of its orbit, and classes come in the order
        # their orbits first occur in the universe (orbits computed
        # here by brute force over every permutation of the domain)
        universe = instance_universe(SCHEMA, DOMAIN, max_facts=2)
        expected, seen = [], set()
        for instance in universe:
            if instance.facts in seen:
                continue
            expected.append(instance)
            seen.update(
                instance.substitute(dict(zip(DOMAIN, image))).facts
                for image in permutations(DOMAIN)
            )
        classes = orbit_reduce(universe)
        assert [cls.representative for cls in classes] == expected

    def test_count_orbits_matches_enumeration(self):
        facts = all_possible_facts(SCHEMA, DOMAIN)
        exact = count_orbits(facts, DOMAIN, max_facts=2)
        universe = instance_universe(SCHEMA, DOMAIN, max_facts=2)
        assert exact == len(orbit_reduce(universe))

    def test_orbit_count_estimate_falls_back_to_lower_bound(self):
        big_domain = [Constant(f"c{index}") for index in range(9)]
        facts = all_possible_facts(SCHEMA, big_domain)
        count, exact = orbit_count_estimate(facts, big_domain, max_facts=1)
        assert not exact
        assert count >= 1

    def test_orbit_transport_carries_members_onto_each_other(self):
        source = _instance(("R", "a", "b"))
        target = _instance(("R", "b", "c"))
        renaming = orbit_transport(source, target)
        assert renaming is not None
        assert source.substitute(renaming) == target
        assert orbit_transport(source, _instance(("R", "a", "a"))) is None


class TestOrbitReduce:
    def test_weights_sum_and_cover_the_universe(self):
        universe = instance_universe(SCHEMA, DOMAIN, max_facts=2)
        classes = orbit_reduce(universe)
        assert classes is not None
        assert sum(cls.weight for cls in classes) == len(universe)
        keys = {
            ground_canonical_form(cls.representative).key() for cls in classes
        }
        assert len(keys) == len(classes)

    def test_non_closed_universe_is_rejected(self):
        universe = instance_universe(SCHEMA, DOMAIN, max_facts=1)
        # Drop one single-fact instance: the universe is no longer
        # closed under permutations of {c0, c1, c2}.
        assert orbit_reduce(list(universe)[:-1]) is None

    def test_non_ground_universe_is_rejected(self):
        with_null = Instance.of([Atom("R", (Constant("a"), Null(0)))])
        assert orbit_reduce([with_null]) is None


class TestPlanSweep:
    def _universe(self):
        return instance_universe(SCHEMA, DOMAIN, max_facts=1)

    def test_full_mode_plans_full_sweep(self):
        plan = plan_sweep("full", self._universe())
        assert plan.mode == SYMMETRY_FULL
        assert not plan.reduced
        assert not plan.ground_keys
        assert plan.weight_of(0) == 1

    def test_orbit_mode_reduces_closed_universe(self):
        universe = self._universe()
        plan = plan_sweep("orbits", universe)
        assert plan.mode == SYMMETRY_ORBITS
        assert plan.reduced and plan.ground_keys
        assert sum(plan.weights) == len(universe)
        assert plan.covered_upto(len(plan.outer)) == len(universe)

    def test_literal_constant_mapping_vetoes_reduction(self):
        constant_mapping = SchemaMapping.from_text(
            Schema.of({"R": 2}),
            Schema.of({"S": 2}),
            "R(x, y) -> S(x, 1)",
            name="Pinned",
        )
        assert not mapping_permutation_invariant(constant_mapping)
        plan = plan_sweep("orbits", self._universe(), mappings=(constant_mapping,))
        assert plan.mode == SYMMETRY_FULL
        assert not plan.reduced and not plan.ground_keys

    def test_non_closed_universe_falls_back_but_keeps_ground_keys(self):
        universe = list(self._universe())[:-1]
        plan = plan_sweep("orbits", universe)
        assert plan.mode == SYMMETRY_FULL
        assert not plan.reduced
        assert plan.ground_keys  # cache keys stay sound per-instance

    def test_extra_invariant_veto(self):
        plan = plan_sweep("orbits", self._universe(), extra_invariant=False)
        assert plan.mode == SYMMETRY_FULL and not plan.ground_keys

    def test_resolve_rejects_unknown_modes(self):
        with pytest.raises(ValueError):
            resolve_symmetry("sideways")


class TestUniverseTooLargeHint:
    def test_error_reports_orbit_reduced_estimate(self):
        with pytest.raises(UniverseTooLarge) as excinfo:
            list(power_instances(SCHEMA, DOMAIN, max_facts=3, cap=10))
        message = str(excinfo.value)
        assert "representatives" in message
        facts = all_possible_facts(SCHEMA, DOMAIN)
        exact = count_orbits(facts, DOMAIN, max_facts=3)
        assert str(exact) in message
