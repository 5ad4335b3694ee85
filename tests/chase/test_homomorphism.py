"""Unit tests for the homomorphism engine."""

from repro.chase.homomorphism import (
    all_homomorphisms,
    core,
    find_homomorphism,
    instance_homomorphism,
    is_homomorphically_equivalent,
)
from repro.datamodel.atoms import atom
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Null, Variable

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


class TestPremiseMatching:
    def test_simple_match(self):
        target = Instance.build({"P": [("a", "b")]})
        found = find_homomorphism([atom("P", X, Y)], target)
        assert found == {X: Constant("a"), Y: Constant("b")}

    def test_join_across_atoms(self):
        target = Instance.build({"P": [("a", "b")], "Q": [("b", "c")]})
        found = find_homomorphism([atom("P", X, Y), atom("Q", Y, Z)], target)
        assert found[Y] == Constant("b")

    def test_join_failure(self):
        target = Instance.build({"P": [("a", "b")], "Q": [("c", "d")]})
        assert find_homomorphism([atom("P", X, Y), atom("Q", Y, Z)], target) is None

    def test_constants_in_atoms_must_match_exactly(self):
        target = Instance.build({"P": [("a", "b")]})
        assert find_homomorphism([atom("P", "a", Y)], target) is not None
        assert find_homomorphism([atom("P", "b", Y)], target) is None

    def test_repeated_variable_forces_equality(self):
        target = Instance.build({"P": [("a", "b")]})
        assert find_homomorphism([atom("P", X, X)], target) is None
        diagonal = Instance.build({"P": [("a", "a")]})
        assert find_homomorphism([atom("P", X, X)], diagonal) is not None

    def test_fixed_preassignment(self):
        target = Instance.build({"P": [("a", "b"), ("c", "d")]})
        found = find_homomorphism(
            [atom("P", X, Y)], target, fixed={X: Constant("c")}
        )
        assert found[Y] == Constant("d")

    def test_all_homomorphisms_enumerates_each_once(self):
        target = Instance.build({"P": [("a",), ("b",)]})
        found = list(all_homomorphisms([atom("P", X)], target))
        assert len(found) == 2
        assert len({tuple(sorted((k.name, str(v)) for k, v in h.items()))
                    for h in found}) == 2

    def test_empty_atom_list_yields_identity(self):
        assert find_homomorphism([], Instance.empty()) == {}

    def test_first_match_agrees_on_atom_reordering(self):
        # the greedy join order (most-bound, then smallest extent) is a
        # function of the atoms as a set, so the first match does not
        # depend on the order the premise lists them in
        target = Instance.build(
            {"P": [("a", "b"), ("b", "c")], "Q": [("b",), ("c",)]}
        )
        forward = find_homomorphism([atom("P", X, Y), atom("Q", Y)], target)
        backward = find_homomorphism([atom("Q", Y), atom("P", X, Y)], target)
        assert forward == backward == {X: Constant("a"), Y: Constant("b")}


class TestConstraints:
    def test_constant_constraint_rejects_nulls(self):
        target = Instance.of([atom("P", Null("n"))])
        assert (
            find_homomorphism([atom("P", X)], target, constant_vars=[X]) is None
        )
        constants = Instance.build({"P": [("a",)]})
        assert (
            find_homomorphism([atom("P", X)], constants, constant_vars=[X])
            is not None
        )

    def test_inequality_constraint(self):
        target = Instance.build({"P": [("a", "a"), ("a", "b")]})
        found = list(
            all_homomorphisms([atom("P", X, Y)], target, inequalities=[(X, Y)])
        )
        assert len(found) == 1
        assert found[0][Y] == Constant("b")

    def test_inequality_between_null_and_constant_holds(self):
        target = Instance.of([atom("P", Null("n"), Constant("a"))])
        assert (
            find_homomorphism([atom("P", X, Y)], target, inequalities=[(X, Y)])
            is not None
        )

    def test_contradictory_fixed_assignment_yields_nothing(self):
        target = Instance.build({"P": [("a", "a")]})
        found = find_homomorphism(
            [atom("P", X, Y)],
            target,
            fixed={X: Constant("a"), Y: Constant("a")},
            inequalities=[(X, Y)],
        )
        assert found is None


class TestInstanceHomomorphisms:
    def test_nulls_are_mappable_constants_rigid(self):
        source = Instance.of([atom("P", Null("n"), "a")])
        target = Instance.build({"P": [("b", "a")]})
        assert instance_homomorphism(source, target) is not None
        reversed_target = Instance.build({"P": [("a", "b")]})
        assert instance_homomorphism(source, reversed_target) is None

    def test_hom_existence_negative(self):
        source = Instance.build({"P": [("a", "a")]})
        target = Instance.build({"P": [("a", "b")]})
        assert instance_homomorphism(source, target) is None
        # a repeated null must map to one term: onto the diagonal fact
        # only
        flexible = Instance.build({"P": [(Null("n"), Null("n"))]})
        assert instance_homomorphism(flexible, source) == {Null("n"): Constant("a")}
        assert instance_homomorphism(flexible, target) is None

    def test_subset_implies_homomorphism(self):
        small = Instance.build({"P": [("a",)]})
        big = Instance.build({"P": [("a",), ("b",)]})
        assert instance_homomorphism(small, big) is not None
        assert instance_homomorphism(big, small) is None

    def test_equivalence_with_redundant_null_fact(self):
        ground = Instance.build({"P": [("a",)]})
        padded = ground.union([atom("P", Null("n"))])
        assert is_homomorphically_equivalent(ground, padded)

    def test_non_equivalence_on_distinct_constants(self):
        left = Instance.build({"P": [("a",)]})
        right = Instance.build({"P": [("b",)]})
        assert not is_homomorphically_equivalent(left, right)

    def test_equivalence_is_reflexive_and_symmetric(self):
        left = Instance.build({"P": [("a",)]})
        padded = left.union([atom("P", Null("n"))])
        assert is_homomorphically_equivalent(left, left)
        assert is_homomorphically_equivalent(padded, left)


class TestCore:
    def test_core_removes_dominated_null_facts(self):
        instance = Instance.of([atom("P", "a"), atom("P", Null("n"))])
        reduced = core(instance)
        assert reduced == Instance.build({"P": [("a",)]})

    def test_core_of_ground_instance_is_itself(self):
        instance = Instance.build({"P": [("a", "b")]})
        assert core(instance) == instance

    def test_core_is_equivalent_to_input(self):
        instance = Instance.of(
            [atom("E", Null("n1"), Null("n2")), atom("E", "a", "b")]
        )
        reduced = core(instance)
        assert is_homomorphically_equivalent(reduced, instance)
        assert len(reduced) <= len(instance)

    def test_core_keeps_linked_nulls(self):
        # E(a, n) with no ground fact to absorb it: the null stays.
        instance = Instance.of([atom("E", "a", Null("n"))])
        assert core(instance) == instance
