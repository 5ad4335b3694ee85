"""Unit tests for logical implication between dependencies."""

from repro.core.implication import logically_equivalent, logically_implies
from repro.dependencies.parser import parse_dependencies, parse_dependency


def implies(antecedent_text, consequent_text):
    return logically_implies(
        parse_dependencies(antecedent_text), parse_dependency(consequent_text)
    )


class TestPlainTgds:
    def test_self_implication(self):
        assert implies("P(x, y) -> Q(x)", "P(x, y) -> Q(x)")

    def test_weakening_the_conclusion(self):
        assert implies("P(x) -> Q(x, x)", "P(x) -> Q(x, y)")
        assert not implies("P(x) -> Q(x, y)", "P(x) -> Q(x, x)")

    def test_strengthening_the_premise(self):
        assert implies("P(x, y) -> Q(x)", "P(x, x) -> Q(x)")
        assert not implies("P(x, x) -> Q(x)", "P(x, y) -> Q(x)")

    def test_transitive_combination(self):
        assert implies("P(x) -> R(x)\nR(x) -> Q(x)", "P(x) -> Q(x)")
        assert not implies("P(x) -> R(x)\nR(x) -> Q(x)", "Q(x) -> P(x)")


class TestConstraints:
    def test_constant_guard_weakens_a_dependency(self):
        # With the guard, the premise matches fewer instances.
        assert implies("Q(x) -> P(x)", "Q(x) & Constant(x) -> P(x)")
        assert not implies("Q(x) & Constant(x) -> P(x)", "Q(x) -> P(x)")

    def test_inequality_guard_weakens_a_dependency(self):
        assert implies("Q(x, y) -> P(x, y)", "Q(x, y) & x != y -> P(x, y)")
        assert not implies("Q(x, y) & x != y -> P(x, y)", "Q(x, y) -> P(x, y)")

    def test_quotient_instantiations_are_checked(self):
        # The diagonal instantiation x = y falsifies this implication.
        assert not implies(
            "Q(x, y) & x != y -> P(x, y)", "Q(x, y) -> P(x, y)"
        )
        # But a diagonal-only consequent follows from a diagonal rule.
        assert implies("Q(x, x) -> P(x, x)", "Q(x, x) -> P(x, x)")


class TestDisjunctions:
    def test_disjunct_weakening(self):
        assert implies("S(x) -> P(x)", "S(x) -> P(x) | Q(x)")
        assert not implies("S(x) -> P(x) | Q(x)", "S(x) -> P(x)")

    def test_disjunctive_antecedent_needs_all_branches(self):
        # S -> P ∨ Q does not imply S -> P, but implies S -> Q ∨ P.
        assert implies("S(x) -> P(x) | Q(x)", "S(x) -> Q(x) | P(x)")


class TestMinimization:
    def _minimize(self, text):
        from repro.core.implication import minimize_dependency_set

        return minimize_dependency_set(parse_dependencies(text))

    def test_weaker_member_dropped(self):
        kept = self._minimize("Q(x) -> P(x, x)\nQ(x) -> P(x, y)")
        assert kept == parse_dependencies("Q(x) -> P(x, x)")

    def test_independent_members_kept(self):
        kept = self._minimize("Q(x) -> P(x)\nR(x) -> P(x)")
        assert len(kept) == 2

    def test_transitively_redundant_member_dropped(self):
        kept = self._minimize(
            "P(x) -> R(x)\nR(x) -> Q(x)\nP(x) -> Q(x)"
        )
        assert len(kept) == 2
        assert parse_dependencies("P(x) -> Q(x)")[0] not in kept

    def test_result_is_equivalent_to_input(self):
        original = parse_dependencies(
            "Q(x) -> P(x, x)\nQ(x) -> P(x, y)\nR(x) -> P(x, x)"
        )
        from repro.core.implication import minimize_dependency_set

        kept = minimize_dependency_set(original)
        assert logically_equivalent(original, kept)

    def test_lav_projection_output_simplifies(self):
        from repro.catalog import projection
        from repro.core.implication import minimize_dependency_set
        from repro.core.quasi_inverse import lav_quasi_inverse

        reverse = lav_quasi_inverse(projection())
        kept = minimize_dependency_set(reverse.dependencies)
        assert len(kept) == 1  # the diagonal rule implies the ∃ rule

    def test_singleton_untouched(self):
        kept = self._minimize("Q(x) -> P(x)")
        assert len(kept) == 1


class TestEquivalence:
    def test_renamed_sets_are_equivalent(self):
        left = parse_dependencies("P(x, y) -> Q(x)")
        right = parse_dependencies("P(a, b) -> Q(a)")
        assert logically_equivalent(left, right)

    def test_strictly_stronger_sets_are_not(self):
        left = parse_dependencies("Q(x) -> P(x)")
        right = parse_dependencies("Q(x) & Constant(x) -> P(x)")
        assert not logically_equivalent(left, right)
