"""Expression trees: construction, parsing, and mapping surgery."""

import pytest

from repro.algebra.expr import (
    Compose,
    MappingAtom,
    Rename,
    Restrict,
    UnionOf,
    default_resolver,
    materializable,
    parse_expression,
    producible_relations,
    rename_mapping,
    restrict_mapping,
)
from repro.catalog.mappings import (
    decomposition,
    decomposition_quasi_inverse_join,
    projection,
    union_mapping,
    union_quasi_inverse,
)
from repro.core.mapping import MappingError, universal_solution
from repro.datamodel.instances import Instance
from repro.errors import ParseError


class TestConstruction:
    def test_atom_schemas(self):
        atom = MappingAtom(mapping=projection())
        assert atom.source == projection().source
        assert atom.target == projection().target

    def test_compose_checks_middle_schema(self):
        with pytest.raises(MappingError, match="middle schemas"):
            Compose(
                first=MappingAtom(mapping=projection()),
                second=MappingAtom(mapping=decomposition()),
            )

    def test_compose_spans_schemas(self):
        composed = Compose(
            first=MappingAtom(mapping=decomposition()),
            second=MappingAtom(mapping=decomposition_quasi_inverse_join()),
        )
        assert composed.source == decomposition().source
        assert composed.target == decomposition_quasi_inverse_join().target

    def test_union_checks_schemas(self):
        with pytest.raises(MappingError, match="source schemas"):
            UnionOf(
                left=MappingAtom(mapping=projection()),
                right=MappingAtom(mapping=union_mapping()),
            )

    def test_restrict_validates_relations(self):
        atom = MappingAtom(mapping=decomposition())
        restricted = Restrict(child=atom, relations=("Q",))
        assert restricted.target.names() == ("Q",)
        with pytest.raises(MappingError, match="not in target"):
            Restrict(child=atom, relations=("Nope",))

    def test_rename_validates_and_derives_target(self):
        atom = MappingAtom(mapping=projection())
        renamed = Rename(child=atom, renaming=(("Q", "Q2"),))
        assert renamed.target.names() == ("Q2",)
        with pytest.raises(MappingError, match="not in target"):
            Rename(child=atom, renaming=(("Nope", "X"),))
        with pytest.raises(MappingError, match="collides"):
            Rename(
                child=MappingAtom(mapping=decomposition()),
                renaming=(("Q", "R"),),
            )

    def test_keys_are_content_addressed(self):
        one = Compose(
            first=MappingAtom(mapping=decomposition()),
            second=MappingAtom(mapping=decomposition_quasi_inverse_join()),
        )
        two = Compose(
            first=MappingAtom(mapping=decomposition()),
            second=MappingAtom(mapping=decomposition_quasi_inverse_join()),
        )
        assert one.key() == two.key()


class TestParser:
    def test_atom(self):
        expr = parse_expression("Projection")
        assert isinstance(expr, MappingAtom)
        assert expr.mapping.name == "Projection"

    def test_quasi_inverses_resolve(self):
        assert parse_expression("Projection'").mapping.name == "Projection'"
        assert parse_expression("Union'").mapping.name == "Union'"

    def test_compose_folds_right(self):
        expr = parse_expression(
            "compose(Decomposition, Decomposition', Decomposition)"
        )
        assert isinstance(expr, Compose)
        assert isinstance(expr.second, Compose)

    def test_round_trip_through_label(self):
        text = "rename(restrict(compose(Decomposition, Decomposition'), P), P=P2)"
        expr = parse_expression(text)
        assert parse_expression(expr.label()).key() == expr.key()

    def test_whitespace_insensitive(self):
        one = parse_expression("compose(Decomposition,Decomposition')")
        two = parse_expression("  compose( Decomposition ,  Decomposition' ) ")
        assert one.key() == two.key()

    def test_syntax_errors(self):
        with pytest.raises(ParseError):
            parse_expression("")
        with pytest.raises(ParseError):
            parse_expression("compose(Projection")
        with pytest.raises(ParseError):
            parse_expression("Projection extra")
        with pytest.raises(ParseError):
            parse_expression("compose(Projection)")

    def test_unknown_name(self):
        with pytest.raises(MappingError, match="unknown mapping"):
            parse_expression("Nonexistent")

    def test_explicit_resolver(self):
        table = {"M": projection()}
        assert parse_expression("M", table).mapping.name == "Projection"

    def test_default_resolver_is_a_fresh_dict_over_shared_mappings(self):
        from repro.algebra.scenarios import scenario_resolver

        extended = scenario_resolver()
        scenario_names = set(extended) - set(default_resolver())
        assert scenario_names  # the scenario mappings were added...
        fresh = default_resolver()
        assert not scenario_names & set(fresh)  # ...to that copy only
        assert fresh is not default_resolver()
        for name, mapping in fresh.items():
            assert default_resolver()[name] is mapping
            assert extended[name] is mapping
        assert parse_expression("Decomposition'").mapping is fresh["Decomposition'"]


class TestSurgery:
    def test_rename_mapping_is_isomorphic(self):
        renamed = rename_mapping(projection(), {"Q": "Q2"})
        assert renamed.target.names() == ("Q2",)
        source = Instance.build({"P": [("a", "b")]})
        solution = universal_solution(renamed, source)
        facts = {str(fact) for fact in solution.sorted_facts()}
        assert facts == {"Q2(a)"}

    def test_restrict_mapping_prunes_conclusions(self):
        restricted = restrict_mapping(decomposition(), ("Q",))
        assert restricted.target.names() == ("Q",)
        source = Instance.build({"P": [("a", "b", "c")]})
        solution = universal_solution(restricted, source)
        assert {str(f) for f in solution.sorted_facts()} == {"Q(a, b)"}

    def test_restrict_agrees_with_projected_chase(self):
        full = decomposition()
        restricted = restrict_mapping(full, ("Q",))
        source = Instance.build({"P": [("a", "b", "c"), ("b", "c", "a")]})
        projected = universal_solution(full, source).restrict_to(
            restricted.target
        )
        assert universal_solution(restricted, source).facts == projected.facts

    def test_restrict_drops_vacuous_dependency(self):
        restricted = restrict_mapping(decomposition(), ("R",))
        # the Q atom is pruned; the R atom survives in the one rule
        assert len(restricted.dependencies) == 1

    def test_restrict_refuses_disjunctive_cascade_risk(self):
        from repro.core.mapping import SchemaMapping
        from repro.datamodel.schemas import Schema

        # target relation A is also a source relation: dropping it is
        # inexact because its facts could cascade
        cyclic = SchemaMapping.from_text(
            Schema.of({"A": 1}),
            Schema.of({"A": 1, "B": 1}),
            "A(x) -> A(x) & B(x)",
        )
        with pytest.raises(MappingError, match="source-named"):
            restrict_mapping(cyclic, ("B",))


class TestClassification:
    def test_producible_atom(self):
        assert producible_relations(MappingAtom(mapping=decomposition())) == {
            "Q",
            "R",
        }

    def test_producible_filters_dead_rules(self):
        from repro.algebra.scenarios import dead_branch_expression

        expr = dead_branch_expression(3)
        assert "W2" not in producible_relations(expr)
        assert "W" in producible_relations(expr)

    def test_materializable_rejects_disjunctive_second(self):
        expr = Compose(
            first=MappingAtom(mapping=union_mapping()),
            second=MappingAtom(mapping=union_quasi_inverse()),
        )
        assert not materializable(expr)

    def test_materializable_accepts_full_tgd_chain(self):
        expr = Compose(
            first=MappingAtom(mapping=decomposition()),
            second=MappingAtom(mapping=decomposition_quasi_inverse_join()),
        )
        assert materializable(expr)
