"""Unit tests for the SQL (SQLite-hosted) execution backend.

The cross-backend property suite (``tests/properties``) establishes
equivalence statistically; these tests pin the mechanisms — the tagged
id encoding, table pooling and instance eviction, small-operand
routing, budget and ``max_steps`` parity, scratch-file mode, and the
``sql.exec`` fault point.
"""

import sqlite3

import pytest

from repro.chase.standard import chase
from repro.core.mapping import solutions_contained, universal_solution
from repro.datamodel.atoms import atom
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Null, Variable
from repro.dependencies.parser import parse_dependency
from repro.engine import (
    engine_stats,
    reset_all_caches,
    sqlbackend,
    use_backend,
)
from repro.engine.budget import Budget, use_budget
from repro.engine.faults import fault_scope
from repro.engine.kernel import intern_table, kernel_instance, small_id
from repro.engine.sqlbackend import (
    _MAX_JOIN_ATOMS,
    decode_id,
    encode_term,
    sql_min_facts,
    sql_stratified_chase,
)
from repro.errors import BudgetExceeded, ChaseError
from repro.workloads import random_ground_instance, random_lav_mapping


#: The shipped small-operand threshold, read before any test patches it.
DEFAULT_MIN_FACTS = sql_min_facts()


@pytest.fixture(autouse=True)
def _sql_everything(monkeypatch):
    """Force every operation through the SQL plans (threshold 0)."""
    monkeypatch.setattr(sqlbackend, "_SQL_MIN_FACTS", 0)
    reset_all_caches()
    yield
    reset_all_caches()


def _mapping(seed=3):
    return random_lav_mapping(
        seed, n_source=2, n_target=2, max_arity=2, n_tgds=2
    )


class TestEncoding:
    def test_round_trip_and_parity(self):
        intern = intern_table()
        for term in (Constant("a"), Constant(3), Null("n0"), Variable("x")):
            tagged = encode_term(term, intern)
            assert decode_id(tagged, intern) == term
            if isinstance(term, Constant):
                assert tagged % 2 == 0
            else:
                assert tagged % 2 == 1

    def test_encoding_is_stable_across_calls(self):
        intern = intern_table()
        first = encode_term(Constant("stable"), intern)
        assert encode_term(Constant("stable"), intern) == first


class TestChaseEquivalence:
    def test_traced_chase_matches_object_backend(self):
        mapping = _mapping()
        source = random_ground_instance(
            mapping.source, seed=5, n_facts=3, domain_size=2
        )
        with use_backend("object"):
            expected = chase(source, mapping.dependencies)
        reset_all_caches()
        with use_backend("sql"):
            actual = chase(source, mapping.dependencies)
        assert actual.instance.facts == expected.instance.facts
        assert actual.steps == expected.steps

    def test_bulk_full_tgd_firing_count_matches(self):
        deps = (
            parse_dependency("E(x, y) -> F(x, y)"),
            parse_dependency("E(x, y) & E(y, z) -> F(x, z)"),
        )
        source = Instance.build(
            {"E": [("a", "b"), ("b", "c"), ("c", "d")]}
        )
        with use_backend("object"):
            expected = chase(source, deps)
        reset_all_caches()
        before = engine_stats().counter("sql_chase_firings")
        with use_backend("sql"):
            actual = chase(source, deps, trace=False)
        fired = engine_stats().counter("sql_chase_firings") - before
        assert actual.instance.facts == expected.instance.facts
        assert fired == len(expected.steps)

    def test_nullary_facts_round_trip(self):
        deps = (parse_dependency("P(x) -> Flag()"),)
        source = Instance.of([atom("P", "a")])
        with use_backend("sql"):
            result = chase(source, deps, trace=False)
        assert atom("Flag") in result.instance.facts

    def test_budget_trip_is_byte_identical(self):
        mapping = _mapping(11)
        source = random_ground_instance(
            mapping.source, seed=2, n_facts=4, domain_size=2
        )
        errors = {}
        for backend in ("object", "sql"):
            reset_all_caches()
            with use_backend(backend), use_budget(Budget(max_chase_steps=1)):
                try:
                    universal_solution(mapping, source)
                    errors[backend] = None
                except BudgetExceeded as error:
                    errors[backend] = (type(error), str(error))
        assert errors["sql"] == errors["object"]

    def test_max_steps_trip_is_identical(self):
        deps = (parse_dependency("E(x, y) & E(y, z) -> E(x, z)"),)
        source = Instance.build(
            {"E": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]}
        )
        messages = {}
        for backend in ("object", "sql"):
            reset_all_caches()
            with use_backend(backend):
                with pytest.raises(ChaseError) as info:
                    chase(source, deps, max_steps=2, trace=False)
                messages[backend] = str(info.value)
        assert messages["sql"] == messages["object"]


class TestRoutingAndFallbacks:
    def test_small_operands_route_to_kernel(self, monkeypatch):
        monkeypatch.setattr(sqlbackend, "_SQL_MIN_FACTS", 1000)
        mapping = _mapping()
        source = random_ground_instance(
            mapping.source, seed=5, n_facts=3, domain_size=2
        )
        before = engine_stats().counter("sql_small_routed")
        with use_backend("sql"):
            chase(source, mapping.dependencies)
        assert engine_stats().counter("sql_small_routed") > before

    def test_wide_premise_falls_back(self):
        wide = " & ".join(
            f"P(x{i}, x{i + 1})" for i in range(_MAX_JOIN_ATOMS + 1)
        )
        dep = parse_dependency(f"{wide} -> Q(x0)")
        source = Instance.build({"P": [("a", "a")]})
        before = engine_stats().counter("sql_fallbacks")
        with use_backend("sql"):
            result = sql_stratified_chase(
                source,
                (dep,),
                null_factory=None,
                max_steps=10_000,
                trace=False,
            )
        assert result is None
        assert engine_stats().counter("sql_fallbacks") > before


class TestThresholdRule:
    """Below ``_SQL_MIN_FACTS`` the sql backend runs an operation
    exactly as the kernel backend does, per-instance memos included;
    at or above it the operation lowers its operands into SQLite."""

    def _contained(self):
        mapping = _mapping()
        outer = random_ground_instance(
            mapping.source, seed=5, n_facts=3, domain_size=2
        )
        inner = random_ground_instance(
            mapping.source, seed=6, n_facts=3, domain_size=2
        )
        kouter = kernel_instance(outer)
        before = engine_stats().counter("sql_instances_loaded")
        with use_backend("sql"):
            verdict = solutions_contained(mapping, inner, outer)
            solutions = (
                universal_solution(mapping, outer),
                universal_solution(mapping, inner),
            )
            lowered = [
                solution.facts in sqlbackend._runtime().instances
                for solution in solutions
            ]
        loaded = engine_stats().counter("sql_instances_loaded") - before
        memo_key = (small_id(mapping), kernel_instance(inner).kid)
        return verdict, kouter.sol_memo, memo_key, lowered, loaded

    def test_small_operands_use_the_kernel_memos(self, monkeypatch):
        monkeypatch.setattr(sqlbackend, "_SQL_MIN_FACTS", DEFAULT_MIN_FACTS)
        assert sql_min_facts() > 3
        verdict, sol_memo, memo_key, lowered, loaded = self._contained()
        assert sol_memo == {memo_key: verdict}
        assert lowered == [False, False]
        assert loaded == 0

    def test_operands_at_the_threshold_lower_into_sqlite(self):
        assert sql_min_facts() == 0  # the module fixture
        _verdict, sol_memo, _key, lowered, loaded = self._contained()
        assert sol_memo == {}
        assert lowered == [True, True]
        assert loaded >= 2


class TestFaultsAndScratchFile:
    def test_sql_exec_fault_retries_and_result_is_identical(self):
        mapping = _mapping(7)
        source = random_ground_instance(
            mapping.source, seed=9, n_facts=3, domain_size=2
        )
        with use_backend("sql"):
            expected = universal_solution(mapping, source)
        reset_all_caches()
        before = engine_stats().counter("sql_retries")
        with fault_scope("sql.exec:at=3"), use_backend("sql"):
            actual = universal_solution(mapping, source)
        assert actual.facts == expected.facts
        assert engine_stats().counter("sql_retries") > before

    def test_scratch_file_mode(self, tmp_path, monkeypatch):
        db = tmp_path / "scratch.db"
        monkeypatch.setenv("REPRO_SQL_DB", str(db))
        reset_all_caches()
        mapping = _mapping(13)
        source = random_ground_instance(
            mapping.source, seed=1, n_facts=3, domain_size=2
        )
        with use_backend("sql"):
            actual = universal_solution(mapping, source)
        assert db.exists()
        monkeypatch.delenv("REPRO_SQL_DB")
        reset_all_caches()
        with use_backend("object"):
            expected = universal_solution(mapping, source)
        assert actual.facts == expected.facts


class TestPoolingAndEviction:
    def test_instances_past_capacity_are_evicted(self, monkeypatch):
        import repro.engine.sqlbackend as sb

        monkeypatch.setattr(sb, "_MAX_LIVE_INSTANCES", 4)
        before = engine_stats().counter("sql_evictions")
        with use_backend("sql"):
            for seed in range(12):
                target = random_ground_instance(
                    _mapping().target, seed=seed, n_facts=3, domain_size=3
                )
                # one pinned operation per instance; older ones go cold
                from repro.chase.homomorphism import instance_homomorphism

                instance_homomorphism(target, target)
        assert engine_stats().counter("sql_evictions") > before

    def test_evicted_instance_is_relowered_transparently(self, monkeypatch):
        import repro.engine.sqlbackend as sb
        from repro.chase.homomorphism import instance_homomorphism

        monkeypatch.setattr(sb, "_MAX_LIVE_INSTANCES", 1)
        keep = Instance.build({"P": [("a", "b")]})
        with use_backend("sql"):
            first = instance_homomorphism(keep, keep)
            for seed in range(6):
                other = random_ground_instance(
                    _mapping().target, seed=seed, n_facts=2, domain_size=2
                )
                instance_homomorphism(other, other)
            again = instance_homomorphism(keep, keep)
        assert again == first

    def test_runtime_reuses_pooled_tables(self):
        import repro.engine.sqlbackend as sb
        from repro.chase.homomorphism import instance_homomorphism

        with use_backend("sql"):
            seed_instance = Instance.build({"P": [("a", "b")]})
            instance_homomorphism(seed_instance, seed_instance)
            rt = sb._runtime()
            created = rt.ntables
            # chase working tables come from — and return to — the pool
            deps = (parse_dependency("P(x, y) -> Q(y, x)"),)
            for _ in range(5):
                chase(seed_instance, deps, trace=False)
            assert rt.ntables <= created + 2


class TestExportParity:
    def test_backend_matches_executed_export(self):
        """The backend's chase equals the exporter's script run through
        a plain sqlite3 connection (full GAV mapping, TEXT values)."""
        from repro.export.sql import (
            instance_to_inserts,
            mapping_to_sql,
        )
        from repro.core.mapping import SchemaMapping
        from repro.datamodel.schemas import Schema

        mapping = SchemaMapping.from_text(
            Schema.of({"E": 2}),
            Schema.of({"F": 2, "V": 1}),
            "E(x, y) -> F(x, y); E(x, y) -> V(x) & V(y)",
            name="edges",
        )
        source = Instance.build({"E": [("a", "b"), ("b", "c")]})
        script = mapping_to_sql(mapping)
        ddl, _, transforms = script.partition("-- mapping\n")
        connection = sqlite3.connect(":memory:")
        connection.executescript(ddl)
        connection.executescript(instance_to_inserts(source))
        connection.executescript(transforms)
        with use_backend("sql"):
            chased = universal_solution(mapping, source)
        for relation in ("F", "V"):
            rows = set(
                connection.execute(f"SELECT * FROM {relation.lower()}")
            )
            expected = {
                tuple(str(arg.value) for arg in fact.args)
                for fact in chased.facts_for(relation)
            }
            assert rows == expected
