"""Unit tests for the SQL (SQLite-hosted) execution backend.

The cross-backend property suite (``tests/properties``) establishes
equivalence statistically; these tests pin the mechanisms — the tagged
id encoding, the table pool, chase routing, containment on the kernel
through the shared verdict cache, budget and ``max_steps`` parity,
scratch-file mode, and the ``sql.exec`` fault point.
"""

import sqlite3

import pytest

from repro.chase.standard import chase
from repro.core.mapping import solutions_contained, universal_solution
from repro.datamodel.atoms import Atom, atom
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Null, Variable
from repro.dependencies.parser import parse_dependency
from repro.engine import (
    engine_stats,
    reset_all_caches,
    set_defaults,
    sqlbackend,
    use_backend,
)
from repro.engine.budget import Budget, use_budget
from repro.engine.faults import fault_scope
from repro.engine.cache import verdict_cache
from repro.engine.kernel import intern_table
from repro.engine.sqlbackend import (
    _MAX_JOIN_ATOMS,
    decode_id,
    encode_term,
    sql_min_facts,
    sql_stratified_chase,
)
from repro.errors import BudgetExceeded, ChaseError
from repro.workloads import random_ground_instance, random_lav_mapping

from tests.parity import Case, assert_parity, grid


#: The shipped chase threshold, read before any test patches it.
DEFAULT_MIN_FACTS = sql_min_facts()


@pytest.fixture(autouse=True)
def _sql_everything(monkeypatch):
    """Force every stratified chase through SQL (threshold 0)."""
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
            # the input's nullary fact seeds the working table
            again = chase(result.instance, deps, trace=False)
        assert atom("Flag") in result.instance.facts
        assert again.instance.facts == result.instance.facts

    def test_budget_trip_is_byte_identical(self):
        mapping = _mapping(11)
        source = random_ground_instance(
            mapping.source, seed=2, n_facts=4, domain_size=2
        )

        def run(variant):
            with use_backend(variant.backend), use_budget(Budget(max_chase_steps=1)):
                try:
                    universal_solution(mapping, source)
                except BudgetExceeded as error:
                    return f"{type(error).__name__}: {error}"
            return "no trip"

        assert_parity(Case("budget trip", run, grid(backend=("object", "sql"))))

    def test_max_steps_trip_is_identical(self):
        deps = (parse_dependency("E(x, y) & E(y, z) -> E(x, z)"),)
        source = Instance.build(
            {"E": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]}
        )

        def run(variant):
            with use_backend(variant.backend), pytest.raises(ChaseError) as info:
                chase(source, deps, max_steps=2, trace=False)
            return str(info.value)

        # SQLite declines a recursive dependency set: its chase runs
        # the interpreted loop over the kernel's match lists
        assert_parity(
            Case("max_steps trip", run, grid(backend=("object", "sql")), in_sqlite=False)
        )


class TestLargeChase:
    """Above the shipped threshold the chase seeds each working table
    from the lowered input table, and builds its result instances
    without sorting them."""

    DEPS = (
        parse_dependency("E(x, y) -> F(x, y)"),
        parse_dependency("E(x, y) & E(y, z) -> F(x, z)"),
    )

    @staticmethod
    def _chain_with_part_of_its_fixpoint():
        nodes = [f"v{i}" for i in range(101)]
        edges = list(zip(nodes, nodes[1:]))
        paths = list(zip(nodes, nodes[2:]))
        source = Instance.build({"E": edges, "F": edges[::2] + paths[::3]})
        assert len(source) >= DEFAULT_MIN_FACTS
        return source

    @pytest.mark.parametrize("trace", [False, True])
    def test_input_conclusion_facts_seed_the_working_tables(
        self, monkeypatch, trace
    ):
        monkeypatch.setattr(sqlbackend, "_SQL_MIN_FACTS", DEFAULT_MIN_FACTS)
        source = self._chain_with_part_of_its_fixpoint()
        with use_backend("object"):
            expected = chase(source, self.DEPS)
        reset_all_caches()
        stats = engine_stats()
        rounds = stats.counter("sql_chase_rounds")
        firings = stats.counter("sql_chase_firings")
        with use_backend("sql"):
            actual = chase(source, self.DEPS, trace=trace)
        assert stats.counter("sql_chase_rounds") > rounds  # ran in SQL
        assert actual.instance.facts == expected.instance.facts
        assert actual.produced.facts == expected.produced.facts
        # the 50 edges and 66 two-step paths the input's F lacks
        assert len(expected.steps) == 116
        assert stats.counter("sql_chase_firings") - firings == 116
        if trace:
            assert actual.steps == expected.steps

    def test_the_chase_sorts_no_instance_it_builds(self, monkeypatch):
        monkeypatch.setattr(sqlbackend, "_SQL_MIN_FACTS", DEFAULT_MIN_FACTS)
        calls = []
        sort_key = Atom.sort_key

        def counting(fact):
            if fact.is_fact():  # premise compilation orders pattern atoms
                calls.append(fact)
            return sort_key(fact)

        monkeypatch.setattr(Atom, "sort_key", counting)
        source = self._chain_with_part_of_its_fixpoint()
        rounds = engine_stats().counter("sql_chase_rounds")
        with use_backend("sql"):
            result = chase(source, self.DEPS, trace=False)
        assert engine_stats().counter("sql_chase_rounds") > rounds
        assert calls == []
        assert len(result.instance.facts_for("F")) == 199
        assert len(calls) > 0


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
    """The sql backend checks containment exactly as the kernel backend
    does, through the same verdict cache as every backend, at any chase
    threshold: only the chase lowers instances into SQLite."""

    @pytest.mark.parametrize("min_facts", [DEFAULT_MIN_FACTS, 0])
    def test_containment_lowers_nothing_and_memoizes_its_verdict(
        self, monkeypatch, min_facts
    ):
        monkeypatch.setattr(sqlbackend, "_SQL_MIN_FACTS", min_facts)
        mapping = _mapping()
        outer = random_ground_instance(
            mapping.source, seed=5, n_facts=3, domain_size=2
        )
        inner = random_ground_instance(
            mapping.source, seed=6, n_facts=3, domain_size=2
        )
        start = engine_stats().counter("sql_instances_loaded")
        with use_backend("sql"):
            universal_solution(mapping, outer)
            universal_solution(mapping, inner)
            before = engine_stats().counter("sql_instances_loaded")
            hits, misses = verdict_cache.hits, verdict_cache.misses
            verdict = solutions_contained(mapping, inner, outer)
            assert solutions_contained(mapping, inner, outer) == verdict
        assert (before > start) == (min_facts == 0)  # the chases' inputs
        assert engine_stats().counter("sql_instances_loaded") == before
        # the first check missed the verdict cache, the repeat hit it
        assert (verdict_cache.misses, verdict_cache.hits) == (misses + 1, hits + 1)


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

    def test_scratch_file_mode(self, tmp_path):
        db = tmp_path / "scratch.db"
        previous = set_defaults(sql_db=str(db))
        try:
            reset_all_caches()
            mapping = _mapping(13)
            source = random_ground_instance(
                mapping.source, seed=1, n_facts=3, domain_size=2
            )
            with use_backend("sql"):
                actual = universal_solution(mapping, source)
            assert db.exists()
        finally:
            set_defaults(**previous)
        reset_all_caches()
        with use_backend("object"):
            expected = universal_solution(mapping, source)
        assert actual.facts == expected.facts


class TestTablePool:
    DEPS = (
        parse_dependency("E(x, y) -> F(x, y)"),
        parse_dependency("E(x, y) & E(y, z) -> F(x, z)"),
    )

    def test_runtime_reuses_pooled_tables(self):
        source = Instance.build({"E": [("a", "b"), ("b", "c")]})
        with use_backend("sql"):
            chase(source, self.DEPS, trace=False)
            rt = sqlbackend._runtime()
            created = rt.ntables
            # input and working tables come from — and return to — the pool
            for _ in range(5):
                chase(source, self.DEPS, trace=False)
            assert rt.ntables == created

    def test_chase_returns_every_table_to_the_pool(self):
        path = Instance.build({"E": [("a", "b"), ("b", "c"), ("c", "d")]})
        longer = Instance.build(
            {"E": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]}
        )

        def pooled(rt):
            return sum(len(tables) for tables in rt.pool.values())

        with use_backend("sql"):
            chase(path, self.DEPS, trace=False)
            rt = sqlbackend._runtime()
            assert pooled(rt) == rt.ntables > 0
            with use_budget(Budget(max_chase_steps=1)):
                with pytest.raises(BudgetExceeded):
                    chase(longer, self.DEPS, trace=False)
            assert pooled(rt) == rt.ntables


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
