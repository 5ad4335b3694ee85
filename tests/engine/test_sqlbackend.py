"""Unit tests for the SQL (SQLite-hosted) execution backend.

The cross-backend property suite (``tests/properties``) establishes
equivalence statistically; these tests pin the mechanisms — the term
intern table and the tagged id encoding over it, lowered instances,
the premise join's matches and their order, the table pool, chase
routing, containment in memory through the shared verdict cache,
budget and ``max_steps`` parity, scratch-file mode, the ``sql.exec``
fault point, and the three tracer targets kept for the benchmark
ledger.
"""

import sqlite3
import sys
import threading

import pytest

from repro.chase.homomorphism import all_homomorphisms, instance_homomorphism
from repro.chase.standard import _sorted_matches, chase
from repro.core.mapping import SchemaMapping, solutions_contained, universal_solution
from repro.datamodel.atoms import Atom, atom
from repro.datamodel.instances import Instance
from repro.datamodel.schemas import Schema
from repro.datamodel.terms import Constant, Null, Variable
from repro.dependencies.dependency import Dependency
from repro.dependencies.parser import parse_dependency
from repro.algebra.scenarios import fan_in_chain_expression
from repro.algebra.sweeps import check_expression
from repro.engine import (
    engine_stats,
    reset_all_caches,
    reset_engine_stats,
    set_defaults,
    sqlbackend,
    use_backend,
)
from repro.engine.budget import Budget, use_budget
from repro.engine.faults import fault_scope
from repro.engine.cache import verdict_cache
from repro.engine.sqlbackend import (
    _INDEX_MIN_ROWS,
    _MAX_JOIN_ATOMS,
    InternTable,
    decode_id,
    encode_term,
    intern_table,
    sql_instance,
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


X, Y = Variable("x"), Variable("y")


def _mapping(seed=3):
    return random_lav_mapping(
        seed, n_source=2, n_target=2, max_arity=2, n_tgds=2
    )


def _edges(n_facts):
    """A seeded random ground ``E`` instance of exactly *n_facts* facts."""
    instance = random_ground_instance(
        Schema.of({"E": 2}), seed=n_facts, n_facts=n_facts, domain_size=12
    )
    assert len(instance.facts) == n_facts
    return instance


def _lowered(instance):
    """This thread's runtime and *instance* lowered into its tables."""
    return sqlbackend._runtime(), sql_instance(sqlbackend._grouped_rows(instance.facts))


def _release(rt, lowered):
    for (_, arity), table in lowered.tables.items():
        rt.release_table(table, arity)


class TestInternTable:
    def test_ids_are_dense_and_stable(self):
        table = InternTable()
        a = table.intern(Constant("a"))
        b = table.intern(Constant("b"))
        assert (a, b) == (0, 1)
        assert table.intern(Constant("a")) == a
        assert len(table) == 2

    def test_round_trip_and_constness(self):
        table = InternTable()
        cid = table.intern(Constant("a"))
        nid = table.intern(Null("n"))
        assert table.term(cid) == Constant("a")
        assert table.term(nid) == Null("n")
        assert table.is_const(cid) and not table.is_const(nid)

    def test_process_table_is_shared(self):
        assert intern_table() is intern_table()

    def test_concurrent_interning_assigns_one_id_per_term(self):
        table = InternTable()
        terms = [Null(f"stress{index}") for index in range(20_000)]
        start = threading.Barrier(8, timeout=10)

        def intern_all():
            start.wait()
            for term in terms:
                table.intern(term)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=intern_all) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert len(table) == len(set(terms))
        assert sorted(table.intern(term) for term in terms) == list(
            range(len(terms))
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

    def test_chase_results_byte_identical(self):
        mapping = SchemaMapping.from_text(
            Schema.of({"R": 2}),
            Schema.of({"S": 1, "T": 2}),
            "R(x, y) -> S(x); R(x, y) -> T(y, z)",
            name="Projection with a witness",
        )
        source = Instance.build({"R": [("a", "b"), ("b", "b")]})
        with use_backend("object"):
            expected = universal_solution(mapping, source)
        reset_all_caches()
        with use_backend("sql"):
            actual = universal_solution(mapping, source)
        assert list(map(str, actual.sorted_facts())) == list(
            map(str, expected.sorted_facts())
        )

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

        def run(backend):
            with use_backend(backend), pytest.raises(ChaseError) as info:
                chase(source, deps, max_steps=2, trace=False)
            return str(info.value)

        # SQLite declines a recursive dependency set: its chase runs
        # the interpreted loop, as on the object backend
        reset_engine_stats()
        assert run("sql") == run("object")
        assert "sql_chase_rounds" not in engine_stats().counters()


def _sql_matches(dependency, instance):
    """The premise matches of *dependency* in *instance* in the order
    the SQL chase reads them: a traced SQL chase of the premise into
    one fresh fact per match fires on each match, in that order."""
    every = Dependency(
        dependency.premise, ((Atom("Out", dependency.premise_variables()),),)
    )
    rounds = engine_stats().counter("sql_chase_rounds")
    with use_backend("sql"):
        result = chase(instance, (every,))
    assert engine_stats().counter("sql_chase_rounds") > rounds  # ran in SQL
    return [dict(step.homomorphism) for step in result.steps]


class TestSortedPremiseMatches:
    """The SQL chase's premise join lists exactly the object backend's
    matches, in its sorted order."""

    @pytest.mark.parametrize("n_facts", [1, 8, 32, 70])
    def test_ground_matches_equal_object_backend(self, n_facts):
        dependency = parse_dependency("E(x, y), E(y, z) -> F(x, z)")
        instance = _edges(n_facts)
        assert _sql_matches(dependency, instance) == list(
            _sorted_matches(dependency, instance)
        )

    def test_non_ground_matches_equal_object_backend(self):
        dependency = parse_dependency("R(x, y) -> S(x)")
        instance = Instance.build(
            {"R": [(Null("n"), Constant("b")), ("a", Null("m")), ("a", "b")]}
        )
        assert _sql_matches(dependency, instance) == list(
            _sorted_matches(dependency, instance)
        )

    def test_growing_instances_match_like_object_backend(self):
        # each instance is lowered on its own; every list equals a
        # from-scratch object search
        dependency = parse_dependency("R(x, y) -> S(x)")
        facts = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a")]
        for size in range(1, len(facts) + 1):
            instance = Instance.build({"R": facts[:size]})
            assert _sql_matches(dependency, instance) == list(
                _sorted_matches(dependency, instance)
            )

    def test_a_chase_lowers_its_input_once(self):
        # the premise join runs over the lowered input alone: no
        # sub-instance of it is lowered along the way
        dependency = parse_dependency("E(x, y), E(y, z) -> F(x, z)")
        instance = _edges(8)
        reset_engine_stats()
        with use_backend("sql"):
            chase(instance, (dependency,))
        assert engine_stats().counters()["sql_instances_loaded"] == 1


class TestLoweredInstance:
    def test_rows_decode_to_the_instance_facts(self):
        instance = Instance.build(
            {"P": [("b", "a"), ("a", "c"), ("a", "b")], "Q": [(Null("n"),)]}
        )
        rt, lowered = _lowered(instance)
        try:
            decoded = {
                Atom(relation, tuple(decode_id(value, intern_table()) for value in row))
                for (relation, _), table in lowered.tables.items()
                for row in rt.execute(f"SELECT * FROM {table}")
            }
        finally:
            _release(rt, lowered)
        assert set(lowered.tables) == {("P", 2), ("Q", 1)}
        assert decoded == instance.facts

    def test_only_large_extents_get_column_indexes(self):
        chain = [(f"v{i}", f"v{i + 1}") for i in range(_INDEX_MIN_ROWS)]
        rt, lowered = _lowered(Instance.build({"E": chain, "F": chain[:3]}))
        try:
            indexes = {
                relation: {
                    name
                    for (name,) in rt.execute(
                        "SELECT name FROM sqlite_master "
                        "WHERE type = 'index' AND tbl_name = ?",
                        (table,),
                    )
                }
                for (relation, _), table in lowered.tables.items()
            }
        finally:
            _release(rt, lowered)
        assert indexes == {"E": {f"{lowered.tables[('E', 2)]}_i1"}, "F": set()}

    def test_a_reset_drops_the_runtime(self):
        with use_backend("sql"):
            chase(Instance.build({"E": [("a", "b")]}), TestTablePool.DEPS)
        before = sqlbackend._runtime()
        assert before.ntables > 0
        reset_all_caches()
        after = sqlbackend._runtime()
        assert after is not before
        assert (after.ntables, after.pool) == (0, {})
        with pytest.raises(sqlite3.ProgrammingError):
            before.conn.execute("SELECT 1")


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
    def test_small_operands_route_to_the_interpreted_chase(self, monkeypatch):
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

    def test_an_input_no_premise_matches_is_its_own_fixpoint(self):
        # P occurs only at arity 2, so the arity-1 premise cannot match
        dep = parse_dependency("P(x) -> Q(x)")
        source = Instance.build({"P": [("a", "b")]})
        reset_engine_stats()
        with use_backend("sql"):
            result = sql_stratified_chase(
                source, (dep,), null_factory=None, max_steps=10_000, trace=True
            )
        assert (result.instance, result.produced, result.steps) == (source, Instance.empty(), ())
        assert "sql_instances_loaded" not in engine_stats().counters()

    def test_a_materialized_blowup_lowers_nothing(self):
        # Every premise of the composed mapping spans three relations,
        # and every input of the one-fact universe holds one.
        expr = fan_in_chain_expression(3)
        reset_engine_stats()
        report = check_expression(expr, "unique", plan="materialize", backend="sql")
        counts = engine_stats().counters()
        assert counts.get("sql_instances_loaded", 0) == counts.get("sql_statements", 0) == 0
        assert counts["sql_inert_inputs"] == 25
        reset_all_caches()
        oracle = check_expression(expr, "unique", plan="materialize", backend="object")
        assert report.render() == oracle.render()


class TestThresholdRule:
    """The sql backend checks containment exactly as the object backend
    does, through the same verdict cache, at any chase threshold: only
    the chase lowers instances into SQLite."""

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


class TestTracerTargets:
    """The benchmark ledger's tracer wraps three names this module keeps
    for it; each answers exactly what the object search answers."""

    TARGET = Instance.build({"P": [("a", "b"), ("b", "c"), ("c", "c")], "Q": [("c",)]})

    def test_all_homomorphisms_are_the_object_search(self):
        premise = [atom("P", X, Y)]
        assert list(
            sqlbackend.sql_all_homomorphisms(premise, self.TARGET, inequalities={(X, Y)})
        ) == list(all_homomorphisms(premise, self.TARGET, inequalities={(X, Y)}))

    def test_has_homomorphism_is_the_object_search(self):
        hits = Instance.build({"P": [(Null("n"), "c")]})
        misses = Instance.build({"P": [("c", "a")]})
        for source in (hits, misses):
            assert sqlbackend.sql_has_homomorphism(source, self.TARGET) == (
                instance_homomorphism(source, self.TARGET) is not None
            )
        assert sqlbackend.sql_has_homomorphism(hits, self.TARGET)

    def test_sorted_premise_matches_are_the_object_search(self):
        dependency = parse_dependency("P(x, y) & Q(y) -> R(x)")
        assert list(
            sqlbackend.sql_sorted_premise_matches(dependency, self.TARGET)
        ) == list(_sorted_matches(dependency, self.TARGET)) == [
            {X: Constant("b"), Y: Constant("c")},
            {X: Constant("c"), Y: Constant("c")},
        ]


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
