"""Unit tests for the compiled relational kernel backend."""

import sys
import threading
from array import array

import pytest

from repro.catalog import example_5_4
from repro.chase.standard import _sorted_matches
from repro.core import SolutionEquivalence, subset_property
from repro.core.mapping import SchemaMapping, universal_solution
from repro.datamodel.atoms import atom
from repro.datamodel.instances import Instance
from repro.datamodel.schemas import Schema
from repro.datamodel.terms import Constant, Null, Variable
from repro.dependencies.parser import parse_dependency
from repro.engine import reset_all_caches, use_backend
from repro.engine.budget import (
    Budget,
    coverage_events,
    coverage_scope,
    current_budget,
    governed_coverage,
    record_coverage,
    use_budget,
)
from repro.engine.context import scope
from repro.engine.kernel import (
    BACKEND_KERNEL,
    BACKEND_OBJECT,
    InternTable,
    KernelBackend,
    active_backend,
    active_operations,
    default_backend,
    intern_table,
    kernel_has_homomorphism,
    kernel_instance,
    kinstance_cache,
    resolve_backend,
    sorted_premise_matches,
)
from repro.engine.symmetry import ground_keys_active
from repro.errors import CompositionBudgetError
from repro.workloads import instance_universe, random_ground_instance

X, Y = Variable("x"), Variable("y")


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


class TestKernelInstance:
    def test_rows_follow_sorted_fact_order(self):
        instance = Instance.build({"P": [("b", "a"), ("a", "c"), ("a", "b")]})
        kinst = kernel_instance(instance)
        table = intern_table()
        decoded = [
            tuple(table.term(tid) for tid in row) for row in kinst.rows["P"]
        ]
        expected = [fact.args for fact in instance.facts_for("P")]
        assert decoded == expected

    def test_postings_are_packed_ascending_row_indexes(self):
        instance = Instance.build({"P": [("a", "b"), ("a", "c"), ("d", "b")]})
        kinst = kernel_instance(instance)
        tid = intern_table().intern(Constant("a"))
        posting = kinst.postings[("P", 0, tid)]
        assert isinstance(posting, array) and posting.typecode == "q"
        assert list(posting) == sorted(posting)
        assert len(posting) == 2

    def test_ground_flag(self):
        assert kernel_instance(Instance.build({"P": [("a", "b")]})).is_ground
        withnull = Instance.build({"P": [(Null("n"), Constant("b"))]})
        assert not kernel_instance(withnull).is_ground

    def test_copies_share_one_kernel_instance(self):
        instance = Instance.build({"P": [("a", "b")]})
        clone = Instance.build({"P": [("a", "b")]})
        assert kernel_instance(instance) is kernel_instance(clone)

    def test_reset_drops_instance_memos(self):
        instance = Instance.build({"P": [("a", "b")]})
        before = kernel_instance(instance)
        reset_all_caches()
        after = kernel_instance(instance)
        assert after is not before


class TestBackendSelection:
    def test_resolve_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            resolve_backend("gpu")

    def test_environment_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "kernel")
        assert default_backend() == BACKEND_KERNEL
        assert active_backend() == BACKEND_KERNEL
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        assert default_backend() == BACKEND_OBJECT

    def test_use_backend_nests_and_restores(self):
        assert active_backend() != BACKEND_KERNEL
        with use_backend("kernel"):
            assert active_backend() == BACKEND_KERNEL
            with use_backend("object"):
                assert active_backend() != BACKEND_KERNEL
            assert active_backend() == BACKEND_KERNEL
        assert active_backend() != BACKEND_KERNEL

    def test_sweep_runs_on_the_scoped_backend(self):
        # A sweep given no backend= runs on the thread's backend, not
        # on REPRO_BACKEND's default.
        mapping = example_5_4()
        relation = SolutionEquivalence(mapping)
        universe = instance_universe(mapping.source, ["a", "b"], max_facts=1)
        reset_all_caches()
        with use_backend("kernel"):
            subset_property(mapping, relation, relation, universe)
        assert kinstance_cache.stats().misses > 0

    def test_each_backend_selects_its_operations(self):
        from repro.engine.sqlbackend import SqlBackend

        with use_backend("object"):
            assert active_operations() is None
        with use_backend("kernel"):
            assert type(active_operations()) is KernelBackend
        with use_backend("sql"):
            assert type(active_operations()) is SqlBackend

    def test_concurrent_scopes_are_per_thread(self):
        # Two daemon jobs hold their own backend, ground-key, budget,
        # governed-kind and coverage-event scopes at the same time;
        # each must see only its own, and the process must be back on
        # the defaults once both are gone.  Thread "a" exits first, so
        # a process-global scope would be restored to a stale value by
        # "b".
        both_inside = threading.Barrier(2, timeout=10)
        both_read = threading.Barrier(2, timeout=10)
        a_exited = threading.Event()
        budgets = {"a": Budget(deadline=3600.0), "b": Budget(max_instances=9)}
        trip = CompositionBudgetError("too many nulls", kind="composition_nulls")
        main_events = coverage_events()
        seen = {}

        def job(name, backend, ground_keys, governed):
            with use_backend(backend), scope(
                ground_keys=ground_keys, governed=governed
            ), use_budget(budgets[name]), coverage_scope():
                record_coverage(f"check.{name}", "budget")
                both_inside.wait()
                seen[name] = (
                    active_backend(),
                    ground_keys_active(),
                    current_budget() is budgets[name],
                    governed_coverage(trip),
                    [event.phase for event in coverage_events()],
                )
                both_read.wait()
                if name == "b":
                    assert a_exited.wait(timeout=10)
            if name == "a":
                a_exited.set()

        threads = [
            threading.Thread(
                target=job,
                args=("a", "sql", True, frozenset({"composition_nulls"})),
            ),
            threading.Thread(target=job, args=("b", "kernel", False, frozenset())),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert seen == {
            "a": ("sql", True, True, "budget", ["check.a"]),
            "b": ("kernel", False, True, None, ["check.b"]),
        }
        assert active_backend() == default_backend()
        assert not ground_keys_active()
        assert current_budget() is None
        assert governed_coverage(trip) is None
        assert coverage_events() == main_events


class TestInternTableConcurrency:
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


def _projection_mapping():
    return SchemaMapping.from_text(
        Schema.of({"R": 2}),
        Schema.of({"S": 1}),
        "R(x, y) -> S(x)",
        name="Projection",
    )


def _edges(n_facts):
    """A seeded random ground ``E`` instance of exactly *n_facts* facts."""
    instance = random_ground_instance(
        Schema.of({"E": 2}), seed=n_facts, n_facts=n_facts, domain_size=12
    )
    assert len(instance.facts) == n_facts
    return instance


class TestSortedPremiseMatches:
    @pytest.mark.parametrize("n_facts", [1, 8, 32, 70])
    def test_ground_matches_equal_object_backend(self, n_facts):
        dependency = parse_dependency("E(x, y), E(y, z) -> F(x, z)")
        instance = _edges(n_facts)
        expected = _sorted_matches(dependency, instance)
        with use_backend("kernel"):
            actual = _sorted_matches(dependency, instance)
        assert list(actual) == list(expected)

    def test_non_ground_matches_equal_object_backend(self):
        dependency = parse_dependency("R(x, y) -> S(x)")
        instance = Instance.build({"R": [(Null("n"), Constant("b"))]})
        expected = _sorted_matches(dependency, instance)
        with use_backend("kernel"):
            actual = sorted_premise_matches(dependency, instance)
        assert list(actual) == list(expected)

    def test_growing_instances_match_like_object_backend(self):
        # each instance is searched on its own; every list equals a
        # from-scratch object search
        dependency = parse_dependency("R(x, y) -> S(x)")
        facts = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a")]
        for size in range(1, len(facts) + 1):
            instance = Instance.build({"R": facts[:size]})
            expected = _sorted_matches(dependency, instance)
            with use_backend("kernel"):
                actual = _sorted_matches(dependency, instance)
            assert list(actual) == list(expected)

    def test_cold_search_builds_one_kernel_instance(self):
        # the search runs over the operand alone: no sub-instance of it
        # is lowered along the way
        dependency = parse_dependency("E(x, y), E(y, z) -> F(x, z)")
        instance = _edges(8)
        reset_all_caches()
        sorted_premise_matches(dependency, instance)
        assert kinstance_cache.misses == 1


class TestKernelVerdicts:
    def test_chase_results_byte_identical(self):
        mapping = _projection_mapping()
        source = Instance.build({"R": [("a", "b"), ("b", "b")]})
        expected = universal_solution(mapping, source)
        reset_all_caches()
        with use_backend("kernel"):
            actual = universal_solution(mapping, source)
        assert actual.facts == expected.facts

    def test_hom_existence_memoized_per_instance(self):
        source = Instance.build({"P": [("a", "b")]})
        target = Instance.build({"P": [("a", "b"), ("c", "d")]})
        assert kernel_has_homomorphism(source, target)
        ksrc = kernel_instance(source)
        assert ksrc.hom_memo[kernel_instance(target).kid] is True
        assert kernel_has_homomorphism(source, target)

    def test_hom_existence_negative(self):
        source = Instance.build({"P": [("a", "a")]})
        target = Instance.build({"P": [("a", "b")]})
        assert not kernel_has_homomorphism(source, target)
        # nulls are mappable, constants rigid
        flexible = Instance.build({"P": [(Null("n"), Null("n"))]})
        assert kernel_has_homomorphism(flexible, source)
        assert not kernel_has_homomorphism(flexible, target)

    def test_first_match_agrees_on_atom_reordering(self):
        # the compiled plan must replicate the object backend's greedy
        # atom order (most-bound, then smallest extent) exactly
        from repro.chase.homomorphism import find_homomorphism

        target = Instance.build(
            {"P": [("a", "b"), ("b", "c")], "Q": [("b",), ("c",)]}
        )
        premise = [atom("P", X, Y), atom("Q", Y)]
        expected = find_homomorphism(premise, target)
        with use_backend("kernel"):
            actual = find_homomorphism(premise, target)
        assert actual == expected
