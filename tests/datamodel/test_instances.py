"""Unit tests for instances."""

import os
import pickle
import subprocess
import sys
import textwrap
import threading

import pytest

import repro
from repro.datamodel.atoms import Atom, atom
from repro.datamodel.instances import Instance, rename_apart
from repro.datamodel.schemas import Schema, SchemaError
from repro.datamodel.terms import Constant, Null, Variable
from repro.engine import (
    all_cache_stats,
    ground_canonical_form,
    reset_all_caches,
    resize_caches,
)
from repro.engine.indexing import FactIndex, fact_index


class TestConstruction:
    def test_build_coerces_rows(self):
        instance = Instance.build({"P": [("a", "b"), ("a", "c")]})
        assert len(instance) == 2
        assert atom("P", "a", "b") in instance

    def test_empty_is_falsy_and_shared(self):
        assert not Instance.empty()
        assert Instance.empty() == Instance.of([])

    def test_duplicate_facts_collapse(self):
        instance = Instance.of([atom("P", "a"), atom("P", "a")])
        assert len(instance) == 1

    def test_equality_is_by_fact_set(self):
        left = Instance.build({"P": [("a",), ("b",)]})
        right = Instance.of([atom("P", "b"), atom("P", "a")])
        assert left == right
        assert hash(left) == hash(right)


class TestQueries:
    def test_facts_for_is_sorted(self):
        instance = Instance.build({"P": [("b",), ("a",)]})
        assert instance.facts_for("P") == (atom("P", "a"), atom("P", "b"))

    def test_facts_for_missing_relation_is_empty(self):
        assert Instance.empty().facts_for("P") == ()

    def test_active_domain_and_kind_views(self):
        instance = Instance.of([atom("P", "a", Null("n"), Variable("x"))])
        assert instance.constants() == {Constant("a")}
        assert instance.nulls() == {Null("n")}
        assert instance.variables() == {Variable("x")}

    def test_is_ground(self):
        assert Instance.build({"P": [("a",)]}).is_ground()
        assert not Instance.of([atom("P", Null("n"))]).is_ground()

    def test_iteration_is_sorted(self):
        instance = Instance.build({"Q": [("b",)], "P": [("a",)]})
        assert list(instance) == [atom("P", "a"), atom("Q", "b")]


class TestSetOperations:
    def test_union_difference_subset(self):
        left = Instance.build({"P": [("a",)]})
        right = Instance.build({"P": [("b",)]})
        both = left.union(right)
        assert left.issubset(both) and right.issubset(both)
        assert both.difference(left) == right

    def test_union_accepts_raw_atoms(self):
        grown = Instance.empty().union([atom("P", "a")])
        assert len(grown) == 1

    def test_restrict_to_schema(self):
        instance = Instance.build({"P": [("a",)], "Q": [("b",)]})
        restricted = instance.restrict_to(Schema.of({"P": 1}))
        assert restricted == Instance.build({"P": [("a",)]})

    def test_substitute_maps_terms(self):
        instance = Instance.of([atom("P", Null("n"), "a")])
        image = instance.substitute({Null("n"): Constant("c")})
        assert image == Instance.build({"P": [("c", "a")]})


class TestValidation:
    def test_validate_accepts_conforming(self):
        Instance.build({"P": [("a",)]}).validate(Schema.of({"P": 1}))

    def test_validate_rejects_wrong_arity(self):
        with pytest.raises(SchemaError):
            Instance.build({"P": [("a", "b")]}).validate(Schema.of({"P": 1}))


class TestRenameApart:
    def test_colliding_nulls_are_renamed(self):
        instance = Instance.of([atom("P", Null("n0"))])
        renamed, mapping = rename_apart(instance, [Null("n0")])
        assert Null("n0") not in renamed.nulls()
        assert mapping

    def test_disjoint_nulls_untouched(self):
        instance = Instance.of([atom("P", Null("n0"))])
        renamed, mapping = rename_apart(instance, [Null("other")])
        assert renamed == instance
        assert mapping == {}


class TestRendering:
    def test_to_rows(self):
        instance = Instance.build({"P": [("a", "b")]})
        assert instance.to_rows() == {"P": [("a", "b")]}

    def test_pretty_of_empty(self):
        assert Instance.empty().pretty() == "(empty)"


def _rows():
    # shuffled-looking rows over three relations, so a build must sort
    return {
        "E": [(f"v{(7 * i) % 97}", f"v{(7 * i + 1) % 97}") for i in range(97)],
        "F": [(f"v{(5 * i) % 61}",) for i in range(61)],
        "G": [(Null(f"n{(3 * i) % 11}"), f"v{i}") for i in range(11)],
    }


def _ground_rows(variant):
    """:func:`_rows` over constants only, so that every instance has a
    canonical form, with one more fact that tells *variant* apart."""
    rows = _rows()
    rows["F"].append((f"v{61 + variant}",))
    rows["G"] = [(f"n{(3 * i) % 11}", f"v{i}") for i in range(11)]
    return rows


RELATIONS = ("E", "F", "G", "H")


def _reads(instance):
    """Everything the index answers, in a comparable form."""
    return (
        instance.relations(),
        tuple(instance.facts_for(relation) for relation in RELATIONS),
    )


class TestLazyIndex:
    """The per-relation index is built on the first read, not at
    construction, and is published only once complete."""

    def test_building_sorts_nothing_until_a_read(self, monkeypatch):
        calls = []
        sort_key = Atom.sort_key

        def counting(fact):
            calls.append(fact)
            return sort_key(fact)

        monkeypatch.setattr(Atom, "sort_key", counting)
        instance = Instance.build(_rows())
        instance.union([atom("F", "extra")]).difference(instance)
        assert len(instance) == 169
        assert instance.nulls() == {Null(f"n{i}") for i in range(11)}
        assert calls == []
        assert instance.facts_for("F")[0] == atom("F", "v0")
        assert len(calls) > 0

    @pytest.mark.parametrize(
        "tier_size", [None, 1], ids=["default-tiers", "one-entry-tiers"]
    )
    def test_threads_reading_fresh_instances_agree_with_a_serial_build(
        self, tier_size
    ):
        # Two fact sets, so that one-entry memo tiers make the threads
        # evict each other's index and canonical form in the middle of
        # a build.
        variants = (0, 1)
        expected = {}
        for variant in variants:
            serial = Instance.build(_ground_rows(variant))
            expected[variant] = (
                _reads(serial),
                FactIndex(serial).postings,
                ground_canonical_form(serial).key(),
            )
        reset_all_caches()
        # distinct objects with equal facts per variant, none read yet
        fresh = [
            (variant, Instance.build(_ground_rows(variant)))
            for variant in variants * 3
        ]
        threads_count = 8  # more threads than the host has cores
        barrier = threading.Barrier(threads_count)
        results = [None] * threads_count
        errors = []

        def read(slot):
            try:
                barrier.wait(timeout=30)
                seen = []
                for variant, instance in fresh:
                    seen.append(
                        (
                            variant,
                            (
                                _reads(instance),
                                fact_index(instance).postings,
                                ground_canonical_form(instance).key(),
                            ),
                        )
                    )
                results[slot] = seen
            except Exception as error:  # surfaced by the main thread
                errors.append(error)

        previous_size = resize_caches(tier_size)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=read, args=(slot,))
                for slot in range(threads_count)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
            resize_caches(previous_size)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for seen in results:
            assert len(seen) == len(fresh)
            for variant, reads in seen:
                assert reads == expected[variant]
        if tier_size == 1:
            tiers = {stats.name: stats for stats in all_cache_stats()}
            for name in ("index", "canon"):
                assert tiers[name].evictions > 0

    def test_pickling_before_and_after_the_first_read(self):
        # pool workers receive their instances pickled, read or not
        unread = pickle.loads(pickle.dumps(Instance.build(_rows())))
        read = Instance.build(_rows())
        expected = _reads(read)
        copied = pickle.loads(pickle.dumps(read))
        assert "_by_relation" not in vars(unread)
        assert unread == copied == read
        assert hash(unread) == hash(copied) == hash(read)
        assert _reads(unread) == _reads(copied) == expected


#: Eight threads make the first reads of the same fresh atoms and
#: instance (sort keys, the relation index, groundness, memo keys)
#: while cyclic garbage with a finalizer makes the collector run
#: bytecode, and so switch threads, in the middle of whatever
#: allocation triggered it.  With the lazy caches read through
#: ``__dict__``, CPython 3.11 under ``PYTHONMALLOC=debug`` segfaulted
#: in the collector within 200 rounds in 4 runs of 4.
_FIRST_READS = textwrap.dedent(
    """
    import gc, sys, threading
    from repro.datamodel.atoms import atom
    from repro.datamodel.instances import Instance
    from repro.datamodel.terms import Null
    from repro.engine.cache import canonical_key, exact_key

    class Finalized:
        def __init__(self):
            self.cycle = self

        def __del__(self):
            sum(range(20))

    ROUNDS = int(sys.argv[1])
    gc.set_threshold(5)
    sys.setswitchinterval(1e-6)
    for round_ in range(ROUNDS):
        facts = [atom("E", f"v{(7 * i + round_) % 97}", f"v{i}") for i in range(60)]
        facts += [atom("G", Null(f"n{i}"), f"v{i}") for i in range(5)]
        instance = Instance.of(atom("F", f"w{i}", Null(f"m{i % 3}")) for i in range(20))
        barrier = threading.Barrier(8)

        def read():
            barrier.wait(timeout=30)
            Finalized()
            Finalized()
            for fact in facts:
                fact.sort_key()
            instance.facts_for("F")
            instance.is_ground()
            exact_key(instance)
            canonical_key(instance)

        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        gc.collect()
    """
)


class TestConcurrentFirstReads:
    """Lazily cached attributes are safe to fill from several threads
    at once (see :mod:`repro.datamodel.terms`)."""

    def test_the_collector_survives_threads_filling_lazy_caches(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONMALLOC="debug", PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-X", "faulthandler", "-c", _FIRST_READS, "200"],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr[-3000:]
