"""Tests for the on-disk verdict store, sweep sharding, and the
checkpoint journal's integrity fixes (fingerprints, flush cleanup,
shard leases)."""

import glob
import itertools
import json
import os
import sqlite3
import subprocess
import sys
import threading
import time

import pytest

from repro.catalog import (
    decomposition,
    example_5_4,
    projection,
    projection_quasi_inverse,
    thm_4_8_inverse,
)
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Null
from repro.engine import (
    BACKEND_MODES,
    ENGINE_VERSION,
    VerdictStore,
    cached_chase_result,
    canonical_key,
    engine_stats,
    reset_all_caches,
    reset_engine_stats,
    set_defaults,
    shard_of_instance,
    stable_digest,
    use_store,
)
from repro.engine.budget import Budget
from repro.engine.cache import active_store, verdict_cache
from repro.engine.store import _encode
from repro.engine.checkpoint import (
    CheckpointJournal,
    claim_shards,
    shard_entry_key,
)
from repro.engine.symmetry import plan_sweep
from repro.core.framework import (
    Equality,
    SolutionEquivalence,
    is_generalized_inverse,
    is_inverse,
    subset_property,
)
from repro.workloads import power_instances

from tests.parity import Case, assert_parity, grid, show

REPO_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_all_caches()
    yield
    reset_all_caches()


def _projection_setup():
    mapping = projection()
    universe = list(
        power_instances(mapping.source, domain=("a", "b"), max_facts=2)
    )
    return mapping, SolutionEquivalence(mapping), universe


def _sharded_subset(**options):
    mapping, equivalence, universe = _projection_setup()
    return subset_property(
        mapping, equivalence, equivalence, universe,
        stop_at_first_violation=False, **options,
    )


def _sharded_is_inverse(**options):
    mapping, _, universe = _projection_setup()
    return is_inverse(
        mapping, projection_quasi_inverse(), universe,
        stop_at_first_mismatch=False, **options,
    )


def _sharded_generalized_inverse(**options):
    mapping, _, universe = _projection_setup()
    return is_generalized_inverse(
        mapping, projection_quasi_inverse(), Equality(), Equality(), universe,
        stop_at_first_mismatch=False, **options,
    )


#: The sharded checkers, without early stopping (their merged reports
#: are rows of the parity harness, ``tests/test_parity.py``).
SHARDED_CHECKS = {
    "subset": _sharded_subset,
    "is_inverse": _sharded_is_inverse,
    "is_generalized_inverse": _sharded_generalized_inverse,
}


def _pairs(report):
    """The violation entries of a subset or inverse report."""
    return getattr(report, "violations", ()) + getattr(report, "mismatches", ())


class TestStableDigest:
    def test_equal_keys_digest_equally(self):
        left = Instance.build({"P": [("a", Null("n"))]})
        right = Instance.build({"P": [("a", Null("n"))]})
        key = ("verdict", canonical_key(left))
        assert stable_digest(key) == stable_digest(
            ("verdict", canonical_key(right))
        )

    def test_distinct_keys_diverge(self):
        assert stable_digest(("a", 1)) != stable_digest(("a", "1"))
        assert stable_digest(("a",)) != stable_digest(("a", None))

    def test_digests_and_fingerprints_do_not_depend_on_the_hash_seed(self):
        # Thm 4.8' has a two-member Constant() set: a frozenset whose
        # iteration order follows PYTHONHASHSEED.  Seeds 0 and 1 order
        # it differently, so anything that digests through repr() or
        # iteration order prints two different lines here.
        script = (
            "from repro.catalog import named_mappings, thm_4_8, thm_4_8_inverse\n"
            "from repro.engine.cache import mapping_key\n"
            "from repro.engine.store import stable_digest\n"
            "from repro.engine.sweep import sweep_fingerprint\n"
            "from repro.workloads import power_instances\n"
            "forward, reverse = thm_4_8(), thm_4_8_inverse()\n"
            "universe = list(power_instances(forward.source, ('a', 'b'), max_facts=1))\n"
            "print(stable_digest(mapping_key(named_mappings()[\"Thm4.8'\"])))\n"
            "print(sweep_fingerprint('check.sound_on', 'full',\n"
            "    (mapping_key(forward), mapping_key(reverse)), (universe,)))\n"
        )
        printed = set()
        for seed in ("0", "1"):
            completed = subprocess.run(
                [sys.executable, "-c", script],
                env={
                    **{k: v for k, v in os.environ.items() if not k.startswith("REPRO_")},
                    "PYTHONHASHSEED": seed,
                    "PYTHONPATH": REPO_SRC,
                },
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            )
            printed.add(completed.stdout)
        assert len(printed) == 1, printed

    def test_dependencies_encode_field_by_field(self):
        dependency = thm_4_8_inverse().dependencies[0]
        out = []
        _encode(dependency, out)
        assert "r:" not in "".join(out)
        assert "Dependency" in out[0] and "Premise" in out[0]


class TestVerdictStore:
    def test_round_trip_chase_and_verdict(self, tmp_path):
        store = VerdictStore(tmp_path / "s.sqlite")
        instance = Instance.build({"P": [("a", Null("n"), "c")]})
        store.save("chase", ("k1",), instance)
        store.save("verdict", ("k2",), True)
        store.flush()
        hit, value = store.load("chase", ("k1",))
        assert hit and value == instance
        hit, value = store.load("verdict", ("k2",))
        assert hit and value is True
        hit, _ = store.load("verdict", ("absent",))
        assert not hit

    def test_unknown_caches_do_not_persist(self, tmp_path):
        store = VerdictStore(tmp_path / "s.sqlite")
        assert store.persists("chase") and store.persists("verdict")
        assert not store.persists("kinstance")
        store.save("kinstance", ("k",), object())
        store.flush()
        assert store.entry_count() == 0

    def test_entries_survive_reopen(self, tmp_path):
        path = tmp_path / "s.sqlite"
        first = VerdictStore(path)
        first.save("verdict", ("k",), False)
        first.close()
        second = VerdictStore(path)
        hit, value = second.load("verdict", ("k",))
        assert hit and value is False

    def test_engine_version_mismatch_drops_entries(self, tmp_path):
        path = tmp_path / "s.sqlite"
        old = VerdictStore(path, engine_version="ancient")
        old.save("verdict", ("k",), True)
        old.close()
        current = VerdictStore(path)  # ENGINE_VERSION
        hit, _ = current.load("verdict", ("k",))
        assert not hit
        # and the store is restamped: reopening with the current
        # version keeps newly written entries
        current.save("verdict", ("k2",), True)
        current.close()
        again = VerdictStore(path)
        assert again.load("verdict", ("k2",)) == (True, True)
        assert again.engine_version == ENGINE_VERSION

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        path = tmp_path / "s.sqlite"
        store = VerdictStore(path)
        store.save("chase", ("k",), Instance.build({"P": [("a",)]}))
        store.close()
        connection = sqlite3.connect(path)
        with connection:
            connection.execute("UPDATE entries SET value = 'not json'")
        connection.close()
        reopened = VerdictStore(path)
        hit, _ = reopened.load("chase", ("k",))
        assert not hit
        assert reopened.read_errors == 1
        assert reopened.integrity_errors == 1
        assert reopened.quarantine_count() == 1

    def test_unusable_path_is_counted_not_raised(self, tmp_path):
        store = VerdictStore(tmp_path / "no" / "such" / "dir" / "s.sqlite")
        store.save("verdict", ("k",), True)
        store.flush()
        hit, _ = store.load("verdict", ("other",))
        assert not hit
        assert store.stats().write_errors > 0

    def test_read_and_write_errors_counted_separately(self, tmp_path):
        store = VerdictStore(tmp_path / "no" / "such" / "dir" / "s.sqlite")
        hit, _ = store.load("verdict", ("k",))
        assert not hit
        assert store.read_errors == 1 and store.write_errors == 0
        store.save("verdict", ("k",), True)
        store.flush()
        assert store.write_errors == 1 and store.read_errors == 1
        counters = store.stats().counters()
        assert counters["store_read_errors"] == 1
        assert counters["store_write_errors"] == 1

    def test_fork_guard_protects_entries_buffered_by_the_child(self, tmp_path):
        store = VerdictStore(tmp_path / "s.sqlite")
        store.save("verdict", ("parent",), True)  # parent-buffered
        store._pid -= 1  # simulate a fork: inherited pid differs
        # the child's first store activity is a save — the inherited
        # buffer must be dropped *now*, not at the first _connect,
        # or the child's own entries would be discarded with it
        store.save("verdict", ("child",), True)
        store.flush()
        assert store.load("verdict", ("child",)) == (True, True)
        hit, _ = store.load("verdict", ("parent",))
        assert not hit  # the parent flushes its own buffer itself

    def test_threads_read_each_others_flushed_entries(self, tmp_path):
        # The service daemon runs jobs on threads that share the
        # installed store: a thread other than the one that opened the
        # connection must read and write without counted errors.  Both
        # threads stay alive throughout, so neither can inherit the
        # other's thread identity.
        store = VerdictStore(tmp_path / "s.sqlite", flush_interval=4)
        a_flushed, b_flushed = threading.Event(), threading.Event()
        loads = {}

        def thread_a():
            for index in range(3):
                store.save("verdict", ("a", index), True)
            store.flush()
            a_flushed.set()
            if b_flushed.wait(timeout=30):
                loads["a"] = [store.load("verdict", ("b", i)) for i in range(10)]

        def thread_b():
            if a_flushed.wait(timeout=30):
                loads["b"] = store.load("verdict", ("a", 1))
                for index in range(10):
                    store.save("verdict", ("b", index), False)
                store.flush()
            b_flushed.set()

        threads = [threading.Thread(target=body) for body in (thread_a, thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert loads["b"] == (True, True)
        assert loads["a"] == [(True, False)] * 10
        assert store.read_errors == 0 and store.write_errors == 0
        assert store.writes == 13 and not store._pending

    def test_concurrent_threads_lose_no_entries(self, tmp_path):
        # More threads than cores, switching as often as the
        # interpreter allows: a save racing a flush's batch would drop
        # or re-raise, and a second thread on the connection would
        # count errors.
        store = VerdictStore(tmp_path / "s.sqlite", flush_interval=4)
        tags = "abcdef"
        barrier = threading.Barrier(len(tags), timeout=10)
        failures = []

        def hammer(tag):
            try:
                barrier.wait()
                for index in range(100):
                    store.save("verdict", (tag, index), index % 2 == 0)
                    store.load("verdict", (tag, index // 2))
                store.flush()
            except Exception as error:  # surfaced below, not swallowed
                failures.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(t,)) for t in tags]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert failures == []
        assert store.read_errors == 0 and store.write_errors == 0
        assert store.entry_count() == 100 * len(tags)
        assert store.load("verdict", ("f", 98)) == (True, True)


class TestIntegrityFuzz:
    """Fuzzed on-disk corruption: every mangled row must read as a
    miss (recompute), increment the read/integrity counters, and land
    in quarantine — never crash, never serve a stale verdict."""

    def _seeded_store(self, path, n=12):
        store = VerdictStore(path)
        values = {}
        for i in range(n):
            if i % 2:
                cache_name, value = "verdict", bool(i % 3)
            else:
                cache_name = "chase"
                value = Instance.build({"P": [(f"a{i}", Null(f"n{i}"))]})
            memo_key = (f"k{i}",)
            store.save(cache_name, memo_key, value)
            values[(cache_name, memo_key)] = value
        store.close()
        return values

    def _mangle(self, path, seed):
        """Corrupt a deterministic subset of rows four different ways;
        returns the number of rows touched."""
        import random
        rng = random.Random(seed)
        connection = sqlite3.connect(path)
        rows = connection.execute(
            "SELECT cache, key, value FROM entries ORDER BY cache, key"
        ).fetchall()
        victims = rng.sample(rows, k=max(4, len(rows) // 3))
        with connection:
            for which, (cache_name, digest, payload) in enumerate(victims):
                if which % 4 == 0 and len(payload) > 1:  # bit flip
                    pos = rng.randrange(len(payload))
                    flipped = (
                        payload[:pos]
                        + chr(ord(payload[pos]) ^ 1)
                        + payload[pos + 1:]
                    )
                    connection.execute(
                        "UPDATE entries SET value = ?"
                        " WHERE cache = ? AND key = ?",
                        (flipped, cache_name, digest),
                    )
                elif which % 4 == 1:  # truncation (torn write)
                    connection.execute(
                        "UPDATE entries SET value = substr(value, 1, 2)"
                        " WHERE cache = ? AND key = ?",
                        (cache_name, digest),
                    )
                elif which % 4 == 2:  # checksum scribbled over
                    connection.execute(
                        "UPDATE entries SET checksum = 'deadbeef'"
                        " WHERE cache = ? AND key = ?",
                        (cache_name, digest),
                    )
                else:  # engine stamp transplanted
                    connection.execute(
                        "UPDATE entries SET engine = 'other-engine'"
                        " WHERE cache = ? AND key = ?",
                        (cache_name, digest),
                    )
        connection.close()
        return len(victims)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fuzzed_corruption_degrades_to_recompute(self, tmp_path, seed):
        path = tmp_path / "s.sqlite"
        values = self._seeded_store(path)
        mangled = self._mangle(path, seed)
        store = VerdictStore(path)
        hits = corrupt = 0
        for (cache_name, memo_key), expected in values.items():
            hit, value = store.load(cache_name, memo_key)
            if hit:
                hits += 1
                assert value == expected  # never a wrong verdict
            else:
                corrupt += 1
        assert corrupt >= 1  # the fuzzer did real damage
        assert hits + corrupt == len(values)
        assert store.read_errors == corrupt
        assert store.integrity_errors == corrupt
        assert store.quarantine_count() == corrupt
        assert store.stats().counters()["store_integrity_errors"] == corrupt
        assert corrupt <= mangled  # 1-char verdicts make bit flips no-ops

        # Recompute-and-repopulate: the same keys store and serve again.
        for (cache_name, memo_key), expected in values.items():
            store.save(cache_name, memo_key, expected)
        store.flush()
        for (cache_name, memo_key), expected in values.items():
            assert store.load(cache_name, memo_key) == (True, expected)
        store.close()

    def test_quarantine_preserves_the_corrupt_row(self, tmp_path):
        path = tmp_path / "s.sqlite"
        store = VerdictStore(path)
        store.save("verdict", ("k",), True)
        store.close()
        connection = sqlite3.connect(path)
        with connection:
            connection.execute("UPDATE entries SET checksum = 'scribble'")
        connection.close()
        reopened = VerdictStore(path)
        hit, _ = reopened.load("verdict", ("k",))
        assert not hit
        connection = sqlite3.connect(path)
        rows = connection.execute(
            "SELECT checksum, reason FROM quarantine"
        ).fetchall()
        remaining = connection.execute(
            "SELECT COUNT(*) FROM entries"
        ).fetchone()[0]
        connection.close()
        assert rows == [("scribble", "checksum mismatch")]
        assert remaining == 0  # moved, not copied

    def test_store_read_fault_point_is_a_counted_miss(self, tmp_path):
        from repro.engine import fault_scope

        engine_stats().reset()
        store = VerdictStore(tmp_path / "s.sqlite")
        store.save("verdict", ("k",), True)
        store.flush()
        with fault_scope("store.read:at=1"):
            hit, _ = store.load("verdict", ("k",))
            assert not hit
            assert store.read_errors == 1
            assert store.load("verdict", ("k",)) == (True, True)
        assert engine_stats().counter("fault_store_read") == 1

    def test_store_write_fault_point_rebuffers_entries(self, tmp_path):
        from repro.engine import fault_scope

        store = VerdictStore(tmp_path / "s.sqlite")
        store.save("verdict", ("k",), True)
        with fault_scope("store.write:at=1"):
            store.flush()
            assert store.write_errors == 1
            assert store.writes == 0
            store.flush()  # second attempt lands
            assert store.writes == 1
        assert store.load("verdict", ("k",)) == (True, True)


class TestStoreBackedCaches:
    def test_memory_miss_falls_through_and_promotes(self, tmp_path):
        with use_store(tmp_path / "s.sqlite") as store:
            verdict_cache.put(("k",), True)
            store.flush()
            verdict_cache.clear()
            hit, value = verdict_cache.get(("k",))
            assert hit and value is True
            assert store.hits == 1
            # promoted: the next get is a pure memory hit
            hit, _ = verdict_cache.get(("k",))
            assert hit and store.hits == 1

    def test_store_hit_matches_direct_computation(self, tmp_path):
        # A chase result served from disk must be the very instance the
        # solver produced for the same facts, chase-fresh nulls included.
        mapping = decomposition()

        def solve(_mapping, instance):
            return instance.union(
                Instance.build({"P": [(Null("fresh"), "x", "y")]})
            )

        seed = Instance.build({"P": [(Null("a"), "s", "t")]})
        direct = solve(mapping, seed)
        with use_store(tmp_path / "s.sqlite") as store:
            first = cached_chase_result(mapping, seed, solve)
            store.flush()
            reset_all_caches()  # drop memory; disk survives
            calls = []
            result = cached_chase_result(
                mapping,
                Instance.build({"P": [(Null("a"), "s", "t")]}),  # an equal copy
                lambda *args: calls.append(1) or solve(*args),
            )
            assert calls == []  # served from the store, not recomputed
            assert result == first == direct

    def test_use_store_restores_previous(self, tmp_path):
        assert active_store() is None
        with use_store(tmp_path / "s.sqlite"):
            assert active_store() is not None
            with use_store(None):
                assert active_store() is None
            assert active_store() is not None
        assert active_store() is None

    def test_checker_reports_identical_with_and_without_store(self, tmp_path):
        mapping, equivalence, universe = _projection_setup()
        baseline = subset_property(
            mapping, equivalence, equivalence, universe,
            stop_at_first_violation=False,
        )
        reset_all_caches()
        with use_store(tmp_path / "s.sqlite") as store:
            cold = subset_property(
                mapping, equivalence, equivalence, universe,
                stop_at_first_violation=False,
            )
            store.flush()
        reset_all_caches()
        with use_store(tmp_path / "s.sqlite") as store:
            warm = subset_property(
                mapping, equivalence, equivalence, universe,
                stop_at_first_violation=False,
            )
            assert store.hits > 0  # the warm run really used the disk
        assert cold == baseline
        assert warm == baseline


class TestEveryBackendWritesThrough:
    """The chase and verdict memos are one path on every backend, so
    every backend fills the store alike and answers a warm rerun from
    it."""

    @staticmethod
    def _sweep(backend):
        mapping = example_5_4()
        equivalence = SolutionEquivalence(mapping)
        universe = list(power_instances(mapping.source, ("a", "b"), max_facts=2))
        return subset_property(
            mapping, equivalence, equivalence, universe,
            stop_at_first_violation=False, backend=backend, workers=1,
        )

    @staticmethod
    def _rows(path):
        with sqlite3.connect(str(path)) as connection:
            return dict(
                connection.execute(
                    "SELECT cache, COUNT(*) FROM entries GROUP BY cache"
                )
            )

    def test_every_backend_writes_the_same_rows(self, tmp_path):
        def run(variant):
            path = tmp_path / f"{variant.backend}.sqlite"
            with use_store(path) as store:
                self._sweep(variant.backend)
                store.flush()
            rows = self._rows(path)
            assert rows["verdict"] > 0 and rows["chase"] > 0
            return show(sorted(rows.items()))

        assert_parity(Case("store rows", run, grid(BACKEND_MODES)))

    @pytest.mark.parametrize("backend", BACKEND_MODES)
    def test_a_warm_rerun_serves_every_verdict_from_the_store(
        self, tmp_path, backend
    ):
        path = tmp_path / "s.sqlite"
        with use_store(path) as store:
            cold = self._sweep(backend)
            store.flush()
        reset_all_caches()
        reset_engine_stats()
        with use_store(path) as store:
            warm = self._sweep(backend)
            assert store.hits > 0 and store.misses == 0
        assert verdict_cache.stats().misses == store.hits
        assert "homomorphism" not in engine_stats().phases  # nothing searched
        assert warm == cold


class TestDefaultStore:
    """A ``use_store`` block overrides the process default store, on
    its own thread only."""

    @pytest.fixture
    def default(self, tmp_path):
        previous = set_defaults(store=str(tmp_path / "default.sqlite"))
        yield active_store()
        set_defaults(**previous)

    def test_default_store_is_active_on_every_thread(self, default, tmp_path):
        assert default is not None
        assert default.path == str(tmp_path / "default.sqlite")
        seen = []
        thread = threading.Thread(target=lambda: seen.append(active_store()))
        thread.start()
        thread.join(timeout=30)
        assert seen == [default]

    def test_no_default_means_no_store(self, default):
        previous = set_defaults(store=None)
        try:
            assert previous == {"store": default}
            assert active_store() is None
        finally:
            set_defaults(**previous)
        assert active_store() is default

    def test_use_store_none_is_cold_under_a_default(self, default):
        with use_store(None):
            # the guaranteed-cold contract
            assert active_store() is None
        assert active_store() is default

    def test_programmatic_store_wins_over_the_default(self, default, tmp_path):
        mine = VerdictStore(tmp_path / "mine.sqlite")
        with use_store(mine):
            assert active_store() is mine
            seen = []
            thread = threading.Thread(target=lambda: seen.append(active_store()))
            thread.start()
            thread.join(timeout=30)
            assert seen == [default]  # the block is this thread's alone
        assert active_store() is default

    def test_default_store_set_after_a_block_is_followed(self, tmp_path):
        with use_store(None):
            pass
        previous = set_defaults(store=str(tmp_path / "later.sqlite"))
        try:
            assert active_store().path == str(tmp_path / "later.sqlite")
        finally:
            set_defaults(**previous)


class TestSharding:
    def test_shards_partition_every_universe(self):
        mapping, _, universe = _projection_setup()
        for shards in (2, 3, 4):
            owners = [shard_of_instance(inst, shards) for inst in universe]
            assert all(0 <= owner < shards for owner in owners)
            plan = plan_sweep("full", universe, mappings=(mapping,))
            kept = [
                inst
                for shard in range(shards)
                for inst in plan.shard(shards, shard).outer
            ]
            assert sorted(map(repr, kept)) == sorted(map(repr, plan.outer))

    def test_shard_assignment_is_orbit_invariant(self):
        # every member of an orbit lands on its representative's shard
        left = Instance.build({"P": [("a", "b", "c")]})
        renamed = Instance.build({"P": [("b", "a", "c")]})
        for shards in (2, 5):
            assert shard_of_instance(left, shards) == shard_of_instance(
                renamed, shards
            )

    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("check", sorted(SHARDED_CHECKS))
    def test_single_shard_reports_cover_disjoint_slices(self, check, shards):
        serial = SHARDED_CHECKS[check](shards=1)
        slices = [
            SHARDED_CHECKS[check](shards=shards, shard_id=which)
            for which in range(shards)
        ]
        assert sum(part.checked for part in slices) == serial.checked
        assert (
            sum(part.instances_checked for part in slices)
            == serial.instances_checked
        )
        found = [pair for part in slices for pair in _pairs(part)]
        assert len(set(found)) == len(found)
        assert set(found) == set(_pairs(serial))


class TestJournalFingerprint:
    def test_resume_requires_matching_fingerprint(self, tmp_path):
        path = str(tmp_path / "j.json")
        journal = CheckpointJournal(path)
        journal.record(
            "key", verified_upto=4, total=9, ok=True, violations=0,
            fingerprint="deadbeef", flush=True,
        )
        reloaded = CheckpointJournal(path)
        assert reloaded.resume_index("key", 9, "deadbeef") == 4
        assert reloaded.resume_index("key", 9, "different") == 0
        assert reloaded.resume_index("key", 8, "deadbeef") == 0

    def test_unfingerprinted_legacy_entry_never_matches(self, tmp_path):
        path = str(tmp_path / "j.json")
        journal = CheckpointJournal(path)
        journal.record(
            "key", verified_upto=4, total=9, ok=True, violations=0, flush=True
        )
        reloaded = CheckpointJournal(path)
        assert reloaded.resume_index("key", 9, "deadbeef") == 0
        assert reloaded.resume_index("key", 9) == 4  # legacy callers

    def test_stale_checkpoint_from_other_sweep_is_discarded(self, tmp_path):
        # The acceptance scenario: a journal recorded for mapping A is
        # offered to a sweep of mapping B whose universe happens to
        # have the same length.  The checker must restart, not resume.
        mapping_a, equivalence_a, universe = _projection_setup()
        journal = CheckpointJournal(str(tmp_path / "j.json"))
        report_a = subset_property(
            mapping_a, equivalence_a, equivalence_a, universe,
            stop_at_first_violation=False, checkpoint=journal,
        )
        assert report_a.holds
        # same name, same universe length, different constraints
        mapping_b = decomposition()
        mapping_b = type(mapping_b)(
            name=mapping_a.name,
            source=mapping_b.source,
            target=mapping_b.target,
            dependencies=mapping_b.dependencies,
        )
        universe_b = list(
            power_instances(mapping_b.source, domain=("a", "b"), max_facts=2)
        )[: len(universe)]
        equivalence_b = SolutionEquivalence(mapping_b)
        resumed = CheckpointJournal(str(tmp_path / "j.json"))
        report_b = subset_property(
            mapping_b, equivalence_b, equivalence_b, universe_b,
            stop_at_first_violation=False, checkpoint=resumed,
        )
        # a resumed-from-stale sweep would have skipped instances and
        # checked fewer pairs; the fingerprint forces the full sweep
        fresh = subset_property(
            mapping_b, equivalence_b, equivalence_b, universe_b,
            stop_at_first_violation=False,
        )
        assert report_b == fresh

    def test_checker_resumes_its_own_journal(self, tmp_path):
        mapping, equivalence, universe = _projection_setup()
        journal = CheckpointJournal(str(tmp_path / "j.json"))
        first = subset_property(
            mapping, equivalence, equivalence, universe,
            stop_at_first_violation=False, checkpoint=journal,
        )
        resumed_journal = CheckpointJournal(str(tmp_path / "j.json"))
        key = next(iter(resumed_journal._state))
        entry = resumed_journal._state[key]
        assert entry["complete"] and entry["fingerprint"]
        # a genuine re-run resumes past the completed sweep: the
        # report's local counters cover only post-resume work (zero)
        rerun = subset_property(
            mapping, equivalence, equivalence, universe,
            stop_at_first_violation=False, checkpoint=resumed_journal,
        )
        assert rerun.holds == first.holds
        assert rerun.checked == 0


class TestJournalFlush:
    def test_failed_flush_counts_and_cleans_temp(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.json"), resume=False)
        journal.record(
            "k", verified_upto=1, total=2, ok=True, violations=0, flush=True
        )
        reset_engine_stats()
        # make os.replace fail: the journal path becomes a directory
        os.unlink(tmp_path / "j.json")
        os.mkdir(tmp_path / "j.json")
        journal.record(
            "k", verified_upto=2, total=2, ok=True, violations=0, flush=True
        )
        assert engine_stats().counter("checkpoint_dropped_flushes") == 1
        assert glob.glob(str(tmp_path / ".repro-ckpt-*")) == []

    def test_engine_stats_surface_dropped_flushes(self, tmp_path):
        journal = CheckpointJournal(
            str(tmp_path / "missing" / "j.json"), resume=False
        )
        reset_engine_stats()
        journal.flush()
        counters = engine_stats().counters()
        assert counters["checkpoint_dropped_flushes"] == 1
        assert "checkpoint_dropped_flushes" in engine_stats().render()
        reset_engine_stats()
        assert "checkpoint_dropped_flushes" not in engine_stats().counters()


class TestShardLeases:
    def test_claim_is_exclusive_until_released(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.json"))
        assert journal.claim_shard("base", 0, 2, owner="alice")
        assert journal.claim_shard("base", 0, 2, owner="alice")  # re-entrant
        assert not journal.claim_shard("base", 0, 2, owner="bob")
        journal.release_shard("base", 0, 2, owner="bob")  # not the owner
        assert not journal.claim_shard("base", 0, 2, owner="bob")
        journal.release_shard("base", 0, 2, owner="alice")
        assert journal.claim_shard("base", 0, 2, owner="bob")

    def test_expired_lease_is_stolen(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.json"))
        assert journal.claim_shard("base", 1, 2, owner="dead", ttl=0.0)
        assert journal.claim_shard("base", 1, 2, owner="thief")

    def test_steal_lost_when_lease_turns_live_after_read(
        self, tmp_path, monkeypatch
    ):
        # TOCTOU guard: a peer completes its own steal and writes a
        # fresh live lease between our expiry check and our removal.
        # The steal must detect this after the atomic rename, restore
        # the peer's lease, and lose — never destroy a live lease.
        journal = CheckpointJournal(str(tmp_path / "j.json"))
        assert journal.claim_shard("base", 0, 2, owner="dead", ttl=0.0)
        real_read = CheckpointJournal._read_lease

        def raced_read(path):
            if ".steal-" in path:
                # what the rename actually captured: the peer's fresh
                # lease, written after our expiry check
                return {"owner": "peer", "expires": time.time() + 60.0}
            return real_read(path)

        monkeypatch.setattr(
            CheckpointJournal, "_read_lease", staticmethod(raced_read)
        )
        assert not journal.claim_shard("base", 0, 2, owner="thief")
        monkeypatch.setattr(
            CheckpointJournal, "_read_lease", staticmethod(real_read)
        )
        # the (restored) lease file is back in place, not unlinked
        lease_files = glob.glob(str(tmp_path / "j.json.lease-*"))
        assert len(lease_files) == 1 and ".steal-" not in lease_files[0]

    def test_claim_shards_runs_everything_without_journal(self):
        assert list(claim_shards(None, "base", 3, owner="solo")) == [0, 1, 2]

    def test_claim_shards_skips_completed_and_steals_expired(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.json"))
        # shard 0: already complete in the journal
        journal.complete(
            shard_entry_key("base", 0, 3),
            total=5, ok=True, violations=0, fingerprint="fp",
        )
        # shard 1: leased by a dead worker whose lease expired
        assert journal.claim_shard("base", 1, 3, owner="dead", ttl=0.0)
        ran = []
        for shard in claim_shards(
            journal, "base", 3, owner="me", fingerprint="fp"
        ):
            ran.append(shard)
            journal.complete(
                shard_entry_key("base", shard, 3),
                total=5, ok=True, violations=0, fingerprint="fp",
            )
        assert ran == [1, 2]

    def test_claim_shards_returns_when_shards_cannot_complete(self, tmp_path):
        # A budget-tripped shard sweep records an *incomplete* journal
        # entry; since the exhausted budget is shared, re-claiming the
        # shard can never advance it.  The claim loop must yield each
        # shard at most once and then return — not spin forever.
        journal = CheckpointJournal(str(tmp_path / "j.json"))
        ran = []
        claims = claim_shards(journal, "base", 2, owner="me", fingerprint="fp")
        for shard in itertools.islice(claims, 10):
            ran.append(shard)
            journal.record(
                shard_entry_key("base", shard, 2),
                verified_upto=1, total=5, ok=True, violations=0,
                fingerprint="fp", flush=True,
            )
        assert ran == [0, 1]  # each shard tried exactly once

    def test_claim_shards_still_finishes_mixed_outcomes(self, tmp_path):
        # one shard completes, one stalls: the loop returns after
        # trying both, with the completed shard recorded as such
        journal = CheckpointJournal(str(tmp_path / "j.json"))
        ran = []
        claims = claim_shards(journal, "base", 2, owner="me", fingerprint="fp")
        for shard in itertools.islice(claims, 10):
            ran.append(shard)
            if shard == 0:
                journal.complete(
                    shard_entry_key("base", shard, 2),
                    total=5, ok=True, violations=0, fingerprint="fp",
                )
            else:
                journal.record(
                    shard_entry_key("base", shard, 2),
                    verified_upto=2, total=5, ok=True, violations=0,
                    fingerprint="fp", flush=True,
                )
        assert ran == [0, 1]
        assert journal.shard_states("base", 2, fingerprint="fp") == [
            "complete", "open",
        ]

    def test_sharded_sweep_with_exhausted_budget_reports_partial(
        self, tmp_path
    ):
        # End-to-end regression: shards>1, no shard_id, a journal, and
        # a budget that trips almost immediately must terminate with a
        # partial-coverage report like the serial path — not hang in
        # the claim loop.
        from repro.engine.budget import reset_coverage_events

        mapping, equivalence, universe = _projection_setup()
        try:
            report = subset_property(
                mapping, equivalence, equivalence, universe,
                stop_at_first_violation=False, shards=2, workers=1,
                checkpoint=CheckpointJournal(str(tmp_path / "j.json")),
                budget=Budget(max_instances=1),
            )
        finally:
            reset_coverage_events()
        assert report.coverage == "budget"
        assert report.instances_checked <= 1

    def test_two_workers_split_the_sweep(self, tmp_path):
        # the coordinator path end-to-end: worker A completes shard 0,
        # worker B (a fresh journal object on the same file) claims
        # only what is left and folds A's verdict in
        mapping, equivalence, universe = _projection_setup()
        serial = subset_property(
            mapping, equivalence, equivalence, universe,
            stop_at_first_violation=False,
        )
        path = str(tmp_path / "j.json")
        shard0 = subset_property(
            mapping, equivalence, equivalence, universe,
            stop_at_first_violation=False,
            checkpoint=CheckpointJournal(path), shards=2, shard_id=0,
        )
        merged = subset_property(
            mapping, equivalence, equivalence, universe,
            stop_at_first_violation=False,
            checkpoint=CheckpointJournal(path), shards=2,
        )
        assert merged.holds == serial.holds
        assert shard0.checked + merged.checked == serial.checked

    def test_lease_files_are_json(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.json"))
        assert journal.claim_shard("base", 0, 2, owner="alice", ttl=60.0)
        lease_files = glob.glob(str(tmp_path / "j.json.lease-*"))
        assert len(lease_files) == 1
        with open(lease_files[0], "r", encoding="utf-8") as handle:
            lease = json.load(handle)
        assert lease["owner"] == "alice"
        assert lease["expires"] > 0
