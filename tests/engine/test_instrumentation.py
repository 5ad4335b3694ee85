"""Tests for the engine's counter naming and machine-readable stats."""

import sys
import threading

from repro.engine.cache import MemoCache, all_cache_stats
from repro.engine.instrumentation import EngineStats, engine_stats


class TestCounterNaming:
    def test_cache_counters_use_canonical_keys(self):
        cache = MemoCache("naming-demo", maxsize=4)
        cache.get("missing")
        cache.put("present", 1)
        cache.get("present")
        counters = cache.stats().counters()
        assert counters == {
            "naming-demo_cache_hits": 1,
            "naming-demo_cache_misses": 1,
            "naming-demo_cache_evictions": 0,
        }

    def test_engine_counters_and_render_share_names(self):
        # the rendered report and the machine-readable dict are built
        # from the same CacheStats.counters() keys — any drift (the old
        # chase_hits vs chase_cache_hits split) fails here
        counters = engine_stats().counters()
        for stats in all_cache_stats():
            prefix = f"{stats.name}_cache"
            for suffix in ("hits", "misses", "evictions"):
                assert f"{prefix}_{suffix}" in counters
                assert f"{stats.name}_{suffix}" not in counters or (
                    f"{stats.name}_{suffix}" == f"{prefix}_{suffix}"
                )
            rendered = stats.render()
            assert rendered.startswith(f"cache {stats.name}")

    def test_phase_counters_flattened(self):
        stats = EngineStats()
        with stats.phase("chase"):
            pass
        with stats.phase("chase"):
            pass
        counters = stats.counters()
        assert counters["chase_calls"] == 2
        assert counters["chase_seconds"] >= 0.0
        assert counters["instances_processed"] == 0
        assert counters["worker_faults"] == 0


class TestConcurrentBumps:
    def test_concurrent_bumps_lose_no_increments(self):
        # Daemon jobs bump the process-global counters from several
        # threads at once; a read-modify-write that a thread switch can
        # split loses increments.
        stats = EngineStats()
        threads, bumps = 8, 50_000
        start = threading.Barrier(threads, timeout=10)

        def bump_all():
            start.wait()
            for _ in range(bumps):
                stats.bump("service_dedup_hits")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=bump_all) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert stats.counter("service_dedup_hits") == threads * bumps
