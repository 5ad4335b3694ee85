"""Lightweight engine instrumentation.

Every bounded check in the library decomposes into the same few
phases — chase, homomorphism search, verdict memoization, universe
fan-out — and the engine keeps one global :class:`EngineStats`
accumulator so the CLI and the benchmark harness can report where the
time went without threading a stats object through every call.

The accumulator is process-local by design: parallel workers keep
their own counters, and only the parent's numbers (which include the
fan-out wall-clock) are reported.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

# Concurrent daemon jobs bump the named counters from several threads,
# and a thread switch inside the read-modify-write would lose an
# increment.  Pool workers fork from daemon threads, so a fork taken
# mid-bump must not leave the child's copy of the lock held.
_BUMP_LOCK = threading.Lock()
os.register_at_fork(
    before=_BUMP_LOCK.acquire,
    after_in_parent=_BUMP_LOCK.release,
    after_in_child=_BUMP_LOCK.release,
)


@dataclass
class PhaseStats:
    """Accumulated wall-clock and call count for one named phase."""

    calls: int = 0
    seconds: float = 0.0

    def record(self, elapsed: float) -> None:
        self.calls += 1
        self.seconds += elapsed


@dataclass
class EngineStats:
    """Per-process counters for the bounded-checking engine."""

    phases: Dict[str, PhaseStats] = field(default_factory=dict)
    instances_processed: int = 0
    worker_faults: int = 0
    named: Dict[str, int] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a phase; nests safely (each level accumulates its own)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.phases.setdefault(name, PhaseStats()).record(elapsed)

    def count_instances(self, n: int = 1) -> None:
        self.instances_processed += n

    def count_worker_fault(self, n: int = 1) -> None:
        """A pool worker died or timed out and recovery kicked in."""
        self.worker_faults += n

    def bump(self, name: str, n: int = 1) -> None:
        """Increment an ad-hoc named counter (e.g. the service layer's
        ``service_dedup_hits`` or the journal's
        ``checkpoint_dropped_flushes``); surfaced by :meth:`counters`
        and :meth:`render` alongside the built-in ones."""
        with _BUMP_LOCK:
            self.named[name] = self.named.get(name, 0) + n

    def counter(self, name: str) -> int:
        return self.named.get(name, 0)

    def reset(self) -> None:
        self.phases.clear()
        self.instances_processed = 0
        self.worker_faults = 0
        self.named.clear()

    def snapshot(self) -> Dict[str, Tuple[int, float]]:
        """``{phase: (calls, seconds)}`` for machine-readable reports."""
        return {name: (s.calls, s.seconds) for name, s in sorted(self.phases.items())}

    def counters(self) -> Dict[str, float]:
        """Every engine counter in one flat machine-readable dict.

        Phase timings appear as ``<phase>_calls`` / ``<phase>_seconds``;
        cache counters appear under the canonical
        ``<name>_cache_{hits,misses,evictions}`` keys defined by
        :meth:`repro.engine.cache.CacheStats.counters` — the same keys
        the rendered report is built from, so the two can never drift
        apart on naming again."""
        from repro.engine.cache import active_store, all_cache_stats

        counters: Dict[str, float] = {}
        for name, stats in sorted(self.phases.items()):
            counters[f"{name}_calls"] = stats.calls
            counters[f"{name}_seconds"] = stats.seconds
        counters["instances_processed"] = self.instances_processed
        counters["worker_faults"] = self.worker_faults
        for name, value in sorted(self.named.items()):
            counters[name] = value
        for cache_stats in all_cache_stats():
            counters.update(cache_stats.counters())
        store = active_store()
        if store is not None:
            counters.update(store.stats().counters())
        return counters

    def render(self) -> str:
        """A compact multi-line report (phases, caches, store, throughput)."""
        from repro.engine.cache import active_store, all_cache_stats

        lines: List[str] = ["engine stats:"]
        for name, stats in sorted(self.phases.items()):
            lines.append(
                f"  phase {name:<22} {stats.calls:>8} calls  "
                f"{stats.seconds:>9.3f}s"
            )
        if self.instances_processed:
            lines.append(f"  instances processed      {self.instances_processed:>8}")
        if self.worker_faults:
            lines.append(f"  worker faults recovered  {self.worker_faults:>8}")
        for name, value in sorted(self.named.items()):
            lines.append(f"  {name:<24} {value:>8}")
        for cache_stats in all_cache_stats():
            lines.append(f"  {cache_stats.render()}")
        store = active_store()
        if store is not None:
            lines.append(f"  {store.stats().render()}")
        if len(lines) == 1:
            lines.append("  (no engine activity recorded)")
        return "\n".join(lines)


GLOBAL_STATS = EngineStats()


def engine_stats() -> EngineStats:
    """The process-global stats accumulator."""
    return GLOBAL_STATS


def reset_engine_stats() -> None:
    """Clear phase timings, instance counters, and cache counters."""
    from repro.engine.cache import reset_all_caches

    GLOBAL_STATS.reset()
    reset_all_caches()
