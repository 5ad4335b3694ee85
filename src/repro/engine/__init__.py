"""The shared execution layer for all bounded model checking.

Everything the library verifies mechanically — subset properties,
inverse checks, soundness/faithfulness sweeps — reduces to chases
plus homomorphism tests fanned out over bounded instance universes.
This package concentrates the engineering that makes those loops
fast:

* :mod:`repro.engine.indexing` — fact indexes, built once per fact
  set, so the homomorphism join probes ``(relation, position, term)``
  posting lists instead of scanning relation extents;
* :mod:`repro.engine.cache` — content-addressed memoization of chase
  results (by exact facts, plus one entry per orbit in orbit-mode
  sweeps), verdicts (under canonical, isomorphism-respecting instance
  keys) and mappings derived from mappings (under exact keys), one
  memo path for every backend, with hit/miss counters.  What an
  instance's facts determine — its fact index, its kernel form and
  its canonical form — sits in the same kind of tier (``index``,
  ``kinstance``, ``canon``), keyed by the exact facts, so every memo
  follows ``--cache-size`` and ``reset_all_caches()``;
* :mod:`repro.engine.parallel` — the :class:`ParallelUniverseRunner`
  that chunks universe streams across worker processes it forks and
  supervises itself, with deterministic merge order and a serial
  fallback;
* :mod:`repro.engine.instrumentation` — per-phase timings and
  throughput counters surfaced by the CLI and benchmarks.

* :mod:`repro.engine.budget` — per-check resource budgets (deadline,
  instance cap, chase-step cap, RSS watermark) that degrade blown-up
  sweeps into partial verdicts instead of lost work;
* :mod:`repro.engine.checkpoint` — a journal of verified instance
  ranges (fingerprint-guarded against stale entries) so interrupted
  sweeps resume where they stopped, plus per-shard lease records for
  multi-process sharded sweeps with work-stealing;
* :mod:`repro.engine.store` — an on-disk, content-addressed
  chase/verdict store (SQLite; the ``--store`` / ``REPRO_STORE``
  knob) backing the memo caches as a write-through second level
  shared across runs, processes, and CI;
* :mod:`repro.engine.symmetry` — canonical forms of ground instances
  under domain permutation, orbit-reduced sweep plans (the
  ``--symmetry orbits`` mode), content-addressed sweep sharding (the
  ``--shards`` mode), and symmetry-aware cache keys;
* :mod:`repro.engine.compile` / :mod:`repro.engine.kernel` — the
  opt-in compiled backend (the ``--backend kernel`` mode): term
  interning, premises compiled once into ordered array join plans,
  and one compiled premise search per chase step, all byte-identical
  to the object backend's results;
* :mod:`repro.engine.sqlbackend` — the SQL backend (the ``--backend
  sql`` mode): the kernel backend with the stratified chase of large
  inputs run inside SQLite — instances lowered over the intern table
  with labeled nulls in a tagged id-space, full tgds fired as bulk
  ``INSERT … SELECT … EXCEPT`` rounds — the scaling path past what
  in-memory backends can chase, still byte-identical;
* :mod:`repro.engine.sweep` — the one sweep loop every bounded
  checker runs on.  A checker hands :func:`run_sweep` its sweep plan,
  a per-item task with its shared payload, and a fold that turns each
  task result into passing pairs and violations; ``run_sweep`` resolves
  the budget, opens one context scope for the budget, ground-key flag
  and backend, fans out,
  resumes from and records to the journal, stops at the first
  violation, degrades governed errors to partial coverage, weights
  orbits, and claims and merges shards.

A backend is a chase plus a homomorphism test: ``KernelBackend``
implements ``premise_matches``, ``stratified_chase``,
``all_homomorphisms`` and ``has_homomorphism``, and ``SqlBackend``
inherits them all except ``stratified_chase``, which runs inputs of
128 facts or more in SQLite.  A backend computes only what a chase or
verdict memo miss needs; the memos themselves are the same on every
backend.
``kernel.active_operations()`` returns them, or None on the object
backend, whose reference code stays inline in :mod:`repro.chase` and
:mod:`repro.core.mapping`.

All ambient engine state lives in :mod:`repro.engine.context`: one
per-thread ``EngineContext`` holds the budget and coverage events, the
backend, the ground-key flag, the governed-kind widening, the runner's
shared payload and task, and the sql backend's connection, so
concurrent service jobs never see each other's choices.
``context.scope(**fields)`` sets fields for a block and restores them
on exit, and the runner's workers, which the sweeping thread forks,
start with that thread's context.  The same class holds the
process-wide engine defaults (workers, budget limits, journal, store,
symmetry, shards, plan, backend, ...): each ``REPRO_*`` knob is parsed
once, at import, and :func:`set_defaults` is the one setter the CLI
and the daemon call.

The package depends only on :mod:`repro.datamodel` and
:mod:`repro.errors`; the chase, core, analysis, and data-exchange
layers all route through it.
"""

from repro.engine.budget import (
    Budget,
    CoverageEvent,
    SweepVerdict,
    coverage_events,
    coverage_scope,
    current_budget,
    default_budget,
    record_coverage,
    reset_coverage_events,
    use_budget,
    worst_coverage,
)
from repro.engine.cache import (
    CacheStats,
    MemoCache,
    active_store,
    all_cache_stats,
    cached_chase_result,
    canonical_key,
    canonicalize_instance,
    chase_cache,
    configured_maxsize,
    exact_key,
    flush_active_store,
    mapping_key,
    reset_all_caches,
    resize_caches,
    verdict_cache,
)
from repro.engine.checkpoint import (
    CheckpointJournal,
    claim_shards,
    default_journal,
    shard_entry_key,
    sweep_key,
)
from repro.engine.compile import CompiledPremise
from repro.engine.context import set_defaults
from repro.engine.faults import (
    FAULT_POINTS,
    FaultPlane,
    FaultRule,
    active_plane,
    fault_scope,
)
from repro.engine.fsck import FsckReport, fsck_checkpoint, fsck_store
from repro.engine.indexing import FactIndex, fact_index
from repro.engine.kernel import (
    BACKEND_KERNEL,
    BACKEND_MODES,
    BACKEND_OBJECT,
    BACKEND_SQL,
    InternTable,
    KernelInstance,
    active_backend,
    default_backend,
    intern_table,
    kernel_instance,
    resolve_backend,
    use_backend,
)
from repro.engine.sqlbackend import (
    SqlInstance,
    default_sql_db,
    sql_instance,
    sql_stratified_chase,
)
from repro.engine.instrumentation import (
    EngineStats,
    engine_stats,
    reset_engine_stats,
)
from repro.engine.parallel import (
    ParallelUniverseRunner,
    default_task_timeout,
    default_workers,
    fork_available,
)
from repro.engine.store import (
    ENGINE_VERSION,
    VerdictStore,
    stable_digest,
    use_store,
)
from repro.engine.sweep import SweepResult, run_sweep
from repro.engine.symmetry import (
    SYMMETRY_FULL,
    SYMMETRY_MODES,
    SYMMETRY_ORBITS,
    GroundCanonicalForm,
    OrbitClass,
    SweepPlan,
    count_orbits,
    decanonicalize,
    default_shards,
    default_symmetry,
    ground_canonical_form,
    ground_keys_active,
    ground_pair_key,
    mapping_permutation_invariant,
    orbit_count_estimate,
    orbit_reduce,
    orbit_transport,
    plan_sweep,
    resolve_shards,
    resolve_symmetry,
    shard_of_facts,
    shard_of_instance,
)

__all__ = [
    "BACKEND_KERNEL",
    "BACKEND_MODES",
    "BACKEND_OBJECT",
    "BACKEND_SQL",
    "Budget",
    "CacheStats",
    "CheckpointJournal",
    "CompiledPremise",
    "CoverageEvent",
    "ENGINE_VERSION",
    "EngineStats",
    "FAULT_POINTS",
    "FactIndex",
    "FaultPlane",
    "FaultRule",
    "FsckReport",
    "GroundCanonicalForm",
    "InternTable",
    "KernelInstance",
    "MemoCache",
    "OrbitClass",
    "ParallelUniverseRunner",
    "SYMMETRY_FULL",
    "SYMMETRY_MODES",
    "SYMMETRY_ORBITS",
    "SqlInstance",
    "SweepPlan",
    "SweepResult",
    "SweepVerdict",
    "VerdictStore",
    "active_backend",
    "active_plane",
    "active_store",
    "all_cache_stats",
    "cached_chase_result",
    "canonical_key",
    "canonicalize_instance",
    "chase_cache",
    "claim_shards",
    "configured_maxsize",
    "count_orbits",
    "coverage_events",
    "coverage_scope",
    "current_budget",
    "decanonicalize",
    "default_backend",
    "default_budget",
    "default_journal",
    "default_shards",
    "default_sql_db",
    "default_symmetry",
    "default_task_timeout",
    "default_workers",
    "engine_stats",
    "exact_key",
    "fact_index",
    "fault_scope",
    "flush_active_store",
    "fork_available",
    "fsck_checkpoint",
    "fsck_store",
    "ground_canonical_form",
    "ground_keys_active",
    "ground_pair_key",
    "intern_table",
    "kernel_instance",
    "mapping_key",
    "mapping_permutation_invariant",
    "orbit_count_estimate",
    "orbit_reduce",
    "orbit_transport",
    "plan_sweep",
    "record_coverage",
    "reset_all_caches",
    "reset_coverage_events",
    "reset_engine_stats",
    "resize_caches",
    "resolve_backend",
    "resolve_shards",
    "resolve_symmetry",
    "run_sweep",
    "set_defaults",
    "shard_entry_key",
    "shard_of_facts",
    "shard_of_instance",
    "sql_instance",
    "sql_stratified_chase",
    "stable_digest",
    "sweep_key",
    "use_backend",
    "use_budget",
    "use_store",
    "verdict_cache",
    "worst_coverage",
]
