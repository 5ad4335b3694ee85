"""The program's layers as the ledger sees them: which public functions
are wrapped, which per-layer metrics are derived from their spans and
the engine's counters, and which end-to-end metric on which workload
each per-layer metric is expected to move (``moves``).

The ``moves`` column is the prediction a later change is held to: a
change that claims a gain names one of these pairs before it is made.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from stats import percentile, self_times, union_length
from tracer import SpanBuffer, SpanDump, Target


# -- result hooks ----------------------------------------------------------


def _membership(buffer: SpanBuffer, result: Any, outermost: bool) -> None:
    if result:
        buffer.tally("membership_accepted", 1)


def _sweep(buffer: SpanBuffer, result: Any, outermost: bool) -> None:
    """Count a sweep's coverage once, at the outermost framework call
    (``is_quasi_inverse`` returns its inner check's report, and
    ``invertibility_report`` nests a subset sweep)."""
    if not outermost:
        return
    buffer.tally("sweep_instances", getattr(result, "instances_checked", 0) or 0)
    pairs = getattr(result, "checked", None)
    if pairs is None:
        subset = getattr(result, "quasi_subset_property", None)
        pairs = getattr(subset, "checked", 0)
    buffer.tally("sweep_pairs", pairs or 0)


def _plan(buffer: SpanBuffer, result: Any, outermost: bool) -> None:
    if getattr(result, "reduced", False):
        buffer.tally("orbits", len(result.outer))
        buffer.tally("orbit_instances", sum(result.weights))


TARGETS: Tuple[Target, ...] = (
    Target("chase", "repro.chase.standard", "chase"),
    Target("homomorphism", "repro.chase.homomorphism", "all_homomorphisms"),
    Target("homomorphism", "repro.chase.homomorphism", "find_homomorphism"),
    Target("homomorphism", "repro.chase.homomorphism", "instance_homomorphism"),
    Target("generators", "repro.core.generators", "minimal_generators"),
    Target("generators", "repro.core.generators", "minimal_generators_exhaustive"),
    Target("composition", "repro.core.composition", "composition_membership", _membership),
    Target("composition", "repro.core.composition", "compose_full"),
    Target("mapping", "repro.core.mapping", "is_solution"),
    Target("mapping", "repro.core.mapping", "universal_solution"),
    Target("framework", "repro.core.framework", "subset_property", _sweep),
    Target("framework", "repro.core.framework", "unique_solutions_property", _sweep),
    Target("framework", "repro.core.framework", "is_inverse", _sweep),
    Target("framework", "repro.core.framework", "is_quasi_inverse", _sweep),
    Target("framework", "repro.core.framework", "is_generalized_inverse", _sweep),
    Target("framework", "repro.dataexchange.recovery", "sound_on", _sweep),
    Target("framework", "repro.dataexchange.recovery", "faithful_on", _sweep),
    Target("framework", "repro.analysis.invertibility", "invertibility_report", _sweep),
    Target("symmetry", "repro.engine.symmetry", "plan_sweep", _plan),
    Target("symmetry", "repro.engine.symmetry", "ground_canonical_form"),
    Target("symmetry", "repro.engine.symmetry", "orbit_reduce"),
    Target("store", "repro.engine.store", "VerdictStore.flush"),
    Target("sqlbackend", "repro.engine.sqlbackend", "sql_instance"),
    Target("sqlbackend", "repro.engine.sqlbackend", "sql_stratified_chase"),
    Target("sqlbackend", "repro.engine.sqlbackend", "sql_all_homomorphisms"),
    Target("sqlbackend", "repro.engine.sqlbackend", "sql_has_homomorphism"),
    Target("sqlbackend", "repro.engine.sqlbackend", "sql_sorted_premise_matches"),
    Target("datamodel", "repro.datamodel.instances", "Instance.build"),
    Target("parallel", "repro.engine.parallel", "ParallelUniverseRunner.map_iter"),
    Target("algebra", "repro.algebra.plan", "plan_expression"),
    Target("algebra", "repro.algebra.sweeps", "check_expression"),
)

#: Spans whose outermost-inclusive time is reported (``*_s`` metrics
#: that are not self times).
_INCLUSIVE = frozenset(
    {
        "composition:compose_full",
        "store:VerdictStore.flush",
        "sqlbackend:sql_instance",
        "datamodel:Instance.build",
        "algebra:plan_expression",
    }
)

_SWEEPS = "wall_s@paper_sweeps"
_P50 = "job_latency_p50_s@service_mix"
_P90 = "job_latency_p90_s@service_mix"
_INVERSE = "wall_s@inverse_exact"
_CHAIN = "wall_s@chain_chase"
_SERVICE = "job_latency_p50_s,job_latency_p90_s,jobs_per_s@service_mix"

#: (name, unit, moves): every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("chase.calls", "count", f"{_SWEEPS};{_P50}"),
    ("chase.self_s", "s", f"{_SWEEPS};{_P50}"),
    ("homomorphism.calls", "count", f"{_SWEEPS};{_P90}"),
    ("homomorphism.self_s", "s", f"{_SWEEPS};{_P90}"),
    ("generators.calls", "count", _SWEEPS),
    ("generators.self_s", "s", _SWEEPS),
    ("composition.membership_calls", "count", _INVERSE),
    ("composition.membership_self_s", "s", _INVERSE),
    ("composition.candidates_tried", "count", _INVERSE),
    ("composition.candidate_yield", "ratio", _INVERSE),
    ("composition.compose_full_s", "s", _INVERSE),
    ("composition.rules_emitted", "count", _INVERSE),
    ("mapping.is_solution_calls", "count", _INVERSE),
    ("mapping.is_solution_self_s", "s", _INVERSE),
    ("sweep.self_s", "s", f"{_SWEEPS};{_P90}"),
    ("sweep.instances_checked", "count", f"{_SWEEPS};{_P90}"),
    ("sweep.pairs_checked", "count", f"{_SWEEPS};{_P90}"),
    ("symmetry.canon_calls", "count", _P90),
    ("symmetry.canon_self_s", "s", _P90),
    ("symmetry.orbit_ratio", "ratio", _P90),
    ("cache.chase.hit_ratio", "ratio", f"{_SWEEPS};{_P50}"),
    ("cache.verdict.hit_ratio", "ratio", f"{_SWEEPS};{_P90}"),
    ("cache.kinstance.hit_ratio", "ratio", f"peak_rss_mb,{_SERVICE}"),
    ("cache.matches.hit_ratio", "ratio", f"peak_rss_mb,{_SERVICE}"),
    ("cache.compile.hit_ratio", "ratio", f"peak_rss_mb,{_SERVICE}"),
    ("cache.chase.evictions", "count", f"peak_rss_mb,{_SERVICE};{_SWEEPS}"),
    ("cache.verdict.evictions", "count", f"peak_rss_mb,{_SERVICE};{_SWEEPS}"),
    ("cache.kinstance.evictions", "count", f"peak_rss_mb,{_SERVICE}"),
    ("cache.matches.evictions", "count", f"peak_rss_mb,{_SERVICE}"),
    ("cache.compile.evictions", "count", f"peak_rss_mb,{_SERVICE}"),
    ("store.reads", "count", _P50),
    ("store.hit_ratio", "ratio", _P50),
    ("store.writes", "count", _P50),
    ("store.flush_s", "s", _P50),
    ("store.read_errors", "count", _P50),
    ("store.write_errors", "count", _P50),
    ("kernel.instance_builds", "count", "service.exec_s.kernel@service_mix"),
    ("kernel.compile_hit_ratio", "ratio", "service.exec_s.kernel@service_mix"),
    ("sql.lower_s", "s", f"{_CHAIN};service.exec_s.sql@service_mix"),
    ("sql.chase_self_s", "s", f"{_CHAIN};service.exec_s.sql@service_mix"),
    ("sql.chase_rounds", "count", f"{_CHAIN};service.exec_s.sql@service_mix"),
    ("sql.statements", "count", f"{_CHAIN};service.exec_s.sql@service_mix"),
    ("sql.rows_inserted", "count", f"{_CHAIN};service.exec_s.sql@service_mix"),
    ("sql.small_routed", "count", f"{_CHAIN};service.exec_s.sql@service_mix"),
    ("sql.evictions", "count", f"{_CHAIN};service.exec_s.sql@service_mix"),
    ("sql.retries", "count", f"{_CHAIN};service.exec_s.sql@service_mix"),
    ("datamodel.build_s", "s", _CHAIN),
    ("parallel.map_self_s", "s", _SWEEPS),
    ("parallel.worker_faults", "count", _SWEEPS),
    ("algebra.plan_s", "s", _P50),
    ("algebra.sweep_self_s", "s", _P50),
    ("service.queue_wait_s", "s", _SERVICE),
    ("service.exec_s", "s", _SERVICE),
    ("service.exec_s.object", "s", _SERVICE),
    ("service.exec_s.kernel", "s", _SERVICE),
    ("service.exec_s.sql", "s", _SERVICE),
    ("service.overhead_s", "s", _SERVICE),
    ("service.dedup_hits", "count", _SERVICE),
    ("service.retries", "count", _SERVICE),
    ("trace.overhead_ratio", "ratio", "every workload"),
    ("trace.wall_s", "s", "every workload"),
    ("trace.attributed_s", "s", "every workload"),
    ("trace.unattributed_s", "s", "every workload"),
)


# -- span arithmetic -------------------------------------------------------


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def span_totals(dump: SpanDump, window: Tuple[float, float]) -> Dict[str, Any]:
    """Per-name self and outermost-inclusive seconds, per-layer self
    seconds, and the window's coverage by top-level spans."""
    self_by_name: Dict[str, float] = {}
    incl_by_name: Dict[str, float] = {}
    self_by_layer: Dict[str, float] = {}
    top: List[Tuple[float, float]] = []
    lo, hi = window
    inclusive = {nid for nid, name in enumerate(dump.names) if name in _INCLUSIVE}
    for thread in dump.threads:
        names, starts, ends, parents = (
            thread.names, thread.starts, thread.ends, thread.parents
        )
        own = self_times(starts, ends, parents)
        for index, nid in enumerate(names):
            name = dump.names[nid]
            self_by_name[name] = self_by_name.get(name, 0.0) + own[index]
            layer = dump.layers[nid]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own[index]
            parent = parents[index]
            if parent < 0:
                top.append((max(starts[index], lo), min(ends[index], hi)))
            if nid not in inclusive:
                continue
            while parent >= 0 and names[parent] != nid:
                parent = parents[parent]
            if parent < 0:
                incl_by_name[name] = (
                    incl_by_name.get(name, 0.0) + ends[index] - starts[index]
                )
    covered = union_length((s, e) for s, e in top if e > s)
    return {
        "self": self_by_name,
        "incl": incl_by_name,
        "layer": self_by_layer,
        "attributed": sum(self_by_layer.values()),
        "unattributed": (hi - lo) - covered,
    }


# -- the metrics -----------------------------------------------------------


def service_metrics(observations: Sequence[Mapping[str, Any]]) -> Dict[str, float]:
    """Queue wait, execution and overhead medians from the job records
    the daemon returned, and the pinned sweep's execution per backend.

    A job joined through in-flight dedup shares its record with the job
    it joined, so each job id is counted once; records without an
    outcome (failed jobs, counted as failures elsewhere) are skipped."""
    by_job: Dict[str, Mapping[str, Any]] = {}
    overheads: List[float] = []
    for obs in observations:
        job = obs["job"]
        if job["id"] in by_job or not job.get("outcome") or job.get("started_at") is None:
            continue
        by_job[job["id"]] = obs
        wait = job["started_at"] - job["submitted_at"]
        overheads.append(obs["latency"] - wait - job["outcome"]["seconds"])
    waits = [o["job"]["started_at"] - o["job"]["submitted_at"] for o in by_job.values()]
    execs = [o["job"]["outcome"]["seconds"] for o in by_job.values()]
    metrics = {
        "service.queue_wait_s": percentile(waits, 0.5) if waits else 0.0,
        "service.exec_s": percentile(execs, 0.5) if execs else 0.0,
        "service.overhead_s": percentile(overheads, 0.5) if overheads else 0.0,
    }
    for backend in ("object", "kernel", "sql"):
        pinned = [
            o["job"]["outcome"]["seconds"]
            for o in by_job.values()
            if o.get("pinned") and o["job"]["spec"].get("backend") == backend
        ]
        metrics[f"service.exec_s.{backend}"] = sum(pinned)
    return metrics


def layer_metrics(
    dump: SpanDump,
    counters: Mapping[str, float],
    window: Tuple[float, float],
    untraced_wall: float,
    service: Optional[Mapping[str, float]] = None,
    service_counts: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run."""
    totals = span_totals(dump, window)
    calls, tallies = dump.calls, dump.tallies
    own, incl, layer = totals["self"], totals["incl"], totals["layer"]

    def counter(key: str) -> float:
        return float(counters.get(key, 0))

    def hit_ratio(cache: str) -> float:
        hits = counter(f"{cache}_cache_hits")
        return _ratio(hits, hits + counter(f"{cache}_cache_misses"))

    tried = counter("membership_candidates_tried")
    store_reads = counter("store_hits") + counter("store_misses")
    wall = window[1] - window[0]
    metrics: Dict[str, float] = {
        "chase.calls": calls.get("chase:chase", 0),
        "chase.self_s": layer.get("chase", 0.0),
        "homomorphism.calls": sum(
            calls.get(f"homomorphism:{fn}", 0)
            for fn in ("all_homomorphisms", "find_homomorphism", "instance_homomorphism")
        ),
        "homomorphism.self_s": layer.get("homomorphism", 0.0),
        "generators.calls": calls.get("generators:minimal_generators", 0)
        + calls.get("generators:minimal_generators_exhaustive", 0),
        "generators.self_s": layer.get("generators", 0.0),
        "composition.membership_calls": calls.get(
            "composition:composition_membership", 0
        ),
        "composition.membership_self_s": own.get(
            "composition:composition_membership", 0.0
        ),
        "composition.candidates_tried": tried,
        "composition.candidate_yield": _ratio(tallies.get("membership_accepted", 0), tried),
        "composition.compose_full_s": incl.get("composition:compose_full", 0.0),
        "composition.rules_emitted": counter("compose_rules_emitted"),
        "mapping.is_solution_calls": calls.get("mapping:is_solution", 0),
        "mapping.is_solution_self_s": own.get("mapping:is_solution", 0.0),
        "sweep.self_s": layer.get("framework", 0.0),
        "sweep.instances_checked": tallies.get("sweep_instances", 0),
        "sweep.pairs_checked": tallies.get("sweep_pairs", 0),
        "symmetry.canon_calls": calls.get("symmetry:ground_canonical_form", 0),
        "symmetry.canon_self_s": layer.get("symmetry", 0.0),
        "symmetry.orbit_ratio": _ratio(
            tallies.get("orbits", 0), tallies.get("orbit_instances", 0)
        ),
    }
    for cache in ("chase", "verdict", "kinstance", "matches", "compile"):
        metrics[f"cache.{cache}.hit_ratio"] = hit_ratio(cache)
    for cache in ("chase", "verdict", "kinstance", "matches", "compile"):
        metrics[f"cache.{cache}.evictions"] = counter(f"{cache}_cache_evictions")
    metrics.update(
        {
            "store.reads": store_reads,
            "store.hit_ratio": _ratio(counter("store_hits"), store_reads),
            "store.writes": counter("store_writes"),
            "store.flush_s": incl.get("store:VerdictStore.flush", 0.0),
            "store.read_errors": counter("store_read_errors"),
            "store.write_errors": counter("store_write_errors"),
            "kernel.instance_builds": counter("kinstance_cache_misses"),
            "kernel.compile_hit_ratio": hit_ratio("compile"),
            "sql.lower_s": incl.get("sqlbackend:sql_instance", 0.0),
            "sql.chase_self_s": own.get("sqlbackend:sql_stratified_chase", 0.0),
            "sql.chase_rounds": counter("sql_chase_rounds"),
            "sql.statements": counter("sql_statements"),
            "sql.rows_inserted": counter("sql_rows_inserted"),
            "sql.small_routed": counter("sql_small_routed"),
            "sql.evictions": counter("sql_evictions"),
            "sql.retries": counter("sql_retries"),
            "datamodel.build_s": incl.get("datamodel:Instance.build", 0.0),
            "parallel.map_self_s": layer.get("parallel", 0.0),
            "parallel.worker_faults": counter("worker_faults"),
            "algebra.plan_s": incl.get("algebra:plan_expression", 0.0),
            "algebra.sweep_self_s": own.get("algebra:check_expression", 0.0),
        }
    )
    service = dict(service or {})
    counts = service_counts or {}
    for name, _unit, _moves in PER_LAYER:
        if name.startswith("service.") and name not in service:
            service[name] = 0.0
    service["service.dedup_hits"] = float(counts.get("dedup_hits", 0))
    service["service.retries"] = float(counts.get("job_retries", 0))
    metrics.update(service)
    metrics.update(
        {
            "trace.overhead_ratio": _ratio(wall, untraced_wall) - 1.0
            if untraced_wall
            else 0.0,
            "trace.wall_s": wall,
            "trace.attributed_s": totals["attributed"],
            "trace.unattributed_s": totals["unattributed"],
        }
    )
    return {name: float(metrics[name]) for name, _unit, _moves in PER_LAYER}
