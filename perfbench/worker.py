"""One measured round of a workload, in a fresh process.

    python worker.py WORKLOAD --seed N --out RESULT.json [--trace] [--setup-only]

The process imports the program, builds the round's inputs from the
seed, prints ``ready`` on stdout (the runner's set-up clock stops
there) and then runs the round's operations, timing each one and
checking its output.  The result — one record per operation, the
round's window on the system-wide monotonic clock, the engine's
counters and its effective configuration — goes to ``--out``; with
``--trace`` the round runs under the benchmark's wrappers and the
spans go to ``--out`` + ``.spans``.

``service_client`` is the closed-loop client of the ``service_mix``
workload rather than a round: it drives a running daemon at ``--url``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

from speed import Speedometer

HERE = os.path.dirname(os.path.abspath(__file__))

# -- paper_sweeps ----------------------------------------------------------

#: E9 and E13 are the exact inverse checks; ``inverse_exact`` runs them.
PAPER_IDS = ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E10", "E11", "E12", "E14")


def render_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def paper_sweeps(seed: int) -> "Round":
    from repro.catalog import all_catalog_mappings
    from repro.experiments.registry import get_experiment

    all_catalog_mappings()
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)["paper_sweeps"]
    order = list(PAPER_IDS)
    random.Random(seed).shuffle(order)

    def run(cold: "ColdCaches", clock: "Clock") -> List[Dict[str, Any]]:
        ops = []
        for experiment_id in order:
            clock.start()
            report = cold(get_experiment(experiment_id))
            seconds = clock.scaled()
            digest = render_digest(report.render())
            ops.append(
                {
                    "name": experiment_id,
                    "seconds": seconds,
                    "ok": report.passed and digest == reference[experiment_id],
                    "digest": digest,
                }
            )
        return ops

    return run


# -- inverse_exact ---------------------------------------------------------

#: Example 5.4's universe keeps the instances whose chase has at most
#: this many nulls.  The two two-fact instances with four nulls make
#: each check try ~10^5 more candidate intermediates (36 s instead of
#: 2 s), which no run of this length can afford.
MAX_EXAMPLE_5_4_NULLS = 3


def inverse_exact(seed: int) -> "Round":
    from repro.catalog import example_5_4, thm_4_8, thm_4_9
    from repro.core import inverse, is_inverse, quasi_inverse
    from repro.core.mapping import universal_solution
    from repro.workloads import instance_universe

    checks: List[Tuple[str, Any, Any, list]] = []
    for make in (thm_4_8, thm_4_9, example_5_4):
        mapping = make()
        universe = instance_universe(mapping.source, ["a", "b"], max_facts=2)
        if make is example_5_4:
            universe = [
                instance
                for instance in universe
                if len(universal_solution(mapping, instance).nulls())
                <= MAX_EXAMPLE_5_4_NULLS
            ]
        for algorithm in (inverse, quasi_inverse):
            label = f"{mapping.name}/{algorithm.__name__}"
            checks.append((label, mapping, algorithm(mapping), universe))
    random.Random(seed).shuffle(checks)

    def run(cold: "ColdCaches", clock: "Clock") -> List[Dict[str, Any]]:
        ops = []
        for label, mapping, candidate, universe in checks:
            clock.start()
            verdict = cold(is_inverse, mapping, candidate, universe)
            seconds = clock.scaled()
            ok = verdict.holds is True and verdict.exhaustive
            ops.append({"name": label, "seconds": seconds, "ok": ok})
        return ops

    return run


# -- chain_chase -----------------------------------------------------------

#: Disjoint chains x edges per chain (the fixpoint has 3nL - n facts).
CHAINS, CHAIN_LENGTH = 300, 100


def chain_chase(seed: int) -> "Round":
    from repro.chase.standard import chase
    from repro.datamodel.instances import Instance
    from repro.dependencies.parser import parse_dependency
    from repro.engine import use_backend

    dependencies = (
        parse_dependency("E(x, y) -> F(x, y)"),
        parse_dependency("E(x, y) & E(y, z) -> F(x, z)"),
    )
    chains = list(range(CHAINS))
    random.Random(seed).shuffle(chains)
    rows = [
        (f"v{c}_{i}", f"v{c}_{i + 1}") for c in chains for i in range(CHAIN_LENGTH)
    ]
    expected = 3 * CHAINS * CHAIN_LENGTH - CHAINS

    def chase_to_fixpoint(source):
        with use_backend("sql"):
            return chase(source, dependencies, trace=False, max_steps=1_000_000)

    def run(cold: "ColdCaches", clock: "Clock") -> List[Dict[str, Any]]:
        clock.start()
        source = Instance.build({"E": rows})
        build_seconds = clock.scaled()
        clock.start()
        result = cold(chase_to_fixpoint, source)
        seconds = clock.scaled()
        facts = len(result.instance.facts)
        return [
            {
                "name": f"chase {CHAINS}x{CHAIN_LENGTH}",
                "seconds": seconds,
                "build_seconds": build_seconds,
                "ok": facts == expected,
                "detail": f"{facts} facts, expected {expected}",
            }
        ]

    return run


class ColdCaches:
    """Runs each operation on cold caches, so that the seeded order of
    a round's operations changes no operation's work, and sums the
    cache counters that each reset clears."""

    def __init__(self) -> None:
        self.totals: Dict[str, int] = {}

    def __call__(self, fn: Callable[..., Any], *args: Any) -> Any:
        from repro.engine import all_cache_stats, reset_all_caches

        reset_all_caches()
        try:
            return fn(*args)
        finally:
            for stats in all_cache_stats():
                for key, value in stats.counters().items():
                    self.totals[key] = self.totals.get(key, 0) + value


class Clock:
    """Raw wall time, with :class:`speed.Speedometer`'s interface: the
    clock of traced rounds, whose spans must not contain probes."""

    def start(self) -> None:
        self._started = time.perf_counter()

    def stretch(self) -> Tuple[float, float]:
        return 0.0, 1.0

    def scaled(self) -> float:
        return time.perf_counter() - self._started


Round = Callable[["ColdCaches", Clock], List[Dict[str, Any]]]

ROUNDS: Dict[str, Callable[[int], Round]] = {
    "paper_sweeps": paper_sweeps,
    "inverse_exact": inverse_exact,
    "chain_chase": chain_chase,
}


def engine_config() -> Dict[str, Any]:
    """The engine settings this process actually runs with."""
    from repro.engine import (
        active_store,
        default_backend,
        default_sql_db,
        default_symmetry,
        default_task_timeout,
        default_workers,
    )
    from repro.engine.cache import configured_maxsize
    from repro.engine.sqlbackend import sql_min_facts

    store = active_store()
    return {
        "backend": default_backend(),
        "workers": default_workers(),
        "symmetry": default_symmetry(),
        "store": getattr(store, "path", None),
        "sql_db": default_sql_db(),
        "sql_min_facts": sql_min_facts(),
        "cache_maxsize": configured_maxsize(65_536),
        "task_timeout": default_task_timeout(),
        "python": sys.version.split()[0],
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


def announce_ready(probing: float, factor: float) -> None:
    """Stop the runner's set-up clock, telling it how long set-up spent
    in probes and how fast the host ran meanwhile, then send any later
    stdout to stderr so the runner never has to drain the pipe."""
    sys.stdout.write(f"ready {probing!r} {factor!r}\n")
    sys.stdout.flush()
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())


def run_round(args: argparse.Namespace) -> int:
    if args.trace:
        return measure_round(args, Clock())
    with Speedometer() as speedometer:
        return measure_round(args, speedometer)


def measure_round(args: argparse.Namespace, clock: Clock) -> int:
    from repro.engine import engine_stats, reset_engine_stats

    run = ROUNDS[args.workload](args.seed)
    reset_engine_stats()  # cold caches and zero counters for the round
    announce_ready(*clock.stretch())
    if args.setup_only:
        return 0
    tracer = None
    if args.trace:
        from layers import TARGETS
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(TARGETS)
    cold = ColdCaches()
    start = time.perf_counter()
    ops = run(cold, clock)
    end = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.out + ".spans")
    result = {
        "ops": ops,
        "window": [start, end],
        "counters": {**engine_stats().counters(), **cold.totals},
        "config": engine_config(),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


# -- service_mix client ----------------------------------------------------

#: Inline reverse mappings for the round-trip jobs.
_DECOMPOSITION_BACK = {
    "source": {"Q": 2, "R": 2},
    "target": {"P": 3},
    "dependencies": "Q(x, y) & R(y, z) -> P(x, y, z)",
    "name": "DecompositionBack",
}
_PROJECTION_BACK = {
    "source": {"Q": 1},
    "target": {"P": 2},
    "dependencies": "Q(x) -> exists y P(x, y)",
    "name": "ProjectionBack",
}

#: The job mix: every job kind, passing and violated verdicts, full and
#: orbit sweeps.  Each entry is submitted SERVICE_REPEATS times in an
#: untraced run and TRACED_REPEATS times in each phase of a traced run.
SERVICE_POOL: Tuple[Dict[str, Any], ...] = (
    {"kind": "experiment", "experiment": "E3"},
    {"kind": "experiment", "experiment": "E7"},
    {"kind": "experiment", "experiment": "E14"},
    {"kind": "invertibility", "mapping": "Example5.4"},
    {"kind": "invertibility", "mapping": "Projection"},
    {"kind": "invertibility", "mapping": "Decomposition"},
    {"kind": "invertibility", "mapping": "Thm4.9", "max_facts": 2},
    {"kind": "subset", "mapping": "Decomposition", "max_facts": 2},
    {"kind": "subset", "mapping": "Union", "max_facts": 2},
    {"kind": "subset", "mapping": "Thm4.11", "max_facts": 2, "symmetry": "orbits"},
    {"kind": "unique", "mapping": "Projection", "max_facts": 2},
    {"kind": "unique", "mapping": "UniqueNotSubset", "max_facts": 2},
    {"kind": "unique", "mapping": "Prop3.12", "max_facts": 2, "symmetry": "orbits"},
    {"kind": "roundtrip", "mapping": "Decomposition", "reverse": _DECOMPOSITION_BACK},
    {"kind": "roundtrip", "mapping": "Projection", "reverse": _PROJECTION_BACK, "max_facts": 2},
    {"kind": "algebra", "expression": "compose(Decomposition, Decomposition')", "check": "unique"},
    {"kind": "algebra", "expression": "compose(Decomposition, Decomposition')", "check": "subset"},
    {"kind": "algebra", "expression": "Projection", "check": "invertibility", "max_facts": 2},
)
SERVICE_REPEATS = 28
TRACED_REPEATS = 12

#: The one same-sweep comparison of the three backends: submitted once
#: per run on each, one at a time after the mix, because a job's
#: backend choice is process-global state that a concurrent job can
#: change under it (a sweep pinned to sql then faults).
PINNED: Tuple[Dict[str, Any], ...] = tuple(
    {
        "kind": "subset",
        "mapping": "Example5.4",
        "domain": ["a", "b", "c", "d"],
        "max_facts": 2,
        "symmetry": "orbits",
        "backend": backend,
    }
    for backend in ("object", "kernel", "sql")
)

#: Client threads in the closed loop (each waits for its job's result
#: before submitting the next).
CLIENTS = 2


def service_sequence(
    seed: int, repeats: int = SERVICE_REPEATS
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """The seeded (mix, pinned) job sequences: the pool *repeats*
    times, then the pinned sweeps.  The seed only permutes the order,
    and permutes the mix one copy of the pool at a time, so that every
    stretch of the run carries the same jobs and the latencies of two
    seeds differ only by which jobs happen to overlap."""
    rng = random.Random(seed)
    mix = []
    for _ in range(repeats):
        block = list(SERVICE_POOL)
        rng.shuffle(block)
        mix += block
    pinned = list(PINNED)
    rng.shuffle(pinned)
    return mix, pinned


def _job_key(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True)


def run_service_client(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    mix, pinned = service_sequence(args.seed, args.repeats)
    observations: List[Dict[str, Any]] = []
    errors: List[str] = []
    lock = threading.Lock()

    def client_loop(share: List[Dict[str, Any]], is_pinned: bool) -> None:
        client = ServiceClient(args.url, timeout=60.0)
        for payload in share:
            started = time.perf_counter()
            try:
                job = client.submit(dict(payload))
                _status, body = client.result(job["id"], wait=120.0)
            except Exception as error:  # a failed request is a failed job
                with lock:
                    errors.append(f"{_job_key(payload)}: {type(error).__name__}: {error}")
                continue
            latency = time.perf_counter() - started
            with lock:
                observations.append(
                    {"key": _job_key(payload), "pinned": is_pinned,
                     "latency": latency, "job": body}
                )

    threads = [
        threading.Thread(target=client_loop, args=(mix[i::CLIENTS], False))
        for i in range(CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    client_loop(pinned, True)
    end = time.perf_counter()
    stats = ServiceClient(args.url, timeout=60.0).stats()

    failures = errors + check_against_reference(observations)
    result = {
        "attempted": len(mix) + len(pinned),
        "observations": observations,
        "failures": failures,
        "window": [start, end],
        "stats": stats,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def check_against_reference(observations: List[Dict[str, Any]]) -> List[str]:
    """Each job's terminal state and rendering must equal what an
    in-process ``execute_job`` of the same canonical spec produces."""
    from repro.service.jobs import execute_job
    from repro.service.protocol import normalize_job

    reference: Dict[str, Tuple[str, str]] = {}
    failures = []
    for obs in observations:
        key = obs["key"]
        if key not in reference:
            outcome = execute_job(normalize_job(json.loads(key)))
            reference[key] = (outcome.state, outcome.rendering)
        job = obs["job"]
        got = (job.get("state"), (job.get("outcome") or {}).get("rendering"))
        if got != reference[key]:
            first_line = (got[1] or "").splitlines()[:1]
            failures.append(
                f"{key}: daemon gave {got[0]!r} {first_line}, reference {reference[key][0]!r}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(ROUNDS) + ["service_client"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--url")
    parser.add_argument("--repeats", type=int, default=SERVICE_REPEATS)
    args = parser.parse_args(argv)
    if args.workload == "service_client":
        return run_service_client(args)
    return run_round(args)


if __name__ == "__main__":
    sys.exit(main())
