"""The repository's performance ledger.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from a checkout's ``src/`` and prints, as its last
stdout line, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``).  A line before it records the
effective engine configuration.  Exits 1 when any operation failed or
gave a wrong answer, 2 when the benchmark itself could not run.

Workloads (see BENCHMARK.json for why each exists):

* ``paper_sweeps`` / ``inverse_exact`` / ``chain_chase`` run as fixed
  rounds, each in a fresh worker process (``worker.py``) with cold
  caches; a run of S seconds measures ``round(S / ROUND_SECONDS)``
  rounds, so every run of one length pools the same samples.
* ``service_mix`` drives a ``python -m repro.service serve`` daemon
  with a closed loop of two client threads.

End-to-end metrics are measured with tracing off.  ``--trace 1`` runs
the same work once untraced and once under ``tracer.py``'s wrappers
(the daemon through ``daemon.py``) and reports per-layer metrics plus
the tracing overhead.  Every ambient ``REPRO_*`` knob is cleared for
the children; daemon state directories and scratch files live in a
temporary directory inside the checkout that is removed on exit.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ beside the benchmark

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import urllib.error  # noqa: E402
import urllib.request  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

from layers import PER_LAYER, layer_metrics, service_metrics  # noqa: E402
from speed import Sampler  # noqa: E402
from stats import latency_summary  # noqa: E402
from tracer import load_spans  # noqa: E402
from worker import SERVICE_REPEATS, TRACED_REPEATS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
DAEMON = os.path.join(HERE, "daemon.py")

WORKLOADS = ("paper_sweeps", "inverse_exact", "service_mix", "chain_chase")

#: (name, unit) of every end-to-end metric, reported for every workload.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p50_s", "s"),
    ("job_latency_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER_UNITS = tuple((name, unit) for name, unit, _moves in PER_LAYER)

#: Nominal seconds of one round of each round-based workload.
ROUND_SECONDS = {"paper_sweeps": 5.0, "inverse_exact": 5.0, "chain_chase": 2.2}

#: Set-up is sampled this many times a run and reported as the median.
SETUP_SAMPLES = 5

#: Longest any one child may live before it is killed.
CHILD_TIMEOUT = 150.0

SERVE_OPTIONS = ("--port", "0", "--max-jobs", "2")


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong answer)."""


# -- child processes -------------------------------------------------------


class Child:
    """One child process, killed if it outlives CHILD_TIMEOUT, reaped
    with ``wait4`` so its peak RSS is known."""

    def __init__(self, argv: List[str], env: Dict[str, str], work: str, log: str) -> None:
        self.log_path = os.path.join(work, log)
        self.started = time.perf_counter()
        with open(self.log_path, "ab") as log_file:
            self.proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=log_file, env=env, cwd=work
            )
        self._watchdog = threading.Timer(CHILD_TIMEOUT, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def read_line(self) -> bytes:
        return self.proc.stdout.readline()

    def reap(self, timeout: Optional[float] = None) -> Tuple[int, float]:
        """Wait for exit, killing the child after *timeout* seconds:
        (exit code, peak RSS in MB)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            flags = 0 if deadline is None else os.WNOHANG
            pid, status, usage = os.wait4(self.proc.pid, flags)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                deadline = None
            else:
                time.sleep(0.01)
        self._watchdog.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return self.proc.returncode, usage.ru_maxrss / 1024.0

    def log_tail(self) -> str:
        try:
            with open(self.log_path, "r", encoding="utf-8", errors="replace") as handle:
                return "".join(handle.readlines()[-20:])
        except OSError:
            return ""


def child_env() -> Dict[str, str]:
    """The children's environment: no ambient ``REPRO_*`` knob, the
    checkout's ``src`` first on the path, and one fixed hash seed —
    set and dict orders steer the searches, so a per-run hash seed
    would change the work done, not just its order."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_round(
    workload: str, seed: int, env: Dict[str, str], work: str, tag: str,
    *, trace: bool = False, setup_only: bool = False,
) -> Dict[str, Any]:
    """Spawn one worker round; its result plus ``setup`` and ``rss_mb``."""
    out = os.path.join(work, f"{tag}.json")
    argv = [sys.executable, WORKER, workload, "--seed", str(seed), "--out", out]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    child = Child(argv, env, work, f"{tag}.log")
    ready = child.read_line().split()
    setup = time.perf_counter() - child.started
    code, rss_mb = child.reap()
    if ready[:1] != [b"ready"] or code != 0:
        raise BenchError(f"{workload} worker {tag} exited {code}:\n{child.log_tail()}")
    # The worker reports the time its speed probes took during set-up
    # and the speed factor they measured (see speed.py).
    probing, factor = (float(word) for word in ready[1:])
    setup = (setup - probing) * factor
    if setup_only:
        return {"setup": setup}
    with open(out, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    result.update(setup=setup, rss_mb=rss_mb, spans=out + ".spans" if trace else None)
    return result


# -- the daemon ------------------------------------------------------------


def _http(url: str, method: str = "GET", timeout: float = 10.0) -> Dict[str, Any]:
    request = urllib.request.Request(url, method=method, data=b"" if method == "POST" else None)
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


class Daemon:
    """A daemon with its own state directory; ``setup`` is the time
    from spawn until ``/healthz`` reports ready."""

    def __init__(
        self, env: Dict[str, str], work: str, tag: str, trace_out: Optional[str] = None
    ) -> None:
        state = os.path.join(work, f"state-{tag}")
        serve = ["serve", *SERVE_OPTIONS, "--state-dir", state]
        if trace_out:
            argv = [sys.executable, DAEMON, "--trace-out", trace_out, *serve]
        else:
            argv = [sys.executable, "-m", "repro.service", *serve]
        self.argv = argv
        self.child = Child(argv, env, work, f"daemon-{tag}.log")
        self.url = self._wait_ready(os.path.join(state, "service.json"))
        self.ready = time.perf_counter()
        self.setup = self.ready - self.child.started

    def _wait_ready(self, endpoint_file: str) -> str:
        deadline = time.monotonic() + 60.0
        url = None
        while time.monotonic() < deadline:
            if os.waitpid(self.child.proc.pid, os.WNOHANG)[0]:
                raise BenchError(f"daemon died:\n{self.child.log_tail()}")
            try:
                if url is None:
                    with open(endpoint_file, "r", encoding="utf-8") as handle:
                        endpoint = json.load(handle)
                    if endpoint.get("pid") == self.child.proc.pid:
                        url = f"http://{endpoint['host']}:{endpoint['port']}"
                if url is not None and _http(url + "/healthz").get("ready"):
                    return url
            except (OSError, ValueError, KeyError, urllib.error.URLError):
                pass
            time.sleep(0.005)
        self.child.proc.kill()
        raise BenchError(f"daemon not ready after 60 s:\n{self.child.log_tail()}")

    def stop(self) -> float:
        """Drain and stop the daemon; its peak RSS in MB."""
        try:
            _http(self.url + "/shutdown", method="POST")
        except (OSError, urllib.error.URLError):
            self.child.proc.terminate()
        code, rss_mb = self.child.reap(timeout=60.0)
        if code != 0:
            raise BenchError(f"daemon exited {code}:\n{self.child.log_tail()}")
        return rss_mb


def service_client(
    url: str, seed: int, env: Dict[str, str], work: str, tag: str, repeats: int
) -> Dict[str, Any]:
    out = os.path.join(work, f"{tag}.json")
    argv = [sys.executable, WORKER, "service_client", "--seed", str(seed),
            "--out", out, "--url", url, "--repeats", str(repeats)]
    child = Child(argv, env, work, f"{tag}.log")
    code, _rss = child.reap()
    if code != 0:
        raise BenchError(f"service client {tag} exited {code}:\n{child.log_tail()}")
    with open(out, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- workloads -------------------------------------------------------------


def _e2e(setups, rounds, latencies, rss) -> Dict[str, float]:
    """End-to-end metrics from set-up times, (wall, operations) rounds
    and operation latencies, all already scaled to the reference host
    speed (``speed.py``).  Walls are medians over rounds."""
    summary = latency_summary(latencies)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(wall for wall, _ops in rounds),
        "jobs_per_s": statistics.median(ops / wall for wall, ops in rounds),
        "job_latency_p50_s": summary["p50"],
        "job_latency_p90_s": summary["p90"],
        "peak_rss_mb": statistics.median(rss),
    }


def _wall(result: Dict[str, Any]) -> float:
    start, end = result["window"]
    return end - start


def run_rounds(workload: str, args, env, work) -> Dict[str, Any]:
    rng = random.Random(args.seed)
    failures: List[str] = []

    def one(tag: str, **kwargs) -> Dict[str, Any]:
        result = worker_round(workload, rng.randrange(2**31), env, work, tag, **kwargs)
        failures.extend(
            f"{op['name']}: {op.get('detail', 'wrong result')}"
            for op in result.get("ops", ())
            if not op["ok"]
        )
        return result

    if args.trace:
        base = one("untraced")
        traced = one("traced", trace=True)
        metrics = layer_metrics(
            load_spans(traced["spans"]), traced["counters"], tuple(traced["window"]),
            untraced_wall=_wall(base),
        )
        results = [base, traced]
    else:
        count = max(1, round(args.seconds / ROUND_SECONDS[workload]))
        results = [one(f"round{k}") for k in range(count)]
        setups = [r["setup"] for r in results]
        setups += [
            one(f"setup{k}", setup_only=True)["setup"]
            for k in range(SETUP_SAMPLES - len(setups))
        ]
        # A round's wall is the sum of its operations' scaled times; an
        # operation's latency is its median over the rounds, so that the
        # percentiles fall between operations, not between rounds.
        rounds = [
            (sum(op["seconds"] for op in r["ops"]), len(r["ops"])) for r in results
        ]
        by_name: Dict[str, List[float]] = {}
        for r in results:
            for op in r["ops"]:
                by_name.setdefault(op["name"], []).append(op["seconds"])
        latencies = [statistics.median(times) for times in by_name.values()]
        metrics = _e2e(setups, rounds, latencies, [r["rss_mb"] for r in results])
    attempted = sum(len(r["ops"]) for r in results)
    return {
        "attempted": attempted, "failures": failures, "metrics": metrics,
        "config": results[-1]["config"],
    }


def run_service(args, env, work) -> Dict[str, Any]:
    # The daemon, its clients and the speed probes share one core, so
    # the probes see the speed the daemon's work runs at.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spawns: List[Daemon] = []
    failures: List[str] = []

    def phase(tag: str, trace_out: Optional[str] = None) -> Dict[str, Any]:
        daemon = Daemon(env, work, tag, trace_out)
        spawns.append(daemon)
        try:
            result = service_client(
                daemon.url, args.seed, env, work, f"client-{tag}",
                TRACED_REPEATS if args.trace else SERVICE_REPEATS,
            )
        finally:
            rss_mb = daemon.stop()
        failures.extend(result["failures"])
        result.update(rss_mb=rss_mb, argv=daemon.argv)
        return result

    if args.trace:
        base = phase("untraced")
        spans = os.path.join(work, "daemon.spans")
        traced = phase("traced", trace_out=spans)
        metrics = layer_metrics(
            load_spans(spans), traced["stats"]["engine"], tuple(traced["window"]),
            untraced_wall=_wall(base),
            service=service_metrics(traced["observations"]),
            service_counts=traced["stats"],
        )
        measured = [base, traced]
    else:
        with Sampler() as sampler:
            result = phase("measure")
            for k in range(SETUP_SAMPLES - len(spawns)):
                spawns.append(Daemon(env, work, f"spare{k}"))
                spawns[-1].stop()
        # The latency percentiles cover the closed-loop mix; the pinned
        # sweeps run alone afterwards and are timed per layer.
        scale = sampler.factor(tuple(result["window"]))
        latencies = [
            scale * obs["latency"] for obs in result["observations"] if not obs["pinned"]
        ]
        setups = [
            sampler.factor((d.child.started, d.ready)) * d.setup for d in spawns
        ]
        metrics = _e2e(
            setups, [(scale * _wall(result), result["attempted"])], latencies,
            [result["rss_mb"]],
        )
        measured = [result]
    last = measured[-1]
    config = {
        "daemon": " ".join(
            os.path.relpath(a, work if a.startswith(work) else ROOT)
            if a.startswith(ROOT) else a
            for a in last["argv"][1:]
        ),
        "max_jobs": last["stats"]["max_jobs"],
        "job_deadline": last["stats"]["job_deadline"],
        "max_retries": last["stats"]["max_retries"],
        "clients": 2,
        "jobs": last["attempted"],
    }
    if not args.trace:
        config["speed_factor"] = scale
    return {
        "attempted": sum(r["attempted"] for r in measured),
        "failures": failures, "metrics": metrics, "config": config,
    }


# -- entry point -----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        env = child_env()
        if args.workload == "service_mix":
            outcome = run_service(args, env, work)
        else:
            outcome = run_rounds(args.workload, args, env, work)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = dict(PER_LAYER_UNITS if args.trace else END_TO_END)
    metrics = {
        name: {"value": float(value), "unit": units[name]}
        for name, value in outcome["metrics"].items()
    }
    for failure in outcome["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(outcome["failures"])
    print("config " + json.dumps({"workload": args.workload, **outcome["config"]},
                                 sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
