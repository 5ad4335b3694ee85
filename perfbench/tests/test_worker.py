"""A traced and an untraced paper_sweeps round render identical reports,
and the traced round's self times account for its wall time."""

import json
import os
import subprocess
import sys

import pytest

from layers import layer_metrics
from tracer import load_spans

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def run_round(tmp_path, trace):
    out = tmp_path / f"round-{int(trace)}.json"
    argv = [sys.executable, os.path.join(BENCH, "worker.py"), "paper_sweeps",
            "--seed", "7", "--out", str(out)]
    if trace:
        argv.append("--trace")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    completed = subprocess.run(argv, env=env, capture_output=True, timeout=300)
    assert completed.returncode == 0, completed.stderr.decode()
    return json.loads(out.read_text()), str(out) + ".spans"


def test_traced_and_untraced_rounds_render_identical_reports(tmp_path):
    plain, _ = run_round(tmp_path, trace=False)
    traced, spans = run_round(tmp_path, trace=True)

    def digests(result):
        return {op["name"]: op["digest"] for op in result["ops"]}

    assert digests(plain) == digests(traced)
    assert all(op["ok"] for op in plain["ops"] + traced["ops"])

    start, end = traced["window"]
    metrics = layer_metrics(
        load_spans(spans), traced["counters"], (start, end), untraced_wall=1.0
    )
    assert metrics["trace.wall_s"] == pytest.approx(end - start)
    assert metrics["trace.attributed_s"] + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"]
    )
    for name in ("chase.calls", "homomorphism.calls", "generators.calls",
                 "composition.membership_calls", "sweep.pairs_checked"):
        assert metrics[name] > 0, name
