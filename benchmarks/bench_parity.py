"""The parity harness's catalog rows (``tests/parity.py``): E1–E14, each
an experiment job payload run through ``execute_job`` (the path
``repro.cli check`` and the daemon share), under ``object|kernel|sql``
x 1|2 workers; and every algebra sweep scenario x kind under plan
``materialize|auto`` x the same backends and workers.  One test per
row, so under pytest's ``--timeout`` a hung pool fails its own row.
The full catalog runs even under ``BENCH_QUICK``."""

import pytest

from repro.algebra.scenarios import sweep_scenarios
from repro.algebra.sweeps import check_expression
from repro.experiments import all_experiment_ids
from repro.service.jobs import budget_for, execute_job
from repro.service.protocol import normalize_job

from tests.parity import Case, assert_parity, grid, params

BACKENDS = ("object", "kernel", "sql")


def _experiment(experiment_id):
    def run(variant):
        payload = {"kind": "experiment", "experiment": experiment_id, **variant.options()}
        spec = normalize_job(payload)
        outcome = execute_job(spec, budget=budget_for(spec))
        return f"{outcome.state}\n{outcome.rendering}"

    return Case(experiment_id, run, grid(BACKENDS, (1, 2)))


def _sweep(name, expr, kind):
    return Case(f"{name} {kind}", lambda v: check_expression(expr, kind, **v.options()).render(),
                grid(BACKENDS, (1, 2), ("materialize", "auto")))


CASES = [_experiment(experiment_id) for experiment_id in all_experiment_ids()] + [
    _sweep(name, expr, kind)
    for name, expr in sweep_scenarios(3)
    for kind in ("unique", "subset", "invertibility")
]


@pytest.mark.parametrize("case, row", params(CASES))
def test_row_matches_the_oracle(case, row):
    assert_parity(case, [row])
