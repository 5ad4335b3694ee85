"""``run_sweep`` on a toy task that uses no mappings.

Outer instance *k* is a unary relation with *k* facts, so every item
has its own canonical form (and thus its own shard digest) and the
fold can name an item by its size.  A task row lists one boolean per
examined pair; an exception in a row is an error the task handed back
in-band, and an exception in ``raising`` is one the task raises.
"""

import pytest

from repro.datamodel.instances import Instance
from repro.engine.budget import Budget, coverage_events, reset_coverage_events
from repro.engine.checkpoint import CheckpointJournal
from repro.engine.parallel import fork_available, get_shared
from repro.engine.sweep import SweepResult, run_sweep, sweep_fingerprint
from repro.engine.symmetry import SweepPlan
from repro.errors import BudgetExceeded, DeadlineExceeded

ROWS = [
    [True, True],
    [True, False],
    [True],
    [False, True, False],
    [True, True],
    [True],
    [False],
    [True, True, True],
]


def _instance(size):
    return Instance.build({"P": [(f"c{index}",) for index in range(size)]})


def _plan(weights=None):
    outer = [_instance(size) for size in range(len(ROWS))]
    return SweepPlan("full" if weights is None else "orbits", outer, weights, False)


def _toy_task(position):
    rows, raising = get_shared()
    if position in raising:
        raise raising[position]
    return rows[position]


def _toy_fold(left, row):
    for index, passed in enumerate(row):
        if isinstance(passed, BaseException):
            raise passed
        yield None if passed else (len(left), index)


def _sweep(rows=ROWS, raising=None, plan=None, **options):
    options.setdefault("workers", 1)
    return run_sweep(
        plan or _plan(),
        _toy_task,
        (rows, raising or {}),
        _toy_fold,
        label="check.toy",
        **options,
    )


SERIAL_VIOLATIONS = ((1, 1), (3, 0), (3, 2), (6, 0))


@pytest.fixture(autouse=True)
def _clean_events():
    reset_coverage_events()
    yield
    reset_coverage_events()


def test_full_sweep_folds_every_pair_in_order():
    result = _sweep()
    assert result == SweepResult(False, 15, SERIAL_VIOLATIONS, "exhaustive", 8, 0)
    assert result.verdict() == (False, SERIAL_VIOLATIONS)


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
def test_parallel_fan_out_matches_serial():
    rows = [list(row) for row in ROWS]
    rows[5] = [DeadlineExceeded("late", kind="deadline")]
    assert _sweep(rows=rows, workers=2) == _sweep(rows=rows)
    assert _sweep(workers=2) == _sweep()


def test_orbit_weights_count_instances_and_orbits():
    result = _sweep(plan=_plan(weights=[1, 2, 3, 1, 1, 1, 1, 2]))
    assert result.instances_checked == 12
    assert result.orbits_checked == 8


class TestJournal:
    def test_resumes_from_a_verified_prefix(self, tmp_path):
        path = str(tmp_path / "j.json")
        fingerprint = sweep_fingerprint("check.toy", "full", (), ())
        options = {"key": "toy", "fingerprint": fingerprint}
        first = _sweep(
            journal=CheckpointJournal(path, interval=1),
            budget=Budget(max_instances=4),
            **options,
        )
        assert first.coverage == "budget"
        assert first.instances_checked == 4
        assert first.violations == ((1, 1), (3, 0), (3, 2))
        # the resumed run maps only the rest: items before the prefix
        # would raise if they ran again
        resumed = _sweep(
            raising={position: ValueError("re-ran") for position in range(4)},
            journal=CheckpointJournal(path, interval=1),
            **options,
        )
        assert resumed.coverage == "exhaustive"
        assert resumed.instances_checked == len(ROWS)
        assert not resumed.ok  # the prefix's violations fold into ok
        assert resumed.violations == ((6, 0),)
        assert resumed.checked == 7

    def test_stale_fingerprint_restarts(self, tmp_path):
        path = str(tmp_path / "j.json")
        _sweep(
            journal=CheckpointJournal(path, interval=1),
            budget=Budget(max_instances=4),
            key="toy",
            fingerprint="one",
        )
        again = _sweep(
            journal=CheckpointJournal(path, interval=1), key="toy", fingerprint="two"
        )
        assert again == _sweep()

    def test_stop_at_first_violation_marks_the_entry_complete(self, tmp_path):
        path = str(tmp_path / "j.json")
        journal = CheckpointJournal(path, interval=1)
        result = _sweep(
            stop_at_first_violation=True, journal=journal, key="toy", fingerprint="fp"
        )
        assert result == SweepResult(False, 4, ((1, 1),), "exhaustive", 1, 0)
        reloaded = CheckpointJournal(path)
        assert reloaded.entry_complete("toy", len(ROWS), "fp")
        assert reloaded.prior_verdict("toy") == {"ok": False, "violations": 1}
        # a resumed run has nothing left to sweep and keeps the verdict
        resumed = _sweep(
            raising={position: ValueError("re-ran") for position in range(len(ROWS))},
            journal=CheckpointJournal(path),
            key="toy",
            fingerprint="fp",
        )
        assert not resumed.ok
        assert resumed.violations == ()


class TestGovernedErrors:
    def test_raised_budget_error_degrades_to_partial_coverage(self):
        error = BudgetExceeded("cap", kind="instances")
        result = _sweep(raising={3: error})
        assert result == SweepResult(False, 5, ((1, 1),), "budget", 3, 0)
        (event,) = coverage_events()
        assert (event.phase, event.coverage, event.instances_checked) == (
            "check.toy", "budget", 3,
        )

    def test_in_band_error_replays_after_the_pairs_before_it(self):
        rows = [list(row) for row in ROWS]
        rows[3] = [False, DeadlineExceeded("late", kind="deadline"), False]
        result = _sweep(rows=rows)
        assert result == SweepResult(False, 6, ((1, 1), (3, 0)), "deadline", 3, 0)

    def test_stopping_wins_over_a_later_in_band_error(self):
        rows = [list(row) for row in ROWS]
        rows[1] = [True, False, ValueError("never reached")]
        result = _sweep(rows=rows, stop_at_first_violation=True)
        assert result == SweepResult(False, 4, ((1, 1),), "exhaustive", 1, 0)

    def test_ungoverned_errors_propagate(self):
        with pytest.raises(ValueError):
            _sweep(raising={2: ValueError("bug")})
        with pytest.raises(BudgetExceeded):
            _sweep(raising={2: BudgetExceeded("algorithm", kind="mingen")})
        assert coverage_events() == ()


class TestShards:
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_merge_restores_serial_order(self, shards):
        plan = _plan(weights=[1, 2, 3, 1, 1, 1, 1, 2])
        assert _sweep(plan=plan, shards=shards) == _sweep(plan=plan, shards=1)

    def test_single_shards_partition_the_sweep(self):
        plan = _plan()
        slices = [_sweep(plan=plan, shards=3, shard_id=which) for which in range(3)]
        assert sum(part.checked for part in slices) == 15
        assert sorted(pair for part in slices for pair in part.violations) == sorted(
            SERIAL_VIOLATIONS
        )

    def test_merged_coverage_is_the_most_degraded_shard(self):
        plan = _plan()
        first, second = (
            plan.shard_positions(2, 0)[-1],
            plan.shard_positions(2, 1)[-1],
        )
        # shard 0 runs first and trips a budget cap; shard 1 trips the
        # (worse) deadline
        merged = _sweep(
            plan=plan,
            shards=2,
            raising={
                first: BudgetExceeded("cap", kind="instances"),
                second: DeadlineExceeded("late", kind="deadline"),
            },
        )
        assert merged.coverage == "deadline"
        assert len(coverage_events()) == 2
