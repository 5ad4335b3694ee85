"""One parity harness: every execution variant against the object oracle.

Backend, worker count, plan and shard count are execution details.  A
:class:`Case` renders one check as text under each of its
:class:`Variant` rows; :func:`diff` runs it once under the oracle
(object, one worker, unsharded, plan ``materialize`` when a row names
a plan) and once under each row, all on cold caches with no store, and
returns each divergent row with its first differing line.  Each run
must show it ran where its row says, pool workers' counts included: a
kernel row built a kernel instance; an sql row's chases reached the
SQL chase, which lowered an input into SQLite or found that no
dependency can fire on it (``_SQL_MIN_FACTS`` is pinned to 0; a case
SQLite leaves to the kernel, ``in_sqlite=False``, shows the kernel's
evidence); a row with workers forked a pool wherever its oracle used
the runner; a sharded row swept every outer position exactly once.
Rows live in ``tests/test_parity.py`` and ``benchmarks/bench_parity.py``,
one test per row (:func:`params`).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import multiprocessing
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple
from unittest import mock

import pytest

from repro.engine import engine_stats, fork_available, parallel, reset_engine_stats, use_store
from repro.engine import sqlbackend
from repro.engine.symmetry import SweepPlan

_POOLED = ("kinstance_cache_misses", "sql_instances_loaded", "sql_inert_inputs")


@dataclasses.dataclass(frozen=True)
class Variant:
    backend: str = "object"
    workers: int = 1
    plan: Optional[str] = None
    shards: int = 1

    def options(self) -> Dict[str, Any]:
        """The row as checker keyword arguments or job payload fields."""
        return {k: v for k, v in dataclasses.asdict(self).items() if v is not None}

    def __str__(self) -> str:
        return " ".join(f"{name}={value}" for name, value in self.options().items())


def grid(backend=("object",), workers=(1,), plan=(None,), shards=(1,)) -> Tuple[Variant, ...]:
    """Every combination; worker counts above 1 only where pools fork."""
    workers = [count for count in workers if count == 1 or fork_available()]
    return tuple(itertools.starmap(Variant, itertools.product(backend, workers, plan, shards)))


@dataclasses.dataclass(frozen=True)
class Case:
    name: str
    run: Callable[[Variant], str]
    variants: Tuple[Variant, ...]
    in_sqlite: bool = True


def oracle(case: Case) -> Variant:
    return Variant(plan="materialize" if any(v.plan for v in case.variants) else None)


def params(cases: Iterable[Case]) -> List[Any]:
    """One pytest parameter ``(case, row)`` per row but the oracle's."""
    return [pytest.param(case, variant, id=f"{case.name}: {variant}")
            for case in cases for variant in case.variants if variant != oracle(case)]


def diff(case: Case, rows: Optional[Iterable[Variant]] = None) -> List[Tuple[Variant, str]]:
    """``(row, first differing line)`` for each of *rows* (by default
    every row of *case*) whose text differs from the oracle's.
    Consecutive calls for one case share one oracle run."""
    expected, footprint = _oracle_run(case)
    found = []
    for variant in case.variants if rows is None else rows:
        if variant != oracle(case):
            actual, counts = _run(case, variant)
            _check_evidence(case, variant, counts, footprint)
            pairs = itertools.zip_longest(expected.split("\n"), actual.split("\n"))
            for number, (old, new) in enumerate(pairs, 1):
                if old != new:
                    found.append((variant, f"{case.name} under {variant}: line {number} "
                                           f"is {new!r}, the oracle's is {old!r}"))
                    break
    return found


def assert_parity(case: Case, rows: Optional[Iterable[Variant]] = None) -> None:
    found = diff(case, rows)
    assert not found, "\n".join(message for _, message in found)


def show(value: Any) -> str:
    """Text equal values share (instances as their sorted facts)."""
    if isinstance(value, dict):
        return "{" + ", ".join(sorted(f"{show(k)}: {show(v)}" for k, v in value.items())) + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(map(show, value)) + ")"
    return str(value)


def lines(items: Any) -> str:
    return "\n".join(map(show, items))


def report_text(report: Any) -> str:
    """A checker report, one field a line and one violation a line."""
    if dataclasses.is_dataclass(report):
        fields = [(field.name, getattr(report, field.name)) for field in dataclasses.fields(report)]
    else:
        counters = ("coverage", "instances_checked", "orbits_checked")
        fields = [("ok", report[0]), ("violators", report[1])]
        fields += [(name, getattr(report, name)) for name in counters]
    text = []
    for name, value in fields:
        items = value if isinstance(value, (tuple, list)) else ()
        text.append(f"{name}: {len(items) if items else value}")
        text.extend(f"  {show(item)}" for item in items)
    return "\n".join(text)


@functools.lru_cache(maxsize=1)
def _oracle_run(case: Case) -> Tuple[str, Dict[str, Any]]:
    return _run(case, oracle(case))


def _run(case: Case, variant: Variant) -> Tuple[str, Dict[str, Any]]:
    """The text and counters of one run; ``sharded`` maps each sharded
    plan to its shards' positions."""
    reset_engine_stats()
    pooled = multiprocessing.Array("q", len(_POOLED), lock=False)
    sharded: Dict[int, Tuple[SweepPlan, Dict[int, List[int]]]] = {}
    with use_store(None), mock.patch.object(sqlbackend, "_SQL_MIN_FACTS", 0), \
            mock.patch.object(parallel, "_supervised_call", _counted(pooled)), \
            mock.patch.object(SweepPlan, "shard_positions", _recorded(sharded)):
        text = case.run(variant)
    counts = engine_stats().counters()
    counts.update((name, counts.get(name, 0) + n) for name, n in zip(_POOLED, pooled))
    return text, dict(counts, sharded=sharded.values())


def _check_evidence(case, variant, counts, footprint) -> None:
    where = f"{case.name} under {variant}"
    if variant.backend == "kernel" or (variant.backend == "sql" and not case.in_sqlite):
        assert counts.get("kinstance_cache_misses"), f"{where} built no kernel instance"
    elif variant.backend == "sql":
        reached = counts.get("sql_instances_loaded") or counts.get("sql_inert_inputs")
        assert reached, f"{where} chased nothing in SQLite"
    if variant.workers > 1 and footprint.get("universe.serial_calls"):
        assert counts.get("universe.parallel_calls"), f"{where} forked no pool"
    if variant.shards > 1:
        assert counts["sharded"], f"{where} swept no shard"
        for plan, shards in counts["sharded"]:
            covered = sorted(itertools.chain.from_iterable(shards.values()))
            assert covered == list(range(len(plan.outer))), f"{where} missed or swept twice"


def _counted(totals):
    """``_supervised_call`` (each worker looks it up by name, so workers
    run this) adding each chunk's :data:`_POOLED` counts to the shared
    *totals*.  No lock: a map torn down early kills workers mid-chunk,
    and a lock one died holding would hang the next map's.  A race may
    lose an addition, but every write stores a positive sum, so a slot
    reads 0 only if no worker counted there."""
    original = parallel._supervised_call

    def now():
        return [engine_stats().counters().get(name, 0) for name in _POOLED]

    @functools.wraps(original)
    def counted(batch):
        before, results = now(), original(batch)
        for index, (old, new) in enumerate(zip(before, now())):
            if new > old:
                totals[index] += new - old
        return results

    return counted


def _recorded(sweeps):
    """``SweepPlan.shard_positions``, noting each plan's shards in *sweeps*."""
    original = SweepPlan.shard_positions

    def recorded(plan, shards, shard_id):
        positions = original(plan, shards, shard_id)
        sweeps.setdefault(id(plan), (plan, {}))[1][shard_id] = positions
        return positions

    return recorded
