"""One loop for every bounded sweep.

Each property the checkers decide — the (∼1,∼2)-subset property, the
(∼1,∼2)-inverse definition, unique solutions, soundness and
faithfulness — is a fold over the outer stream of a
:class:`~repro.engine.symmetry.SweepPlan`: every outer instance is
paired with some inner pool, each pair passes or is a violation, and
the verdict is the list of violations.  A checker supplies only what
is specific to it:

* a module-level *task*, mapped over positions in ``plan.outer``, that
  reads the sweep's inputs (mappings, universes, witness pools, and
  the outer stream itself) from the *shared* payload through
  :func:`~repro.engine.parallel.get_shared`;
* a *fold* that turns one outer instance and its task's result into
  the pairs examined, in serial order: ``None`` for a pair that
  passed, the violation entry for one that did not.  A fold may raise
  an error its task handed back in-band, after the pairs before it.

:func:`run_sweep` does the rest, once for every checker: it resolves
the budget, opens one engine-context scope for the budget, the
ground-key flag and the backend, fans the task out through
:class:`~repro.engine.parallel.ParallelUniverseRunner`, resumes from
and records to the checkpoint journal, stops at the first violation
when asked, degrades governed errors (deadline, budget caps, worker
faults) to a partial ``coverage``, weights orbit representatives by
their orbit sizes, and claims shards and merges them back into the
unsharded result.
"""

from __future__ import annotations

import uuid
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.datamodel.instances import Instance
from repro.engine.budget import (
    Budget,
    COVERAGE_EXHAUSTIVE,
    SweepVerdict,
    current_budget,
    default_budget,
    governed_coverage,
    record_coverage,
    worst_coverage,
)
from repro.engine.checkpoint import CheckpointJournal, claim_shards, shard_entry_key
from repro.engine.context import resolve_backend, scope
from repro.engine.instrumentation import engine_stats
from repro.engine.parallel import ParallelUniverseRunner
from repro.engine.store import stable_digest
from repro.engine.symmetry import SweepPlan, resolve_shards
from repro.errors import BudgetExceeded, WorkerFault

#: ``fold(outer_instance, task_result)`` yields one item per examined
#: pair: ``None`` when it passed, else the violation entry.
Fold = Callable[[Instance, Any], Iterable[Optional[Any]]]


class SweepResult(NamedTuple):
    """The outcome of one sweep.

    ``checked`` counts the pairs the fold yielded, ``violations`` its
    entries in serial order.  The field order is that of the subset
    and inverse report dataclasses, so ``Report(*result)`` builds one.
    """

    ok: bool
    checked: int
    violations: Tuple[Any, ...]
    coverage: str = COVERAGE_EXHAUSTIVE
    instances_checked: int = 0
    orbits_checked: int = 0

    def verdict(self) -> SweepVerdict:
        return SweepVerdict(
            self.ok,
            self.violations,
            coverage=self.coverage,
            instances_checked=self.instances_checked,
            orbits_checked=self.orbits_checked,
        )


def sweep_fingerprint(
    label: str,
    mode: str,
    keys: Sequence[Any],
    pools: Sequence[Sequence[Instance]],
) -> str:
    """The derivation key a checkpoint entry is guarded by.

    Digests the sweep's actual *content* — the participants' content
    *keys* (mapping dependencies, relations), every instance in every
    pool, and the effective sweep mode — so a journal written for a
    different sweep is never honoured just because its universe has
    the same length.
    """
    parts: List[Any] = [label, mode, *keys]
    for pool in pools:
        parts.append([instance.sorted_facts() for instance in pool])
    return stable_digest(parts)[:16]


def run_sweep(
    plan: SweepPlan,
    task: Callable[[int], Any],
    shared: Any,
    fold: Fold,
    *,
    label: str,
    stop_at_first_violation: bool = False,
    workers: Optional[int] = None,
    budget: Optional[Budget] = None,
    backend: Optional[str] = None,
    journal: Optional[CheckpointJournal] = None,
    key: str = "",
    fingerprint: Optional[str] = None,
    shards: Optional[int] = None,
    shard_id: Optional[int] = None,
) -> SweepResult:
    """Sweep *plan*'s outer stream with *task* and *fold*.

    *label* names the engine-stats phase and the coverage event of a
    partial sweep.  *budget* defaults to the ambient one, else to a
    fresh :func:`~repro.engine.budget.default_budget`.

    With a *journal*, progress is recorded under *key* (guarded by
    *fingerprint*) and a matching verified prefix is skipped, its
    verdict folded into ``ok``; stopping at the first violation marks
    the entry complete.

    *shards* / *shard_id* default to the process defaults
    (``REPRO_SHARDS`` / ``REPRO_SHARD_ID``).  A fixed *shard_id* sweeps that shard alone;
    otherwise every shard this process claims (all of them without a
    journal) is swept under its own journal entry and the results
    merge back in serial order — exactly the unsharded result when no
    shard stops early.  Shards completed by peers contribute their
    journal verdict to ``ok``; the merged coverage is the most
    degraded shard's.
    """
    if budget is None:
        budget = current_budget() or default_budget()
    shards, shard_id = resolve_shards(shards, shard_id)
    runner = ParallelUniverseRunner(workers)
    outer = plan.outer

    def sweep(positions: Sequence[int], entry_key: str) -> SweepResult:
        """One journal-backed pass over *positions*; violations come
        back tagged with their outer position for the shard merge."""
        total = len(positions)
        start = journal.resume_index(entry_key, total, fingerprint) if journal else 0
        prior = (
            journal.prior_verdict(entry_key)
            if journal and start
            else {"ok": True, "violations": 0}
        )
        found: List[Tuple[int, Any]] = []
        checked = 0
        done = start
        coverage = COVERAGE_EXHAUSTIVE

        def note(verified_upto: int, flush: bool = False) -> None:
            if journal is not None:
                journal.record(
                    entry_key,
                    verified_upto=verified_upto,
                    total=total,
                    ok=prior["ok"] and not found,
                    violations=prior["violations"] + len(found),
                    fingerprint=fingerprint,
                    flush=flush,
                )

        results = runner.map_iter(task, positions[start:], shared=shared, budget=budget)
        try:
            for position, outcome in zip(positions[start:], results):
                for entry in fold(outer[position], outcome):
                    checked += 1
                    if entry is not None:
                        found.append((position, entry))
                        if stop_at_first_violation:
                            break
                if stop_at_first_violation and found:
                    break
                done += 1
                note(done)
        except (BudgetExceeded, WorkerFault) as error:
            coverage = governed_coverage(error)
            if coverage is None:
                raise
            detail = str(error)
        finally:
            results.close()
        instances = sum(map(plan.weight_of, positions[:done]))
        if coverage == COVERAGE_EXHAUSTIVE:
            note(total, flush=True)
        else:
            note(done, flush=True)
            record_coverage(label, coverage, detail, instances)
        return SweepResult(
            prior["ok"] and not found,
            checked,
            tuple(found),
            coverage,
            instances,
            done if plan.reduced else 0,
        )

    with engine_stats().phase(label), scope(
        budget=budget,
        ground_keys=plan.ground_keys,
        backend=resolve_backend(backend),
    ):
        if shards <= 1:
            result = sweep(range(len(outer)), key)
        elif shard_id is not None:
            result = sweep(
                plan.shard_positions(shards, shard_id),
                shard_entry_key(key, shard_id, shards),
            )
        else:
            owner = uuid.uuid4().hex
            runs: Dict[int, SweepResult] = {}
            for claimed in claim_shards(
                journal, key, shards, owner=owner, fingerprint=fingerprint
            ):
                runs[claimed] = sweep(
                    plan.shard_positions(shards, claimed),
                    shard_entry_key(key, claimed, shards),
                )
            result = _merge(runs, journal, key, shards)
    return result._replace(
        violations=tuple(entry for _, entry in result.violations)
    )


def _merge(
    runs: Dict[int, SweepResult],
    journal: Optional[CheckpointJournal],
    key: str,
    shards: int,
) -> SweepResult:
    """Fold per-shard results back into the unsharded one: violations
    re-sorted by outer position (a stable sort, so each item keeps its
    pairs' serial order), counters summed.  Shards absent from *runs*
    were completed by peers; their journal verdicts fold into ``ok``,
    as a resumed sweep accounts for its pre-restart prefix."""
    ok = all(run.ok for run in runs.values())
    if journal is not None:
        journal.reload()
        for shard in range(shards):
            if shard not in runs:
                prior = journal.prior_verdict(shard_entry_key(key, shard, shards))
                ok = ok and prior["ok"] and not prior["violations"]
    found = sorted(
        (entry for run in runs.values() for entry in run.violations),
        key=itemgetter(0),
    )
    return SweepResult(
        ok and not found,
        sum(run.checked for run in runs.values()),
        tuple(found),
        worst_coverage(*(run.coverage for run in runs.values())),
        sum(run.instances_checked for run in runs.values()),
        sum(run.orbits_checked for run in runs.values()),
    )


__all__ = [
    "Fold",
    "SweepResult",
    "run_sweep",
    "sweep_fingerprint",
]
