"""The SQL execution backend: the chase and homomorphism joins in SQLite.

The object and kernel backends hold every fact in Python memory, which
caps chases at instance sizes where rebuilding a fact-indexed
``Instance`` per firing is affordable.  This backend (``backend="sql"``,
CLI ``--backend sql``, env ``REPRO_BACKEND=sql``) lowers instances into
SQLite tables and runs the hot loops as SQL:

* **Tagged id encoding.**  Every term is interned once in the
  engine-wide :class:`~repro.engine.kernel.InternTable`; its SQL value
  is ``2*id`` for constants and ``2*id + 1`` for labeled nulls and
  logic variables.  The parity bit makes ``Constant(x)`` premises a
  ``% 2 = 0`` predicate and lets *existential* tgds chase inside the
  database — the one thing :mod:`repro.export.sql` (which renders
  nulls as lossy SQL ``NULL``) cannot express.  Decoding is a table
  lookup, so results round-trip exactly.

* **Set-based chase rounds.**  For full tgds the restricted chase's
  final fact set equals the per-conclusion-atom closure — a match
  that does not fire found all its conclusion atoms already present —
  so each dependency becomes ``INSERT INTO target SELECT … EXCEPT
  SELECT …`` over a premise join compiled from the same
  :class:`~repro.engine.compile.CompiledPremise` plans the kernel
  uses.  The exact serial firing count (budget and ``max_steps``
  accounting) is recovered set-wise: a match fires iff it is the
  *first*, in the object backend's sorted match order, to produce
  some fact absent from the initial instance — one ``ROW_NUMBER()``
  window over the match table.  Existential tgds (and traced chases)
  run per match against the live tables, with ``EXISTS`` conclusion
  checks and fresh nulls from the caller's
  :class:`~repro.chase.standard.NullFactory`, so null names — and
  therefore rendered reports — are byte-identical to the other
  backends.

* **Homomorphism checks as conjunctive queries.**  Enumeration runs
  one ``SELECT`` per pattern and re-sorts rows by the join plan's
  image-fact keys, reconstructing the object backend's DFS yield
  order exactly.  Existence (``solutions_contained``) decomposes the
  source into connected components on shared nulls: ground facts
  become one ``EXCEPT``-subset probe per relation, each component an
  ``EXISTS`` query.  Patterns beyond SQLite's join width fall back to
  the (order-identical) kernel search, and so do operations whose
  operands hold fewer than ``_SQL_MIN_FACTS`` (128) facts — statement
  round-trips dominate tiny searches, and sweeps run millions of
  them.

* **One interface.**  :class:`SqlBackend`'s four operations are the
  ``sql_*`` functions below, and it lowers to kernel instances exactly
  the operands under ``_SQL_MIN_FACTS`` facts: below it the sql
  backend *is* the kernel backend, memos included; at or above it an
  operation runs in SQLite over the shared LRU caches.

* **Governance.**  A SQLite progress handler polls the ambient
  :class:`~repro.engine.budget.Budget` every few thousand VM ops, so
  deadlines interrupt mid-statement; chase-step caps are charged from
  the pre-counted firing totals before any insert runs.  Statements
  consult the ``sql.exec`` fault point and retry once on failure.
  Counters (``sql_statements``, ``sql_chase_firings``, …) surface on
  :func:`~repro.engine.instrumentation.engine_stats`.

Connections are per process *and thread* (forked pool workers and the
service daemon's job threads each open their own), against
``:memory:`` by default or the scratch file named by ``REPRO_SQL_DB``
(CLI ``--sql-db``).  Everything here is exact acceleration: verdicts,
witnesses, chase results, and their order are identical across
backends.
"""

from __future__ import annotations

import itertools
import os
import sqlite3
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Term
from repro.engine import faults
from repro.engine.budget import current_budget
from repro.engine.cache import register_reset_hook
from repro.engine.compile import CompiledPremise
from repro.engine.context import CONTEXT
from repro.engine.instrumentation import engine_stats
from repro.engine.kernel import (
    BACKEND_OPERATIONS,
    BACKEND_SQL,
    InternTable,
    KernelBackend,
    compiled_premise,
    intern_table,
    kernel_all_homomorphisms,
    kernel_has_homomorphism,
    kernel_instance,
    small_id,
    sorted_premise_matches,
)
from repro.errors import BudgetExceeded, ChaseError

#: Widest pattern compiled to one SQL join (SQLite caps joins at 64
#: tables; match ordering adds one terms-table join per variable).
#: Wider patterns — instance-sized homomorphism sources, mostly — fall
#: back to the kernel search, which yields the same results in the
#: same order.
_MAX_JOIN_ATOMS = 24

#: Below this many rows a table gets no secondary indexes — SQLite's
#: automatic transient indexes beat maintaining real ones for the
#: sweep-sized instances the backend sees by the thousands.
_INDEX_MIN_ROWS = 512

#: VM ops between budget probes of the progress handler.
_PROGRESS_OPS = 4_000

#: Live-table watermark; crossing it between operations recycles the
#: connection so an unbounded sweep cannot grow the schema forever.
_MAX_LIVE_TABLES = 20_000

#: Lowered-instance LRU capacity.  SQLite's CREATE TABLE cost grows
#: with the number of tables already in the schema, so sweeps over
#: thousands of tiny instances must not let the schema grow without
#: bound: past this many cached instances the coldest ones hand their
#: tables back to the per-arity free pool (a DELETE, not a DROP) and
#: are re-lowered on their next use.
_MAX_LIVE_INSTANCES = 1_024


#: Below this many instance facts the SQL plan cannot win: lowering
#: the instance and round-tripping a handful of statements costs more
#: than the whole in-memory search, so tiny operands route to the
#: (order-identical) kernel.  Call sites read the module global when
#: they run, so the test suites patch it to 0 to force every operation
#: through SQL.
_SQL_MIN_FACTS = 128


def default_sql_db() -> Optional[str]:
    """The scratch database path (``REPRO_SQL_DB``; the CLI's
    ``--sql-db`` flag sets it), or None for per-process ``:memory:``."""
    value = os.environ.get("REPRO_SQL_DB", "").strip()
    return value or None


def sql_min_facts() -> int:
    """The small-operand routing threshold (``_SQL_MIN_FACTS``)."""
    return _SQL_MIN_FACTS


# -- encoding --------------------------------------------------------------


def encode_term(term: Term, intern: InternTable) -> int:
    """The tagged SQL id of *term*: ``2*id`` for constants, ``2*id+1``
    for nulls and variables, over the engine-wide intern table."""
    tid = intern.intern(term)
    return tid * 2 if intern.is_const(tid) else tid * 2 + 1


def decode_id(tagged: int, intern: InternTable) -> Term:
    """The term behind a tagged SQL id."""
    return intern.term(tagged >> 1)


# -- the per-thread runtime ------------------------------------------------

_GENERATION = 0
_RUNTIME_SEQ = itertools.count()


class _SqlRuntime:
    """One thread's SQLite connection plus its lowered-instance caches.

    Forked workers and daemon job threads never share a connection:
    :func:`_runtime` keys on (pid, thread, cache generation) and
    rebuilds on any mismatch.  All table names carry a per-runtime
    prefix, so several runtimes can share one ``REPRO_SQL_DB`` file.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.generation = _GENERATION
        self.seq = next(_RUNTIME_SEQ)
        self.prefix = f"repro{self.pid}_{self.seq}_"
        self.path = default_sql_db()
        self.conn = sqlite3.connect(
            self.path or ":memory:", cached_statements=512
        )
        self.conn.isolation_level = None  # autocommit; the chase is the journal
        cursor = self.conn
        if self.path is None:
            cursor.execute("PRAGMA journal_mode=OFF")
        else:
            cursor.execute("PRAGMA journal_mode=WAL")
        cursor.execute("PRAGMA synchronous=OFF")
        cursor.execute("PRAGMA temp_store=MEMORY")
        cursor.execute("PRAGMA cache_size=-65536")
        if self.path is not None and self.seq == 0:
            self._drop_stale_tables()
        self._budget_error: Optional[BudgetExceeded] = None
        self.conn.set_progress_handler(self._on_progress, _PROGRESS_OPS)
        self.ntables = 0
        self._pins = 0
        self.epoch = 0
        # per-arity free pool of empty tables; reuse beats DDL because
        # CREATE TABLE is O(schema size) while DELETE FROM is O(rows)
        self.pool: Dict[int, List[str]] = {}
        self._table_seq = itertools.count()
        self._sid = itertools.count()
        self.terms_table = f"{self.prefix}terms"
        self.conn.execute(
            f"CREATE TABLE IF NOT EXISTS {self.terms_table} "
            "(tid INTEGER PRIMARY KEY, kind INTEGER, skey TEXT)"
        )
        self._terms_flushed = 0
        # content- and identity-keyed SqlInstance memos (fork/thread
        # local by construction: they live on the runtime); the content
        # memo is LRU-ordered so cold instances can be evicted
        self.instances: "OrderedDict[FrozenSet[Atom], SqlInstance]" = OrderedDict()
        self.by_id: Dict[int, Tuple["weakref.ref[Instance]", "SqlInstance"]] = {}
        self.match_memo: Dict[Tuple[int, int], Tuple[Dict[Term, Term], ...]] = {}

    def _drop_stale_tables(self) -> None:
        """Scratch-file hygiene: drop tables left by a dead process
        that had this pid (pid reuse).  Only the first runtime of a
        process may do this — later ones would nuke live siblings."""
        stale = [
            name
            for (name,) in self.conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' "
                "AND name LIKE ?",
                (f"repro{self.pid}_%",),
            )
        ]
        for name in stale:
            self.conn.execute(f"DROP TABLE IF EXISTS {name}")

    # -- governance --------------------------------------------------

    def _on_progress(self) -> int:
        budget = current_budget()
        if budget is None:
            return 0
        try:
            budget.check()
        except BudgetExceeded as error:
            self._budget_error = error
            return 1
        return 0

    def _raise_pending_budget(self) -> None:
        if self._budget_error is not None:
            error, self._budget_error = self._budget_error, None
            raise error from None

    # -- statement execution (fault point + budget rethrow) ----------

    def execute(self, sql: str, params: Sequence = ()) -> sqlite3.Cursor:
        engine_stats().bump("sql_statements")
        # fire() counts the injection itself; an injected fault stands
        # in for a failed first attempt, so only the retry runs.
        if faults.fire("sql.exec") is None:
            try:
                return self.conn.execute(sql, params)
            except sqlite3.Error:
                self._raise_pending_budget()
        engine_stats().bump("sql_retries")
        try:
            return self.conn.execute(sql, params)
        except sqlite3.Error:
            self._raise_pending_budget()
            raise

    def executemany(self, sql: str, rows: Sequence[Sequence]) -> None:
        engine_stats().bump("sql_statements")
        if faults.fire("sql.exec") is None:
            try:
                self.conn.executemany(sql, rows)
                return
            except sqlite3.Error:
                self._raise_pending_budget()
        engine_stats().bump("sql_retries")
        try:
            self.conn.executemany(sql, rows)
        except sqlite3.Error:
            self._raise_pending_budget()
            raise

    # -- tables ------------------------------------------------------

    def create_table(self, arity: int) -> str:
        free = self.pool.get(arity)
        if free:
            return free.pop()
        name = f"{self.prefix}t{next(self._table_seq)}"
        if arity:
            columns = ", ".join(f"c{i} INTEGER" for i in range(arity))
            key = ", ".join(f"c{i}" for i in range(arity))
            self.execute(
                f"CREATE TABLE {name} ({columns}, "
                f"PRIMARY KEY ({key})) WITHOUT ROWID"
            )
        else:
            self.execute(f"CREATE TABLE {name} (c0 INTEGER PRIMARY KEY)")
        self.ntables += 1
        return name

    def release_table(self, name: str, arity: int) -> None:
        """Hand a table back to the per-arity free pool.

        Housekeeping runs on the raw connection — outside the fault
        plane and the statement counters — so cleanup can neither be
        fault-injected nor mask an in-flight exception with a second
        budget trip.  A table whose DELETE fails is dropped (or, at
        worst, leaked until the next recycle) rather than pooled dirty.
        """
        try:
            self.conn.execute(f"DELETE FROM {name}")
        except sqlite3.Error:
            try:
                self.conn.execute(f"DROP TABLE IF EXISTS {name}")
                self.ntables -= 1
            except sqlite3.Error:
                pass
            return
        self.pool.setdefault(arity, []).append(name)

    def drop_table(self, name: str) -> None:
        self.execute(f"DROP TABLE IF EXISTS {name}")
        self.ntables -= 1

    def insert_rows(
        self, table: str, arity: int, rows: Sequence[Tuple[int, ...]]
    ) -> None:
        holes = ", ".join("?" for _ in range(max(arity, 1)))
        self.executemany(
            f"INSERT OR IGNORE INTO {table} VALUES ({holes})", rows
        )

    def temp_name(self) -> str:
        return f"{self.prefix}m{next(self._table_seq)}"

    # -- the terms side table (for SQL-native match ordering) --------

    def flush_terms(self) -> None:
        intern = intern_table()
        total = len(intern)
        if self._terms_flushed >= total:
            return
        rows = []
        for tid in range(self._terms_flushed, total):
            kind, skey = intern.term(tid).sort_key()
            tagged = tid * 2 if intern.is_const(tid) else tid * 2 + 1
            rows.append((tagged, kind, skey))
        self.executemany(
            f"INSERT OR IGNORE INTO {self.terms_table} VALUES (?, ?, ?)", rows
        )
        self._terms_flushed = total

    # -- lifecycle ---------------------------------------------------

    @contextmanager
    def pinned(self) -> Iterator[None]:
        """Hold the runtime stable across a multi-instance operation.

        Recycling (table-watermark housekeeping) only happens at pin
        acquisition with no pins held, so an operation that loaded one
        instance can safely load a second.  The epoch stamp advances
        here too: instances touched under the current outermost pin
        carry the current epoch and are exempt from LRU eviction."""
        if self._pins == 0:
            self.epoch += 1
            if self.ntables > _MAX_LIVE_TABLES:
                self.recycle()
        self._pins += 1
        try:
            yield
        finally:
            self._pins -= 1

    def recycle(self) -> None:
        """Drop every lowered instance and start from a fresh schema."""
        try:
            if self.path is not None:
                # :memory: dies with the connection; a shared scratch
                # file keeps our tables unless we drop them ourselves
                for (name,) in self.conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table' "
                    "AND name LIKE ?",
                    (f"{self.prefix}%",),
                ).fetchall():
                    self.conn.execute(f"DROP TABLE IF EXISTS {name}")
            self.conn.close()
        except sqlite3.Error:
            pass
        engine_stats().bump("sql_recycles")
        self.__init__()  # re-open with a fresh prefix

    def close(self) -> None:
        try:
            self.conn.close()
        except sqlite3.Error:
            pass


def _runtime() -> _SqlRuntime:
    rt: Optional[_SqlRuntime] = CONTEXT.sql_runtime
    if (
        rt is None
        or rt.pid != os.getpid()
        or rt.generation != _GENERATION
        or rt.path != default_sql_db()
    ):
        if rt is not None and rt.pid == os.getpid():
            # same process, stale generation or retargeted REPRO_SQL_DB;
            # a forked child must NOT close the inherited connection
            rt.close()
        rt = _SqlRuntime()
        CONTEXT.sql_runtime = rt
    return rt


def _reset_sql_runtime() -> None:
    """Reset-hook body: invalidate every runtime in the process.

    Other threads' runtimes cannot be closed from here (SQLite
    connections are thread-affine); bumping the generation makes each
    thread rebuild on next use, and this thread's is closed eagerly so
    a benchmark's cold run after ``reset_all_caches()`` is cold."""
    global _GENERATION
    _GENERATION += 1
    rt: Optional[_SqlRuntime] = CONTEXT.sql_runtime
    if rt is not None and rt.pid == os.getpid():
        rt.close()
        CONTEXT.sql_runtime = None


register_reset_hook(_reset_sql_runtime)


# -- lowered instances -----------------------------------------------------


class SqlInstance:
    """One instance lowered to per-(relation, arity) SQLite tables.

    Tables are sets (``PRIMARY KEY`` over all columns, ``WITHOUT
    ROWID``) of tagged ids.  ``counts`` holds facts per relation name
    (all arities), feeding the compiled join planner the same extents
    the object backend's ordering heuristic sees.
    """

    __slots__ = ("sid", "tables", "counts", "nfacts", "hom_memo", "epoch")

    def __init__(self, rt: _SqlRuntime, facts: FrozenSet[Atom]) -> None:
        intern = intern_table()
        grouped: Dict[Tuple[str, int], List[Tuple[int, ...]]] = {}
        counts: Dict[str, int] = {}
        for fact in facts:
            key = (fact.relation, fact.arity)
            # arity-0 facts get the sentinel row (0,): the table's one
            # possible row, present iff the nullary fact holds
            grouped.setdefault(key, []).append(
                tuple(encode_term(arg, intern) for arg in fact.args) or (0,)
            )
            counts[fact.relation] = counts.get(fact.relation, 0) + 1
        tables: Dict[Tuple[str, int], str] = {}
        for (relation, arity), rows in grouped.items():
            table = rt.create_table(arity)
            rt.insert_rows(table, arity, rows)
            if len(rows) >= _INDEX_MIN_ROWS:
                for position in range(1, arity):
                    # IF NOT EXISTS: a pool-reused table may carry its
                    # indexes from a previous tenant
                    rt.execute(
                        f"CREATE INDEX IF NOT EXISTS {table}_i{position} "
                        f"ON {table}(c{position})"
                    )
            tables[(relation, arity)] = table
        self.sid = next(rt._sid)
        self.tables = tables
        self.counts = counts
        self.nfacts = len(facts)
        self.hom_memo: Dict[int, bool] = {}
        self.epoch = rt.epoch
        engine_stats().bump("sql_instances_loaded")


def sql_instance(instance: Instance) -> SqlInstance:
    """The (memoized) lowered form of *instance* in this thread's DB."""
    rt = _runtime()
    entry = rt.by_id.get(id(instance))
    if entry is not None:
        sinst = entry[1]
        if sinst.tables is not None:
            rt.instances.move_to_end(instance.facts)
            sinst.epoch = rt.epoch
            return sinst
        rt.by_id.pop(id(instance), None)  # evicted; re-lower below
    sinst = sql_instance_for_facts(instance.facts)
    key = id(instance)
    ref = weakref.ref(instance, lambda _r, _k=key: rt.by_id.pop(_k, None))
    rt.by_id[key] = (ref, sinst)
    return sinst


def sql_instance_for_facts(facts: FrozenSet[Atom]) -> SqlInstance:
    rt = _runtime()
    sinst = rt.instances.get(facts)
    if sinst is None:
        sinst = SqlInstance(rt, facts)
        rt.instances[facts] = sinst
        _evict_cold(rt)
    else:
        rt.instances.move_to_end(facts)
        sinst.epoch = rt.epoch
    return sinst


def _evict_cold(rt: _SqlRuntime) -> None:
    """Release the coldest lowered instances past the LRU capacity.

    Instances stamped with the current pin epoch belong to an
    operation still in flight and are never evicted; everything older
    hands its tables back to the free pool.  An evicted instance's
    ``tables`` is poisoned to ``None`` so any stale identity-memo hit
    fails loudly instead of querying a reassigned table.
    """
    while len(rt.instances) > _MAX_LIVE_INSTANCES:
        facts, sinst = next(iter(rt.instances.items()))
        if sinst.epoch == rt.epoch:
            break  # the whole cold end is pinned by the current op
        del rt.instances[facts]
        for (_, arity), table in sinst.tables.items():
            rt.release_table(table, arity)
        sinst.tables = None
        engine_stats().bump("sql_evictions")


# -- premise joins ---------------------------------------------------------


def _premise_query(
    compiled: CompiledPremise,
    sinst: SqlInstance,
    base_tagged: Dict[int, int],
) -> Optional[Tuple[str, List[str], Dict[int, str]]]:
    """FROM/WHERE for a compiled pattern over *sinst*, or None when an
    atom's (relation, arity) extent is empty (no matches exist).

    Returns ``(from_sql, predicates, slot_expr)``; ``slot_expr`` maps
    each slot occurring in the atoms to its defining column, which is
    how callers project variables out of the join.
    """
    from_parts: List[str] = []
    preds: List[str] = []
    slot_expr: Dict[int, str] = {}
    for index, catom in enumerate(compiled.catoms):
        table = sinst.tables.get((catom.relation, catom.arity))
        if table is None:
            return None
        alias = f"a{index}"
        from_parts.append(f"{table} AS {alias}")
        for position, is_const, value in catom.ops:
            column = f"{alias}.c{position}"
            if is_const:
                preds.append(f"{column} = {value * 2}")
            else:
                expr = slot_expr.get(value)
                if expr is None:
                    slot_expr[value] = column
                    bound = base_tagged.get(value)
                    if bound is not None:
                        preds.append(f"{column} = {bound}")
                else:
                    preds.append(f"{expr} = {column}")
    for slot in compiled.const_slots:
        # parity = constness; pre-bound slots were checked by the caller
        if slot in slot_expr and slot not in base_tagged:
            preds.append(f"{slot_expr[slot]} % 2 = 0")
    for left, right in compiled.ineq_pairs:
        left_expr = slot_expr.get(left) or (
            str(base_tagged[left]) if left in base_tagged else None
        )
        right_expr = slot_expr.get(right) or (
            str(base_tagged[right]) if right in base_tagged else None
        )
        if left_expr is None or right_expr is None:
            continue  # one side unbound: the object backend skips it too
        if left in base_tagged and right in base_tagged:
            continue  # both pre-bound: checked by the caller
        preds.append(f"{left_expr} <> {right_expr}")
    return ", ".join(from_parts), preds, slot_expr


def _select_sql(columns: Sequence[str], from_sql: str, preds: List[str]) -> str:
    sql = f"SELECT {', '.join(columns)} FROM {from_sql}"
    if preds:
        sql += " WHERE " + " AND ".join(preds)
    return sql


# -- homomorphism enumeration (object-order exact) ------------------------


def sql_all_homomorphisms(
    atoms: Tuple[Atom, ...],
    target: Instance,
    base: Dict[Term, Term],
    constant_vars: FrozenSet,
    inequalities: FrozenSet,
) -> Iterator[Dict[Term, Term]]:
    """The SQL twin of the object backend's backtracking search.

    One ``SELECT`` over the lowered target computes the solution set;
    rows are then sorted by the join plan's image-fact keys, which is
    exactly the order the object backend's DFS (sorted candidate scans
    along the greedy plan) yields them in.  *base* must already
    satisfy the constraints — the dispatching caller checks it.
    """
    if not atoms:
        # the empty pattern has exactly one homomorphism: *base* itself
        # (the dispatching caller already checked its constraints)
        yield dict(base)
        return
    compiled = compiled_premise(atoms, constant_vars, inequalities)
    if len(compiled.catoms) > _MAX_JOIN_ATOMS:
        engine_stats().bump("sql_fallbacks")
        yield from kernel_all_homomorphisms(
            atoms, target, base, constant_vars, inequalities
        )
        return
    if len(target.facts) < _SQL_MIN_FACTS:
        engine_stats().bump("sql_small_routed")
        yield from kernel_all_homomorphisms(
            atoms, target, base, constant_vars, inequalities
        )
        return
    rt = _runtime()
    intern = intern_table()
    with rt.pinned():
        sinst = sql_instance(target)
        base_tagged: Dict[int, int] = {}
        bound_mask = 0
        for term, value in base.items():
            slot = compiled.slots.get(term)
            if slot is not None:
                base_tagged[slot] = encode_term(value, intern)
                bound_mask |= 1 << slot
        parts = _premise_query(compiled, sinst, base_tagged)
        if parts is None:
            return
        from_sql, preds, slot_expr = parts
        out_slots = sorted(slot_expr)
        if out_slots:
            columns = [slot_expr[slot] for slot in out_slots]
        else:
            columns = ["1"]  # fully-ground pattern: existence only
        rows = rt.execute(_select_sql(columns, from_sql, preds)).fetchall()
    if not rows:
        return
    extents = tuple(
        sinst.counts.get(catom.relation, 0) for catom in compiled.catoms
    )
    plan = compiled.plan(extents, bound_mask)
    # The DFS yield order is lexicographic in the tuple of image facts
    # along the plan; constants contribute equal components, so sorting
    # by the slot values at each plan position (by term sort key) is
    # the same order.
    key_positions = [
        (out_slots.index(value) if out_slots else 0)
        for atom_index in plan
        for (_p, is_const, value) in compiled.catoms[atom_index].ops
        if not is_const
    ]
    key_cache: Dict[int, Tuple[int, str]] = {}

    def term_key(tagged: int) -> Tuple[int, str]:
        key = key_cache.get(tagged)
        if key is None:
            key = decode_id(tagged, intern).sort_key()
            key_cache[tagged] = key
        return key

    if out_slots:
        rows.sort(
            key=lambda row: tuple(term_key(row[pos]) for pos in key_positions)
        )
    slot_terms = compiled.slot_terms
    for row in rows:
        result = dict(base)
        for position, slot in enumerate(out_slots):
            result[slot_terms[slot]] = decode_id(row[position], intern)
        yield result


# -- sorted premise matches (chase dispatch) -------------------------------


def sql_sorted_premise_matches(dependency, instance: Instance):
    """The chase's sorted premise-match list, computed as one SQL join.

    Element- and order-identical to
    :func:`repro.chase.standard._sorted_matches`: the join computes the
    match set, Python re-sorts by the per-variable image keys the
    object backend sorts by.  Memoized per (dependency, instance
    content) on the runtime.
    """
    budget = current_budget()
    if budget is not None:
        budget.check()
    premise = dependency.premise
    if len(premise.atoms) > _MAX_JOIN_ATOMS:
        engine_stats().bump("sql_fallbacks")
        return sorted_premise_matches(dependency, instance)
    if len(instance.facts) < _SQL_MIN_FACTS:
        engine_stats().bump("sql_small_routed")
        return sorted_premise_matches(dependency, instance)
    rt = _runtime()
    with rt.pinned():
        sinst = sql_instance(instance)
        memo_key = (small_id(dependency), sinst.sid)
        cached = rt.match_memo.get(memo_key)
        if cached is not None:
            return cached
        compiled = compiled_premise(
            premise.atoms, premise.constant_vars, premise.inequalities
        )
        parts = _premise_query(compiled, sinst, {})
        matches = () if parts is None else _fetch_matches_from_parts(
            rt, compiled, parts, dependency.premise_variables()
        )
        rt.match_memo[memo_key] = matches
        return matches


# -- homomorphism existence (containment checks) ---------------------------


def sql_has_homomorphism(source: Instance, target: Instance) -> bool:
    """Does an instance homomorphism *source* -> *target* exist?

    Existence is search-order independent, so this decomposes instead
    of enumerating: ground facts reduce to per-relation subset probes
    (``EXCEPT … LIMIT 1``), and the non-ground facts split into
    connected components on shared nulls, each one ``EXISTS`` query —
    which is what keeps chase-result containment affordable when the
    solutions hold thousands of facts.
    """
    budget = current_budget()
    if budget is not None:
        budget.check()
    if max(len(source.facts), len(target.facts)) < _SQL_MIN_FACTS:
        engine_stats().bump("sql_small_routed")
        return kernel_has_homomorphism(source, target)
    rt = _runtime()
    intern = intern_table()
    with rt.pinned():
        ssrc = sql_instance(source)
        stgt = sql_instance(target)
        verdict = ssrc.hom_memo.get(stgt.sid)
        if verdict is not None:
            return verdict
        verdict = _hom_exists(rt, intern, source, ssrc, stgt, target)
        ssrc.hom_memo[stgt.sid] = verdict
        return verdict


def _hom_exists(
    rt: _SqlRuntime,
    intern: InternTable,
    source: Instance,
    ssrc: SqlInstance,
    stgt: SqlInstance,
    target: Instance,
) -> bool:
    # 1. ground facts: every one must be a row of the target
    for (relation, arity), table in sorted(ssrc.tables.items()):
        if arity == 0:
            ground_pred = "1"
        else:
            ground_pred = " AND ".join(f"c{i} % 2 = 0" for i in range(arity))
        columns = ", ".join(f"c{i}" for i in range(max(arity, 1)))
        tgt_table = stgt.tables.get((relation, arity))
        if tgt_table is None:
            sql = f"SELECT 1 FROM {table} WHERE {ground_pred} LIMIT 1"
        else:
            sql = (
                f"SELECT {columns} FROM {table} WHERE {ground_pred} "
                f"EXCEPT SELECT {columns} FROM {tgt_table} LIMIT 1"
            )
        if rt.execute(sql).fetchone() is not None:
            return False
    # 2. non-ground facts: connected components on shared nulls
    components = _null_components(source)
    if any(len(component) > _MAX_JOIN_ATOMS for component in components):
        engine_stats().bump("sql_fallbacks")
        return kernel_has_homomorphism(source, target)
    for component in components:
        compiled = compiled_premise(
            tuple(sorted(component, key=Atom.sort_key)),
            frozenset(),
            frozenset(),
        )
        parts = _premise_query(compiled, stgt, {})
        if parts is None:
            return False
        from_sql, preds, _slot_expr = parts
        sql = _select_sql(["1"], from_sql, preds) + " LIMIT 1"
        if rt.execute(sql).fetchone() is None:
            return False
    return True


def _null_components(source: Instance) -> List[List[Atom]]:
    """Non-ground facts grouped by shared mappable terms (union-find)."""
    parents: Dict[Term, Term] = {}

    def find(term: Term) -> Term:
        root = term
        while parents[root] is not root:
            root = parents[root]
        while parents[term] is not root:
            parents[term], term = root, parents[term]
        return root

    members: List[Tuple[Atom, List[Term]]] = []
    for fact in source.sorted_facts():
        mappable = [
            arg for arg in fact.args if not isinstance(arg, Constant)
        ]
        if not mappable:
            continue  # handled by the ground subset probes
        for term in mappable:
            parents.setdefault(term, term)
        first = mappable[0]
        for term in mappable[1:]:
            parents[find(term)] = find(first)
        members.append((fact, mappable))
    grouped: Dict[Term, List[Atom]] = {}
    for fact, mappable in members:
        grouped.setdefault(find(mappable[0]), []).append(fact)
    return list(grouped.values())


# -- the chase -------------------------------------------------------------


def sql_stratified_chase(
    instance: Instance,
    dependencies: Sequence,
    *,
    null_factory,
    max_steps: int,
    trace: bool,
):
    """The stratified restricted chase, executed inside SQLite.

    Returns the same :class:`~repro.chase.standard.ChaseResult` the
    interpreter produces — same facts, same fresh-null names, and
    (when *trace* is set) the same step list — or None when a premise
    is too wide for one SQL join or the instance sits below the
    small-operand threshold, in which case the caller falls back to
    the interpreted loop.

    Full tgds run set-based (one match table + one ``INSERT … SELECT
    … EXCEPT SELECT`` per conclusion atom) unless a trace was
    requested; existential tgds run per match in the object backend's
    sorted order so fresh nulls are invented — and earlier firings
    satisfy later matches — exactly as the interpreter would.
    """
    from repro.chase.standard import ChaseResult

    for dependency in dependencies:
        if len(dependency.premise.atoms) > _MAX_JOIN_ATOMS:
            engine_stats().bump("sql_fallbacks")
            return None
    if len(instance.facts) < _SQL_MIN_FACTS:
        # Tiny chases run faster in the interpreted loop (whose match
        # enumeration routes through the same size check).
        engine_stats().bump("sql_small_routed")
        return None
    rt = _runtime()
    budget = current_budget()
    stats = engine_stats()
    intern = intern_table()
    with rt.pinned():
        sinst = sql_instance(instance)
        working: Dict[Tuple[str, int], str] = {}
        # Working tables for every (relation, arity) a conclusion atom
        # can produce, pre-seeded with the instance's own facts there:
        # the satisfaction check runs against the *whole* working
        # instance, initial target-side facts included.
        for dependency in dependencies:
            for atom in dependency.disjuncts[0]:
                key = (atom.relation, atom.arity)
                if key in working:
                    continue
                table = rt.create_table(atom.arity)
                working[key] = table
                rows = [
                    tuple(encode_term(arg, intern) for arg in fact.args)
                    for fact in instance.facts_for(atom.relation)
                    if fact.arity == atom.arity
                ]
                if rows:
                    rt.insert_rows(table, atom.arity, rows)
        steps: List = []
        fired_total = 0
        try:
            for dependency in dependencies:
                if budget is not None:
                    budget.check()
                compiled = compiled_premise(
                    dependency.premise.atoms,
                    dependency.premise.constant_vars,
                    dependency.premise.inequalities,
                )
                parts = _premise_query(compiled, sinst, {})
                if parts is None:
                    continue
                if dependency.is_full() and not trace:
                    fired_total = _bulk_fire(
                        rt,
                        dependency,
                        compiled,
                        parts,
                        working,
                        intern,
                        fired_total,
                        max_steps,
                        budget,
                    )
                else:
                    fired_total = _match_fire(
                        rt,
                        dependency,
                        compiled,
                        parts,
                        working,
                        intern,
                        null_factory,
                        fired_total,
                        max_steps,
                        budget,
                        trace,
                        steps,
                    )
                stats.bump("sql_chase_rounds")
            facts = set(instance.facts)
            for (relation, arity), table in working.items():
                for row in rt.execute(f"SELECT * FROM {table}"):
                    args = (
                        tuple(decode_id(value, intern) for value in row)
                        if arity
                        else ()  # the sentinel row is the nullary fact
                    )
                    facts.add(Atom(relation, args))
        finally:
            for (_, arity), table in working.items():
                rt.release_table(table, arity)
        final = Instance(frozenset(facts))
        return ChaseResult(final, final.difference(instance), tuple(steps))


def _bulk_fire(
    rt: _SqlRuntime,
    dependency,
    compiled: CompiledPremise,
    parts,
    working: Dict[Tuple[str, int], str],
    intern: InternTable,
    fired_total: int,
    max_steps: int,
    budget,
) -> int:
    """One full tgd as set operations, with the exact serial firing
    count: a match fires iff it is the first (in sorted match order)
    to produce some fact absent from the initial instance."""
    from_sql, preds, slot_expr = parts
    variables = dependency.premise_variables()
    rt.flush_terms()
    match_table = rt.temp_name()
    select_cols: List[str] = []
    order_cols: List[str] = []
    from_all = [from_sql]
    where_all = list(preds)
    for index, variable in enumerate(variables):
        expr = slot_expr[compiled.slots[variable]]
        select_cols.append(f"{expr} AS s{compiled.slots[variable]}")
        alias = f"k{index}"
        from_all.append(f"{rt.terms_table} AS {alias}")
        where_all.append(f"{alias}.tid = {expr}")
        order_cols.extend((f"{alias}.kind", f"{alias}.skey"))
    if not select_cols:
        select_cols.append("1 AS s_none")
    window = (
        f"ROW_NUMBER() OVER (ORDER BY {', '.join(order_cols)})"
        if order_cols
        else "1"
    )
    sql = (
        f"CREATE TEMP TABLE {match_table} AS "
        f"SELECT {', '.join(select_cols)}, {window} AS rn "
        f"FROM {', '.join(from_all)}"
    )
    if where_all:
        sql += " WHERE " + " AND ".join(where_all)
    rt.execute(sql)
    try:
        # Produced-value expressions per conclusion atom, grouped by
        # the (relation, arity) they land in: a fact's first producer
        # must be the minimum rn across *all* atoms that can produce
        # it, or a later match would wrongly count as novel for a fact
        # an earlier match created through a different atom.
        def value_exprs(atom: Atom) -> List[str]:
            return [
                str(2 * intern.intern(arg))
                if isinstance(arg, Constant)
                else f"s{compiled.slots[arg]}"
                for arg in atom.args
            ] or ["0"]

        produced: Dict[Tuple[str, int], List[List[str]]] = {}
        for atom in dependency.disjuncts[0]:
            produced.setdefault((atom.relation, atom.arity), []).append(
                value_exprs(atom)
            )
        branches: List[str] = []
        for (relation, arity), expr_lists in produced.items():
            table = working[(relation, arity)]
            ncols = max(arity, 1)
            inner = " UNION ALL ".join(
                "SELECT "
                + ", ".join(
                    f"{expr} AS p{i}" for i, expr in enumerate(exprs)
                )
                + f", rn FROM {match_table}"
                for exprs in expr_lists
            )
            missing = " AND ".join(
                f"w.c{i} = p.p{i}" for i in range(ncols)
            )
            group = ", ".join(f"p.p{i}" for i in range(ncols))
            branches.append(
                f"SELECT MIN(p.rn) AS rn FROM ({inner}) AS p "
                f"WHERE NOT EXISTS (SELECT 1 FROM {table} AS w "
                f"WHERE {missing}) GROUP BY {group}"
            )
        # One row per novel fact comes back; a match fires once no
        # matter how many facts it is the first to produce.
        fired = rt.execute(
            "SELECT COUNT(DISTINCT rn) FROM ("
            + " UNION ALL ".join(branches)
            + ")"
        ).fetchone()[0]
        if fired:
            if budget is not None:
                budget.charge_chase_steps(fired)
            fired_total += fired
            engine_stats().bump("sql_chase_firings", fired)
            if fired_total > max_steps:
                raise ChaseError.step_overflow(max_steps)
            for atom in dependency.disjuncts[0]:
                table = working[(atom.relation, atom.arity)]
                exprs = value_exprs(atom)
                columns = ", ".join(
                    f"c{i}" for i in range(max(atom.arity, 1))
                )
                cursor = rt.execute(
                    f"INSERT INTO {table} "
                    f"SELECT {', '.join(exprs)} FROM {match_table} "
                    f"EXCEPT SELECT {columns} FROM {table}"
                )
                if cursor.rowcount > 0:
                    engine_stats().bump("sql_rows_inserted", cursor.rowcount)
    finally:
        try:
            rt.execute(f"DROP TABLE IF EXISTS temp.{match_table}")
        except sqlite3.Error:
            pass
    return fired_total


def _match_fire(
    rt: _SqlRuntime,
    dependency,
    compiled: CompiledPremise,
    parts,
    working: Dict[Tuple[str, int], str],
    intern: InternTable,
    null_factory,
    fired_total: int,
    max_steps: int,
    budget,
    trace: bool,
    steps: List,
) -> int:
    """Per-match processing for existential (or traced) dependencies:
    the interpreter's loop, with SQL doing the match enumeration and
    the conclusion-satisfaction probes."""
    from repro.chase.standard import _apply, _record

    variables = dependency.premise_variables()
    sinst_matches = _fetch_matches_from_parts(rt, compiled, parts, variables)
    disjunct = dependency.disjuncts[0]
    for match in sinst_matches:
        if budget is not None:
            budget.check()
        if _conclusion_exists(rt, disjunct, match, working, intern):
            continue
        if budget is not None:
            budget.charge_chase_steps()
        added = _apply(dependency, match, null_factory)
        for atom in added:
            table = working.get((atom.relation, atom.arity))
            if table is None:
                table = rt.create_table(atom.arity)
                working[(atom.relation, atom.arity)] = table
            rt.insert_rows(
                table,
                atom.arity,
                [
                    tuple(encode_term(arg, intern) for arg in atom.args)
                    or (0,)
                ],
            )
        fired_total += 1
        engine_stats().bump("sql_chase_firings")
        if trace:
            steps.append(_record(dependency, match, added))
        if fired_total > max_steps:
            raise ChaseError.step_overflow(max_steps)
    return fired_total


def _fetch_matches_from_parts(
    rt: _SqlRuntime, compiled: CompiledPremise, parts, variables
) -> Tuple[Dict[Term, Term], ...]:
    from_sql, preds, slot_expr = parts
    intern = intern_table()
    var_slots = [compiled.slots[variable] for variable in variables]
    if not var_slots:
        row = rt.execute(_select_sql(["1"], from_sql, preds)).fetchone()
        return ({},) if row is not None else ()
    columns = [slot_expr[slot] for slot in var_slots]
    rows = rt.execute(_select_sql(columns, from_sql, preds)).fetchall()
    cache: Dict[int, Term] = {}

    def term_of(tagged: int) -> Term:
        term = cache.get(tagged)
        if term is None:
            term = decode_id(tagged, intern)
            cache[tagged] = term
        return term

    matches = [
        {variable: term_of(row[i]) for i, variable in enumerate(variables)}
        for row in rows
    ]
    matches.sort(
        key=lambda match: tuple(match[v].sort_key() for v in variables)
    )
    return tuple(matches)


def _conclusion_exists(
    rt: _SqlRuntime,
    disjunct: Tuple[Atom, ...],
    match: Dict[Term, Term],
    working: Dict[Tuple[str, int], str],
    intern: InternTable,
) -> bool:
    """Is the conclusion satisfied under some extension of *match*?

    The SQL form of ``find_homomorphism(disjunct, working, fixed=match)``:
    frontier variables become literals, existential variables join
    columns.  Working tables exist for every conclusion atom by
    construction."""
    from_parts: List[str] = []
    preds: List[str] = []
    free_expr: Dict[Term, str] = {}
    for index, atom in enumerate(disjunct):
        table = working[(atom.relation, atom.arity)]
        alias = f"e{index}"
        from_parts.append(f"{table} AS {alias}")
        for position, arg in enumerate(atom.args):
            column = f"{alias}.c{position}"
            if isinstance(arg, Constant):
                preds.append(f"{column} = {2 * intern.intern(arg)}")
                continue
            image = match.get(arg)
            if image is not None:
                preds.append(f"{column} = {encode_term(image, intern)}")
            else:
                expr = free_expr.get(arg)
                if expr is None:
                    free_expr[arg] = column
                else:
                    preds.append(f"{expr} = {column}")
    sql = _select_sql(["1"], ", ".join(from_parts), preds) + " LIMIT 1"
    return rt.execute(sql).fetchone() is not None


# -- the backend interface -------------------------------------------------


class SqlBackend(KernelBackend):
    """The sql backend's operations (see "One interface" above)."""

    def lower(self, instance: Instance):
        if len(instance.facts) < _SQL_MIN_FACTS:
            return kernel_instance(instance)
        return None

    def premise_matches(self, dependency, instance: Instance):
        return sql_sorted_premise_matches(dependency, instance)

    def stratified_chase(self, instance: Instance, dependencies, **options):
        return sql_stratified_chase(instance, dependencies, **options)

    def all_homomorphisms(self, *search):
        return sql_all_homomorphisms(*search)

    def has_homomorphism(self, source: Instance, target: Instance) -> bool:
        return sql_has_homomorphism(source, target)


BACKEND_OPERATIONS[BACKEND_SQL] = SqlBackend()


__all__ = [
    "SqlBackend",
    "SqlInstance",
    "decode_id",
    "default_sql_db",
    "encode_term",
    "sql_all_homomorphisms",
    "sql_has_homomorphism",
    "sql_instance",
    "sql_instance_for_facts",
    "sql_min_facts",
    "sql_sorted_premise_matches",
    "sql_stratified_chase",
]
