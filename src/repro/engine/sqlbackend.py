"""The SQL execution backend: the stratified chase in SQLite.

The object backend holds every fact in Python memory, which caps
chases at instance sizes where rebuilding a fact-indexed ``Instance``
per firing is affordable.  This backend (``backend="sql"``, CLI
``--backend sql``, env ``REPRO_BACKEND=sql``) lowers a chase's input
into SQLite tables and runs the chase as SQL:

* **Tagged id encoding.**  Every term is interned once in the
  engine-wide :class:`InternTable`; its SQL value is ``2*id`` for
  constants and ``2*id + 1`` for labeled nulls and logic variables.
  The parity bit makes ``Constant(x)`` premises a ``% 2 = 0``
  predicate and lets *existential* tgds chase inside the database —
  the one thing :mod:`repro.export.sql` (which renders nulls as lossy
  SQL ``NULL``) cannot express.  Decoding is a table lookup, so
  results round-trip exactly.

* **Set-based chase rounds.**  For full tgds the restricted chase's
  final fact set equals the per-conclusion-atom closure — a match
  that does not fire found all its conclusion atoms already present —
  so each dependency becomes ``INSERT INTO target SELECT … EXCEPT
  SELECT …`` over a premise join compiled once per premise
  (:func:`compiled_premise`, a
  :class:`~repro.engine.compile.CompiledPremise`).  The exact serial
  firing count (budget and ``max_steps`` accounting) is recovered
  set-wise: a match fires iff it is the *first*, in the object
  backend's sorted match order, to produce some fact absent from the
  initial instance — one ``ROW_NUMBER()`` window over the match table.
  Existential tgds (and traced chases) run per match against the live
  tables, with ``EXISTS`` conclusion checks and fresh nulls from the
  caller's :class:`~repro.chase.standard.NullFactory`, so null names —
  and therefore rendered reports — are byte-identical to the object
  backend.

* **One operation.**  The sql backend differs from the object backend
  in one place: :func:`repro.chase.standard.chase` hands a stratified
  chase to :func:`sql_stratified_chase`, which runs inputs of
  ``_SQL_MIN_FACTS`` (128) or more facts in SQLite and returns None
  for smaller ones, which the interpreted loop then chases.
  Homomorphism search, premise matching and containment run the
  object code for operands of every size, behind the same chase and
  verdict memos as the object backend: the bounded checks compare
  instances of a few facts, where statement round-trips cost more
  than the whole in-memory search.  A chase lowers its input into
  pooled tables, and one ``finally`` hands the input and working
  tables back to the pool; an input no premise can match is its own
  fixpoint and is never lowered.

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
import threading
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Term
from repro.engine import faults
from repro.engine.budget import current_budget
from repro.engine.cache import MemoCache, register_reset_hook
from repro.engine.compile import CompiledPremise
from repro.engine.context import CONTEXT
from repro.engine.instrumentation import engine_stats
from repro.errors import BudgetExceeded, ChaseError

#: Widest premise compiled to one SQL join (SQLite caps joins at 64
#: tables; match ordering adds one terms-table join per variable).  A
#: chase with a wider premise runs the interpreted loop instead, with
#: the same result.
_MAX_JOIN_ATOMS = 24

#: Below this many rows a table gets no secondary indexes — SQLite's
#: automatic transient indexes beat building real ones for an extent
#: that is scanned for one chase and then handed back to the pool.
_INDEX_MIN_ROWS = 512

#: VM ops between budget probes of the progress handler.
_PROGRESS_OPS = 4_000

#: Live-table watermark; a chase that starts past it recycles the
#: connection, so tables leaked by a failed lowering or cleanup cannot
#: grow the schema forever (SQLite's CREATE TABLE cost grows with it).
_MAX_LIVE_TABLES = 20_000

#: Below this many input facts the SQL chase cannot win: lowering the
#: instance and round-tripping a handful of statements costs more than
#: the interpreted chase, so tiny chases run that loop instead.  The
#: chase reads the module global when it runs, so the test suites
#: patch it to 0 to force every chase through SQL.
_SQL_MIN_FACTS = 128


def default_sql_db() -> Optional[str]:
    """The scratch database path (``REPRO_SQL_DB``, or the CLI's
    ``--sql-db`` flag), or None for per-process ``:memory:``."""
    return CONTEXT.sql_db


def sql_min_facts() -> int:
    """The smallest input the chase runs in SQL (``_SQL_MIN_FACTS``)."""
    return _SQL_MIN_FACTS


# -- term interning --------------------------------------------------------


class InternTable:
    """A bijection between terms and dense integer ids.

    Append-only: ids are never reused or invalidated, so compiled
    premises and lowered rows built at different times all agree.
    Forked workers inherit the parent's table; ids they allocate
    afterwards stay process-local, which is safe because nothing
    interned ever crosses a process boundary (workers return plain
    terms and verdicts).
    """

    __slots__ = ("_ids", "_terms", "_is_const", "_lock")

    def __init__(self) -> None:
        self._ids: Dict[Term, int] = {}
        self._terms: List[Term] = []
        self._is_const: List[bool] = []
        self._lock = threading.Lock()

    def intern(self, term: Term) -> int:
        tid = self._ids.get(term)
        if tid is None:
            # Concurrent daemon jobs intern from several threads: the
            # miss path re-checks under the lock so a term never gets
            # two ids, and publishes the id only once the term lists
            # hold it, so the lock-free hit path never sees a torn row.
            with self._lock:
                tid = self._ids.get(term)
                if tid is None:
                    tid = len(self._terms)
                    self._terms.append(term)
                    self._is_const.append(isinstance(term, Constant))
                    self._ids[term] = tid
        return tid

    def term(self, tid: int) -> Term:
        return self._terms[tid]

    def is_const(self, tid: int) -> bool:
        return self._is_const[tid]

    def __len__(self) -> int:
        return len(self._terms)


_INTERN = InternTable()
# A fork taken while another thread is mid-miss would leave the
# child's copy of the lock held forever.
os.register_at_fork(
    before=_INTERN._lock.acquire,
    after_in_parent=_INTERN._lock.release,
    after_in_child=_INTERN._lock.release,
)


def intern_table() -> InternTable:
    """The process-wide intern table."""
    return _INTERN


compile_cache = MemoCache("compile", maxsize=16_384)


def compiled_premise(
    atoms: Tuple[Atom, ...],
    constant_vars: FrozenSet,
    inequalities: FrozenSet,
) -> CompiledPremise:
    """The (memoized) compiled form of one conjunctive pattern."""
    key = (atoms, constant_vars, inequalities)
    hit, compiled = compile_cache.get(key)
    if not hit:
        compiled = CompiledPremise(atoms, constant_vars, inequalities, _INTERN.intern)
        compile_cache.put(key, compiled)
    return compiled


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
    """One thread's SQLite connection, table pool and terms side table.

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
        # per-arity free pool of empty tables; reuse beats DDL because
        # CREATE TABLE is O(schema size) while DELETE FROM is O(rows)
        self.pool: Dict[int, List[str]] = {}
        self._table_seq = itertools.count()
        self.terms_table = f"{self.prefix}terms"
        self.conn.execute(
            f"CREATE TABLE IF NOT EXISTS {self.terms_table} "
            "(tid INTEGER PRIMARY KEY, kind INTEGER, skey TEXT)"
        )
        self._terms_flushed = 0

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

    def recycle(self) -> None:
        """Drop every table and start from a fresh schema."""
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
            # same process, stale generation or retargeted scratch db;
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


#: An instance's facts as rows of tagged ids, by (relation, arity).
_Rows = Dict[Tuple[str, int], List[Tuple[int, ...]]]


class SqlInstance:
    """One instance lowered to per-(relation, arity) SQLite tables.

    Tables are sets (``PRIMARY KEY`` over all columns, ``WITHOUT
    ROWID``) of tagged ids, taken from the runtime's pool; whoever
    lowered the instance hands them back with
    :meth:`_SqlRuntime.release_table`.
    """

    __slots__ = ("tables",)

    def __init__(self, rt: _SqlRuntime, grouped: _Rows) -> None:
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
        self.tables = tables
        engine_stats().bump("sql_instances_loaded")


def _grouped_rows(facts: FrozenSet[Atom]) -> _Rows:
    """*facts* as rows of tagged ids, grouped by (relation, arity)."""
    intern = intern_table()
    grouped: _Rows = {}
    for fact in facts:
        # arity-0 facts get the sentinel row (0,): the table's one
        # possible row, present iff the nullary fact holds
        grouped.setdefault((fact.relation, fact.arity), []).append(
            tuple(encode_term(arg, intern) for arg in fact.args) or (0,)
        )
    return grouped


def sql_instance(grouped: _Rows) -> SqlInstance:
    """Lower an instance's :func:`_grouped_rows` into pooled tables of
    this thread's database."""
    return SqlInstance(_runtime(), grouped)


# -- premise joins ---------------------------------------------------------


def _premise_query(
    compiled: CompiledPremise, sinst: SqlInstance
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
                else:
                    preds.append(f"{expr} = {column}")
    for slot in compiled.const_slots:
        if slot in slot_expr:  # parity = constness
            preds.append(f"{slot_expr[slot]} % 2 = 0")
    for left, right in compiled.ineq_pairs:
        # one side unbound: the object backend skips it too
        if left in slot_expr and right in slot_expr:
            preds.append(f"{slot_expr[left]} <> {slot_expr[right]}")
    return ", ".join(from_parts), preds, slot_expr


def _select_sql(columns: Sequence[str], from_sql: str, preds: List[str]) -> str:
    sql = f"SELECT {', '.join(columns)} FROM {from_sql}"
    if preds:
        sql += " WHERE " + " AND ".join(preds)
    return sql


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
    is too wide for one SQL join or the instance holds fewer than
    ``_SQL_MIN_FACTS`` facts, in which case the caller falls back to
    the interpreted loop.  A dependency can fire only if each of its
    premise atoms' (relation, arity) occurs in the input; when none
    can, the input is returned as its own fixpoint before anything is
    lowered (``sql_inert_inputs`` counts these).

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
        # Tiny chases run faster in the interpreted loop.
        engine_stats().bump("sql_small_routed")
        return None
    grouped = _grouped_rows(instance.facts)
    if not any(
        all((atom.relation, atom.arity) in grouped for atom in dependency.premise.atoms)
        for dependency in dependencies
    ):
        engine_stats().bump("sql_inert_inputs")
        return ChaseResult(instance, Instance.empty(), ())
    rt = _runtime()
    if rt.ntables > _MAX_LIVE_TABLES:
        rt.recycle()
    budget = current_budget()
    stats = engine_stats()
    intern = intern_table()
    lowered: Optional[SqlInstance] = None
    working: Dict[Tuple[str, int], str] = {}
    steps: List = []
    fired_total = 0
    try:
        lowered = sql_instance(grouped)
        del grouped  # the tables hold the rows now; free them before the chase
        # Working tables for every (relation, arity) a conclusion atom
        # can produce, pre-seeded with the instance's own facts there
        # (copied from the lowered table, so the input's per-relation
        # index is never built): the satisfaction check runs against
        # the *whole* working instance, initial target-side facts
        # included.
        for dependency in dependencies:
            for atom in dependency.disjuncts[0]:
                key = (atom.relation, atom.arity)
                if key in working:
                    continue
                table = rt.create_table(atom.arity)
                working[key] = table
                seed = lowered.tables.get(key)
                if seed is not None:
                    rt.execute(f"INSERT INTO {table} SELECT * FROM {seed}")
        for dependency in dependencies:
            if budget is not None:
                budget.check()
            compiled = compiled_premise(
                dependency.premise.atoms,
                dependency.premise.constant_vars,
                dependency.premise.inequalities,
            )
            parts = _premise_query(compiled, lowered)
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
        held = list(working.items())
        if lowered is not None:
            held.extend(lowered.tables.items())
        for (_, arity), table in held:
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


# -- tracer targets --------------------------------------------------------
#
# Called by nothing: these three exist only because the ledger's tracer
# names them (``perfbench/layers.py`` ``TARGETS``) and the ledger's own
# tests (``perfbench/tests``) install every target.  Homomorphism search
# and premise matching run the object code on every backend; each shim
# is one call of it, imported at call time because ``repro.chase``
# imports this module.  They go with those lines of the ledger.


def sql_all_homomorphisms(atoms, target, **constraints):
    from repro.chase.homomorphism import all_homomorphisms

    return all_homomorphisms(atoms, target, **constraints)


def sql_has_homomorphism(source: Instance, target: Instance) -> bool:
    from repro.chase.homomorphism import instance_homomorphism

    return instance_homomorphism(source, target) is not None


def sql_sorted_premise_matches(dependency, instance: Instance):
    from repro.chase.standard import _sorted_matches

    return _sorted_matches(dependency, instance)


__all__ = [
    "InternTable",
    "SqlInstance",
    "compiled_premise",
    "decode_id",
    "default_sql_db",
    "encode_term",
    "intern_table",
    "sql_all_homomorphisms",
    "sql_has_homomorphism",
    "sql_instance",
    "sql_min_facts",
    "sql_sorted_premise_matches",
    "sql_stratified_chase",
]
