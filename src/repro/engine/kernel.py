"""The compiled relational kernel: an opt-in integer execution backend.

The object backend interprets the datamodel in the hot loop: every
homomorphism probe hashes :class:`~repro.datamodel.terms.Term` objects,
every candidate scan compares them, and every premise is re-analysed
per call.  The kernel backend (``backend="kernel"``, CLI ``--backend``,
env ``REPRO_BACKEND``) executes the same searches over dense integers:

* an engine-wide :class:`InternTable` maps every term to a dense id
  (append-only for the life of the process, so ids are stable and
  forked pool workers inherit the whole table);
* a :class:`KernelInstance` stores an instance as per-relation lists
  of id-tuples in sorted-fact order, with ``(relation, position, id)``
  posting lists packed as ``array('q')`` row indexes;
* premises are compiled once (:mod:`repro.engine.compile`) into join
  plans whose atom order matches the object backend's greedy order
  exactly, so results — and result *order* — are byte-identical after
  de-interning;
* premise-match lists for the chase are computed *semi-naively* on the
  sub-instance lattice: the matches of a ground instance are its
  parent's matches (the instance minus its maximal fact) plus the
  matches that use the added fact, enumerated by pinning each premise
  atom to the new fact in turn.  Non-ground instances, and instances
  too large for the parent chain, fall back to a full (still
  compiled) search.

Everything here is exact acceleration: verdicts, witnesses, chase
results, and their deterministic order are identical across backends;
only the representation the work happens in changes.
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from array import array
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Term
from repro.engine.budget import current_budget
from repro.engine.cache import MemoCache, register_reset_hook
from repro.engine.compile import CompiledPremise, compile_premise

BACKEND_OBJECT = "object"
BACKEND_KERNEL = "kernel"
BACKEND_SQL = "sql"
BACKEND_MODES = (BACKEND_OBJECT, BACKEND_KERNEL, BACKEND_SQL)

#: Above this many facts the delta match chain would recurse too deep
#: (and the lattice sharing it exploits no longer applies); fall back
#: to a one-shot full search.
_DELTA_MAX_FACTS = 64


# -- backend selection ----------------------------------------------------


def default_backend() -> str:
    """The engine-wide backend (``REPRO_BACKEND``; the CLI's
    ``--backend`` flag sets it).  Defaults to ``"object"`` — the
    kernel is opt-in.  Unknown values fall back to ``"object"``."""
    value = os.environ.get("REPRO_BACKEND", BACKEND_OBJECT).strip().lower()
    return value if value in BACKEND_MODES else BACKEND_OBJECT


def resolve_backend(backend: Optional[str]) -> str:
    """An explicit backend, else the environment-configured default."""
    if backend is None:
        return default_backend()
    if backend not in BACKEND_MODES:
        raise ValueError(
            f"backend must be one of {BACKEND_MODES}, got {backend!r}"
        )
    return backend


class _BackendScope(threading.local):
    """The ambient backend of the current thread (``None``: follow the
    environment).  Per-thread because the service daemon runs jobs on
    concurrent threads, each with its own ``backend`` option; the
    class-level default keeps every read a single attribute lookup."""

    active: Optional[str] = None


_BACKEND = _BackendScope()


def kernel_active() -> bool:
    """Is the kernel backend active for the current (sweep) context?

    True inside ``use_backend("kernel")``, or — with no ambient
    context — when ``REPRO_BACKEND=kernel``.  Pool workers install the
    sweep's backend in their initializer, so a sweep runs on one
    backend end to end.
    """
    active = _BACKEND.active
    if active is not None:
        return active == BACKEND_KERNEL
    return default_backend() == BACKEND_KERNEL


def sql_active() -> bool:
    """Is the SQL backend active for the current (sweep) context?

    True inside ``use_backend("sql")``, or — with no ambient context —
    when ``REPRO_BACKEND=sql``.  The SQL backend
    (:mod:`repro.engine.sqlbackend`) runs the chase and homomorphism
    joins inside SQLite; like the kernel it is exact acceleration, so
    verdicts and their order are identical across backends.
    """
    active = _BACKEND.active
    if active is not None:
        return active == BACKEND_SQL
    return default_backend() == BACKEND_SQL


@contextmanager
def use_backend(backend: Optional[str]) -> Iterator[None]:
    """Install *backend* (resolved against ``REPRO_BACKEND``) for the
    enclosed scope on this thread.  Nesting restores the previous
    choice on exit."""
    previous = _BACKEND.active
    _BACKEND.active = resolve_backend(backend)
    try:
        yield
    finally:
        _BACKEND.active = previous


def active_backend() -> str:
    """The backend in effect right now (ambient context, else the
    environment default).  The parallel runner captures this at pool
    creation and re-installs it in each worker."""
    active = _BACKEND.active
    return active if active is not None else default_backend()


def install_backend(backend: Optional[str]) -> None:
    """Thread-lifetime backend install (pool worker initializer).

    Unlike :func:`use_backend` there is no scope to restore — workers
    are born into the sweep's backend and die with it."""
    _BACKEND.active = None if backend is None else resolve_backend(backend)


# -- term interning -------------------------------------------------------


class InternTable:
    """A bijection between terms and dense integer ids.

    Append-only: ids are never reused or invalidated, so compiled
    premises, kernel instances, and memo keys built at different times
    all agree.  Forked workers inherit the parent's table; ids they
    allocate afterwards stay process-local, which is safe because
    nothing interned ever crosses a process boundary (workers return
    plain terms and verdicts).
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


# -- kernel instances -----------------------------------------------------

_KID_COUNTER = itertools.count()


class KernelInstance:
    """One instance lowered to interned rows and packed postings.

    ``rows[relation]`` lists the relation's facts as id-tuples in
    sorted-fact order (the order the object backend scans);
    ``postings[(relation, position, id)]`` is an ``array('q')`` of row
    indexes into ``rows[relation]``, ascending.  ``kid`` is a dense
    process-local identity used as a cheap content key by the match
    and verdict memos (two live :class:`KernelInstance` objects never
    share a fact set, so within a process ``kid`` is content-exact).
    """

    __slots__ = (
        "facts",
        "rows",
        "postings",
        "is_ground",
        "nfacts",
        "kid",
        "chase_memo",
        "hom_premise",
        "hom_memo",
        "sol_memo",
        "eq_memo",
        "__weakref__",
    )

    def __init__(self, facts: FrozenSet[Atom]) -> None:
        intern = _INTERN.intern
        grouped: Dict[str, List[Atom]] = {}
        for fact in facts:
            grouped.setdefault(fact.relation, []).append(fact)
        rows: Dict[str, List[Tuple[int, ...]]] = {}
        postings: Dict[Tuple[str, int, int], array] = {}
        ground = True
        for relation, atoms in grouped.items():
            atoms.sort(key=Atom.sort_key)
            relation_rows: List[Tuple[int, ...]] = []
            for row_index, fact in enumerate(atoms):
                if ground and not fact.is_ground():
                    ground = False
                row = tuple(intern(arg) for arg in fact.args)
                relation_rows.append(row)
                for position, tid in enumerate(row):
                    key = (relation, position, tid)
                    posting = postings.get(key)
                    if posting is None:
                        postings[key] = array("q", (row_index,))
                    else:
                        posting.append(row_index)
            rows[relation] = relation_rows
        self.facts = facts
        self.rows = rows
        self.postings = postings
        self.is_ground = ground
        self.nfacts = len(facts)
        self.kid = next(_KID_COUNTER)
        # Per-instance verdict memos, all dying with the kernel
        # instance (and cleared with the caches via the reset hook):
        # chase_memo maps a mapping's small id to its cached
        # (universal solution, solution's kernel instance) pair;
        # hom_memo maps a target kid to hom-existence out of this
        # instance; sol_memo/eq_memo map (mapping small id, other kid)
        # to solution-containment / ∼M verdicts.  Plain dict probes —
        # the verdict hot loop runs on these instead of the LRU caches.
        self.chase_memo: Dict[int, Any] = {}
        self.hom_memo: Dict[int, bool] = {}
        self.sol_memo: Dict[Tuple[int, int], bool] = {}
        self.eq_memo: Dict[Tuple[int, int], bool] = {}
        # the instance's own facts compiled as a match pattern, for
        # homomorphism-existence probes with this instance as source
        self.hom_premise: Optional[CompiledPremise] = None


# Kernel instances are memoized two ways: object identity first (the
# common repeat probe in a sweep's inner loop), then fact content, so
# copies of an instance — and parents synthesized by the delta chain
# that never existed as Instance objects — share one build.  Identity
# memoization uses a plain dict keyed by ``id(instance)`` — a hashless
# probe, roughly 2x cheaper than a WeakKeyDictionary lookup in the
# verdict hot loop — with a weakref finalizer evicting the entry when
# the instance dies so a recycled id can never alias a dead one.
_BY_INSTANCE: Dict[int, Tuple["weakref.ref[Instance]", KernelInstance]] = {}
kinstance_cache = MemoCache("kinstance", maxsize=65_536)
match_cache = MemoCache("matches", maxsize=65_536)


def kernel_instance(instance: Instance) -> KernelInstance:
    """The (memoized) :class:`KernelInstance` for *instance*."""
    entry = _BY_INSTANCE.get(id(instance))
    if entry is not None:
        return entry[1]
    kinst = kernel_instance_for_facts(instance.facts)
    key = id(instance)
    ref = weakref.ref(instance, lambda _r, _k=key: _BY_INSTANCE.pop(_k, None))
    _BY_INSTANCE[key] = (ref, kinst)
    return kinst


def kernel_instance_for_facts(facts: FrozenSet[Atom]) -> KernelInstance:
    """A kernel instance for a bare fact set (no Instance required)."""
    hit, kinst = kinstance_cache.get(facts)
    if not hit:
        kinst = KernelInstance(facts)
        kinstance_cache.put(facts, kinst)
    return kinst


# -- small ids for memo keys ----------------------------------------------

_SMALL_IDS: "weakref.WeakKeyDictionary[Any, int]" = weakref.WeakKeyDictionary()
_SMALL_COUNTER = itertools.count()


def small_id(obj: Any) -> int:
    """A dense process-local id for a (weakrefable) mapping or
    dependency, for compact memo keys.

    Cached directly on the object when it has a ``__dict__`` (the
    frozen dataclasses do — attribute reads beat a weak-dict probe in
    the per-verdict hot path), with the weak table as fallback.  Fork
    inheritance keeps attribute and table consistent: workers inherit
    both from the same process image."""
    try:
        return obj._repro_small_id
    except AttributeError:
        pass
    sid = _SMALL_IDS.get(obj)
    if sid is None:
        sid = next(_SMALL_COUNTER)
        _SMALL_IDS[obj] = sid
        try:
            object.__setattr__(obj, "_repro_small_id", sid)
        except (AttributeError, TypeError):
            pass
    return sid


# -- premise compilation memo ---------------------------------------------

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
        compiled = compile_premise(
            atoms, constant_vars, inequalities, _INTERN.intern
        )
        compile_cache.put(key, compiled)
    return compiled


# -- the compiled search --------------------------------------------------


def _candidate_rows(
    kinst: KernelInstance, catom, assign: List[int]
):
    """Row indexes that could match *catom* under *assign* — the
    shortest posting among determined positions, exactly as
    :meth:`repro.engine.indexing.FactIndex.candidates` selects facts."""
    best = None
    for position, is_const, value in catom.ops:
        if is_const:
            tid = value
        else:
            tid = assign[value]
            if tid < 0:
                continue
        posting = kinst.postings.get((catom.relation, position, tid))
        if posting is None:
            return ()
        if best is None or len(posting) < len(best):
            best = posting
    if best is None:
        return range(len(kinst.rows.get(catom.relation, ())))
    return best


def kernel_all_homomorphisms(
    atoms: Tuple[Atom, ...],
    target: Instance,
    base: Dict[Term, Term],
    constant_vars: FrozenSet,
    inequalities: FrozenSet,
) -> Iterator[Dict[Term, Term]]:
    """The kernel twin of the object backend's backtracking search.

    *base* must already satisfy the constraints (the dispatching
    caller checks it, as the object path does).  Yields assignments in
    the object backend's exact order: *base* entries first, then
    bindings in trail order, de-interned.
    """
    compiled = compiled_premise(atoms, constant_vars, inequalities)
    kinst = kernel_instance(target)
    yield from _search(compiled, kinst, base)


_EMPTY_FROZENSET: FrozenSet = frozenset()


def kernel_has_homomorphism(source: Instance, target: Instance) -> bool:
    """Does an instance homomorphism *source* -> *target* exist?

    The existence half of
    :func:`repro.chase.homomorphism.instance_homomorphism`, computed
    entirely on interned ids: the source's facts are compiled once as
    a match pattern (cached on its :class:`KernelInstance`) and probed
    against the target without materializing an assignment.  Existence
    is search-order independent, so this agrees with the object
    backend by construction.

    Memoized by the *pair of instances* (their dense ids): many
    distinct sources chase to the same universal solution, so verdict
    pairs that are new at the solution-space layer often reduce to a
    hom-existence question already answered here."""
    return kernel_hom_exists(kernel_instance(source), source, kernel_instance(target))


def kernel_hom_exists(
    ksrc: KernelInstance, source: Instance, ktgt: KernelInstance
) -> bool:
    """:func:`kernel_has_homomorphism` for callers that already hold
    the kernel instances (the verdict hot loop)."""
    budget = current_budget()
    if budget is not None:
        budget.check()
    verdict = ksrc.hom_memo.get(ktgt.kid)
    if verdict is not None:
        return verdict
    compiled = ksrc.hom_premise
    if compiled is None:
        compiled = compile_premise(
            tuple(source.sorted_facts()),
            _EMPTY_FROZENSET,
            _EMPTY_FROZENSET,
            _INTERN.intern,
        )
        ksrc.hom_premise = compiled
    verdict = False
    for _ in _search(compiled, ktgt, {}):
        verdict = True
        break
    ksrc.hom_memo[ktgt.kid] = verdict
    return verdict


def _search(
    compiled: CompiledPremise,
    kinst: KernelInstance,
    base: Dict[Term, Term],
) -> Iterator[Dict[Term, Term]]:
    intern = _INTERN.intern
    terms = _INTERN._terms
    is_const = _INTERN._is_const
    assign = [-1] * compiled.nslots
    bound_mask = 0
    slots = compiled.slots
    for term, value in base.items():
        slot = slots.get(term)
        if slot is not None:
            assign[slot] = intern(value)
            bound_mask |= 1 << slot
    plan = compiled.plan(compiled.extents_for(kinst.rows), bound_mask)
    catoms = compiled.catoms
    const_slot_set = compiled.const_slot_set
    ineq_of = compiled.ineq_of
    slot_terms = compiled.slot_terms
    depth = len(plan)
    trail: List[int] = []

    def search(index: int) -> Iterator[Dict[Term, Term]]:
        if index == depth:
            result = dict(base)
            for slot in trail:
                result[slot_terms[slot]] = terms[assign[slot]]
            yield result
            return
        catom = catoms[plan[index]]
        relation_rows = kinst.rows.get(catom.relation, ())
        ops = catom.ops
        arity = catom.arity
        for row_index in _candidate_rows(kinst, catom, assign):
            row = relation_rows[row_index]
            if len(row) != arity:
                continue
            mark = len(trail)
            matched = True
            for position, op_const, value in ops:
                tid = row[position]
                if op_const:
                    if tid != value:
                        matched = False
                        break
                else:
                    current = assign[value]
                    if current < 0:
                        assign[value] = tid
                        trail.append(value)
                    elif current != tid:
                        matched = False
                        break
            if matched:
                # incremental constraint check over the new bindings
                for slot in trail[mark:]:
                    if slot in const_slot_set and not is_const[assign[slot]]:
                        matched = False
                        break
                    for other in ineq_of.get(slot, ()):
                        image = assign[other]
                        if image >= 0 and image == assign[slot]:
                            matched = False
                            break
                    if not matched:
                        break
                if matched:
                    yield from search(index + 1)
            while len(trail) > mark:
                assign[trail.pop()] = -1

    return search(0)


# -- delta-driven premise matching (the semi-naive chase) -----------------


def sorted_premise_matches(dependency, instance: Instance):
    """The chase's sorted premise-match list, computed semi-naively.

    Content-addressed per ``(dependency, instance)``: a ground
    instance's matches are its parent's matches (remove the maximal
    fact) plus the matches using that fact, merged and re-sorted by
    the total per-variable key the object backend sorts by — so the
    returned list is element- and order-identical to
    :func:`repro.chase.standard._sorted_matches`.  Non-ground
    instances and instances beyond the chain bound fall back to a full
    compiled search (still memoized).
    """
    budget = current_budget()
    if budget is not None:
        budget.check()
    premise = dependency.premise
    compiled = compiled_premise(
        premise.atoms, premise.constant_vars, premise.inequalities
    )
    variables = dependency.premise_variables()
    dep_id = small_id(dependency)
    kinst = kernel_instance(instance)
    return _matches_for(dep_id, compiled, variables, kinst)


def _sort_key(variables):
    def key(match: Dict[Term, Term]):
        return tuple(match[variable].sort_key() for variable in variables)

    return key


def _matches_for(
    dep_id: int,
    compiled: CompiledPremise,
    variables,
    kinst: KernelInstance,
):
    key = (dep_id, kinst.kid)
    hit, matches = match_cache.get(key)
    if hit:
        return matches
    if (
        not kinst.is_ground
        or kinst.nfacts == 0
        or kinst.nfacts > _DELTA_MAX_FACTS
    ):
        matches = tuple(
            sorted(_search(compiled, kinst, {}), key=_sort_key(variables))
        )
        match_cache.put(key, matches)
        return matches
    added = max(kinst.facts)
    parent = kernel_instance_for_facts(kinst.facts - {added})
    parent_matches = _matches_for(dep_id, compiled, variables, parent)
    delta = _delta_matches(compiled, kinst, added)
    if delta:
        matches = tuple(
            sorted(
                itertools.chain(parent_matches, delta),
                key=_sort_key(variables),
            )
        )
    else:
        matches = parent_matches
    match_cache.put(key, matches)
    return matches


def _delta_matches(
    compiled: CompiledPremise, kinst: KernelInstance, added: Atom
) -> List[Dict[Term, Term]]:
    """Premise matches that use the fact *added*.

    Pinned decomposition over the compiled atom order: for each atom
    index i, enumerate assignments where atom i maps to *added* and no
    earlier atom does — disjoint by the least atom mapped to the new
    fact, so the union is exact and duplicate-free.  Enumeration order
    here is irrelevant: the caller re-sorts by the total match key.
    """
    relation = added.relation
    relation_rows = kinst.rows.get(relation, ())
    # the added fact is the instance's maximal fact, hence the maximal
    # — last — row of its relation (atoms sort relation-major)
    added_index = len(relation_rows) - 1
    added_row = relation_rows[added_index]
    terms = _INTERN._terms
    is_const = _INTERN._is_const
    catoms = compiled.catoms
    const_slot_set = compiled.const_slot_set
    ineq_of = compiled.ineq_of
    slot_terms = compiled.slot_terms
    count = len(catoms)
    results: List[Dict[Term, Term]] = []

    for pin in range(count):
        pinned = catoms[pin]
        if pinned.relation != relation or pinned.arity != len(added_row):
            continue
        assign = [-1] * compiled.nslots
        trail: List[int] = []
        if not _bind_row(
            pinned, added_row, assign, trail, is_const, const_slot_set, ineq_of
        ):
            for slot in trail:
                assign[slot] = -1
            continue
        remaining = [index for index in range(count) if index != pin]

        def expand(position: int) -> None:
            if position == len(remaining):
                results.append(
                    {slot_terms[slot]: terms[assign[slot]] for slot in trail}
                )
                return
            atom_index = remaining[position]
            catom = catoms[atom_index]
            rows = kinst.rows.get(catom.relation, ())
            exclude = (
                added_index
                if atom_index < pin and catom.relation == relation
                else -1
            )
            for row_index in _candidate_rows(kinst, catom, assign):
                if row_index == exclude:
                    continue
                row = rows[row_index]
                if len(row) != catom.arity:
                    continue
                mark = len(trail)
                if _bind_row(
                    catom, row, assign, trail, is_const, const_slot_set, ineq_of
                ):
                    expand(position + 1)
                while len(trail) > mark:
                    assign[trail.pop()] = -1

        expand(0)
    return results


def _bind_row(
    catom,
    row: Tuple[int, ...],
    assign: List[int],
    trail: List[int],
    is_const: List[bool],
    const_slot_set,
    ineq_of,
) -> bool:
    """Match *catom* onto *row*, extending *assign*/*trail* in place.

    Returns False on mismatch or constraint violation; the caller
    unwinds the trail past its mark either way."""
    mark = len(trail)
    for position, op_const, value in catom.ops:
        tid = row[position]
        if op_const:
            if tid != value:
                return False
        else:
            current = assign[value]
            if current < 0:
                assign[value] = tid
                trail.append(value)
            elif current != tid:
                return False
    for slot in trail[mark:]:
        if slot in const_slot_set and not is_const[assign[slot]]:
            return False
        for other in ineq_of.get(slot, ()):
            image = assign[other]
            if image >= 0 and image == assign[slot]:
                return False
    return True


def _clear_kernel_memos() -> None:
    """Reset-hook body: drop instance-attached kernel state.

    The intern table is deliberately *not* cleared — ids are
    append-only for the life of the process and compiled premises
    embed them.  Everything content-derived (kernel instances, their
    chase memos, match lists) goes, so a benchmark's cold run after
    ``reset_all_caches()`` is genuinely cold."""
    _BY_INSTANCE.clear()


register_reset_hook(_clear_kernel_memos)


__all__ = [
    "BACKEND_KERNEL",
    "BACKEND_MODES",
    "BACKEND_OBJECT",
    "BACKEND_SQL",
    "InternTable",
    "KernelInstance",
    "active_backend",
    "compiled_premise",
    "default_backend",
    "install_backend",
    "intern_table",
    "kernel_active",
    "kernel_all_homomorphisms",
    "kernel_has_homomorphism",
    "kernel_hom_exists",
    "kernel_instance",
    "kernel_instance_for_facts",
    "resolve_backend",
    "small_id",
    "sorted_premise_matches",
    "sql_active",
    "use_backend",
]
