"""The compiled relational kernel: an opt-in integer execution backend.

The object backend interprets the datamodel in the hot loop: every
homomorphism probe hashes :class:`~repro.datamodel.terms.Term` objects,
every candidate scan compares them, and every premise's terms are
re-examined per call (only its join order is memoized).  The kernel
backend (``backend="kernel"``, CLI ``--backend``, env
``REPRO_BACKEND``) executes the same searches over dense integers:

* an engine-wide :class:`InternTable` maps every term to a dense id
  (append-only for the life of the process, so ids are stable and
  forked pool workers inherit the whole table);
* a :class:`KernelInstance` stores an instance as per-relation lists
  of id-tuples in sorted-fact order, with ``(relation, position, id)``
  posting lists packed as ``array('q')`` row indexes, built once per
  fact set (the ``kinstance`` tier);
* premises are compiled once (:mod:`repro.engine.compile`) into join
  plans whose atom order matches the object backend's greedy order
  exactly, so results — and result *order* — are byte-identical after
  de-interning;
* the chase's premise-match list is one compiled search over the
  instance's kernel form, sorted by the per-variable key the object
  backend sorts by.

Everything here is exact acceleration: verdicts, witnesses, chase
results, and their deterministic order are identical across backends;
only the representation the work happens in changes.

:class:`KernelBackend` is the backend interface: ``premise_matches``
(the chase's sorted match list), ``stratified_chase`` (a whole-chase
plan, or None to run the interpreted loop), ``all_homomorphisms`` and
``has_homomorphism``.  The backend runs only the work behind a memo
miss: :mod:`repro.core.mapping` memoizes chases and verdicts in the
engine's content-addressed caches (:mod:`repro.engine.cache`) on every
backend alike.  The kernel's own memos are two tiers of the same
caches, ``kinstance`` (kernel instances, keyed by
:func:`~repro.engine.cache.exact_key`) and ``compile`` (compiled
premises), plus the homomorphism-existence memo each kernel instance
carries (:func:`kernel_has_homomorphism`).  The sql backend
(:mod:`repro.engine.sqlbackend`) inherits all of it but the chase.
"""

from __future__ import annotations

import itertools
import os
import threading
from array import array
from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Term
from repro.engine.budget import current_budget
from repro.engine.cache import MemoCache, exact_key
from repro.engine.compile import CompiledPremise, compile_premise
from repro.engine.context import BACKEND_MODES, CONTEXT, EngineContext, scope

BACKEND_OBJECT = "object"
BACKEND_KERNEL = "kernel"
BACKEND_SQL = "sql"


# -- backend selection ----------------------------------------------------


def default_backend() -> str:
    """The process default backend, which a thread follows outside any
    :func:`use_backend` scope.  It starts as ``REPRO_BACKEND``, read
    once at import (``"object"`` when unset — the kernel is opt-in);
    the CLI's and the daemon's ``--backend`` flag move it through
    :func:`~repro.engine.context.set_defaults`."""
    return EngineContext.backend


def resolve_backend(backend: Optional[str]) -> str:
    """An explicit backend, else the one in effect on this thread
    (:func:`active_backend`)."""
    if backend is None:
        return active_backend()
    if backend not in BACKEND_MODES:
        raise ValueError(
            f"backend must be one of {BACKEND_MODES}, got {backend!r}"
        )
    return backend


#: The operations each backend name selects (None: the object backend's
#: inline reference code); :mod:`repro.engine.sqlbackend` adds sql.
BACKEND_OPERATIONS: Dict[str, Optional["KernelBackend"]] = {BACKEND_OBJECT: None}


def active_operations() -> Optional["KernelBackend"]:
    """The operations of this thread's backend (:func:`active_backend`),
    or None on the object backend.  The runner's workers fork from the
    sweeping thread and keep its backend, so a sweep runs on one end
    to end."""
    return BACKEND_OPERATIONS[CONTEXT.backend]


@contextmanager
def use_backend(backend: Optional[str]) -> Iterator[None]:
    """Install *backend* for the enclosed scope on this thread (None
    keeps the backend in effect, see :func:`resolve_backend`).
    Nesting restores the previous choice on exit."""
    with scope(backend=resolve_backend(backend)):
        yield


def active_backend() -> str:
    """The backend in effect right now (this thread's context, else the
    process default).  The parallel runner hands it to each worker
    with the rest of the context."""
    return CONTEXT.backend


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
    process-local identity used as a cheap content key by the
    homomorphism-existence memo: every build takes a fresh ``kid``, so
    a ``kid`` names one fact set for the life of the process (a fact
    set rebuilt after a ``kinstance`` eviction gets another ``kid``,
    which costs the memo hits, never a wrong verdict).
    """

    __slots__ = (
        "facts",
        "rows",
        "postings",
        "nfacts",
        "kid",
        "hom_premise",
        "hom_memo",
    )

    def __init__(self, facts: FrozenSet[Atom]) -> None:
        intern = _INTERN.intern
        grouped: Dict[str, List[Atom]] = {}
        for fact in facts:
            grouped.setdefault(fact.relation, []).append(fact)
        rows: Dict[str, List[Tuple[int, ...]]] = {}
        postings: Dict[Tuple[str, int, int], array] = {}
        for relation, atoms in grouped.items():
            atoms.sort(key=Atom.sort_key)
            relation_rows: List[Tuple[int, ...]] = []
            for row_index, fact in enumerate(atoms):
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
        self.nfacts = len(facts)
        self.kid = next(_KID_COUNTER)
        # hom_memo maps a target kid to hom-existence out of this
        # instance; it dies with the kernel instance, which the
        # kinstance tier evicts and reset_all_caches() drops.
        self.hom_memo: Dict[int, bool] = {}
        # the instance's own facts compiled as a match pattern, for
        # homomorphism-existence probes with this instance as source
        self.hom_premise: Optional[CompiledPremise] = None


#: The one memo of kernel instances, keyed by the instance's exact fact
#: set, so every copy of an instance shares one build.
kinstance_cache = MemoCache("kinstance", maxsize=65_536)


def kernel_instance(instance: Instance) -> KernelInstance:
    """The (memoized) :class:`KernelInstance` for *instance*."""
    key = exact_key(instance)
    hit, kinst = kinstance_cache.get(key)
    if not hit:
        kinst = KernelInstance(key)
        kinstance_cache.put(key, kinst)
    return kinst


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
    budget = current_budget()
    if budget is not None:
        budget.check()
    ksrc = kernel_instance(source)
    ktgt = kernel_instance(target)
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


# -- premise matching for the chase ---------------------------------------


def sorted_premise_matches(dependency, instance: Instance):
    """The chase's sorted premise-match list: one compiled search over
    the instance's kernel form, sorted by the total per-variable key
    the object backend sorts by — element- and order-identical to
    :func:`repro.chase.standard._sorted_matches`.
    """
    budget = current_budget()
    if budget is not None:
        budget.check()
    premise = dependency.premise
    compiled = compiled_premise(
        premise.atoms, premise.constant_vars, premise.inequalities
    )
    return sorted(
        _search(compiled, kernel_instance(instance), {}),
        key=_sort_key(dependency.premise_variables()),
    )


def _sort_key(variables):
    def key(match: Dict[Term, Term]):
        return tuple(match[variable].sort_key() for variable in variables)

    return key


# -- the backend interface ------------------------------------------------


class KernelBackend:
    """The kernel backend's operations; each returns exactly what the
    object backend's reference code returns, in the same order.  They
    are this module's functions, bound without a wrapper because the
    verdict hot loop calls them."""

    premise_matches = staticmethod(sorted_premise_matches)
    all_homomorphisms = staticmethod(kernel_all_homomorphisms)
    has_homomorphism = staticmethod(kernel_has_homomorphism)

    def stratified_chase(self, instance: Instance, dependencies, **options):
        """A whole-chase plan, or None: run the interpreted loop."""
        return None


BACKEND_OPERATIONS[BACKEND_KERNEL] = KernelBackend()


__all__ = [
    "BACKEND_KERNEL",
    "BACKEND_MODES",
    "BACKEND_OBJECT",
    "BACKEND_OPERATIONS",
    "BACKEND_SQL",
    "InternTable",
    "KernelBackend",
    "KernelInstance",
    "active_backend",
    "active_operations",
    "compiled_premise",
    "default_backend",
    "intern_table",
    "kernel_all_homomorphisms",
    "kernel_has_homomorphism",
    "kernel_instance",
    "resolve_backend",
    "sorted_premise_matches",
    "use_backend",
]
