"""Content-addressed memoization for chase results, verdicts and
derived mappings.

Bounded checkers issue thousands of near-identical chase and
homomorphism calls: ``subset_property`` alone asks for ``chase(I)``
and for ∼M verdicts on the same instance pairs over and over while
sweeping a universe, and a warm daemon asks for the same quasi-inverse
and the same round trips job after job.  The caches here key those
calls by *content*, so repeated calls on the same instance or mapping
hit regardless of which object identity carries it, on every backend.
Three tiers live here:

* ``chase`` (:data:`chase_cache`): a chase result keys by the mapping
  (:func:`mapping_key`) and the instance's exact fact set
  (:func:`exact_key`; :func:`cached_chase_result` is the one chase
  memo, and orbit-mode sweeps add a key per constant-permutation orbit
  of a ground instance).  The core of a universal solution
  (:func:`~repro.core.mapping.core_universal_solution`) keys the same
  way under the head ``"core"``;
* ``verdict`` (:data:`verdict_cache`): a ∼M verdict keys by a
  canonical form of each instance in which labeled nulls and logic
  variables are renamed to position-derived placeholders
  (:func:`canonical_key`), so isomorphic instances (equal up to
  null/variable renaming) share one entry, while genuinely distinct
  instances never collide: the canonical renaming is a bijection, so
  equal canonical forms always certify an isomorphism (the key is
  sound by construction; it is complete for renamings that preserve
  the relative order of facts).  A round-trip verdict (soundness and
  faithfulness, :mod:`repro.dataexchange.recovery`) keys by both
  mapping keys, both source schemas and the instance's exact facts;
* ``derived`` (:data:`derived_cache`): a mapping derived from a
  mapping — QuasiInverse, LAV quasi-inverse, Inverse
  (:func:`derived_mapping`) and the algebra's materialized
  expressions — keys *exactly*: the mapping itself, its name and every
  option, because the output's text, name and schemas depend on all
  of them.

What an instance's fact set determines is memoized in tiers of its
own, each defined beside the code that builds it and keyed by
:func:`exact_key`, so copies of an instance share one entry:

* ``index`` (:data:`repro.engine.indexing.index_cache`): the fact
  index the object backend's homomorphism search probes;
* ``kinstance`` (:data:`repro.engine.kernel.kinstance_cache`): the
  kernel backend's interned form (beside it, ``compile`` holds the
  kernel's compiled premises);
* ``canon`` (:data:`repro.engine.symmetry.canon_cache`): a ground
  instance's canonical form under constant permutation.

Only ``chase`` and ``verdict`` persist through the store
(:mod:`repro.engine.store`); every other tier is process-local.  Every
tier follows ``--cache-size`` (:func:`resize_caches`) and
:func:`reset_all_caches`, and no tier ever caches an exception.

A warm sweep answers nearly every question from these caches, so the
cost of a *probe* is what it pays for.  Repeated jobs rebuild their
universes and mappings, and a probe keyed by a fresh object would
re-hash its dependencies and compare equal fact sets atom by atom.
Instead :func:`exact_key`, :func:`canonical_key` and
:func:`mapping_key` derive each object's key once, store it on the
object (read back with ``getattr``, never through ``__dict__``, which
is unsafe under threads on CPython 3.11; see
:mod:`repro.datamodel.terms`), and pass it through one bounded table
of shared keys, so every equal instance or mapping yields the *same*
key object: a warm probe hashes a few cached values and matches its
entry by identity.  Keys keep their content, so store digests and
checkpoint fingerprints do not depend on which object was probed.

Every cache registers itself for the instrumentation layer, which
reports hits, misses, and evictions.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Null, Term, Variable
from repro.engine.context import CONTEXT
from repro.engine.store import stable_digest


@dataclass
class CacheStats:
    """A point-in-time snapshot of one cache's counters."""

    name: str
    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> Dict[str, int]:
        """Machine-readable counters under the canonical
        ``<name>_cache_{hits,misses,evictions}`` keys.

        This is the single source of counter names: the human-readable
        render and :meth:`EngineStats.counters
        <repro.engine.instrumentation.EngineStats.counters>` both read
        these keys, so reports can never drift apart on naming (the
        old ad-hoc scheme had ``chase_hits`` in one place and
        ``chase_cache_hits`` in another)."""
        prefix = f"{self.name}_cache"
        return {
            f"{prefix}_hits": self.hits,
            f"{prefix}_misses": self.misses,
            f"{prefix}_evictions": self.evictions,
        }

    def render(self) -> str:
        counters = self.counters()
        prefix = f"{self.name}_cache"
        return (
            f"cache {self.name:<16} {counters[f'{prefix}_hits']:>8} hits  "
            f"{counters[f'{prefix}_misses']:>8} misses  "
            f"({self.hit_rate:>6.1%})  size {self.size}/{self.maxsize}"
        )


_REGISTRY: List["MemoCache"] = []

#: The CLI's --cache-size knob.  ``None`` means "each cache uses its
#: construction-time default"; an int overrides the default for every
#: cache, *including ones constructed after the knob was set* (the
#: kernel backend and future subsystems build MemoCaches lazily).
_CONFIGURED_MAXSIZE: Optional[int] = None


def configured_maxsize(fallback: int) -> int:
    """The engine-wide cache capacity: the --cache-size override when
    one is set, else *fallback* (a cache's construction default)."""
    return fallback if _CONFIGURED_MAXSIZE is None else _CONFIGURED_MAXSIZE


def active_store() -> Optional[Any]:
    """The on-disk second level (a :class:`~repro.engine.store.VerdictStore`)
    behind every persistent MemoCache on this thread, or ``None``: the
    process default (``REPRO_STORE``, ``--store``), unless a
    :func:`~repro.engine.store.use_store` block overrides it."""
    return CONTEXT.store


def flush_active_store() -> None:
    """Flush the ambient store's buffered writes (no-op without one)."""
    store = CONTEXT.store
    if store is not None:
        store.flush()


_MISSING = object()


class MemoCache:
    """A bounded LRU map with hit/miss/eviction counters.

    When an on-disk store is active (:func:`active_store`), a
    memory miss falls through to the store: a store hit is promoted
    back into memory and returned as a hit (the memory ``misses``
    counter still advances; the store keeps its own counters), and
    every ``put`` writes through to the store.  Only caches the store
    has a value codec for persist; others are untouched.

    The daemon's job threads share every cache without a lock, so a
    key can be evicted by one thread between another's read of it and
    that read's LRU refresh: the race may lose an entry or a counter
    increment, never a value read, and it never raises.
    """

    def __init__(self, name: str, maxsize: int = 65_536) -> None:
        self.name = name
        self.default_maxsize = maxsize
        self.maxsize = configured_maxsize(maxsize)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        _REGISTRY.append(self)

    def get(self, key: Hashable) -> Tuple[bool, Any]:
        # A sentinel, not a caught KeyError: raising one costs more
        # than the probe, and a sweep misses thousands of times.
        value = self._data.get(key, _MISSING)
        if value is not _MISSING:
            try:
                self._data.move_to_end(key)
            except KeyError:  # evicted by another thread since the read
                pass
            self.hits += 1
            return True, value
        self.misses += 1
        store = CONTEXT.store
        if store is not None:
            hit, value = store.load(self.name, key)
            if hit:
                self._insert(key, value)
                return True, value
        return False, None

    def _insert(self, key: Hashable, value: Any) -> None:
        """Memory-only insert (promotion of a store hit: no
        write-through, the entry is already on disk)."""
        self._data[key] = value
        try:
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
        except KeyError:  # evicted, or emptied, by another thread
            pass

    def put(self, key: Hashable, value: Any) -> None:
        self._insert(key, value)
        store = CONTEXT.store
        if store is not None:
            store.save(self.name, key, value)

    def memoize(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        hit, value = self.get(key)
        if hit:
            return value
        value = compute()
        self.put(key, value)
        return value

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> CacheStats:
        return CacheStats(
            self.name,
            self.hits,
            self.misses,
            self.evictions,
            len(self._data),
            self.maxsize,
        )


def all_cache_stats() -> List[CacheStats]:
    return [cache.stats() for cache in _REGISTRY]


_RESET_HOOKS: List[Callable[[], None]] = []


def register_reset_hook(hook: Callable[[], None]) -> None:
    """Run *hook* on every :func:`reset_all_caches` call.

    For engine state that memoizes outside a :class:`MemoCache` (the
    join-order memo and the shared-key table, for example) and must
    drop with the caches so cold benchmark runs are genuinely cold.
    """
    _RESET_HOOKS.append(hook)


def reset_all_caches() -> None:
    for cache in _REGISTRY:
        cache.clear()
    for hook in _RESET_HOOKS:
        hook()


def cache_capacity(raw: Any) -> int:
    """A cache capacity: a whole number of entries, at least 1.  The
    parser of the CLI's and the daemon's ``--cache-size``, so a bad
    size is a usage error before anything runs."""
    value = int(raw)
    if value < 1:
        raise ValueError(f"a cache holds at least 1 entry, got {raw!r}")
    return value


def resize_caches(maxsize: Optional[int]) -> Optional[int]:
    """Set every engine cache's capacity (the CLI's --cache-size knob).

    The size also becomes the configured default for caches built
    *afterwards* (:func:`configured_maxsize`), so the knob applies
    uniformly instead of only to the caches that happened to exist
    when the CLI parsed its flags.  ``None`` clears the override:
    existing caches return to their construction-time defaults.
    Returns the previous override, so ``resize_caches(previous)`` puts
    it back; a size below 1 raises ValueError (:func:`cache_capacity`).
    """
    global _CONFIGURED_MAXSIZE
    if maxsize is not None:
        maxsize = cache_capacity(maxsize)
    previous, _CONFIGURED_MAXSIZE = _CONFIGURED_MAXSIZE, maxsize
    for cache in _REGISTRY:
        cache.maxsize = cache.default_maxsize if maxsize is None else maxsize
        while len(cache._data) > cache.maxsize:
            cache._data.popitem(last=False)
            cache.evictions += 1
    return previous


# -- canonical forms ------------------------------------------------------

_CANON_PREFIX = "__c"


def canonicalize_instance(
    instance: Instance,
) -> Tuple[Instance, Dict[Term, Term]]:
    """Rename nulls and variables of *instance* to canonical placeholders.

    Facts are ordered by their constant *shape* (relation plus the
    pattern of rigid constants), and mappable terms are numbered by
    first occurrence in that order.  Returns the canonical instance
    and the forward renaming; for ground instances the renaming is
    empty and the instance is returned unchanged.
    """
    if instance.is_ground():
        return instance, {}

    def shape(fact: Atom) -> Tuple:
        pattern = tuple(
            (0, arg.sort_key()) if isinstance(arg, Constant) else (1,)
            for arg in fact.args
        )
        return (fact.relation, pattern, fact.sort_key())

    forward: Dict[Term, Term] = {}
    for fact in sorted(instance.facts, key=shape):
        for arg in fact.args:
            if isinstance(arg, Constant) or arg in forward:
                continue
            label = f"{_CANON_PREFIX}{len(forward)}"
            forward[arg] = (
                Null(label) if isinstance(arg, Null) else Variable(label)
            )
    return instance.substitute(forward), forward


# -- shared keys ----------------------------------------------------------

#: Every instance and mapping key handed out, mapped to itself, so that
#: equal keys are one object and memo probes compare them by identity.
#: Cleared when full and with the caches, like the join-order memo; a
#: key dropped by a clear still equals its successor, it only compares
#: slower.  No lock: an entry is its own key, so racing threads can at
#: worst hand out two equal keys.
_KEYS: Dict[Hashable, Hashable] = {}
_KEYS_MAX = 65_536
register_reset_hook(_KEYS.clear)


def _shared_key(key: Hashable) -> Hashable:
    """The one key object equal to *key* (*key* itself the first time)."""
    shared = _KEYS.get(key)
    if shared is None:
        if len(_KEYS) >= _KEYS_MAX:
            _KEYS.clear()
        shared = _KEYS.setdefault(key, key)
    return shared


def exact_key(instance: Instance) -> FrozenSet[Atom]:
    """The exact-content key of *instance* (its own fact set), the
    chase memo's instance key.

    Derived once per instance and stored on it; equal instances get
    the same key object (:func:`_shared_key`)."""
    key = getattr(instance, "_exact_key", None)
    if key is None:
        key = _shared_key(instance.facts)
        object.__setattr__(instance, "_exact_key", key)
    return key


def canonical_key(instance: Instance) -> FrozenSet[Atom]:
    """The content-addressed key of *instance* (its canonical fact set),
    the verdict memo's instance key.

    Derived once per instance and stored on it; equal instances — and
    isomorphic ones, whose canonical fact sets are equal — get the
    same key object (:func:`_shared_key`).  A ground instance is its
    own canonical form, so its canonical key is its :func:`exact_key`."""
    key = getattr(instance, "_canonical_key", None)
    if key is None:
        if instance.is_ground():
            key = exact_key(instance)
        else:
            canonical, _ = canonicalize_instance(instance)
            key = _shared_key(canonical.facts)
        object.__setattr__(instance, "_canonical_key", key)
    return key


# -- mapping keys ---------------------------------------------------------


def mapping_key(mapping: Any) -> str:
    """A content key for a schema mapping: ``"m:"`` plus the stable
    digest (:func:`~repro.engine.store.stable_digest`) of its canonical
    dependencies and its target relations (which bound the chase
    output restriction).

    Staged pipelines (:class:`repro.core.mapping.StagedMapping`) digest
    their stages' keys instead — they carry no dependencies of their
    own, and two pipelines over content-equal stages must share
    chase/verdict cache entries.

    A string caches its own hash, so a memo probe never re-hashes the
    mapping's dependencies.  Derived once per mapping and stored on it;
    content-equal mappings, including one rebuilt after an equal one
    was collected, get the same key object (:func:`_shared_key`)."""
    key = getattr(mapping, "_mapping_key", None)
    if key is None:
        stages = getattr(mapping, "stages", None)
        if stages:
            content = (
                "staged",
                tuple(mapping_key(stage) for stage in stages),
                tuple(mapping.target.relations),
            )
        else:
            content = (
                tuple(dep.canonical_form() for dep in mapping.dependencies),
                tuple(mapping.target.relations),
            )
        key = _shared_key("m:" + stable_digest(content))
        object.__setattr__(mapping, "_mapping_key", key)
    return key


def symmetry_keys_apply(mapping: Any) -> bool:
    """Should this call key ground instances by constant-canonical form?

    True only when an orbit-mode sweep installed the ground-key
    context *and* the mapping is permutation-invariant (no literal
    constants in its dependencies) — the condition under which
    ``chase(π(I)) = π(chase(I))`` holds for every constant bijection π.
    The invariance flag is computed once per mapping and stored on it.
    """
    if not ground_keys_active():
        return False
    invariant = getattr(mapping, "_permutation_invariant", None)
    if invariant is None:
        invariant = mapping_permutation_invariant(mapping)
        object.__setattr__(mapping, "_permutation_invariant", invariant)
    return invariant


# -- the chase cache ------------------------------------------------------

chase_cache = MemoCache("chase", maxsize=16_384)
verdict_cache = MemoCache("verdict", maxsize=262_144)
#: No store codec, so its entries never leave the process.
derived_cache = MemoCache("derived", maxsize=4_096)


def derived_mapping(derive: Callable[..., Any]) -> Callable[..., Any]:
    """Memoize ``derive(mapping, **options)``, a pure derivation of a
    mapping from a mapping, in :data:`derived_cache`.

    The key is exact: *derive* itself, the mapping (``==`` compares its
    schemas and its dependencies variable for variable), the mapping's
    ``name`` (which ``==`` ignores) and every keyword argument.
    :func:`mapping_key` would not do: it renames variables and omits
    the source schema, and the derived mapping's text, name and target
    schema depend on those.  A call that raises caches nothing."""

    @functools.wraps(derive)
    def memoized(mapping: Any, **options: Any) -> Any:
        key = (derive, mapping, mapping.name, tuple(sorted(options.items())))
        return derived_cache.memoize(key, lambda: derive(mapping, **options))

    return memoized


def cached_chase_result(
    mapping: Any,
    instance: Instance,
    solve: Callable[[Any, Instance], Instance],
) -> Instance:
    """The engine's one chase memo: ``solve(mapping, instance)``, run
    only on a miss, on every backend.

    *solve* must be a pure function of the mapping and the instance
    (the backend only decides how it computes).  Entries key by the
    mapping's key and the instance's exact fact set (:func:`exact_key`),
    so any object carrying those facts hits, and the result is the one *solve*
    produced for them, fresh-null names included.  Isomorphic
    non-ground instances do not share a chase; the verdicts built on
    them do (:func:`canonical_key`).

    Under an orbit-mode sweep (:func:`symmetry_keys_apply`), ground
    instances additionally key by their canonical form under constant
    permutation, so the chases of *every* member of an instance orbit
    share one entry.  The caching is two-level: the exact fact set
    first (so repeat calls skip canonicalization entirely), then the
    canonical form; on a canonical hit the cached result's placeholder
    constants are renamed back through the canonical bijection
    (:func:`~repro.engine.symmetry.decanonicalize`) once, and the
    translation is stored under the exact key.
    """
    mkey = mapping_key(mapping)
    key = (mkey, exact_key(instance))
    hit, result = chase_cache.get(key)
    if hit:
        return result
    if instance.is_ground() and symmetry_keys_apply(mapping):
        form = ground_canonical_form(instance)
        sym_key = ("sym", mkey, form.key())
        hit, result = chase_cache.get(sym_key)
        if not hit:
            result = solve(mapping, form.canonical)
            chase_cache.put(sym_key, result)
        if form.forward:
            result = decanonicalize(result, form.forward)
    else:
        result = solve(mapping, instance)
    chase_cache.put(key, result)
    return result


# Bound last: the symmetry layer memoizes its canonical forms in a
# MemoCache keyed by exact_key, so it imports this module, and it can
# do so only once both are defined.
from repro.engine.symmetry import (
    decanonicalize,
    ground_canonical_form,
    ground_keys_active,
    mapping_permutation_invariant,
)
