"""Content-addressed memoization for chase results and verdicts.

Bounded checkers issue thousands of near-identical chase and
homomorphism calls: ``subset_property`` alone asks for ``chase(I)``
and for ∼M verdicts on the same instance pairs over and over while
sweeping a universe.  The caches here key those calls by *content* —
a canonical form of the instance in which labeled nulls and logic
variables are renamed to position-derived placeholders — so that

* repeated calls on the same instance hit regardless of which object
  identity carries it, and
* isomorphic instances (equal up to null/variable renaming) share one
  entry, while genuinely distinct instances never collide: the
  canonical renaming is a bijection, so equal canonical forms always
  certify an isomorphism (the key is sound by construction; it is
  complete for renamings that preserve the relative order of facts).

Every cache registers itself for the instrumentation layer, which
reports hits, misses, and evictions.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Null, Term, Variable
from repro.engine.context import CONTEXT
from repro.engine.symmetry import (
    clear_symmetry_memos,
    ground_canonical_form,
    ground_keys_active,
    mapping_permutation_invariant,
    set_symmetry_memo_limit,
)


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


class MemoCache:
    """A bounded LRU map with hit/miss/eviction counters.

    When an on-disk store is active (:func:`active_store`), a
    memory miss falls through to the store: a store hit is promoted
    back into memory and returned as a hit (the memory ``misses``
    counter still advances; the store keeps its own counters), and
    every ``put`` writes through to the store.  Only caches the store
    has a value codec for persist; others are untouched.
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
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            store = CONTEXT.store
            if store is not None:
                hit, value = store.load(self.name, key)
                if hit:
                    self._insert(key, value)
                    return True, value
            return False, None
        self._data.move_to_end(key)
        self.hits += 1
        return True, value

    def _insert(self, key: Hashable, value: Any) -> None:
        """Memory-only insert (promotion of a store hit: no
        write-through, the entry is already on disk)."""
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

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
    kernel backend's per-instance memos, for example) and must drop
    with the caches so cold benchmark runs are genuinely cold.
    """
    _RESET_HOOKS.append(hook)


def reset_all_caches() -> None:
    for cache in _REGISTRY:
        cache.clear()
    clear_symmetry_memos()
    for hook in _RESET_HOOKS:
        hook()


def resize_caches(maxsize: Optional[int]) -> None:
    """Set every engine cache's capacity (the CLI's --cache-size knob).

    The size also becomes the configured default for caches built
    *afterwards* (:func:`configured_maxsize`) and is pushed into the
    symmetry layer's canonical-form memos, so the knob applies
    uniformly instead of only to the caches that happened to exist
    when the CLI parsed its flags.  ``None`` clears the override:
    existing caches return to their construction-time defaults.
    """
    global _CONFIGURED_MAXSIZE
    _CONFIGURED_MAXSIZE = maxsize
    set_symmetry_memo_limit(maxsize)
    for cache in _REGISTRY:
        cache.maxsize = cache.default_maxsize if maxsize is None else maxsize
        while len(cache._data) > cache.maxsize:
            cache._data.popitem(last=False)
            cache.evictions += 1


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


def canonical_key(instance: Instance) -> FrozenSet[Atom]:
    """The content-addressed key of *instance* (its canonical fact set)."""
    canonical, _ = canonicalize_instance(instance)
    return canonical.facts


# -- mapping keys ---------------------------------------------------------

_MAPPING_KEYS: "weakref.WeakKeyDictionary[Any, Hashable]" = (
    weakref.WeakKeyDictionary()
)


def mapping_key(mapping: Any) -> Hashable:
    """A content key for a schema mapping: canonical dependencies plus
    the target relations (which bound the chase output restriction).

    Staged pipelines (:class:`repro.core.mapping.StagedMapping`) key by
    their stages' content keys instead — they carry no dependencies of
    their own, and two pipelines over content-equal stages must share
    chase/verdict cache entries."""
    key = _MAPPING_KEYS.get(mapping)
    if key is None:
        stages = getattr(mapping, "stages", None)
        if stages:
            key = (
                "staged",
                tuple(mapping_key(stage) for stage in stages),
                tuple(mapping.target.relations),
            )
        else:
            key = (
                tuple(dep.canonical_form() for dep in mapping.dependencies),
                tuple(mapping.target.relations),
            )
        _MAPPING_KEYS[mapping] = key
    return key


_MAPPING_INVARIANT: "weakref.WeakKeyDictionary[Any, bool]" = (
    weakref.WeakKeyDictionary()
)


def symmetry_keys_apply(mapping: Any) -> bool:
    """Should this call key ground instances by constant-canonical form?

    True only when an orbit-mode sweep installed the ground-key
    context *and* the mapping is permutation-invariant (no literal
    constants in its dependencies) — the condition under which
    ``chase(π(I)) = π(chase(I))`` holds for every constant bijection π.
    """
    if not ground_keys_active():
        return False
    invariant = _MAPPING_INVARIANT.get(mapping)
    if invariant is None:
        invariant = mapping_permutation_invariant(mapping)
        _MAPPING_INVARIANT[mapping] = invariant
    return invariant


# -- the chase cache ------------------------------------------------------

chase_cache = MemoCache("chase", maxsize=16_384)
verdict_cache = MemoCache("verdict", maxsize=262_144)


def _translate_back(
    cached: Instance, instance: Instance, forward: Dict[Term, Term]
) -> Instance:
    """Rename a cached chase result to fit the original *instance*.

    Canonical placeholders map back through the inverse of *forward*;
    fresh nulls invented by the chase are renamed apart from the
    original instance's null and variable names when they clash.
    """
    substitution: Dict[Term, Term] = {
        canonical: original for original, canonical in forward.items()
    }
    taken = {
        term.name
        for term in instance.active_domain()
        if isinstance(term, (Null, Variable))
    }
    counter = 0
    for null in sorted(cached.nulls()):
        if null in substitution:
            continue
        if null.name in taken:
            while f"N{counter}" in taken:
                counter += 1
            fresh = Null(f"N{counter}")
            taken.add(fresh.name)
            substitution[null] = fresh
        else:
            taken.add(null.name)
    return cached.substitute(substitution)


def cached_chase_result(
    mapping: Any,
    instance: Instance,
    compute: Callable[[Instance], Instance],
) -> Instance:
    """Memoize ``compute(instance)`` under the canonical content key.

    *compute* must be a pure function of the instance (given the
    mapping) returning an instance whose nulls either come from the
    input or are chase-fresh.  On an isomorphic hit the cached result
    is renamed back onto the caller's terms, so the returned instance
    is always one *compute* could have produced directly.

    Under an orbit-mode sweep (:func:`symmetry_keys_apply`), ground
    instances additionally key by their canonical form under constant
    permutation, so the chases of *every* member of an instance orbit
    share one entry.  The caching is two-level: the exact fact set
    first (so repeat calls skip canonicalization entirely), then the
    canonical form; on a canonical hit the cached result's placeholder
    constants are renamed back through the canonical bijection once
    and the translation stored under the exact key.
    """
    if instance.is_ground() and symmetry_keys_apply(mapping):
        exact_key = (mapping_key(mapping), instance.facts)
        hit, cached = chase_cache.get(exact_key)
        if hit:
            return cached
        form = ground_canonical_form(instance)
        sym_key = ("sym", mapping_key(mapping), form.key())
        hit, canonical_result = chase_cache.get(sym_key)
        if not hit:
            canonical_result = compute(form.canonical)
            chase_cache.put(sym_key, canonical_result)
        result = (
            canonical_result
            if not form.forward
            else _translate_back(canonical_result, instance, form.forward)
        )
        chase_cache.put(exact_key, result)
        return result
    canonical, forward = canonicalize_instance(instance)
    key = (mapping_key(mapping), canonical.facts)
    hit, cached = chase_cache.get(key)
    if not hit:
        cached = compute(canonical)
        chase_cache.put(key, cached)
    if not forward:
        return cached
    return _translate_back(cached, instance, forward)
