"""Symmetry reduction: sweep instance *orbits* instead of instances.

Every bounded check in the library (subset property, unique solutions,
(∼1,∼2)-inverse, soundness/faithfulness) asks a question that is
invariant under permutations of the constant domain, provided the
mappings involved mention no literal constants: the chase, homomorphism
existence, and solution-space containment all commute with a bijective
renaming of constants.  A universe of all ≤k-fact instances over a
domain D is closed under such renamings, so it partitions into orbits
of the symmetric group S_D and a sweep only needs to visit one
*representative* per orbit — a reduction by a factor approaching |D|!.

The canonical form underlying the reduction is computed with the
standard individualization–refinement scheme from graph canonization
(iterative colour refinement on the constants' occurrence structure,
with backtracking over the first non-singleton colour class to break
ties) — no external solver.  Correctness does not depend on how good
the refinement is: the backtracking minimum over all individualization
choices is orbit-invariant by construction, refinement only prunes.

Soundness rules enforced by the callers (see
:func:`repro.core.framework.subset_property` & friends):

* only *ground* universes closed under domain permutations are
  reduced (:func:`orbit_reduce` verifies closure and returns ``None``
  otherwise, which makes the sweep fall back to the full universe);
* only mappings whose dependencies mention no literal constants
  qualify (:func:`mapping_permutation_invariant`); ``Constant(x)``
  guards and inequalities are fine — permutations map constants to
  constants bijectively — but a pinned constant in an atom is not;
* pairwise quantifiers canonicalize the *outer* instance only and
  range the inner one over the full universe, the sound reduction for
  simultaneous renaming of a pair.

The same canonical forms double as content-addressed cache keys
(:func:`repro.engine.cache.cached_chase_result` consults
:func:`ground_keys_active`), so isomorphic chases and pair verdicts
hit the memo caches once per orbit across *all* sweeps of a run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import permutations
from math import comb, factorial
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant
from repro.engine.cache import MemoCache, exact_key
from repro.engine.context import CONTEXT, SYMMETRY_MODES

SYMMETRY_FULL = "full"
SYMMETRY_ORBITS = "orbits"

#: Canonical placeholder constants are named ``__g0``, ``__g1``, ...
#: (mirroring the ``__c`` prefix the null/variable canonicalizer uses).
_ORBIT_PREFIX = "__g"

#: Exact Burnside orbit counting enumerates |D|! permutations; beyond
#: this domain size the count degrades to the ``total / |D|!`` bound.
_EXACT_BURNSIDE_MAX_DOMAIN = 6


# -- mode resolution ------------------------------------------------------


def default_symmetry() -> str:
    """The engine-wide symmetry mode (``REPRO_SYMMETRY``, or the CLI's
    ``--symmetry`` flag).  Defaults to ``"full"`` — orbit sweeps are
    opt-in."""
    return CONTEXT.symmetry


def resolve_symmetry(symmetry: Optional[str]) -> str:
    """An explicit mode, else the engine-wide default."""
    if symmetry is None:
        return default_symmetry()
    if symmetry not in SYMMETRY_MODES:
        raise ValueError(
            f"symmetry must be one of {SYMMETRY_MODES}, got {symmetry!r}"
        )
    return symmetry


# -- invariance gate ------------------------------------------------------


def mapping_permutation_invariant(mapping: Any) -> bool:
    """Is *mapping* invariant under permutations of the constants?

    True exactly when no dependency atom (premise or conclusion)
    contains a literal constant.  ``Constant(x)`` conjuncts and
    inequalities are invariant — a domain permutation is a bijection
    of constants — so they do not disqualify a mapping.
    """
    if mapping is None:
        return True
    stages = getattr(mapping, "stages", None)
    if stages:
        # A staged pipeline is invariant exactly when every stage is.
        return all(mapping_permutation_invariant(stage) for stage in stages)
    for dependency in mapping.dependencies:
        atom_groups = [dependency.premise.atoms]
        atom_groups.extend(dependency.disjuncts)
        for atoms in atom_groups:
            for current in atoms:
                if any(isinstance(arg, Constant) for arg in current.args):
                    return False
    return True


# -- ground canonical forms (individualization–refinement) ----------------

# Internal fact representation: (label, args) where *label* is any
# hashable (a relation name, or a (side, relation) pair for joint pair
# canonicalization) and *args* is the tuple of argument terms.
_RawFact = Tuple[Any, Tuple[Any, ...]]


# Encoded fact representation: the label replaced by its sortable key
# and every constant argument replaced by its dense local id — its
# index in the sorted active-constant list, so id order IS sorted
# Constant order and every ordering the search produces is identical
# to the old object-level one.  All refinement, canonical-ordering,
# and automorphism arithmetic below runs on these small ints; Constant
# objects only appear at the entry/exit boundary.
_EncodedFact = Tuple[Any, Tuple[Any, ...]]


def _encode_facts(
    facts: Sequence[_RawFact], constants: Sequence[Constant]
) -> Tuple[_EncodedFact, ...]:
    """Re-express *facts* on dense local constant ids."""
    index = {constant: position for position, constant in enumerate(constants)}
    return tuple(
        (
            _label_key(label),
            tuple(
                index[arg] if isinstance(arg, Constant) else arg
                for arg in args
            ),
        )
        for label, args in facts
    )


def _occurrence_table(
    encoded: Sequence[_EncodedFact], size: int
) -> List[List[Tuple[Any, int, Tuple[Any, ...]]]]:
    """Per-id occurrence lists: (fact label key, position, codes)."""
    table: List[List[Tuple[Any, int, Tuple[Any, ...]]]] = [
        [] for _ in range(size)
    ]
    for label, codes in encoded:
        for position, code in enumerate(codes):
            if type(code) is int:
                table[code].append((label, position, codes))
    return table


def _refine(
    colors: List[int],
    occurrences: Sequence[Sequence[Tuple[Any, int, Tuple[Any, ...]]]],
) -> List[int]:
    """Iterative colour refinement to a stable partition.

    Each round recolours every constant id by its current colour plus
    the sorted multiset of its occurrence signatures (fact label key,
    position, colour pattern of the co-occurring arguments).
    Signatures are invariant data, so the refined partition is
    orbit-invariant.
    """
    while True:
        signatures = [
            (
                colors[cid],
                tuple(
                    sorted(
                        (
                            label,
                            position,
                            tuple(
                                colors[code] if type(code) is int else -1
                                for code in codes
                            ),
                        )
                        for label, position, codes in occurrences[cid]
                    )
                ),
            )
            for cid in range(len(colors))
        ]
        ranking = {
            signature: rank
            for rank, signature in enumerate(sorted(set(signatures)))
        }
        refined = [ranking[signature] for signature in signatures]
        if refined == colors:
            return refined
        colors = refined


def _label_key(label: Any) -> Any:
    """A sortable key for fact labels (strings or nested tuples)."""
    if isinstance(label, tuple):
        return tuple(_label_key(part) for part in label)
    return str(label)


def _cells(colors: Sequence[int]) -> List[List[int]]:
    """Colour classes ordered by colour, member ids ascending."""
    grouped: Dict[int, List[int]] = {}
    for cid, color in enumerate(colors):
        grouped.setdefault(color, []).append(cid)
    return [grouped[color] for color in sorted(grouped)]


def _relabeled_form(
    encoded: Sequence[_EncodedFact], ordering: Sequence[int]
) -> Tuple[Tuple[Any, Tuple[Any, ...]], ...]:
    """The fact structure with constant ids replaced by their canonical
    indices, as a sorted tuple — the comparable 'certificate' of a
    labelling."""
    relabeled = [
        (
            label,
            tuple(
                ordering[code] if type(code) is int else code.sort_key()
                for code in codes
            ),
        )
        for label, codes in encoded
    ]
    return tuple(sorted(relabeled))


def _canonical_ordering(
    facts: Sequence[_RawFact], constants: Sequence[Constant]
) -> Dict[Constant, int]:
    """The canonical labelling of *constants*: the ordering (constant →
    index) whose relabeled fact structure is minimal over the orbit.

    Individualization–refinement with full backtracking: refine, then
    branch over every member of the first non-singleton cell; the
    minimum over all branches is independent of the input labelling.
    """
    if not constants:
        return {}
    encoded = _encode_facts(facts, constants)
    ordering = _canonical_ordering_ids(encoded, len(constants))
    return {constants[cid]: rank for cid, rank in enumerate(ordering)}


def _canonical_ordering_ids(
    encoded: Sequence[_EncodedFact], size: int
) -> List[int]:
    """:func:`_canonical_ordering` on encoded facts: the result maps
    local id → canonical index, as a dense list."""
    occurrences = _occurrence_table(encoded, size)
    best: List[Optional[Tuple[Tuple, List[int]]]] = [None]

    def search(colors: List[int]) -> None:
        colors = _refine(colors, occurrences)
        cells = _cells(colors)
        target = next((cell for cell in cells if len(cell) > 1), None)
        if target is None:
            ordering = [0] * size
            for rank, (cid,) in enumerate(cells):
                ordering[cid] = rank
            form = _relabeled_form(encoded, ordering)
            if best[0] is None or form < best[0][0]:
                best[0] = (form, ordering)
            return
        fresh = max(colors) + 1
        for choice in target:
            branched = list(colors)
            branched[choice] = fresh
            search(branched)

    search([0] * size)
    assert best[0] is not None
    return best[0][1]


def _automorphism_count_ids(
    encoded: Sequence[_EncodedFact], size: int
) -> int:
    """|Aut|: permutations of the active constants fixing the
    encoded fact set.

    Brute force within the refined colour classes — automorphisms
    preserve refinement colours, so only colour-respecting bijections
    need testing.  Cells are tiny for the bounded universes the
    checkers sweep (|active| ≤ |domain| ≤ ~6).
    """
    occurrences = _occurrence_table(encoded, size)
    colors = _refine([0] * size, occurrences)
    cells = _cells(colors)
    fact_set = frozenset(encoded)
    count = 0
    for cell_perms in _cell_permutations(cells):
        perm = list(range(size))
        for cell, images in zip(cells, cell_perms):
            for source, image in zip(cell, images):
                perm[source] = image
        permuted = frozenset(
            (
                label,
                tuple(
                    perm[code] if type(code) is int else code
                    for code in codes
                ),
            )
            for label, codes in encoded
        )
        if permuted == fact_set:
            count += 1
    return count


def _cell_permutations(
    cells: Sequence[Sequence[int]],
) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """The cartesian product of per-cell permutations."""
    if not cells:
        yield ()
        return
    head, tail = cells[0], cells[1:]
    for head_perm in permutations(head):
        for rest in _cell_permutations(tail):
            yield (head_perm,) + rest


@dataclass(frozen=True)
class GroundCanonicalForm:
    """The canonical form of a ground instance under domain permutation.

    ``canonical`` relabels the active constants to the placeholders
    ``__g0, __g1, ...`` in canonical order; two ground instances are
    related by a constant bijection exactly when their ``canonical``
    fields are equal.  ``forward`` is the applied renaming (original →
    placeholder), ``automorphisms`` the order of the instance's
    automorphism group on its active constants.
    """

    canonical: Instance
    forward: Dict[Constant, Constant]
    automorphisms: int

    @property
    def active(self) -> int:
        return len(self.forward)

    def key(self) -> FrozenSet[Atom]:
        """The hashable orbit identity (the canonical fact set)."""
        return self.canonical.facts

    def orbit_size(self, domain_size: int) -> int:
        """|orbit| under S_D for a domain of *domain_size* constants."""
        return factorial(domain_size) // self.stabilizer_order(domain_size)

    def stabilizer_order(self, domain_size: int) -> int:
        """|Stab| in S_D: active automorphisms × free moves of the
        constants the instance does not mention."""
        spare = domain_size - self.active
        if spare < 0:
            raise ValueError(
                f"instance uses {self.active} constants, domain has "
                f"only {domain_size}"
            )
        return self.automorphisms * factorial(spare)


# Canonicalization is called once per cache-key construction, i.e. on
# the hot path of every chase / verdict lookup in an orbit-mode sweep;
# the same few hundred universe instances recur thousands of times, so
# the canonical form is memoized by exact fact set.
canon_cache = MemoCache("canon", maxsize=65_536)


def ground_canonical_form(instance: Instance) -> GroundCanonicalForm:
    """Canonicalize a *ground* instance under constant permutation."""
    key = exact_key(instance)
    hit, cached = canon_cache.get(key)
    if hit:
        return cached
    if not instance.is_ground():
        raise ValueError(
            "ground_canonical_form requires a ground instance; "
            f"got nulls/variables in {instance}"
        )
    facts: List[_RawFact] = [
        (fact.relation, fact.args) for fact in instance.sorted_facts()
    ]
    constants = sorted(instance.constants())
    # Encode once, run both the canonical-ordering search and the
    # automorphism count on the same id-tuples.
    encoded = _encode_facts(facts, constants)
    if constants:
        ordering = _canonical_ordering_ids(encoded, len(constants))
        automorphisms = _automorphism_count_ids(encoded, len(constants))
    else:
        ordering = []
        automorphisms = 1
    forward = {
        constants[cid]: Constant(f"{_ORBIT_PREFIX}{index}")
        for cid, index in enumerate(ordering)
    }
    form = GroundCanonicalForm(
        canonical=instance.substitute(forward),
        forward=forward,
        automorphisms=automorphisms,
    )
    canon_cache.put(key, form)
    return form


def ground_pair_key(
    left: Instance, right: Instance
) -> Tuple[FrozenSet[Atom], FrozenSet[Atom]]:
    """A content key for the ordered pair (left, right) that is equal
    for two pairs exactly when one *simultaneous* constant renaming
    carries one pair onto the other.

    Homomorphisms fix constants, so pairwise verdicts (solution-space
    containment, ∼M) are invariant only under renaming both sides with
    the *same* permutation — the two instances must be canonicalized
    jointly, with facts tagged by side.
    """
    facts: List[_RawFact] = [
        (("L", fact.relation), fact.args) for fact in left.sorted_facts()
    ]
    facts.extend(
        (("R", fact.relation), fact.args) for fact in right.sorted_facts()
    )
    constants = sorted(
        set(left.constants()) | set(right.constants())
    )
    ordering = _canonical_ordering(facts, constants)
    forward = {
        constant: Constant(f"{_ORBIT_PREFIX}{index}")
        for constant, index in ordering.items()
    }
    return left.substitute(forward).facts, right.substitute(forward).facts


# -- witness de-canonicalization ------------------------------------------


def decanonicalize(
    witness: Instance, forward: Mapping[Constant, Constant]
) -> Instance:
    """Rename canonical placeholders of *witness* back through the
    inverse of *forward*, yielding a concrete instance over the
    original constants (placeholder-free terms pass through)."""
    backward = {placeholder: original for original, placeholder in forward.items()}
    return witness.substitute(backward)


def orbit_transport(
    source: Instance, target: Instance
) -> Optional[Dict[Constant, Constant]]:
    """A constant renaming carrying *source* onto *target*, or ``None``
    when the two ground instances are not in the same orbit.

    This is the replay map for orbit-mode reports: a violation found
    on an orbit representative transports to any member the user cares
    about via ``source.substitute(orbit_transport(source, member))``.
    """
    source_form = ground_canonical_form(source)
    target_form = ground_canonical_form(target)
    if source_form.key() != target_form.key():
        return None
    backward = {
        placeholder: original
        for original, placeholder in target_form.forward.items()
    }
    return {
        original: backward[placeholder]
        for original, placeholder in source_form.forward.items()
    }


# -- orbit counting --------------------------------------------------------


def _coerce_domain(
    domain: Sequence[Union[str, int, Constant]]
) -> Tuple[Constant, ...]:
    return tuple(
        value if isinstance(value, Constant) else Constant(value)
        for value in domain
    )


def count_orbits(
    facts: Sequence[Atom],
    domain: Sequence[Union[str, int, Constant]],
    *,
    max_facts: int,
    include_empty: bool = True,
) -> Optional[int]:
    """The exact number of ≤*max_facts* fact-subset orbits under S_D.

    Burnside's lemma: average, over the |D|! domain permutations, the
    number of qualifying subsets each fixes — a subset is fixed by π
    exactly when it is a union of π's cycles on the fact set, counted
    with a subset-sum DP over the cycle lengths.  Returns ``None``
    when |D| is too large for the exact count to stay cheap
    (> ``_EXACT_BURNSIDE_MAX_DOMAIN``); callers fall back to the
    ``total / |D|!`` lower-bound estimate.
    """
    constants = sorted(set(_coerce_domain(domain)))
    if len(constants) > _EXACT_BURNSIDE_MAX_DOMAIN:
        return None
    sizes = range(0 if include_empty else 1, max_facts + 1)
    fixed_total = 0
    for image in permutations(constants):
        renaming = dict(zip(constants, image))
        fixed_total += _fixed_subsets(facts, renaming, sizes)
    return fixed_total // factorial(len(constants))


def orbit_count_estimate(
    facts: Sequence[Atom],
    domain: Sequence[Union[str, int, Constant]],
    *,
    max_facts: int,
    include_empty: bool = True,
) -> Tuple[int, bool]:
    """``(count, exact)``: the orbit count when cheap to compute
    exactly, else the ``ceil(total / |D|!)`` lower bound."""
    exact = count_orbits(
        facts, domain, max_facts=max_facts, include_empty=include_empty
    )
    if exact is not None:
        return exact, True
    sizes = range(0 if include_empty else 1, max_facts + 1)
    total = sum(comb(len(facts), size) for size in sizes)
    group = factorial(len(set(_coerce_domain(domain))))
    return -(-total // group), False


def _fixed_subsets(
    facts: Sequence[Atom],
    renaming: Dict[Constant, Constant],
    sizes: range,
) -> int:
    """Subsets of *facts* with size in *sizes* fixed by *renaming*."""
    cycle_lengths = _fact_cycle_lengths(facts, renaming)
    max_size = sizes.stop - 1
    ways = [0] * (max_size + 1)
    ways[0] = 1
    for length in cycle_lengths:
        if length > max_size:
            continue
        for total in range(max_size, length - 1, -1):
            ways[total] += ways[total - length]
    return sum(ways[size] for size in sizes)


def _fact_cycle_lengths(
    facts: Sequence[Atom], renaming: Dict[Constant, Constant]
) -> List[int]:
    """Cycle lengths of the renaming's action on the fact set."""
    index = {fact: position for position, fact in enumerate(facts)}
    seen = [False] * len(facts)
    lengths: List[int] = []
    for start, fact in enumerate(facts):
        if seen[start]:
            continue
        length = 0
        position = start
        while not seen[position]:
            seen[position] = True
            length += 1
            moved = facts[position].substitute(renaming)
            position = index[moved]
        lengths.append(length)
    return lengths


# -- orbit reduction of existing universes --------------------------------


@dataclass(frozen=True)
class OrbitClass:
    """One orbit of a swept universe.

    ``representative`` is the first universe member of the orbit in
    universe order (a concrete, replayable instance); ``weight`` the
    number of universe members it stands for; ``forward`` the
    canonical renaming of the representative, kept so violations can
    be transported onto any other member via
    :func:`decanonicalize` / :func:`orbit_transport`.
    """

    representative: Instance
    weight: int
    forward: Dict[Constant, Constant]


def orbit_reduce(
    universe: Sequence[Instance],
) -> Optional[List[OrbitClass]]:
    """Partition *universe* into domain-permutation orbits.

    Returns one :class:`OrbitClass` per orbit, ordered by the first
    occurrence of each orbit in the universe — or ``None`` when the
    reduction would be unsound for this universe:

    * an instance is not ground (permutations act on constants), or
    * the universe is not closed under permutations of its constant
      pool — detected exactly, by comparing each orbit's member count
      against the group-theoretic orbit size |D|!/|Stab|.
    """
    domain: set = set()
    for instance in universe:
        if not instance.is_ground():
            return None
        domain.update(instance.constants())
    domain_size = len(domain)
    classes: "Dict[FrozenSet[Atom], List[Any]]" = {}
    order: List[FrozenSet[Atom]] = []
    for instance in universe:
        form = ground_canonical_form(instance)
        key = form.key()
        entry = classes.get(key)
        if entry is None:
            classes[key] = [instance, 1, form]
            order.append(key)
        else:
            entry[1] += 1
    reduced: List[OrbitClass] = []
    for key in order:
        representative, weight, form = classes[key]
        if weight != form.orbit_size(domain_size):
            return None  # not closed under S_D: reduction unsound
        reduced.append(
            OrbitClass(representative, weight, dict(form.forward))
        )
    return reduced


# -- sweep planning --------------------------------------------------------


@dataclass(frozen=True)
class SweepPlan:
    """How one sweep iterates its universe.

    In ``orbits`` mode with every participant permutation-invariant
    and a closed universe, ``outer`` holds one representative per
    orbit and ``weights`` the orbit sizes; otherwise ``outer`` is the
    full universe and ``weights`` is ``None``.  ``mode`` records the
    *effective* mode (an unsound reduction falls back to ``"full"``),
    which is what checkpoint keys incorporate; ``ground_keys`` enables
    constant-canonical cache keys, sound whenever the mappings qualify
    even if the universe itself resisted reduction.
    """

    mode: str
    outer: List[Instance]
    weights: Optional[List[int]]
    ground_keys: bool

    @property
    def reduced(self) -> bool:
        return self.weights is not None

    def weight_of(self, position: int) -> int:
        return self.weights[position] if self.weights is not None else 1

    def covered_upto(self, position: int) -> int:
        """Universe instances represented by the first *position* items."""
        if self.weights is None:
            return position
        return sum(self.weights[:position])

    def shard_positions(self, shards: int, shard_id: int) -> List[int]:
        """The positions of the outer items owned by *shard_id* (see
        :func:`shard_of_instance`), ascending.  Every outer item belongs
        to exactly one shard, so the shard sweeps partition the
        unsharded one and merge back to it exactly."""
        if not 0 <= shard_id < shards:
            raise ValueError(
                f"shard_id must be in [0, {shards}), got {shard_id}"
            )
        return [
            position
            for position, instance in enumerate(self.outer)
            if shard_of_instance(instance, shards) == shard_id
        ]

    def shard(self, shards: int, shard_id: int) -> "SweepPlan":
        """The sub-plan of the outer items owned by *shard_id*, in
        their relative order (see :meth:`shard_positions`)."""
        keep = self.shard_positions(shards, shard_id)
        return SweepPlan(
            self.mode,
            [self.outer[position] for position in keep],
            (
                [self.weights[position] for position in keep]
                if self.weights is not None
                else None
            ),
            self.ground_keys,
        )


def plan_sweep(
    symmetry: Optional[str],
    universe: Sequence[Instance],
    *,
    mappings: Sequence[Any] = (),
    extra_invariant: bool = True,
) -> SweepPlan:
    """Resolve the symmetry mode and reduce *universe* to orbit
    representatives when that is sound (see the module docstring for
    the soundness conditions).

    *mappings* are checked with :func:`mapping_permutation_invariant`;
    *extra_invariant* lets callers veto the reduction for other
    participants (e.g. a custom equivalence relation that is not known
    to be permutation-invariant).
    """
    mode = resolve_symmetry(symmetry)
    if mode != SYMMETRY_ORBITS:
        return SweepPlan(SYMMETRY_FULL, list(universe), None, False)
    invariant = extra_invariant and all(
        mapping_permutation_invariant(mapping) for mapping in mappings
    )
    if not invariant:
        return SweepPlan(SYMMETRY_FULL, list(universe), None, False)
    classes = orbit_reduce(universe)
    if classes is None:
        # Not ground or not permutation-closed: sweep in full, but the
        # constant-canonical cache keys remain sound for these mappings.
        return SweepPlan(SYMMETRY_FULL, list(universe), None, True)
    return SweepPlan(
        SYMMETRY_ORBITS,
        [cls.representative for cls in classes],
        [cls.weight for cls in classes],
        True,
    )


# -- sharded orbit enumeration ---------------------------------------------
#
# Independent workers — processes today, machines tomorrow — claim
# disjoint ranges of the canonical-form space by digest prefix: the
# shard of an instance is derived from its canonical form, so every
# member of a domain-permutation orbit lands in the same shard and a
# shard is a self-contained sub-sweep.  The partition depends only on
# instance *content*, never on enumeration order or process state, so
# every worker agrees on who owns what without coordination.


def shard_of_facts(facts: FrozenSet[Atom], shards: int) -> int:
    """The shard owning a (canonical) fact set: the leading 8 bytes of
    the fact set's content digest, reduced mod *shards*.  Stable
    across processes and runs."""
    encoded = "\x1e".join(
        sorted(repr(fact.sort_key()) for fact in facts)
    )
    digest = hashlib.sha1(encoded.encode()).digest()
    return int.from_bytes(digest[:8], "big") % shards


def shard_of_instance(instance: Instance, shards: int) -> int:
    """The shard owning *instance*.

    Ground instances shard by their canonical form under domain
    permutation, so an orbit never straddles shards (and the shard of
    an orbit representative equals the shard of every member);
    non-ground instances shard by their exact fact set.
    """
    if shards <= 1:
        return 0
    if instance.is_ground():
        return shard_of_facts(ground_canonical_form(instance).key(), shards)
    return shard_of_facts(instance.facts, shards)


def default_shards() -> Tuple[int, Optional[int]]:
    """The engine-wide sharding: ``(REPRO_SHARDS, REPRO_SHARD_ID)``, or
    the CLI's ``--shards`` / ``--shard-id``, defaulting to ``(1,
    None)`` — sharding is opt-in."""
    return CONTEXT.shards, CONTEXT.shard_id


def resolve_shards(
    shards: Optional[int], shard_id: Optional[int]
) -> Tuple[int, Optional[int]]:
    """Explicit sharding arguments, else the engine-wide defaults.

    Returns ``(shards, shard_id)`` with ``shards >= 1``; ``shard_id``
    is ``None`` when this process should run (or claim) every shard
    itself, or a fixed shard index in ``[0, shards)``.
    """
    if shards is None:
        shards, default_id = default_shards()
        if shard_id is None:
            shard_id = default_id
    shards = max(1, int(shards))
    if shard_id is not None and not 0 <= shard_id < shards:
        raise ValueError(
            f"shard_id must be in [0, {shards}), got {shard_id}"
        )
    return shards, shard_id


# -- ambient ground-cache-key flag ----------------------------------------


def ground_keys_active() -> bool:
    """Should the memo caches key ground instances by their canonical
    form under constant permutation?  Set by orbit-mode sweeps on the
    sweeping thread (a field of the engine context, which pool workers
    inherit).  Sound whenever every mapping involved passes
    :func:`mapping_permutation_invariant` — the caches re-check that
    per call."""
    return CONTEXT.ground_keys


__all__ = [
    "GroundCanonicalForm",
    "OrbitClass",
    "SYMMETRY_FULL",
    "SYMMETRY_MODES",
    "SYMMETRY_ORBITS",
    "count_orbits",
    "decanonicalize",
    "default_shards",
    "default_symmetry",
    "ground_canonical_form",
    "ground_keys_active",
    "ground_pair_key",
    "mapping_permutation_invariant",
    "orbit_count_estimate",
    "orbit_reduce",
    "orbit_transport",
    "plan_sweep",
    "resolve_shards",
    "resolve_symmetry",
    "shard_of_facts",
    "shard_of_instance",
    "SweepPlan",
]
