"""Fact indexes for homomorphism search.

The backtracking join in :mod:`repro.chase.homomorphism` repeatedly
asks "which facts of relation R could the pattern atom match, given
the terms bound so far?".  The per-relation tuple on
:class:`~repro.datamodel.instances.Instance` answers that with a
linear scan; a :class:`FactIndex` answers it with a hash probe on the
most selective ``(relation, position, term)`` posting list.

Indexes are built lazily, once per instance, and shared through a
weak-keyed memo so that repeated probes against the same target (the
normal shape of a chase or a bounded checker) pay the build cost once.
A :class:`FactIndex` reads the instance's per-relation tuples, which
the instance itself builds on that first read (an instance nobody
probes never sorts its facts).  Posting lists preserve the sorted fact
order of the instance, so a search driven by the index visits
candidate facts in exactly the order the linear scan would — results
and result *order* are unchanged, only non-matching candidates are
skipped.

Both builds are publish-once-complete: the instance's tuples and a
:class:`FactIndex`'s postings are assembled locally and stored only
when whole, so daemon threads that probe one fresh instance at once
can at worst build the same index twice, with equal contents.
"""

from __future__ import annotations

import weakref
from typing import Dict, Mapping, Optional, Tuple

from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Term
from repro.engine.cache import register_reset_hook

PostingKey = Tuple[str, int, Term]


class FactIndex:
    """An inverted index over one instance's facts.

    ``postings[(relation, position, term)]`` lists, in sorted fact
    order, every fact of *relation* whose argument at *position* is
    *term*.
    """

    __slots__ = ("instance", "postings")

    def __init__(self, instance: Instance) -> None:
        global _BUILD_COUNT
        _BUILD_COUNT = _BUILD_COUNT + 1
        self.instance = instance
        postings: Dict[PostingKey, list] = {}
        for relation in instance.relations():
            for fact in instance.facts_for(relation):
                for position, argument in enumerate(fact.args):
                    postings.setdefault((relation, position, argument), []).append(
                        fact
                    )
        self.postings: Dict[PostingKey, Tuple[Atom, ...]] = {
            key: tuple(facts) for key, facts in postings.items()
        }

    def candidates(
        self, pattern: Atom, assignment: Mapping[Term, Term]
    ) -> Tuple[Atom, ...]:
        """Facts that could match *pattern* under *assignment*.

        Every position of *pattern* that is already determined — a
        rigid constant, or a mappable term bound by *assignment* —
        names a posting list; the shortest one is returned (the
        remaining positions are verified by the caller's match).  With
        no determined position the full relation extent is returned.
        """
        best: Optional[Tuple[Atom, ...]] = None
        for position, argument in enumerate(pattern.args):
            if isinstance(argument, Constant):
                value: Optional[Term] = argument
            else:
                value = assignment.get(argument)
            if value is None:
                continue
            posting = self.postings.get((pattern.relation, position, value), ())
            if best is None or len(posting) < len(best):
                best = posting
                if not best:
                    return ()
        if best is None:
            return self.instance.facts_for(pattern.relation)
        return best


# Two-level memo: object identity first, then the exact fact set.
# Instances get copied freely (checkpoint replay, worker round-trips,
# orbit decanonicalization), and every copy used to rebuild its index
# from scratch; the facts-keyed fallback lets copies with equal fact
# sets share one build.  Sharing is sound because posting lists and
# the relation-extent fallback are functions of the (sorted) fact set
# alone — candidate order is identical for every copy.
_INDEXES: "weakref.WeakKeyDictionary[Instance, FactIndex]" = (
    weakref.WeakKeyDictionary()
)
_INDEXES_BY_FACTS: Dict[frozenset, FactIndex] = {}
_INDEXES_BY_FACTS_MAX = 16_384

_BUILD_COUNT = 0


def index_build_count() -> int:
    """Process-lifetime count of :class:`FactIndex` constructions.

    A regression hook: tests assert that probing copies of an instance
    (equal facts, distinct objects) does not grow this counter."""
    return _BUILD_COUNT


def _clear_index_memos() -> None:
    _INDEXES.clear()
    _INDEXES_BY_FACTS.clear()


register_reset_hook(_clear_index_memos)


def fact_index(instance: Instance) -> FactIndex:
    """The (memoized) :class:`FactIndex` for *instance*."""
    index = _INDEXES.get(instance)
    if index is not None:
        return index
    index = _INDEXES_BY_FACTS.get(instance.facts)
    if index is None:
        index = FactIndex(instance)
        if len(_INDEXES_BY_FACTS) >= _INDEXES_BY_FACTS_MAX:
            _INDEXES_BY_FACTS.clear()
        _INDEXES_BY_FACTS[instance.facts] = index
    _INDEXES[instance] = index
    return index
