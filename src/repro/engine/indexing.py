"""Fact indexes for homomorphism search.

The backtracking join in :mod:`repro.chase.homomorphism` repeatedly
asks "which facts of relation R could the pattern atom match, given
the terms bound so far?".  The per-relation tuple on
:class:`~repro.datamodel.instances.Instance` answers that with a
linear scan; a :class:`FactIndex` answers it with a hash probe on the
most selective ``(relation, position, term)`` posting list.

Indexes are built lazily, once per fact set, and shared through the
``index`` tier of the engine's memo caches (:data:`index_cache`, keyed
by :func:`~repro.engine.cache.exact_key`), so that repeated probes
against the same target (the normal shape of a chase or a bounded
checker) pay the build cost once, and so do the copies of an instance
that checkpoint replay, worker round-trips and orbit translation make.
Sharing is sound because posting lists and the relation-extent
fallback are functions of the (sorted) fact set alone — candidate
order is identical for every copy.  Like every tier, it follows
``--cache-size`` and :func:`~repro.engine.cache.reset_all_caches`.
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

from typing import Dict, Mapping, Optional, Tuple

from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Term
from repro.engine.cache import MemoCache, exact_key

PostingKey = Tuple[str, int, Term]


class FactIndex:
    """An inverted index over one instance's facts.

    ``postings[(relation, position, term)]`` lists, in sorted fact
    order, every fact of *relation* whose argument at *position* is
    *term*.
    """

    __slots__ = ("instance", "postings")

    def __init__(self, instance: Instance) -> None:
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


#: One entry per fact set.  E5 alone builds about 20,500 indexes in one
#: cold run, so a smaller default would rebuild them through eviction.
#: Each entry holds the instance that built it (the relation-extent
#: fallback reads it), so the bound also caps the instances kept alive.
index_cache = MemoCache("index", maxsize=65_536)


def fact_index(instance: Instance) -> FactIndex:
    """The (memoized) :class:`FactIndex` for *instance*."""
    key = exact_key(instance)
    hit, index = index_cache.get(key)
    if not hit:
        index = FactIndex(instance)
        index_cache.put(key, index)
    return index
