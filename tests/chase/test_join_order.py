"""The memoized join order of the object backend's homomorphism search.

``_order_atoms`` memoizes ``_greedy_order`` per (atoms, pre-bound
terms, per-atom relation extents).  The greedy order reads nothing
else, so every lookup, hit or miss, must return what the uncached
greedy computes for that target: the differential property below
draws atoms, bound sets and pairs of targets whose extents are equal
or differ, and runs against the memo as earlier examples left it.
"""

import random
import sys
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.chase.homomorphism as homomorphism
from repro.chase.homomorphism import _greedy_order, _order_atoms
from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Constant, Null, Variable
from repro.engine import reset_all_caches

ARITIES = {"R": 1, "S": 2, "T": 2, "U": 3}
TERMS = (
    [Variable(name) for name in ("x", "y", "z", "w")]
    + [Null("n1"), Null("n2")]
    + [Constant("a"), Constant("b")]
)
MAPPABLE = [term for term in TERMS if not isinstance(term, Constant)]

atoms_strategy = st.lists(
    st.sampled_from(sorted(ARITIES)).flatmap(
        lambda relation: st.tuples(
            *[st.sampled_from(TERMS)] * ARITIES[relation]
        ).map(lambda args, relation=relation: Atom(relation, args))
    ),
    min_size=1,
    max_size=5,
)
bound_strategy = st.sets(st.sampled_from(MAPPABLE), max_size=3)
counts_strategy = st.fixed_dictionaries(
    {relation: st.integers(min_value=0, max_value=3) for relation in ARITIES}
)


def target(counts, tag):
    """An instance with ``counts[relation]`` facts per relation."""
    return Instance.build(
        {
            relation: [
                tuple(f"{tag}{row}_{position}" for position in range(ARITIES[relation]))
                for row in range(count)
            ]
            for relation, count in counts.items()
        }
    )


@settings(max_examples=300, deadline=None)
@given(
    atoms=atoms_strategy,
    bound=bound_strategy,
    counts=counts_strategy,
    other_counts=counts_strategy,
    same_extents=st.booleans(),
)
def test_memoized_order_is_the_greedy_order(
    atoms, bound, counts, other_counts, same_extents
):
    first = target(counts, "a")
    second = target(counts if same_extents else other_counts, "b")
    for instance, pre_bound in (
        (first, bound),
        (second, bound),
        (first, set()),
        (first, bound),
    ):
        assert _order_atoms(atoms, instance, pre_bound) == _greedy_order(
            atoms, instance, pre_bound
        )


def test_reset_all_caches_empties_the_memo():
    atoms = [Atom("S", (Variable("x"), Variable("y")))]
    _order_atoms(atoms, target({"S": 2}, "a"), set())
    assert homomorphism._ORDERS
    reset_all_caches()
    assert not homomorphism._ORDERS


def test_a_repeated_search_reuses_its_join_order(monkeypatch):
    # a second search over a target with the same extents, the same
    # instance or another one, computes no order
    computed = []

    def counting(atoms, instance, bound):
        computed.append(atoms)
        return _greedy_order(atoms, instance, bound)

    monkeypatch.setattr(homomorphism, "_greedy_order", counting)
    reset_all_caches()
    source = Instance.build({"S": [("a", Null("n"))], "R": [(Null("n"),)]})
    first = target({"S": 2, "R": 1}, "a")
    homomorphism.instance_homomorphism(source, first)
    homomorphism.instance_homomorphism(source, first)
    homomorphism.instance_homomorphism(source, target({"S": 2, "R": 1}, "b"))
    assert len(computed) == 1
    homomorphism.instance_homomorphism(source, target({"S": 3, "R": 1}, "a"))
    assert len(computed) == 2


def test_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(homomorphism, "_ORDERS_MAX", 3)
    atoms = [Atom("S", (Variable("x"), Variable("y"))), Atom("R", (Variable("y"),))]
    for count in range(10):
        _order_atoms(atoms, target({"S": count, "R": 1}, "a"), set())
        assert len(homomorphism._ORDERS) <= 3


def _stress_cases(seed=7, count=24):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        atoms = []
        for _ in range(rng.randint(2, 4)):
            relation = rng.choice(sorted(ARITIES))
            atoms.append(
                Atom(
                    relation,
                    tuple(rng.choice(TERMS) for _ in range(ARITIES[relation])),
                )
            )
        instance = target(
            {relation: rng.randint(0, 3) for relation in ARITIES}, "a"
        )
        bound = set(rng.sample(MAPPABLE, rng.randint(0, 2)))
        cases.append((atoms, instance, bound, _greedy_order(atoms, instance, bound)))
    return cases


def test_concurrent_lookups_get_the_greedy_order(monkeypatch):
    # Daemon jobs search from several threads at once; a small bound
    # makes the memo clear itself while other threads read and fill it.
    monkeypatch.setattr(homomorphism, "_ORDERS_MAX", 5)
    cases = _stress_cases()
    threads = 8
    start = threading.Barrier(threads, timeout=10)
    wrong = []

    def look_up(offset):
        start.wait()
        deadline = time.monotonic() + 2.0
        for step in range(5_000):
            if time.monotonic() > deadline:
                break
            atoms, instance, bound, expected = cases[(offset + step) % len(cases)]
            if _order_atoms(atoms, instance, bound) != expected:
                wrong.append((offset, step))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=look_up, args=(offset,))
            for offset in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert wrong == []
