"""QuasiInverse, LAV quasi-inverse and Inverse outputs are memoized by
exact input in the engine's derived-mapping tier."""

import importlib
import sys
import threading
import time

import pytest

from repro.catalog import decomposition, projection
from repro.core.generators import MinGenConfig
from repro.core.inverse import InverseError, inverse
from repro.core.mapping import MappingError, SchemaMapping
from repro.core.quasi_inverse import lav_quasi_inverse, quasi_inverse
from repro.datamodel.schemas import Schema
from repro.engine import Budget, reset_all_caches, resize_caches, use_budget
from repro.engine.cache import derived_cache
from repro.errors import BudgetExceeded, ChaseError, MinGenBudgetError
from repro.workloads import random_lav_mapping

DERIVATIONS = (quasi_inverse, lav_quasi_inverse, inverse)

# repro.core re-exports the functions under their modules' names.
inverse_module = importlib.import_module("repro.core.inverse")
quasi_inverse_module = importlib.import_module("repro.core.quasi_inverse")

_SOURCE = Schema.of({"P": 3})
_TARGET = Schema.of({"Q": 2, "R": 2})
_BASE = SchemaMapping.from_text(
    _SOURCE, _TARGET, "P(x, y, z) -> Q(x, y) & R(y, z)", name="M"
)

#: Twins of _BASE that differ from it in one respect each: mapping_key
#: conflates every one of them with _BASE.
TWINS = {
    "renamed variables": SchemaMapping.from_text(
        _SOURCE, _TARGET, "P(u, v, w) -> Q(u, v) & R(v, w)", name="M"
    ),
    "renamed mapping": SchemaMapping(
        _SOURCE, _TARGET, _BASE.dependencies, name="N"
    ),
    "unused source relation": SchemaMapping(
        _SOURCE.augment("Z", 1), _TARGET, _BASE.dependencies, name="M"
    ),
}


def _outcome(derive, mapping):
    """Everything a caller can see of one derivation: the output's
    text, name and schemas, or the error it raised."""
    try:
        derived = derive(mapping)
    except MappingError as error:
        return type(error).__name__
    return str(derived), derived.source, derived.target, derived.dependencies


def _entries():
    return derived_cache.stats().size


class TestMemoized:
    @pytest.mark.parametrize("derive", DERIVATIONS, ids=lambda d: d.__name__)
    def test_a_repeat_returns_the_first_output(self, derive):
        reset_all_caches()
        first = derive(decomposition())
        assert derive(decomposition()) is first
        assert derived_cache.hits == 1 and _entries() == 1

    def test_a_repeat_runs_no_mingen(self, monkeypatch):
        module = quasi_inverse_module
        calls = []
        real = module.minimal_generators

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "minimal_generators", counting)
        reset_all_caches()
        quasi_inverse(decomposition())
        cold = len(calls)
        quasi_inverse(decomposition())
        assert cold > 0 and len(calls) == cold

    def test_options_are_part_of_the_key(self):
        reset_all_caches()
        pruned = quasi_inverse(decomposition())
        unpruned = quasi_inverse(decomposition(), prune_implied=False)
        renamed = quasi_inverse(decomposition(), name="QI")
        assert len({id(pruned), id(unpruned), id(renamed)}) == 3
        assert renamed.name == "QI" and pruned.name == "QuasiInverse(Decomposition)"

    def test_reset_and_cache_size_reach_the_tier(self):
        reset_all_caches()
        first = inverse(decomposition())
        reset_all_caches()
        assert _entries() == 0
        assert inverse(decomposition()) is not first
        previous = resize_caches(1)
        try:
            inverse(decomposition())
            quasi_inverse(decomposition())
            assert _entries() == 1 and derived_cache.evictions >= 1
        finally:
            resize_caches(previous)


class TestExactKeys:
    @pytest.mark.parametrize("twin", sorted(TWINS))
    @pytest.mark.parametrize("derive", DERIVATIONS, ids=lambda d: d.__name__)
    def test_a_twin_gets_its_own_output(self, derive, twin):
        reset_all_caches()
        _outcome(derive, _BASE)
        warm = _outcome(derive, TWINS[twin])
        reset_all_caches()
        assert warm == _outcome(derive, TWINS[twin])

    @pytest.mark.parametrize("twin", sorted(TWINS))
    def test_the_twins_do_derive_differently(self, twin):
        # Without an exact key the test above would pass vacuously.
        reset_all_caches()
        assert _outcome(quasi_inverse, TWINS[twin]) != _outcome(
            quasi_inverse, _BASE
        )

    def test_an_unused_source_relation_fails_inverse_after_a_cached_twin(self):
        reset_all_caches()
        inverse(_BASE)
        with pytest.raises(InverseError):
            inverse(TWINS["unused source relation"])


class TestErrorsAreNotCached:
    def test_an_inverse_error_raises_every_time(self):
        reset_all_caches()
        for _ in range(2):
            with pytest.raises(InverseError):
                inverse(projection())
        assert _entries() == 0

    def test_a_mingen_budget_trip_raises_every_time(self):
        reset_all_caches()
        tight = MinGenConfig(max_candidates=0)
        for _ in range(2):
            with pytest.raises(MinGenBudgetError):
                quasi_inverse(decomposition(), mingen_config=tight)
        assert _entries() == 0

    @pytest.mark.parametrize("derive", (inverse, lav_quasi_inverse), ids=lambda d: d.__name__)
    def test_a_chase_budget_trip_mid_derivation_caches_nothing(self, derive):
        reset_all_caches()
        with use_budget(Budget(max_chase_steps=3)):
            with pytest.raises(BudgetExceeded):
                derive(decomposition())
        assert _entries() == 0
        warm = _outcome(derive, decomposition())
        reset_all_caches()
        assert warm == _outcome(derive, decomposition())

    def test_a_chase_error_mid_derivation_caches_nothing(self, monkeypatch):
        real = inverse_module.chase
        calls = []

        def failing_third(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise ChaseError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(inverse_module, "chase", failing_third)
        reset_all_caches()
        with pytest.raises(ChaseError):
            inverse(decomposition())
        assert _entries() == 0
        warm = _outcome(inverse, decomposition())
        monkeypatch.setattr(inverse_module, "chase", real)
        reset_all_caches()
        assert warm == _outcome(inverse, decomposition())


def test_concurrent_derivations_match_a_serial_run():
    # Daemon jobs derive from several threads at once; a tier of two
    # entries evicts while other threads probe and fill it.
    def mappings():
        return [
            random_lav_mapping(seed, n_source=2, n_target=2, max_arity=2, n_tgds=3)
            for seed in range(4)
        ]

    reset_all_caches()
    expected = [
        _outcome(derive, mapping) for mapping in mappings() for derive in DERIVATIONS
    ]
    threads = 8
    start = threading.Barrier(threads, timeout=10)
    wrong = []
    rounds = []

    def derive_all(offset):
        start.wait()
        deadline = time.monotonic() + 2.0
        done = 0
        while done < 20 and time.monotonic() < deadline:
            try:
                got = [
                    _outcome(derive, mapping)
                    for mapping in mappings()
                    for derive in DERIVATIONS
                ]
            except Exception as error:  # a lost race surfaces here
                wrong.append((offset, repr(error)))
                break
            if got != expected:
                wrong.append((offset, "output"))
            done += 1
        rounds.append(done)

    previous_interval = sys.getswitchinterval()
    previous_size = resize_caches(2)
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=derive_all, args=(offset,))
            for offset in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(previous_interval)
        resize_caches(previous_size)
    assert wrong == []
    assert len(rounds) == threads and min(rounds) >= 1
