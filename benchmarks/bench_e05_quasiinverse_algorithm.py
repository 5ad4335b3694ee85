"""Benchmark E5 — Theorem 4.1 / Example 4.5: the QuasiInverse
algorithm trace, plus the proof-based-vs-exhaustive MinGen contrast
that shows why the backward-chaining search is the default.

``test_exhaustive_search_matches_the_chase_based_reference`` is a
plain test, not a benchmark: the two exhaustive searches too slow for
tier-1 (Prop 3.12's goal E(x,z) ∧ E(z,y) takes tens of seconds on the
reference) compared against ``tests/core/generators_oracle.py``.  Run
it without ``--benchmark-only``, which would skip it.
"""

import pytest

from benchmarks.conftest import run_and_verify
from repro.catalog import decomposition, example_4_5, prop_3_12
from repro.core import MinGenConfig, minimal_generators, quasi_inverse
from repro.core.generators import minimal_generators_exhaustive
from tests.core import generators_oracle as reference


def test_e05_quasiinverse_algorithm(benchmark):
    report = run_and_verify(benchmark, "E5")
    assert len(report.checks) == 10


def test_e05_quasi_inverse_of_example_4_5(benchmark):
    reverse = benchmark(quasi_inverse, example_4_5())
    assert len(reverse.dependencies) == 7


def test_e05_mingen_proofs(benchmark):
    mapping = example_4_5()
    sigma = mapping.dependencies[1]  # the three-atom U-conclusion

    def run():
        return minimal_generators(mapping, sigma.disjuncts[0], sigma.frontier())

    generators = benchmark(run)
    assert generators


def test_e05_mingen_exhaustive_two_atom_goal(benchmark):
    """The paper's Algorithm MinGen on sigma_1's goal (the exhaustive
    oracle: the paper's candidates and Step 3, with Step 2 evaluated
    from memoized firings; orders of magnitude slower than the
    proof-based search on larger goals, so only the 2-atom goal is
    timed)."""
    mapping = example_4_5()
    sigma = mapping.dependencies[0]

    def run():
        return minimal_generators_exhaustive(
            mapping,
            sigma.disjuncts[0],
            sigma.frontier(),
            MinGenConfig(method="exhaustive"),
        )

    generators = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(generators) == 3


@pytest.mark.parametrize("factory", [prop_3_12, decomposition])
def test_exhaustive_search_matches_the_chase_based_reference(factory):
    mapping = factory()
    sigma = mapping.dependencies[0]
    goal, frontier = sigma.disjuncts[0], sigma.frontier()
    assert minimal_generators_exhaustive(
        mapping, goal, frontier
    ) == reference.minimal_generators_exhaustive(mapping, goal, frontier)
