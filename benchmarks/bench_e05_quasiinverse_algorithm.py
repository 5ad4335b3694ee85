"""Benchmark E5 — Theorem 4.1 / Example 4.5: the QuasiInverse
algorithm trace, plus the proof-based-vs-exhaustive MinGen contrast
that shows why the backward-chaining search is the default."""

from benchmarks.conftest import run_and_verify
from repro.catalog import example_4_5
from repro.core import MinGenConfig, minimal_generators, quasi_inverse
from repro.core.generators import minimal_generators_exhaustive


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
    """The paper's verbatim Algorithm MinGen on sigma_1's goal (the
    exhaustive oracle; orders of magnitude slower than the proof-based
    search on larger goals, so only the 2-atom goal is timed)."""
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
