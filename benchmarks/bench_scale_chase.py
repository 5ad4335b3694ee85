"""Scaling: standard chase throughput vs source instance size.

The chase of a LAV/decomposition-style mapping is near-linear in the
number of source facts; the sweep makes the growth curve visible in
the benchmark report (compare the n=… groups).  The chain case runs
the sql backend's chase on inputs above its threshold, so the SQLite
path (lowering, seeding, set-based rounds) is timed too."""

import pytest

from benchmarks.conftest import scale_params

from repro.catalog import decomposition, example_4_5
from repro.chase.standard import chase
from repro.datamodel.instances import Instance
from repro.dependencies.parser import parse_dependency
from repro.engine import engine_stats, use_backend
from repro.engine.sqlbackend import sql_min_facts
from repro.workloads import random_ground_instance


@pytest.mark.parametrize("n_facts", scale_params([8, 32, 128], [8, 32]))
def test_chase_decomposition(benchmark, n_facts):
    mapping = decomposition()
    source = random_ground_instance(
        mapping.source, seed=1, n_facts=n_facts, domain_size=max(4, n_facts // 2)
    )
    result = benchmark(chase, source, mapping.dependencies)
    assert len(result.produced) >= 1


@pytest.mark.parametrize("n_facts", scale_params([8, 32, 128], [8, 32]))
def test_chase_example_4_5(benchmark, n_facts):
    mapping = example_4_5()
    source = random_ground_instance(
        mapping.source, seed=1, n_facts=n_facts, domain_size=max(4, n_facts // 2)
    )
    result = benchmark(chase, source, mapping.dependencies)
    assert len(result.instance) >= n_facts


@pytest.mark.parametrize(
    "chains, length", scale_params([(20, 50), (100, 100)], [(20, 50)])
)
def test_chase_chain_sql(benchmark, chains, length):
    """Disjoint E chains chased to their F closure on the sql backend:
    the fixpoint holds 3nL - n facts for n chains of L edges."""
    dependencies = (
        parse_dependency("E(x, y) -> F(x, y)"),
        parse_dependency("E(x, y) & E(y, z) -> F(x, z)"),
    )
    rows = [
        (f"v{c}_{i}", f"v{c}_{i + 1}") for c in range(chains) for i in range(length)
    ]
    source = Instance.build({"E": rows})
    assert len(source) >= sql_min_facts()

    def chase_in_sql():
        with use_backend("sql"):
            return chase(source, dependencies, trace=False, max_steps=1_000_000)

    rounds = engine_stats().counter("sql_chase_rounds")
    result = benchmark(chase_in_sql)
    assert len(result.instance) == 3 * chains * length - chains
    # SQL rounds ran: the chase did not fall back to the interpreted loop
    assert engine_stats().counter("sql_chase_rounds") > rounds
