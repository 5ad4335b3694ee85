"""Scaling: composition machinery.

* skolemized composition + direct evaluation vs the two-step exchange
  (the composed rules amortize the middle instance away);
* exact composition membership vs source size for a full pipeline.
"""

import pytest

from repro.catalog import thm_4_8
from repro.core.mapping import SchemaMapping
from repro.core.skolem import compose_skolem, skolem_exchange
from repro.datamodel.schemas import Schema
from repro.dataexchange.exchange import exchange
from repro.workloads import random_ground_instance


def _pipeline():
    first = thm_4_8()
    second = SchemaMapping.from_text(
        first.target,
        Schema.of({"W": 2}),
        "Q(u, v) & Q(v, w) -> W(u, w)",
    )
    return first, second


@pytest.mark.parametrize("n_facts", [8, 32, 128])
def test_composed_evaluation(benchmark, n_facts):
    first, second = _pipeline()
    composed = compose_skolem(first, second)
    source = random_ground_instance(
        first.source, seed=9, n_facts=n_facts, domain_size=max(4, n_facts // 2)
    )
    result = benchmark(skolem_exchange, composed, source)
    assert result


@pytest.mark.parametrize("n_facts", [8, 32, 128])
def test_two_step_evaluation(benchmark, n_facts):
    first, second = _pipeline()
    source = random_ground_instance(
        first.source, seed=9, n_facts=n_facts, domain_size=max(4, n_facts // 2)
    )

    def run():
        middle = exchange(first, source)
        return exchange(second, middle)

    result = benchmark(run)
    assert result


def test_compose_skolem_construction(benchmark):
    first, second = _pipeline()
    composed = benchmark(compose_skolem, first, second)
    assert composed.rules
