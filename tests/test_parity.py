"""The parity harness's tier-1 rows (``tests/parity.py``) and its self-test:
the algebra plan matrix, every bounded checker under 2–4 workers and
2–4 shards, and the symmetry benchmark's projection sweep at
|domain|=3."""

import dataclasses

import pytest

from benchmarks.bench_scale_symmetry import _projection_mapping, _universe
from repro.algebra import scenarios
from repro.algebra.expr import Compose, MappingAtom
from repro.algebra.sweeps import check_expression
from repro.catalog import named_mappings
from repro.core import framework as fw
from repro.core.mapping import universal_solution
from repro.datamodel.instances import Instance
from repro.engine import sqlbackend, use_backend
from repro.workloads import instance_universe

from tests.parity import Case, Variant, assert_parity, diff, grid, lines, params, report_text

BACKENDS = ("object", "sql")
PLANS = ("materialize", "auto")
WORKERS = grid(workers=(2, 3, 4))
SHARDS = grid(shards=(2, 3, 4))
D, QD, P, QP, E45 = map(named_mappings().get, (
    "Decomposition", "Decomposition'", "Projection", "Projection'", "Example4.5"))


def _report(name, variants, check, *args, **kwargs):
    """A case rendering ``check(*args, **kwargs)`` under each row."""
    return Case(name, lambda v: report_text(check(*args, **kwargs, **v.options())), variants)


def _check(name, variants, expr, kind, **kwargs):
    """A case rendering ``check_expression`` under each row."""
    return Case(name, lambda v: check_expression(expr, kind, **kwargs, **v.options()).render(),
                variants)


def _universe_of(mapping, domain, max_facts):
    return instance_universe(mapping.source, domain, max_facts=max_facts)


def _subset(name, variants, mapping, domain, max_facts, **options):
    relation = fw.SolutionEquivalence(mapping)
    return _report(name, variants, fw.subset_property, mapping, relation, relation,
                   _universe_of(mapping, domain, max_facts), **options)


PROJECTION_INVERSE = _check("Projection' inverse", grid(BACKENDS, plan=PLANS),
                            "Projection'", "inverse", reverse="Projection")
DEAD_BRANCH = Compose(first=MappingAtom(mapping=scenarios.fan_in_mapping(2)),
                      second=MappingAtom(mapping=scenarios.chain_join_with_dead_branch(2)))
AB2 = _universe_of(P, ("a", "b"), 2)
R2 = _projection_mapping()  # the symmetry benchmark's binary projection
R2_EQUIVALENCE = fw.SolutionEquivalence(R2)

CASES = [
    *(_check(f"width-2 dead-branch {kind}", grid(BACKENDS, (1, 2), PLANS), DEAD_BRANCH, kind)
      for kind in ("unique", "subset")),
    *(_check(f"fanin-chain {kind}", grid(plan=PLANS), scenarios.fan_in_chain_expression(3), kind)
      for kind in ("unique", "subset", "invertibility")),
    _check("dead-branch unique", grid(plan=PLANS), scenarios.dead_branch_expression(3), "unique"),
    PROJECTION_INVERSE,
    *(_check(f"{name} inverse", grid(plan=PLANS), forward, "inverse",
             reverse=reverse) for name, forward, reverse in scenarios.inverse_pairs()),
    _subset("Decomposition subset", WORKERS, D, (0, 1), 2),
    _subset("Projection subset, full scan", WORKERS, P, (0, 1), 2, stop_at_first_violation=False),
    _report("Decomposition unique solutions", WORKERS, fw.unique_solutions_property, D,
            _universe_of(D, (0, 1), 3)),
    _report("Projection' inverse of Projection", WORKERS, fw.is_inverse, P, QP,
            _universe_of(P, (0, 1), 2)),
    _report("Decomposition' quasi-inverse", WORKERS, fw.is_quasi_inverse, D, QD,
            _universe_of(D, (0, 1), 1), stop_at_first_mismatch=False),
    _subset("Projection subset, sharded", SHARDS, P, ("a", "b"), 2, stop_at_first_violation=False),
    _report("Projection' inverse, sharded", SHARDS, fw.is_inverse, P, QP, AB2,
            stop_at_first_mismatch=False),
    _report("Projection' generalized inverse, sharded", SHARDS, fw.is_generalized_inverse, P, QP,
            fw.Equality(), fw.Equality(), AB2, stop_at_first_mismatch=False),
    _subset("Projection subset, orbits, sharded", grid(shards=(3,)), P, ("a", "b"), 2,
            stop_at_first_violation=False, symmetry="orbits"),
    _report("Decomposition unique solutions, sharded", grid(shards=(3,)),
            fw.unique_solutions_property, D, _universe_of(D, ("a", "b"), 2)),
    _report("Example4.5 unique solutions, sharded", grid(shards=(2,)),
            fw.unique_solutions_property, E45, _universe_of(E45, ("a", "b"), 2)),
    _report("projection subset sweep", grid(BACKENDS, (1, 2)), fw.subset_property, R2,
            R2_EQUIVALENCE, R2_EQUIVALENCE, _universe(R2, 3), stop_at_first_violation=False,
            symmetry="orbits"),
]


@pytest.mark.parametrize("case, row", params(CASES))
def test_row_matches_the_oracle(case, row):
    assert_parity(case, [row])


def test_algebra_reports_embed_the_verdict():
    # the algebra rows are not vacuously identical: a report carries
    # the verdict and the universe size
    expr = Compose(first=MappingAtom(mapping=scenarios.fan_in_mapping(2)),
                   second=MappingAtom(mapping=scenarios.chain_join_mapping(2)))
    report = check_expression(expr, "unique", plan="auto").render()
    assert "unique solutions" in report
    assert f"{len(_universe_of(expr, ('a', 'b'), 1))} instances" in report


class TestHarness:
    """The harness fails exactly where a backend diverges, and a row
    that does not run where it says fails its evidence."""

    SOURCE = Instance.build({"P": [("a", "b", "c"), ("a", "c", "c")]})

    def _chase(self, variants, on_the_row=True):
        def run(variant):
            with use_backend(variant.backend if on_the_row else "object"):
                return lines(universal_solution(D, self.SOURCE).sorted_facts())

        return Case("Decomposition chase", run, variants)

    def test_identical_rows_pass(self):
        assert diff(self._chase(grid(BACKENDS))) == []

    def test_a_dropped_chase_fact_names_that_case_and_row(self, monkeypatch):
        chase_in_sql = sqlbackend.sql_stratified_chase

        def dropping(instance, dependencies, **options):
            result = chase_in_sql(instance, dependencies, **options)
            kept = result.instance.sorted_facts()[:-1]
            return type(result)(Instance(frozenset(kept)), result.produced, result.steps)

        monkeypatch.setattr(sqlbackend, "sql_stratified_chase", dropping)
        # the object rows of a case that chases without SQL stay clean
        in_memory = dataclasses.replace(PROJECTION_INVERSE, variants=grid(plan=PLANS))
        found = [row for case in (self._chase(grid(BACKENDS)), in_memory)
                 for row in diff(case)]
        assert [variant for variant, _ in found] == [Variant(backend="sql")]
        assert found[0][1].startswith("Decomposition chase under backend=sql workers=1 shards=1:")

    def test_a_row_that_ignores_its_backend_fails_its_evidence(self):
        with pytest.raises(AssertionError, match="chased nothing in SQLite"):
            diff(self._chase(grid(BACKENDS), on_the_row=False))
