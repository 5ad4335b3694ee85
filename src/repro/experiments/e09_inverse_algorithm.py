"""E9 — Theorem 5.1 / Example 5.4: the Inverse algorithm trace.

* the algorithm emits exactly the paper's dependencies (1) and (2) on
  Example 5.4 (one per prime instance of the binary R);
* the output is an inverse, verified over a bounded universe with the
  exact composition-membership procedure;
* the weakest-inverse property: a strictly stronger hand-written
  inverse logically implies the algorithm's output but not vice versa.
"""

from __future__ import annotations

from repro.catalog import example_5_4, example_5_4_expected_inverse
from repro.core import (
    SchemaMapping,
    inverse,
    is_inverse,
    logically_implies,
)
from repro.experiments.base import ExperimentReport, ReportBuilder
from repro.workloads import instance_universe


def run() -> ExperimentReport:
    report = ReportBuilder("E9", "The Inverse algorithm", "Thm 5.1 / Example 5.4")
    mapping = example_5_4()
    computed = inverse(mapping)

    expected_equal, expected_distinct = example_5_4_expected_inverse()
    keys = {dep.canonical_form() for dep in computed.dependencies}
    report.check(
        "output is exactly the paper's ω(Σ, I_{R(x1,x1)}) — dependency (1)",
        expected_equal.canonical_form() in keys,
    )
    report.check(
        "output is exactly the paper's ω(Σ, I_{R(x1,x2)}) — dependency (2)",
        expected_distinct.canonical_form() in keys,
    )
    report.check(
        "one dependency per prime instance of R (two in total)",
        len(computed.dependencies) == 2,
    )

    universe = instance_universe(mapping.source, ["a", "b"], max_facts=2)
    verdict = is_inverse(mapping, computed, universe)
    report.check(
        f"the output is an inverse ({len(universe)}² exact membership checks)",
        verdict.holds,
    )

    # A strictly stronger inverse: fire on S alone, ignoring Q and U.
    stronger = SchemaMapping.from_text(
        mapping.target,
        mapping.source,
        "S(x1, x2, y) & Constant(x1) & Constant(x2) -> R(x1, x2)",
        name="StrongerInverse",
    )
    report.check(
        "the stronger hand-written mapping is also an inverse",
        is_inverse(mapping, stronger, universe).holds,
    )
    report.check(
        "weakest-inverse: the stronger inverse implies the algorithm's output",
        all(
            logically_implies(stronger.dependencies, dep)
            for dep in computed.dependencies
        ),
    )
    report.check(
        "…and the implication is strict (output does not imply it back)",
        not all(
            logically_implies(computed.dependencies, dep)
            for dep in stronger.dependencies
        ),
    )
    return report.build()
