"""Every named schema mapping in the paper, ready-made.

The constructors build fresh objects; :func:`catalog_by_name` and
:func:`named_mappings` resolve names to the one shared, immutable
mapping per name that each process holds (see
:mod:`repro.catalog.mappings`).
"""

from repro.catalog.mappings import (
    decomposition,
    decomposition_quasi_inverse_join,
    decomposition_quasi_inverse_split,
    example_3_10_witnesses,
    example_4_5,
    example_4_5_expected_sigma1_prime,
    example_4_5_expected_sigma2_prime,
    example_5_4,
    example_5_4_expected_inverse,
    figure_1_instance,
    projection,
    projection_quasi_inverse,
    prop_3_12,
    thm_4_8,
    thm_4_8_inverse,
    thm_4_9,
    thm_4_10,
    thm_4_11,
    union_mapping,
    union_quasi_inverse,
    unique_solutions_separation,
    unique_solutions_separation_witnesses,
    all_catalog_mappings,
    catalog_by_name,
    named_mappings,
)

__all__ = [
    "all_catalog_mappings",
    "catalog_by_name",
    "decomposition",
    "decomposition_quasi_inverse_join",
    "decomposition_quasi_inverse_split",
    "example_3_10_witnesses",
    "example_4_5",
    "example_4_5_expected_sigma1_prime",
    "example_4_5_expected_sigma2_prime",
    "example_5_4",
    "example_5_4_expected_inverse",
    "figure_1_instance",
    "named_mappings",
    "projection",
    "projection_quasi_inverse",
    "prop_3_12",
    "thm_4_8",
    "thm_4_8_inverse",
    "thm_4_9",
    "thm_4_10",
    "thm_4_11",
    "union_mapping",
    "union_quasi_inverse",
    "unique_solutions_separation",
    "unique_solutions_separation_witnesses",
]
