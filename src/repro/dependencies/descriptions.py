"""Complete descriptions and the Sigma* construction (Section 4).

A *complete description* delta(x) over a variable vector x is a
consistent conjunction of equalities and inequalities that completely
determines which variables coincide — i.e., a set partition of x.
For each tgd sigma and each complete description delta of the
variables shared by its two sides, ``f(sigma, delta)`` replaces every
variable by the representative of its equivalence class;
``Sigma* = Sigma ∪ { f(sigma, delta) }`` is logically equivalent to
Sigma and is the starting point of the QuasiInverse algorithm.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.datamodel.terms import Variable
from repro.dependencies.dependency import Dependency


def set_partitions(items: Sequence) -> Iterator[Tuple[Tuple, ...]]:
    """All set partitions of *items*, as tuples of blocks.

    Blocks preserve the input order of their elements and the first
    elements of the blocks appear in input order, so the enumeration
    is deterministic.  The number of partitions of n items is the
    n-th Bell number.
    """
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        blocks = [tuple(block) for block in partition]
        # Put `first` in its own block (kept in front to preserve order).
        yield tuple([(first,)] + blocks)
        # Or merge `first` into each existing block.
        for index in range(len(blocks)):
            merged = list(blocks)
            merged[index] = (first,) + merged[index]
            yield tuple(merged)


def complete_descriptions(
    variables: Sequence[Variable],
) -> Iterator[Dict[Variable, Variable]]:
    """All complete descriptions of *variables*, as quotient maps.

    Each description is returned as a substitution sending every
    variable to the representative (first element, in input order) of
    its equivalence class.  The identity description (all classes
    singletons) is included.
    """
    for partition in set_partitions(variables):
        mapping: Dict[Variable, Variable] = {}
        for block in partition:
            representative = block[0]
            for variable in block:
                mapping[variable] = representative
        yield mapping


def quotient(dependency: Dependency, description: Dict[Variable, Variable]) -> Dependency:
    """The paper's f(sigma, delta): apply the quotient map to *dependency*."""
    return dependency.substitute(dict(description))


def sigma_star(dependencies: Iterable[Dependency]) -> Tuple[Dependency, ...]:
    """The Sigma* construction.

    For each dependency, add the quotient f(sigma, delta) for every
    complete description delta of the *frontier* (the variables that
    appear in both sides).  Results are deduplicated by canonical
    form; the original dependencies come first, in input order.
    """
    result: List[Dependency] = []
    seen = set()

    def add(candidate: Dependency) -> None:
        key = candidate.canonical_form()
        if key not in seen:
            seen.add(key)
            result.append(candidate)

    dependencies = tuple(dependencies)
    for dependency in dependencies:
        add(dependency)
    for dependency in dependencies:
        frontier = dependency.frontier()
        for description in complete_descriptions(frontier):
            if all(description[v] == v for v in frontier):
                continue  # identity quotient: already added above
            add(quotient(dependency, description))
    return tuple(result)
