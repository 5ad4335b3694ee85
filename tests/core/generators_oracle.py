"""The Step 3 subset check without its relation-count test, kept as a
test oracle.

``repro.core.generators.embeds_into`` returns False before searching
when some relation occurs more often among the smaller generator's
distinct atoms than in the larger conjunction.  The oracle here always
builds the instance and searches for an injective renaming of z, so
the differential tests can check that the count test never changes an
answer.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Sequence

from repro.chase.homomorphism import all_homomorphisms
from repro.core.generators import Generator
from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Term, Variable


def embeds_into_unfiltered(
    smaller: Generator, larger_atoms: FrozenSet[Atom], frontier: Sequence[Variable]
) -> bool:
    """Is *smaller* a subset of *larger_atoms* up to renaming of z?"""
    target = Instance.of(larger_atoms)
    fixed: Dict[Term, Term] = {v: v for v in frontier}
    frontier_set = set(frontier)
    fresh = smaller.fresh_variables()
    for assignment in all_homomorphisms(smaller.atoms, target, fixed=fixed):
        images = [assignment[v] for v in fresh]
        if len(set(images)) != len(images):
            continue
        if any(
            not isinstance(image, Variable) or image in frontier_set
            for image in images
        ):
            continue
        return True
    return False
