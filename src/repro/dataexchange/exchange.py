"""Forward and reverse data exchange (Section 6's setting).

* Forward: U = chase_Sigma(I), the universal solution.
* Reverse: V = chase_Sigma'(U), the set of source instances obtained
  as the leaves of the disjunctive chase of (U, ∅) with the reverse
  mapping's dependencies (Definition 6.4).
* Round trip: U' = chase_Sigma(V), the set of re-exchanged targets —
  the objects in terms of which soundness and faithfulness
  (Definition 6.5) are phrased, and exactly the data flow of Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.chase.disjunctive import disjunctive_chase
from repro.datamodel.instances import Instance
from repro.core.mapping import MappingError, SchemaMapping, universal_solution


def exchange(mapping: SchemaMapping, instance: Instance) -> Instance:
    """U = chase_Sigma(I): forward data exchange with a tgd mapping.

    The chase itself goes through the engine's content-addressed
    cache (via :func:`~repro.core.mapping.universal_solution`), so
    re-exchanging an instance the checkers have already chased is a
    lookup.
    """
    if not mapping.is_tgd_mapping():
        raise MappingError("forward exchange requires a tgd mapping")
    instance.validate(mapping.source)
    return universal_solution(mapping, instance)


def reverse_exchange(
    reverse_mapping: SchemaMapping, target_instance: Instance
) -> Tuple[Instance, ...]:
    """V = chase_Sigma'(U): reverse exchange via the disjunctive chase.

    *reverse_mapping* goes from the target schema back to the source
    schema and may use the full dependency language.  Returns the set
    of source instances (the leaves' source parts), deduplicated,
    in deterministic order.
    """
    target_instance.validate(reverse_mapping.source)
    tree = disjunctive_chase(target_instance, reverse_mapping.dependencies)
    source_parts = []
    seen = set()
    for leaf in tree.leaves():
        part = leaf.restrict_to(reverse_mapping.target)
        if part not in seen:
            seen.add(part)
            source_parts.append(part)
    return tuple(source_parts)


@dataclass(frozen=True)
class RoundTrip:
    """The full Figure-1 data flow for one ground instance."""

    source: Instance
    exported: Instance
    recovered: Tuple[Instance, ...]
    re_exported: Tuple[Instance, ...]

    def pretty(self) -> str:
        """A multi-line rendering in the shape of Figure 1."""
        lines = [
            "I:",
            self.source.pretty(indent="  "),
            "U = chase_Σ(I):",
            self.exported.pretty(indent="  "),
        ]
        for index, (recovered, re_exported) in enumerate(
            zip(self.recovered, self.re_exported), start=1
        ):
            lines.append(f"V{index} = chase_Σ'(U) [branch {index}]:")
            lines.append(recovered.pretty(indent="  "))
            lines.append(f"chase_Σ(V{index}):")
            lines.append(re_exported.pretty(indent="  "))
        return "\n".join(lines)


def round_trip(
    mapping: SchemaMapping,
    reverse_mapping: SchemaMapping,
    instance: Instance,
) -> RoundTrip:
    """I → U → V → U': the bidirectional exchange of Section 6."""
    exported = exchange(mapping, instance)
    recovered = reverse_exchange(reverse_mapping, exported)
    re_exported = tuple(exchange(mapping, v.restrict_to(mapping.source)) for v in recovered)
    return RoundTrip(instance, exported, recovered, re_exported)
