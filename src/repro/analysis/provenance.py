"""Provenance: explaining where chased facts came from.

The chase records each firing (dependency, premise match, added
facts); this module turns those records into per-fact provenance and
human-readable derivation listings — useful when debugging a mapping
or auditing what a recovered instance is based on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.chase.standard import ChaseResult, ChaseStep
from repro.datamodel.atoms import Atom
from repro.datamodel.terms import Term


@dataclass(frozen=True)
class FactProvenance:
    """Why one fact is in the chase result."""

    fact: Atom
    step: Optional[ChaseStep]  # None for facts present in the input

    def is_input_fact(self) -> bool:
        return self.step is None

    def premise_facts(self) -> Tuple[Atom, ...]:
        """The (instantiated) premise facts of the firing."""
        if self.step is None:
            return ()
        assignment: Dict[Term, Term] = dict(self.step.homomorphism)
        return tuple(
            atom.substitute(assignment)
            for atom in self.step.dependency.premise.atoms
        )

    def describe(self) -> str:
        if self.step is None:
            return f"{self.fact}  (input fact)"
        premises = " ∧ ".join(str(f) for f in self.premise_facts())
        return f"{self.fact}  from  {premises}  via  {self.step.dependency}"


def fact_provenance(result: ChaseResult, fact: Atom) -> FactProvenance:
    """The provenance of *fact* within *result*.

    Returns the first step that added the fact, or an input-fact
    provenance when no step did.  Raises :class:`KeyError` when the
    fact is not in the result at all.
    """
    if fact not in result.instance:
        raise KeyError(f"{fact} is not in the chase result")
    for step in result.steps:
        if fact in step.added:
            return FactProvenance(fact, step)
    return FactProvenance(fact, None)


def explain_chase(result: ChaseResult, *, produced_only: bool = True) -> str:
    """A human-readable derivation listing for a chase result.

    One line per fact, in sorted order; with ``produced_only`` (the
    default) input facts are omitted.
    """
    lines: List[str] = []
    for fact in result.instance.sorted_facts():
        provenance = fact_provenance(result, fact)
        if produced_only and provenance.is_input_fact():
            continue
        lines.append(provenance.describe())
    return "\n".join(lines)


def derivation_depths(result: ChaseResult) -> Dict[Atom, int]:
    """How many firings deep each fact is (input facts at depth 0).

    For stratified (s-t) chases every produced fact has depth 1; for
    recursive chases (e.g. transitive closure) the depth reflects the
    derivation chain length under the recorded firing order.
    """
    depths: Dict[Atom, int] = {}
    for fact in result.instance.facts - result.produced.facts:
        depths[fact] = 0
    for step in result.steps:
        assignment: Dict[Term, Term] = dict(step.homomorphism)
        premise_depth = 0
        for atom in step.dependency.premise.atoms:
            instantiated = atom.substitute(assignment)
            premise_depth = max(premise_depth, depths.get(instantiated, 0))
        for fact in step.added:
            if fact not in depths:
                depths[fact] = premise_depth + 1
    return depths
