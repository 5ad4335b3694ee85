"""The Inverse algorithm (Section 5, Theorem 5.1).

If M = (S, T, Sigma) is invertible, the algorithm produces an inverse
M' = (T, S, Sigma') specified by *full* tgds with constants and
inequalities (inequalities among constants only):

1. verify the constant-propagation property (Definition 5.2 /
   Proposition 5.3): for each source relation R, the chase of
   R(x1,...,xm) must mention every x_i — otherwise the algorithm
   halts without output (:class:`InverseError` here);
2. enumerate the *prime atoms* of every source relation — atoms whose
   variables are x1, x2, ... in order of first appearance, one per
   set partition of the positions;
3. for each prime instance I_alpha, chase it with Sigma and emit the
   full tgd omega(Sigma, I_alpha) whose premise is the chase result
   (nulls renamed to fresh universally quantified variables) plus
   Constant(x_i) conjuncts and pairwise inequalities on alpha's
   variables, and whose conclusion is alpha.

The paper also shows (Section 5 remark) that when Sigma is full the
Constant() conjuncts can be dropped; ``inverse`` does so automatically
(disable with ``drop_constants_when_full=False``).  M' is the *weakest*
inverse: any other inverse's dependency set logically implies Sigma'.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterator, List, Optional, Tuple

from repro.chase.standard import chase
from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.terms import Term, Variable
from repro.dependencies.dependency import Dependency, Premise
from repro.core.mapping import MappingError, SchemaMapping
from repro.engine.cache import derived_mapping


class InverseError(MappingError):
    """The Inverse algorithm halted without output."""


def restricted_growth_strings(length: int) -> Iterator[Tuple[int, ...]]:
    """All restricted growth strings of the given length.

    A restricted growth string a_1..a_m has a_1 = 1 and
    a_{i+1} <= max(a_1..a_i) + 1; these index the set partitions of
    the positions, i.e. the paper's *prime atoms*.
    """
    if length == 0:
        yield ()
        return

    def extend(prefix: Tuple[int, ...], maximum: int) -> Iterator[Tuple[int, ...]]:
        if len(prefix) == length:
            yield prefix
            return
        for value in range(1, maximum + 2):
            yield from extend(prefix + (value,), max(maximum, value))

    yield from extend((1,), 1)


def prime_atoms(relation: str, arity: int) -> Tuple[Atom, ...]:
    """The prime atoms of a relation, in lexicographic order (Step 2).

    E.g. for a ternary R: R(x1,x1,x1), R(x1,x1,x2), R(x1,x2,x1),
    R(x1,x2,x2), R(x1,x2,x3).
    """
    atoms = []
    for string in restricted_growth_strings(arity):
        atoms.append(Atom(relation, tuple(Variable(f"x{i}") for i in string)))
    return tuple(sorted(atoms))


def constant_propagation_report(mapping: SchemaMapping) -> Dict[str, bool]:
    """Per-relation constant-propagation check (Definition 5.2).

    M propagates constants iff for each source relation R, the chase
    of R(x1,...,xm) with Sigma mentions each of the m variables.
    """
    if not mapping.is_tgd_mapping():
        raise MappingError("constant propagation is defined for tgd mappings")
    report: Dict[str, bool] = {}
    for relation, arity in mapping.source.relations:
        variables = tuple(Variable(f"x{i + 1}") for i in range(arity))
        canonical = Instance.of([Atom(relation, variables)])
        produced = chase(canonical, mapping.dependencies).produced
        report[relation] = set(variables) <= set(produced.active_domain())
    return report


def has_constant_propagation(mapping: SchemaMapping) -> bool:
    """True when every source relation propagates its constants."""
    return all(constant_propagation_report(mapping).values())


def omega(
    mapping: SchemaMapping,
    alpha: Atom,
    *,
    with_constants: bool = True,
    allow_existentials: bool = False,
) -> Optional[Dependency]:
    """The tgd omega(Sigma, I_alpha) of Step 3.

    With ``allow_existentials=False`` (the Inverse algorithm), every
    variable of alpha must appear in the chase of I_alpha — guaranteed
    by the constant-propagation check — and the result is a full tgd.

    With ``allow_existentials=True`` (the Theorem 4.7 construction,
    see :func:`repro.core.quasi_inverse.lav_quasi_inverse`), variables
    of alpha that the chase loses are existentially quantified in the
    conclusion instead, and the ``Constant``/inequality guards range
    over the appearing variables only.  Returns None when the chase of
    I_alpha is empty (nothing to reverse).
    """
    canonical = Instance.of([alpha])
    chased = chase(canonical, mapping.dependencies).produced
    if not chased:
        if allow_existentials:
            return None
        raise InverseError(
            f"the chase of {alpha} is empty; omega(Sigma, I_alpha) is undefined"
        )
    # Rename the chase's nulls to fresh universally quantified variables.
    variables = {v.name for v in alpha.variables()}
    renaming: Dict[Term, Term] = {}
    counter = 1
    for null in sorted(chased.nulls()):
        while f"y{counter}" in variables:
            counter += 1
        fresh = Variable(f"y{counter}")
        counter += 1
        renaming[null] = fresh
    premise_atoms = tuple(sorted(chased.substitute(renaming).facts))
    alpha_variables = tuple(dict.fromkeys(alpha.variables()))
    appearing = {
        v for atom in premise_atoms for v in atom.variables()
    }
    guarded = tuple(v for v in alpha_variables if v in appearing)
    if len(guarded) < len(alpha_variables) and not allow_existentials:
        raise InverseError(
            f"the chase of {alpha} loses variables; run the "
            "constant-propagation check first"
        )
    constant_vars = frozenset(guarded) if with_constants else frozenset()
    inequalities = frozenset(combinations(guarded, 2))
    premise = Premise(premise_atoms, constant_vars, inequalities)
    return Dependency(premise, ((alpha,),))


@derived_mapping
def inverse(
    mapping: SchemaMapping,
    *,
    drop_constants_when_full: bool = True,
    name: str = "",
) -> SchemaMapping:
    """Algorithm Inverse(M).

    Returns M' = (T, S, Sigma') specified by full tgds with constants
    and inequalities.  If M is invertible, M' is an inverse of M, and
    the weakest one.  Raises :class:`InverseError` when M fails the
    constant-propagation property (then M is certainly not invertible,
    by Proposition 5.3).  The output is memoized per exact input (the
    mapping, its name and every option;
    :func:`~repro.engine.cache.derived_mapping`), an error never.
    """
    if not mapping.is_tgd_mapping():
        raise MappingError("Inverse requires a mapping specified by s-t tgds")
    report = constant_propagation_report(mapping)
    failing = sorted(relation for relation, ok in report.items() if not ok)
    if failing:
        raise InverseError(
            "mapping does not satisfy the constant-propagation property "
            f"(failing relations: {', '.join(failing)}); by Proposition 5.3 "
            "it is not invertible"
        )
    with_constants = not (drop_constants_when_full and mapping.is_full())

    dependencies: List[Dependency] = []
    for relation, arity in mapping.source.relations:
        for alpha in prime_atoms(relation, arity):
            dependencies.append(
                omega(mapping, alpha, with_constants=with_constants)
            )
    return SchemaMapping(
        mapping.target,
        mapping.source,
        tuple(dependencies),
        name=name or (f"Inverse({mapping.name})" if mapping.name else ""),
    )
