"""Skolemized mappings and syntactic composition (the paper's [5]).

The composition operator (Section 2) is defined semantically; the
paper's reference [5] (Fagin, Kolaitis, Popa, Tan — "Composing Schema
Mappings: Second-Order Dependencies to the Rescue") shows that
compositions of tgd mappings are expressible once existential
quantifiers are *skolemized*: each existential variable y of a tgd
``phi(x) -> exists y psi(x, y)`` becomes a function term ``f(x)``
over the tgd's frontier.

This module implements the skolemized fragment sufficient for this
library's purposes:

* :func:`skolemize` turns a tgd mapping into :class:`SkolemMapping`
  rules whose conclusions may contain :class:`SkolemTerm`s;
* :func:`skolem_exchange` evaluates a skolemized mapping directly —
  function terms are interpreted over the term algebra, memoized into
  labeled nulls (one null per function and argument tuple: the
  semi-oblivious chase, homomorphically equivalent to the restricted
  chase for s-t tgds);
* :func:`compose_skolem` composes two tgd mappings syntactically: the
  second mapping's premises are resolved against the first's
  skolemized conclusions by first-order unification.  Unification
  failures between distinct function terms correspond exactly to
  premise matches that would require two distinct labeled nulls to be
  equal — impossible in the two-step chase — so dropping them is
  sound, and the composed rules reproduce the two-step exchange up to
  homomorphic equivalence.

Unlike :func:`repro.core.composition.compose_full`, the first mapping
need not be full.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Tuple

from repro.chase.homomorphism import all_homomorphisms
from repro.chase.standard import NullFactory
from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.schemas import Schema
from repro.datamodel.terms import Null, Term, Variable
from repro.core.mapping import MappingError, SchemaMapping


@dataclass(frozen=True)
class SkolemTerm:
    """A function term f(t1, …, tk) over variables/constants/terms."""

    function: str
    args: Tuple[object, ...]  # Term or SkolemTerm

    def sort_key(self):
        return (3, self.function, tuple(_arg_key(a) for a in self.args))

    def variables(self) -> Tuple[Variable, ...]:
        collected: List[Variable] = []
        for arg in self.args:
            if isinstance(arg, Variable):
                if arg not in collected:
                    collected.append(arg)
            elif isinstance(arg, SkolemTerm):
                for variable in arg.variables():
                    if variable not in collected:
                        collected.append(variable)
        return tuple(collected)

    def substitute(self, mapping: Dict) -> "SkolemTerm":
        return SkolemTerm(
            self.function,
            tuple(_substitute_arg(arg, mapping) for arg in self.args),
        )

    def __str__(self) -> str:
        rendered = ", ".join(str(a) for a in self.args)
        return f"{self.function}({rendered})"


def _arg_key(arg) -> Tuple:
    if isinstance(arg, SkolemTerm):
        return arg.sort_key()
    return arg.sort_key()


def _substitute_arg(arg, mapping: Dict):
    if isinstance(arg, SkolemTerm):
        return arg.substitute(mapping)
    return mapping.get(arg, arg)


def _substitute_atom(atom: Atom, mapping: Dict) -> Atom:
    return Atom(
        atom.relation, tuple(_substitute_arg(arg, mapping) for arg in atom.args)
    )


@dataclass(frozen=True)
class SkolemRule:
    """premise(x) -> conclusion, with function terms in the conclusion."""

    premise: Tuple[Atom, ...]
    conclusion: Tuple[Atom, ...]

    def __str__(self) -> str:
        left = " ∧ ".join(str(a) for a in self.premise)
        right = " ∧ ".join(str(a) for a in self.conclusion)
        return f"{left} → {right}"


@dataclass(frozen=True)
class SkolemMapping:
    """A schema mapping in skolemized form."""

    source: Schema
    target: Schema
    rules: Tuple[SkolemRule, ...]
    name: str = ""

    def __str__(self) -> str:
        rendered = "; ".join(str(rule) for rule in self.rules)
        return f"{self.name or 'SkM'}: {{{rendered}}}"


def skolemize(mapping: SchemaMapping, *, prefix: str = "f") -> SkolemMapping:
    """Replace each existential variable by a fresh function of the
    frontier (one function symbol per tgd and variable)."""
    if not mapping.is_tgd_mapping():
        raise MappingError("skolemize requires a tgd mapping")
    rules: List[SkolemRule] = []
    counter = 0
    for dependency in mapping.dependencies:
        frontier = dependency.frontier()
        substitution: Dict[Variable, SkolemTerm] = {}
        for variable in dependency.existential_variables(0):
            counter += 1
            substitution[variable] = SkolemTerm(
                f"{prefix}{counter}", tuple(frontier)
            )
        conclusion = tuple(
            _substitute_atom(atom, substitution)
            for atom in dependency.disjuncts[0]
        )
        rules.append(SkolemRule(dependency.premise.atoms, conclusion))
    return SkolemMapping(
        mapping.source,
        mapping.target,
        tuple(rules),
        name=f"Sk({mapping.name})" if mapping.name else "",
    )


# ----------------------------------------------------------------------
# Evaluation (the semi-oblivious chase over the term algebra).
# ----------------------------------------------------------------------

def skolem_exchange(
    mapping: SkolemMapping, instance: Instance
) -> Instance:
    """Evaluate a skolemized mapping on a source instance.

    Function terms are memoized into labeled nulls: equal function and
    equal (evaluated) arguments yield the same null, so value sharing
    between conclusion atoms — including across rules produced by
    composition — is preserved.
    """
    memo: Dict[Tuple, Null] = {}
    factory = NullFactory(
        prefix="S", taken=(null.name for null in instance.nulls())
    )

    def evaluate(arg, assignment: Dict[Term, Term]) -> Term:
        if isinstance(arg, SkolemTerm):
            evaluated = tuple(evaluate(a, assignment) for a in arg.args)
            key = (arg.function, evaluated)
            if key not in memo:
                memo[key] = factory.fresh(hint=arg.function)
            return memo[key]
        if isinstance(arg, Variable):
            return assignment[arg]
        return arg

    facts: List[Atom] = []
    for rule in mapping.rules:
        for assignment in all_homomorphisms(rule.premise, instance):
            for atom in rule.conclusion:
                facts.append(
                    Atom(
                        atom.relation,
                        tuple(evaluate(arg, assignment) for arg in atom.args),
                    )
                )
    return Instance.of(facts).restrict_to(mapping.target)


# ----------------------------------------------------------------------
# Unification and composition.
# ----------------------------------------------------------------------

def _walk(term, bindings: Dict):
    while isinstance(term, Variable) and term in bindings:
        term = bindings[term]
    return term


def _occurs(variable: Variable, term, bindings: Dict) -> bool:
    term = _walk(term, bindings)
    if term == variable:
        return True
    if isinstance(term, SkolemTerm):
        return any(_occurs(variable, arg, bindings) for arg in term.args)
    return False


def _unify(left, right, bindings: Dict) -> bool:
    """Robinson unification over variables, constants, skolem terms."""
    left = _walk(left, bindings)
    right = _walk(right, bindings)
    if left == right:
        return True
    if isinstance(left, Variable):
        if _occurs(left, right, bindings):
            return False
        bindings[left] = right
        return True
    if isinstance(right, Variable):
        return _unify(right, left, bindings)
    if isinstance(left, SkolemTerm) and isinstance(right, SkolemTerm):
        if left.function != right.function or len(left.args) != len(right.args):
            return False
        return all(
            _unify(a, b, bindings) for a, b in zip(left.args, right.args)
        )
    return False  # distinct constants, or constant vs skolem term


def _resolve_bindings(term, bindings: Dict):
    term = _walk(term, bindings)
    if isinstance(term, SkolemTerm):
        return SkolemTerm(
            term.function,
            tuple(_resolve_bindings(arg, bindings) for arg in term.args),
        )
    return term


def _rename_rule(rule: SkolemRule, suffix: str) -> SkolemRule:
    variables = {
        v
        for atom in rule.premise + rule.conclusion
        for v in _atom_variables(atom)
    }
    renaming = {v: Variable(f"{v.name}#{suffix}") for v in variables}
    return SkolemRule(
        tuple(_substitute_atom(a, renaming) for a in rule.premise),
        tuple(_substitute_atom(a, renaming) for a in rule.conclusion),
    )


def _atom_variables(atom: Atom) -> Tuple[Variable, ...]:
    collected: List[Variable] = []

    def visit(arg) -> None:
        if isinstance(arg, Variable):
            if arg not in collected:
                collected.append(arg)
        elif isinstance(arg, SkolemTerm):
            for inner in arg.args:
                visit(inner)

    for arg in atom.args:
        visit(arg)
    return tuple(collected)


def compose_skolem(
    first: SchemaMapping,
    second: SchemaMapping,
    *,
    name: str = "",
) -> SkolemMapping:
    """Compose two tgd mappings into skolemized rules over (S1, S3).

    Each premise atom of each second-mapping tgd is resolved against
    every conclusion atom of the first mapping's skolemized rules; the
    global unifier instantiates the collected first-mapping premises
    (the composed premise, over S1) and the second mapping's
    skolemized conclusion (which may now contain nested function
    terms).  The result evaluates — via :func:`skolem_exchange` — to
    the same target instances as the two-step exchange, up to
    homomorphic equivalence.
    """
    if not first.is_tgd_mapping() or not second.is_tgd_mapping():
        raise MappingError("compose_skolem requires tgd mappings")
    if first.target.relations != second.source.relations:
        raise MappingError(
            f"middle schemas differ: {first.target} vs {second.source}"
        )
    first_rules = skolemize(first, prefix="f").rules
    second_rules = skolemize(second, prefix="g").rules

    composed: List[SkolemRule] = []
    for rule_index, rule in enumerate(second_rules):
        # For each premise atom, the compatible (first-rule, atom) pairs.
        options_per_atom: List[List[Tuple[SkolemRule, int]]] = []
        for atom in rule.premise:
            options = []
            for candidate in first_rules:
                for conclusion_index, conclusion_atom in enumerate(
                    candidate.conclusion
                ):
                    if (
                        conclusion_atom.relation == atom.relation
                        and conclusion_atom.arity == atom.arity
                    ):
                        options.append((candidate, conclusion_index))
            options_per_atom.append(options)
        if any(not options for options in options_per_atom):
            continue  # some premise atom can never be produced

        for choice in product(*options_per_atom):
            bindings: Dict = {}
            premises: List[Atom] = []
            feasible = True
            for atom_index, (candidate, conclusion_index) in enumerate(choice):
                renamed = _rename_rule(
                    candidate, f"{rule_index}.{atom_index}"
                )
                goal_atom = rule.premise[atom_index]
                conclusion_atom = renamed.conclusion[conclusion_index]
                for left, right in zip(goal_atom.args, conclusion_atom.args):
                    if not _unify(left, right, bindings):
                        feasible = False
                        break
                if not feasible:
                    break
                premises.extend(renamed.premise)
            if not feasible:
                continue
            resolved_premise = tuple(
                sorted(
                    {
                        Atom(
                            a.relation,
                            tuple(
                                _resolve_bindings(arg, bindings)
                                for arg in a.args
                            ),
                        )
                        for a in premises
                    }
                )
            )
            # A source-side position bound to a function term would
            # require a ground source value to equal a labeled null —
            # impossible — so the rule can never fire: drop it.
            if any(
                isinstance(arg, SkolemTerm)
                for atom in resolved_premise
                for arg in atom.args
            ):
                continue
            resolved_conclusion = tuple(
                Atom(
                    a.relation,
                    tuple(_resolve_bindings(arg, bindings) for arg in a.args),
                )
                for a in rule.conclusion
            )
            composed.append(SkolemRule(resolved_premise, resolved_conclusion))

    return SkolemMapping(
        first.source,
        second.target,
        tuple(composed),
        name=name
        or (
            f"{first.name}∘{second.name}"
            if first.name and second.name
            else ""
        ),
    )
