"""Lossless JSON serialization for the library's core objects.

Terms carry an explicit kind tag so that constants, labeled nulls,
and variables survive the round trip; dependencies serialize their
premise constraints; mappings serialize both schemas and the
dependency list.  ``*_to_json`` functions return plain JSON-compatible
dictionaries (use :mod:`json` to produce text); ``*_from_json``
invert them exactly.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.schemas import Schema
from repro.datamodel.terms import Constant, Null, Term, Variable
from repro.dependencies.dependency import Dependency, Premise
from repro.core.mapping import SchemaMapping


class SerializationError(ValueError):
    """Raised on malformed serialized input."""


# -- terms ----------------------------------------------------------------

def _term_to_json(term: Term) -> Dict[str, Any]:
    if isinstance(term, Constant):
        return {"kind": "constant", "value": term.value}
    if isinstance(term, Null):
        return {"kind": "null", "name": term.name}
    if isinstance(term, Variable):
        return {"kind": "variable", "name": term.name}
    raise SerializationError(f"unknown term {term!r}")


def _term_from_json(payload: Dict[str, Any]) -> Term:
    kind = payload.get("kind")
    if kind == "constant":
        value = payload["value"]
        if not isinstance(value, (str, int)):
            raise SerializationError(f"bad constant value {value!r}")
        return Constant(value)
    if kind == "null":
        return Null(str(payload["name"]))
    if kind == "variable":
        return Variable(str(payload["name"]))
    raise SerializationError(f"unknown term kind {kind!r}")


# -- atoms ----------------------------------------------------------------

def _atom_to_json(atom: Atom) -> Dict[str, Any]:
    return {
        "relation": atom.relation,
        "args": [_term_to_json(arg) for arg in atom.args],
    }


def _atom_from_json(payload: Dict[str, Any]) -> Atom:
    try:
        relation = payload["relation"]
        args = tuple(_term_from_json(arg) for arg in payload["args"])
    except (KeyError, TypeError) as error:
        raise SerializationError(f"malformed atom: {payload!r}") from error
    return Atom(str(relation), args)


# -- schemas ----------------------------------------------------------------

def schema_to_json(schema: Schema) -> Dict[str, Any]:
    return {"relations": {name: arity for name, arity in schema.relations}}


def schema_from_json(payload: Dict[str, Any]) -> Schema:
    try:
        relations = payload["relations"]
        return Schema.of({str(k): int(v) for k, v in relations.items()})
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"malformed schema: {payload!r}") from error


# -- instances ----------------------------------------------------------------

def instance_to_json(instance: Instance) -> Dict[str, Any]:
    return {"facts": [_atom_to_json(fact) for fact in instance.sorted_facts()]}


def instance_from_json(payload: Dict[str, Any]) -> Instance:
    try:
        facts = payload["facts"]
    except (KeyError, TypeError) as error:
        raise SerializationError(f"malformed instance: {payload!r}") from error
    return Instance.of(_atom_from_json(fact) for fact in facts)


# -- dependencies ----------------------------------------------------------------

def dependency_to_json(dependency: Dependency) -> Dict[str, Any]:
    return {
        "premise": {
            "atoms": [_atom_to_json(a) for a in dependency.premise.atoms],
            "constant_vars": sorted(
                v.name for v in dependency.premise.constant_vars
            ),
            "inequalities": sorted(
                [left.name, right.name]
                for left, right in dependency.premise.inequalities
            ),
        },
        "disjuncts": [
            [_atom_to_json(a) for a in disjunct]
            for disjunct in dependency.disjuncts
        ],
    }


def dependency_from_json(payload: Dict[str, Any]) -> Dependency:
    try:
        premise_payload = payload["premise"]
        atoms = tuple(
            _atom_from_json(a) for a in premise_payload["atoms"]
        )
        constant_vars = frozenset(
            Variable(str(name)) for name in premise_payload.get("constant_vars", [])
        )
        inequalities = frozenset(
            (Variable(str(left)), Variable(str(right)))
            for left, right in premise_payload.get("inequalities", [])
        )
        disjuncts = tuple(
            tuple(_atom_from_json(a) for a in disjunct)
            for disjunct in payload["disjuncts"]
        )
    except (KeyError, TypeError) as error:
        raise SerializationError(f"malformed dependency: {payload!r}") from error
    return Dependency(Premise(atoms, constant_vars, inequalities), disjuncts)


# -- mappings ----------------------------------------------------------------

def mapping_to_json(mapping: SchemaMapping) -> Dict[str, Any]:
    return {
        "name": mapping.name,
        "source": schema_to_json(mapping.source),
        "target": schema_to_json(mapping.target),
        "dependencies": [
            dependency_to_json(dep) for dep in mapping.dependencies
        ],
    }


def mapping_from_json(payload: Dict[str, Any]) -> SchemaMapping:
    try:
        source = schema_from_json(payload["source"])
        target = schema_from_json(payload["target"])
        dependencies = tuple(
            dependency_from_json(dep) for dep in payload["dependencies"]
        )
        name = str(payload.get("name", ""))
    except (KeyError, TypeError) as error:
        raise SerializationError(f"malformed mapping: {payload!r}") from error
    return SchemaMapping(source, target, dependencies, name=name)
