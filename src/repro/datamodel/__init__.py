"""Relational data model: terms, atoms, schemas, and instances.

This package implements the basic objects of the paper's Section 2:

* three disjoint kinds of term — constants (``Const``), labeled nulls
  (the paper's ``Var``), and logic variables (used in dependencies and
  in canonical instances such as the prime instances of Section 5);
* atoms and facts over a relational schema;
* schemas (finite sequences of relation symbols with fixed arities);
* immutable relational instances with per-relation indexes, each built
  on its first read.
"""

from repro.datamodel.terms import Constant, Null, Term, Variable, constants, nulls, variables
from repro.datamodel.atoms import Atom, atom
from repro.datamodel.schemas import Schema, SchemaError
from repro.datamodel.instances import Instance

__all__ = [
    "Atom",
    "Constant",
    "Instance",
    "Null",
    "Schema",
    "SchemaError",
    "Term",
    "Variable",
    "atom",
    "constants",
    "nulls",
    "variables",
]
