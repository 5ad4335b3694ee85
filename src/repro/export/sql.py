"""Rendering schemas, instances, mappings, and queries as SQL.

The translations follow the textbook correspondences:

* a schema relation R/k becomes ``CREATE TABLE r (c1, …, ck)``;
  names that would collide after identifier-folding (``R`` vs ``r``)
  raise :class:`SqlExportError` instead of silently sharing a table;
* a ground instance becomes INSERT statements (labeled nulls render
  as SQL NULL — lossy, flagged unless ``allow_nulls``).  Every
  constant renders as a *quoted string*, matching the textual column
  type the DDL declares: an unquoted integer literal would land in a
  TEXT-affinity column as its string twin, silently merging
  ``Constant(3)`` with ``Constant("3")`` and breaking equality
  predicates on engines with strict column types;
* a *full* tgd whose conclusion atoms repeat no variable position
  within an atom beyond what equality predicates can express becomes
  one ``INSERT INTO … SELECT DISTINCT …`` per conclusion atom, with
  the premise compiled to a join (shared variables become equality
  predicates, ``Constant(x)`` is a no-op over SQL tables, and
  inequalities become ``<>`` predicates);
* a conjunctive query becomes a ``SELECT DISTINCT`` over the same
  join compilation.

Existential conclusions have no direct SQL equivalent (they need
labeled nulls / skolems), so :func:`tgd_to_insert_select` refuses
non-full dependencies rather than silently changing semantics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.datamodel.atoms import Atom
from repro.datamodel.instances import Instance
from repro.datamodel.schemas import Schema
from repro.datamodel.terms import Constant, Null, Term, Variable
from repro.dependencies.dependency import Dependency
from repro.dataexchange.queries import ConjunctiveQuery
from repro.core.mapping import SchemaMapping


class SqlExportError(ValueError):
    """Raised when an object has no faithful SQL rendering."""


def _identifier(name: str) -> str:
    """A conservative SQL identifier: lowercase, quoted if needed."""
    lowered = name.lower()
    if lowered.isidentifier():
        return lowered
    escaped = name.replace('"', '""')
    return f'"{escaped}"'


def _assert_distinct_tables(names: Iterable[str], context: str) -> None:
    """Reject relation names that fold to one SQL table.

    ``_identifier`` lowercases, so ``R`` and ``r`` would silently
    share ``CREATE TABLE r`` and every statement against either would
    read and write the other's rows.
    """
    seen: Dict[str, str] = {}
    for name in names:
        ident = _identifier(name)
        other = seen.setdefault(ident, name)
        if other != name:
            raise SqlExportError(
                f"relations {other!r} and {name!r} in {context} both "
                f"render as SQL table {ident}; rename one of them"
            )


def _column(index: int) -> str:
    return f"c{index + 1}"


def _literal(term: Term, *, allow_nulls: bool) -> str:
    if isinstance(term, Constant):
        # Always a quoted string: the DDL declares textual columns, so
        # an unquoted integer would store/compare as its string twin
        # under SQLite affinity and be a type error on strict engines.
        escaped = str(term.value).replace("'", "''")
        return f"'{escaped}'"
    if isinstance(term, Null):
        if not allow_nulls:
            raise SqlExportError(
                f"labeled null {term} has no faithful SQL literal; pass "
                "allow_nulls=True to render it as NULL (lossy)"
            )
        return "NULL"
    raise SqlExportError(f"variable {term} cannot appear in a SQL literal")


def schema_to_ddl(schema: Schema, *, text_type: str = "TEXT") -> str:
    """CREATE TABLE statements for every relation of *schema*."""
    _assert_distinct_tables(
        (relation for relation, _ in schema.relations), "schema"
    )
    statements: List[str] = []
    for relation, arity in schema.relations:
        columns = ", ".join(f"{_column(i)} {text_type}" for i in range(arity))
        statements.append(
            f"CREATE TABLE {_identifier(relation)} ({columns});"
        )
    return "\n".join(statements)


def instance_to_inserts(instance: Instance, *, allow_nulls: bool = False) -> str:
    """INSERT statements materializing *instance*, in sorted order."""
    _assert_distinct_tables(
        sorted({fact.relation for fact in instance.facts}), "instance"
    )
    statements: List[str] = []
    for fact in instance.sorted_facts():
        values = ", ".join(
            _literal(arg, allow_nulls=allow_nulls) for arg in fact.args
        )
        statements.append(
            f"INSERT INTO {_identifier(fact.relation)} VALUES ({values});"
        )
    return "\n".join(statements)


def _compile_premise(
    atoms: Sequence[Atom],
    inequalities,
) -> Tuple[List[str], Dict[Variable, str], List[str]]:
    """FROM aliases, a variable -> column binding, and WHERE predicates."""
    from_clauses: List[str] = []
    binding: Dict[Variable, str] = {}
    predicates: List[str] = []
    for index, atom in enumerate(atoms):
        alias = f"t{index}"
        from_clauses.append(f"{_identifier(atom.relation)} AS {alias}")
        for position, arg in enumerate(atom.args):
            column = f"{alias}.{_column(position)}"
            if isinstance(arg, Variable):
                if arg in binding:
                    predicates.append(f"{binding[arg]} = {column}")
                else:
                    binding[arg] = column
            elif isinstance(arg, Constant):
                predicates.append(
                    f"{column} = {_literal(arg, allow_nulls=False)}"
                )
            else:
                raise SqlExportError(
                    f"premise atom {atom} contains a labeled null"
                )
    for left, right in sorted(inequalities):
        if left not in binding or right not in binding:
            raise SqlExportError(
                f"inequality {left} != {right} over unbound variables"
            )
        predicates.append(f"{binding[left]} <> {binding[right]}")
    return from_clauses, binding, predicates


def tgd_to_insert_select(dependency: Dependency) -> str:
    """One INSERT…SELECT per conclusion atom of a full tgd.

    ``Constant(x)`` premises are dropped (every SQL value is a
    constant); inequalities compile to ``<>``.  Refuses disjunctive or
    existential conclusions, which SQL cannot express faithfully.
    """
    if not dependency.is_disjunction_free():
        raise SqlExportError("disjunctive conclusions have no SQL rendering")
    if not dependency.is_full():
        raise SqlExportError(
            "existential conclusions need labeled nulls; SQL INSERT…SELECT "
            "only renders full tgds"
        )
    _assert_distinct_tables(
        sorted(
            {atom.relation for atom in dependency.premise.atoms}
            | {atom.relation for atom in dependency.disjuncts[0]}
        ),
        "dependency",
    )
    from_clauses, binding, predicates = _compile_premise(
        dependency.premise.atoms, dependency.premise.inequalities
    )
    statements: List[str] = []
    for atom in dependency.disjuncts[0]:
        columns: List[str] = []
        for arg in atom.args:
            if isinstance(arg, Variable):
                columns.append(binding[arg])
            elif isinstance(arg, Constant):
                columns.append(_literal(arg, allow_nulls=False))
            else:
                raise SqlExportError(
                    f"conclusion atom {atom} contains a labeled null"
                )
        select = f"SELECT DISTINCT {', '.join(columns)} FROM " + ", ".join(
            from_clauses
        )
        if predicates:
            select += " WHERE " + " AND ".join(predicates)
        statements.append(
            f"INSERT INTO {_identifier(atom.relation)} {select};"
        )
    return "\n".join(statements)


def mapping_to_sql(mapping: SchemaMapping) -> str:
    """DDL for both schemas plus INSERT…SELECT per dependency.

    Only defined for full, disjunction-free mappings (GAV-style ETL);
    raises :class:`SqlExportError` otherwise — including when a source
    and a target relation fold to one SQL table, since both schemas
    share one database.
    """
    sides = [
        ("source", relation) for relation, _ in mapping.source.relations
    ] + [("target", relation) for relation, _ in mapping.target.relations]
    seen: Dict[str, Tuple[str, str]] = {}
    for side, relation in sides:
        ident = _identifier(relation)
        other = seen.setdefault(ident, (side, relation))
        if other != (side, relation):
            raise SqlExportError(
                f"{other[0]} relation {other[1]!r} and {side} relation "
                f"{relation!r} both render as SQL table {ident}; the "
                "exported script would read and write one table for both"
            )
    parts = [
        "-- source schema",
        schema_to_ddl(mapping.source),
        "-- target schema",
        schema_to_ddl(mapping.target),
        "-- mapping",
    ]
    for dependency in mapping.dependencies:
        parts.append(tgd_to_insert_select(dependency))
    return "\n".join(parts)


def cq_to_select(query: ConjunctiveQuery) -> str:
    """A SELECT DISTINCT statement computing *query*."""
    _assert_distinct_tables(
        sorted({atom.relation for atom in query.atoms}), "query"
    )
    from_clauses, binding, predicates = _compile_premise(query.atoms, ())
    if query.head:
        columns = ", ".join(binding[variable] for variable in query.head)
    else:
        columns = "1"
    select = f"SELECT DISTINCT {columns} FROM " + ", ".join(from_clauses)
    if predicates:
        select += " WHERE " + " AND ".join(predicates)
    return select + ";"
