"""Schema catalog: tables, views, and indexes.

Tables and views share one namespace, as SQL-92 requires.  The drop
rules here are standard-conforming — ``DROP TABLE`` on a view is an
error — but the engine consults a behaviour flag before enforcing them,
because the study's Interbase bug 223512 is precisely two products
*skipping* that check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.errors import CatalogError
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.types import SqlType


@dataclass
class ColumnDef:
    """A materialised column definition (types resolved)."""

    name: str
    sql_type: SqlType
    not_null: bool = False
    default: Optional[ast.Expression] = None
    check: Optional[ast.Expression] = None

    @property
    def key(self) -> str:
        return self.name.lower()


@dataclass
class TableSchema:
    """Metadata for one base table."""

    name: str
    columns: list[ColumnDef]
    primary_key: list[str] = field(default_factory=list)        # column keys
    unique_sets: list[list[str]] = field(default_factory=list)  # column keys
    checks: list[ast.Expression] = field(default_factory=list)

    def column_index(self, name: str) -> int:
        key = name.lower()
        for index, column in enumerate(self.columns):
            if column.key == key:
                return index
        raise CatalogError(f"column {name!r} does not exist in table {self.name!r}")

    def has_column(self, name: str) -> bool:
        key = name.lower()
        return any(column.key == key for column in self.columns)

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def clone(self) -> "TableSchema":
        """An independent copy for snapshots.  The container lists are
        copied (ALTER TABLE appends/pops on them); the ColumnDef and
        expression objects they hold are never mutated in place, so
        sharing them is safe and keeps checkpoints cheap."""
        return TableSchema(
            name=self.name,
            columns=list(self.columns),
            primary_key=list(self.primary_key),
            unique_sets=[list(unique) for unique in self.unique_sets],
            checks=list(self.checks),
        )


@dataclass
class ViewDef:
    """Metadata for one view: its defining query, unexpanded."""

    name: str
    query: ast.SelectStatement
    column_names: Optional[list[str]] = None

    @property
    def has_distinct(self) -> bool:
        """True when any SELECT core in the view body uses DISTINCT."""
        return any(core.distinct for core in self.query.cores())


@dataclass
class IndexDef:
    """Metadata for one index."""

    name: str
    table: str
    columns: list[str]
    unique: bool = False
    clustered: bool = False


class UniqueKey(NamedTuple):
    """One uniqueness constraint of a table."""

    name: str                  # 'PRIMARY KEY', 'UNIQUE', or the index name
    columns: list[str]         # column names, in key order
    indices: tuple[int, ...]   # column positions within the table
    primary: bool


class Catalog:
    """All schema objects of one database instance."""

    def __init__(self) -> None:
        self._tables: dict[str, TableSchema] = {}
        self._views: dict[str, ViewDef] = {}
        self._indexes: dict[str, IndexDef] = {}
        #: Monotonic counter bumped on every schema change.  Prepared-
        #: statement caches key derived artifacts (analysis verdicts,
        #: translations) on this so DDL invalidates them.
        self.generation: int = 0
        #: table key -> (generation, :meth:`unique_sets` of the table).
        self._unique_sets: dict[str, tuple[int, list[UniqueKey]]] = {}
        #: ``(generation, content token)``: :meth:`content_token` as of
        #: that generation.
        self.token: tuple[int, str] = (-1, "")

    def bump(self) -> None:
        """Record a schema change made outside the add/drop helpers
        (ALTER TABLE mutates a TableSchema in place)."""
        self.generation += 1

    def clone(self) -> "Catalog":
        """An independent copy for snapshots (see
        :meth:`TableSchema.clone`).  ViewDef and IndexDef objects are
        immutable once created, so the dictionaries are copied shallowly."""
        copied = Catalog()
        copied._tables = {
            key: schema.clone() for key, schema in self._tables.items()
        }
        copied._views = dict(self._views)
        copied._indexes = dict(self._indexes)
        copied.generation = self.generation
        copied.token = self.token
        return copied

    def content_token(self) -> str:
        """What the catalog holds, as one value: the tables, views and
        indexes, each with every field, in the order they were made.

        Two catalogs with equal tokens resolve every name, type, key and
        view body alike, which is all a compiled plan reads of them, so
        the engine's plan cache keys plans by it.  Computed once per
        :attr:`generation` (every schema change bumps it)."""
        generation, token = self.token
        if generation != self.generation:
            token = repr(
                (
                    list(self._tables.values()),
                    list(self._views.values()),
                    list(self._indexes.values()),
                )
            )
            self.token = (self.generation, token)
        return token

    # -- lookup ------------------------------------------------------------

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    def has_relation(self, name: str) -> bool:
        return self.has_table(name) or self.has_view(name)

    def table(self, name: str) -> TableSchema:
        try:
            return self._tables[name.lower()]
        except KeyError:
            if self.has_view(name):
                raise CatalogError(f"{name!r} is a view, not a table") from None
            raise CatalogError(f"table {name!r} does not exist") from None

    def view(self, name: str) -> ViewDef:
        try:
            return self._views[name.lower()]
        except KeyError:
            raise CatalogError(f"view {name!r} does not exist") from None

    def index(self, name: str) -> IndexDef:
        try:
            return self._indexes[name.lower()]
        except KeyError:
            raise CatalogError(f"index {name!r} does not exist") from None

    def tables(self) -> list[TableSchema]:
        return list(self._tables.values())

    def views(self) -> list[ViewDef]:
        return list(self._views.values())

    def indexes_on(self, table: str) -> list[IndexDef]:
        key = table.lower()
        return [ix for ix in self._indexes.values() if ix.table.lower() == key]

    def unique_sets(self, schema: TableSchema) -> list[UniqueKey]:
        """The uniqueness constraints of ``schema``'s table: primary key
        first, then UNIQUE column sets, then unique indexes.

        Cached per table and generation: every inserted or updated row
        consults this, and the constraints only change on DDL."""
        key = schema.name.lower()
        cached = self._unique_sets.get(key)
        if cached is not None and cached[0] == self.generation:
            return cached[1]
        constraints = []
        if schema.primary_key:
            constraints.append(("PRIMARY KEY", schema.primary_key, True))
        constraints.extend(("UNIQUE", columns, False) for columns in schema.unique_sets)
        constraints.extend(
            (index.name, index.columns, False)
            for index in self.indexes_on(schema.name)
            if index.unique
        )
        sets = [
            UniqueKey(
                name,
                list(columns),
                tuple(schema.column_index(column) for column in columns),
                primary,
            )
            for name, columns, primary in constraints
        ]
        self._unique_sets[key] = (self.generation, sets)
        return sets

    # -- creation ----------------------------------------------------------

    def add_table(self, schema: TableSchema) -> None:
        key = schema.name.lower()
        if self.has_relation(schema.name):
            raise CatalogError(f"relation {schema.name!r} already exists")
        seen: set[str] = set()
        for column in schema.columns:
            if column.key in seen:
                raise CatalogError(
                    f"duplicate column {column.name!r} in table {schema.name!r}"
                )
            seen.add(column.key)
        self._tables[key] = schema
        self.generation += 1

    def add_view(self, view: ViewDef) -> None:
        if self.has_relation(view.name):
            raise CatalogError(f"relation {view.name!r} already exists")
        self._views[view.name.lower()] = view
        self.generation += 1

    def add_index(self, index: IndexDef) -> None:
        if index.name.lower() in self._indexes:
            raise CatalogError(f"index {index.name!r} already exists")
        table = self.table(index.table)
        for column in index.columns:
            table.column_index(column)  # raises if missing
        self._indexes[index.name.lower()] = index
        self.generation += 1

    # -- removal -----------------------------------------------------------

    def drop_table(self, name: str, *, allow_view: bool = False) -> str:
        """Drop a table; returns "table" or "view" (what was dropped).

        ``allow_view=True`` reproduces the non-conforming behaviour of
        Interbase bug 223512: ``DROP TABLE`` silently removes a view.
        """
        key = name.lower()
        if key in self._tables:
            del self._tables[key]
            for index_name in [n for n, ix in self._indexes.items() if ix.table.lower() == key]:
                del self._indexes[index_name]
            self.generation += 1
            return "table"
        if key in self._views:
            if not allow_view:
                raise CatalogError(f"{name!r} is a view; use DROP VIEW")
            del self._views[key]
            self.generation += 1
            return "view"
        raise CatalogError(f"table {name!r} does not exist")

    def drop_view(self, name: str) -> None:
        key = name.lower()
        if key not in self._views:
            if key in self._tables:
                raise CatalogError(f"{name!r} is a table; use DROP TABLE")
            raise CatalogError(f"view {name!r} does not exist")
        del self._views[key]
        self.generation += 1

    def drop_index(self, name: str) -> None:
        key = name.lower()
        if key not in self._indexes:
            raise CatalogError(f"index {name!r} does not exist")
        del self._indexes[key]
        self.generation += 1

    def clear(self) -> None:
        """Remove every schema object (used by server reset/recovery)."""
        self._tables.clear()
        self._views.clear()
        self._indexes.clear()
        self._unique_sets.clear()
        self.generation += 1
