"""Row storage with transactional undo and copy-on-write images.

One :class:`TableData` per base table: rows are mutable lists so that
updates can patch in place and the undo journal can restore prior
values.  The journal lives in :mod:`repro.sqlengine.transactions`; this
module only provides primitive mutations that report what they did.

A :class:`TableImage` is one table's rows as they stood when it was
taken.  It shares every row object with the live heap; the heap's two
in-place writers (:meth:`TableData.update_row` and the column
add/drop pair) save a row's prior values into the newest image before
their first write to it, so taking an image costs one list copy and
each later write at most one tuple.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Iterable, Optional

from repro.sqlengine.values import distinct_key


class UniqueIndex:
    """Hash map from a key-column tuple to the single row holding it.

    Keys are tuples of :func:`distinct_key` components, so key equality
    coincides with SQL comparison equality within a kind.  Rows with a
    NULL key component are not indexed (SQL unique constraints admit
    them).  The index *poisons* itself — and stays unusable until the
    heap is rebuilt — when it meets a duplicate key or an unkeyable
    value; readers fall back to scanning.
    """

    __slots__ = ("map", "kinds", "poisoned")

    def __init__(self, width: int) -> None:
        self.map: dict[tuple, list[Any]] = {}
        #: Comparison-kind tags seen per key column, for planner probes
        #: that must bail out on heterogeneous stored kinds.
        self.kinds: list[set] = [set() for _ in range(width)]
        self.poisoned = False


class TableImage:
    """One table's rows as they stood when :meth:`TableData.image` ran.

    ``rows`` is a shallow copy of the heap: it holds the live row
    objects, which keeps them (and so their ids) alive.  ``before`` maps
    ``id(row)`` to the row's values as they stood when this image was
    the table's newest, saved by the heap before its first in-place
    write to the row after that; ``newer`` links to the next image of
    the same table.  A row's value at this image is therefore the first
    ``before`` entry found walking from this image to the newest, or
    else the live row.
    """

    __slots__ = ("name", "column_count", "rows", "before", "newer", "__weakref__")

    def __init__(self, data: "TableData") -> None:
        self.name = data.name
        self.column_count = data.column_count
        self.rows = list(data._rows)
        self.before: dict[int, tuple] = {}
        self.newer: Optional[TableImage] = None

    def written_until(self, later: "TableImage") -> Optional[set[int]]:
        """The ids of the rows written in place between this image and
        ``later``: every ``before`` key on the chain from this image up
        to, not including, ``later``.  None when ``later`` is not on
        this image's chain (the heap was replaced or restored since)."""
        written: set[int] = set()
        image: Optional[TableImage] = self
        while image is not later:
            if image is None:
                return None
            written.update(image.before)
            image = image.newer
        return written

    def restore(self) -> "TableData":
        """A fresh heap holding copies of this image's rows; the image
        stays valid, so it can be restored again."""
        chain = []
        image: Optional[TableImage] = self
        while image is not None:
            chain.append(image.before)
            image = image.newer
        before: dict[int, tuple] = {}
        for entries in reversed(chain):
            before.update(entries)
        data = TableData(self.name, self.column_count)
        data._rows = [list(before.get(id(row), row)) for row in self.rows]
        return data


class TableData:
    """Heap of rows for one table."""

    def __init__(self, name: str, column_count: int) -> None:
        self.name = name
        self.column_count = column_count
        self._rows: list[list[Any]] = []
        #: Maintained unique indexes, keyed by their column-index tuple.
        self._indexes: dict[tuple[int, ...], UniqueIndex] = {}
        #: Weak reference to the newest :class:`TableImage`; None when
        #: none was taken or the newest has died.
        self._image: Optional[weakref.ref[TableImage]] = None

    # -- images --------------------------------------------------------------

    def image(self) -> TableImage:
        """The heap as it stands now, sharing every row object."""
        image = TableImage(self)
        previous = self._image() if self._image is not None else None
        if previous is not None:
            previous.newer = image
        self._image = weakref.ref(image)
        return image

    def _save_before(self, row: list[Any]) -> None:
        """Give the newest image the prior values of ``row``, which is
        about to be written in place."""
        image = self._image() if self._image is not None else None
        if image is None:
            self._image = None
            return
        key = id(row)
        if key not in image.before:
            image.before[key] = tuple(row)

    # -- unique indexes ------------------------------------------------------

    def unique_index(self, indices: tuple[int, ...]) -> Optional[UniqueIndex]:
        """The maintained unique index over these column positions,
        building it on first use; None when the current rows cannot be
        uniquely indexed (duplicates or unkeyable values)."""
        index = self._indexes.get(indices)
        if index is None:
            index = UniqueIndex(len(indices))
            for row in self._rows:
                self._index_add(index, indices, row)
            self._indexes[indices] = index
        return None if index.poisoned else index

    @staticmethod
    def _index_key(indices: tuple[int, ...], row: list[Any]) -> Optional[tuple]:
        parts = []
        for position in indices:
            value = row[position]
            if value is None:
                return None
            parts.append(distinct_key(value))
        return tuple(parts)

    def _index_add(self, index: UniqueIndex, indices: tuple[int, ...], row) -> None:
        if index.poisoned:
            return
        try:
            key = self._index_key(indices, row)
        except Exception:
            index.poisoned = True
            index.map.clear()
            return
        if key is None:
            return
        if key in index.map:
            index.poisoned = True
            index.map.clear()
            return
        index.map[key] = row
        for slot, part in zip(index.kinds, key):
            slot.add(part[0])

    def _index_remove(self, index: UniqueIndex, indices: tuple[int, ...], row) -> None:
        if index.poisoned:
            return
        try:
            key = self._index_key(indices, row)
        except Exception:  # pragma: no cover - add() would have poisoned
            index.poisoned = True
            index.map.clear()
            return
        if key is None:
            return
        if index.map.get(key) is row:
            del index.map[key]

    def _indexes_add(self, row: list[Any]) -> None:
        for indices, index in self._indexes.items():
            self._index_add(index, indices, row)

    def _indexes_remove(self, row: list[Any]) -> None:
        for indices, index in self._indexes.items():
            self._index_remove(index, indices, row)

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> list[list[Any]]:
        """The live row list (callers must not mutate the list itself)."""
        return self._rows

    def snapshot(self) -> list[tuple[Any, ...]]:
        """An immutable copy of all rows (for resync / comparison)."""
        return [tuple(row) for row in self._rows]

    def insert(self, values: Iterable[Any]) -> list[Any]:
        row = list(values)
        if len(row) != self.column_count:
            raise ValueError(
                f"row width {len(row)} != table width {self.column_count}"
            )
        self._rows.append(row)
        if self._indexes:
            self._indexes_add(row)
        return row

    def update_row(self, row: list[Any], changes: dict[int, Any]) -> None:
        """Patch ``row`` (a live member of this heap) in place, keeping
        maintained indexes consistent.  ``changes`` maps column position
        to new value; passing the previous values back undoes the call."""
        if self._image is not None:
            self._save_before(row)
        affected = [
            (indices, index)
            for indices, index in self._indexes.items()
            if not changes.keys().isdisjoint(indices)
        ]
        for indices, index in affected:
            self._index_remove(index, indices, row)
        for position, value in changes.items():
            row[position] = value
        for indices, index in affected:
            self._index_add(index, indices, row)

    def delete_rows(self, predicate: Callable[[list[Any]], bool]) -> list[tuple[int, list[Any]]]:
        """Delete matching rows; return (position, row) pairs for undo."""
        removed: list[tuple[int, list[Any]]] = []
        kept: list[list[Any]] = []
        for position, row in enumerate(self._rows):
            if predicate(row):
                removed.append((position, row))
            else:
                kept.append(row)
        self._rows = kept
        if self._indexes:
            for _, row in removed:
                self._indexes_remove(row)
        return removed

    def remove_row(self, row: list[Any]) -> None:
        """Remove one row object (identity match), for undo of insert."""
        for index, candidate in enumerate(self._rows):
            if candidate is row:
                del self._rows[index]
                if self._indexes:
                    self._indexes_remove(row)
                return
        raise ValueError("row not present")  # pragma: no cover - undo invariant

    def restore_rows(self, removed: list[tuple[int, list[Any]]]) -> None:
        """Reinsert rows deleted by :meth:`delete_rows` at their positions."""
        for position, row in sorted(removed, key=lambda item: item[0]):
            self._rows.insert(min(position, len(self._rows)), row)
            if self._indexes:
                self._indexes_add(row)

    def replace_rows(self, rows: Iterable[Iterable[Any]]) -> None:
        """Bulk-load the heap from a snapshot (checkpoint restore).

        Replaces all current rows; every row must match the table
        width.  Used by the durability subsystem when re-seeding an
        engine from a durable checkpoint or a donor snapshot — one
        call instead of per-row INSERT replay.
        """
        loaded = [list(row) for row in rows]
        for row in loaded:
            if len(row) != self.column_count:
                raise ValueError(
                    f"row width {len(row)} != table width {self.column_count}"
                )
        self._rows = loaded
        self._indexes.clear()

    def add_column(self, default_value: Any) -> None:
        """Widen every row for ALTER TABLE ADD COLUMN."""
        self.column_count += 1
        for row in self._rows:
            self._save_before(row)
            row.append(default_value)
        self._indexes.clear()

    def drop_last_column(self) -> None:
        """Undo :meth:`add_column`."""
        self.column_count -= 1
        for row in self._rows:
            self._save_before(row)
            row.pop()
        self._indexes.clear()


class Storage:
    """All table heaps of one database instance."""

    def __init__(self) -> None:
        self._tables: dict[str, TableData] = {}

    def create(self, name: str, column_count: int) -> TableData:
        key = name.lower()
        if key in self._tables:
            raise ValueError(f"storage for {name!r} already exists")
        data = TableData(name, column_count)
        self._tables[key] = data
        return data

    def get(self, name: str) -> TableData:
        return self._tables[name.lower()]

    def get_optional(self, name: str) -> Optional[TableData]:
        return self._tables.get(name.lower())

    def drop(self, name: str) -> Optional[TableData]:
        return self._tables.pop(name.lower(), None)

    def tables(self) -> list[TableData]:
        """Every table heap (stable order; durability dump path)."""
        return [self._tables[key] for key in sorted(self._tables)]

    def row_count(self) -> int:
        """Total rows across all heaps (rebuild seeding cost model)."""
        return sum(len(data) for data in self._tables.values())

    def image(self) -> dict[str, TableImage]:
        """Every table heap as it stands now (see :meth:`TableData.image`)."""
        return {key: data.image() for key, data in self._tables.items()}

    @classmethod
    def restored(cls, images: dict[str, TableImage]) -> "Storage":
        """Fresh heaps holding copies of ``images``' rows."""
        storage = cls()
        storage._tables = {key: image.restore() for key, image in images.items()}
        return storage

    def clear(self) -> None:
        self._tables.clear()
