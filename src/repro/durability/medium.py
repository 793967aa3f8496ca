"""Byte-level storage media for the durability subsystem.

The WAL and checkpoint layers are written against a tiny append/read
abstraction so the same code path serves two media:

* :class:`MemoryMedium` — named ``bytearray`` files.  Deterministic,
  fast, and trivially forkable (:meth:`MemoryMedium.clone`), which is
  what the power-cut property tests and the ``diskstorm`` drill need:
  "pull the plug" is a byte-exact copy of the medium truncated at an
  arbitrary boundary.
* :class:`FileMedium` — real files under a root directory, proving the
  encoding survives an actual filesystem round trip.

Neither medium buffers: every :meth:`append` is immediately visible to
:meth:`read` (and, on files, fsynced before it returns).  Lost-flush
semantics are injected *above* this layer by the storage fault effects
(a record that never reaches the medium), so the media themselves stay
dumb and honest.
"""

from __future__ import annotations

import os


class StorageMedium:
    """Abstract named-byte-stream store (the durability "disk")."""

    def append(self, name: str, data: bytes) -> None:
        raise NotImplementedError  # pragma: no cover - abstract

    def read(self, name: str) -> bytes:
        """Full contents; missing names read as empty."""
        raise NotImplementedError  # pragma: no cover - abstract

    def write(self, name: str, data: bytes) -> None:
        """Replace contents atomically (checkpoint publication)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def truncate(self, name: str, size: int) -> None:
        raise NotImplementedError  # pragma: no cover - abstract

    def delete(self, name: str) -> None:
        raise NotImplementedError  # pragma: no cover - abstract

    def size(self, name: str) -> int:
        return len(self.read(name))

    def names(self, prefix: str = "") -> list[str]:
        raise NotImplementedError  # pragma: no cover - abstract


class MemoryMedium(StorageMedium):
    """In-memory medium: the default for tests, drills, and benches."""

    def __init__(self) -> None:
        self._files: dict[str, bytearray] = {}

    def append(self, name: str, data: bytes) -> None:
        self._files.setdefault(name, bytearray()).extend(data)

    def read(self, name: str) -> bytes:
        return bytes(self._files.get(name, b""))

    def write(self, name: str, data: bytes) -> None:
        self._files[name] = bytearray(data)

    def truncate(self, name: str, size: int) -> None:
        blob = self._files.get(name)
        if blob is not None and size < len(blob):
            del blob[size:]

    def delete(self, name: str) -> None:
        self._files.pop(name, None)

    def names(self, prefix: str = "") -> list[str]:
        return sorted(name for name in self._files if name.startswith(prefix))

    # -- power-cut simulation helpers -----------------------------------

    def clone(self) -> "MemoryMedium":
        """An independent byte-exact copy (the surviving disk image)."""
        copied = MemoryMedium()
        copied._files = {name: bytearray(blob) for name, blob in self._files.items()}
        return copied

    def corrupt(self, name: str, offset: int, xor: int = 0x01) -> None:
        """Flip bits of one byte in place (bit-rot simulation)."""
        blob = self._files.get(name)
        if blob is not None and 0 <= offset < len(blob):
            blob[offset] ^= xor & 0xFF


class FileMedium(StorageMedium):
    """Medium backed by real files under ``root``.

    Names may contain ``/`` separators; directories are created on
    demand.  ``append`` and ``write`` return only once the bytes are
    durable: the file is fsynced, and ``write`` publishes through a
    rename of an already-synced temp file followed by an fsync of the
    directory, so a checkpoint is never observable half-written and
    never lost to a power cut after it was reported saved.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, name: str) -> str:
        path = os.path.join(self.root, *name.split("/"))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def append(self, name: str, data: bytes) -> None:
        with open(self._path(name), "ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def read(self, name: str) -> bytes:
        path = self._path(name)
        if not os.path.exists(path):
            return b""
        with open(path, "rb") as handle:
            return handle.read()

    def write(self, name: str, data: bytes) -> None:
        path = self._path(name)
        temp = path + ".tmp"
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
        directory = os.open(os.path.dirname(path), os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)

    def truncate(self, name: str, size: int) -> None:
        path = self._path(name)
        if os.path.exists(path) and size < os.path.getsize(path):
            with open(path, "r+b") as handle:
                handle.truncate(size)

    def delete(self, name: str) -> None:
        path = self._path(name)
        if os.path.exists(path):
            os.remove(path)

    def size(self, name: str) -> int:
        path = self._path(name)
        return os.path.getsize(path) if os.path.exists(path) else 0

    def names(self, prefix: str = "") -> list[str]:
        found: list[str] = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for filename in filenames:
                if filename.endswith(".tmp"):
                    continue
                full = os.path.join(dirpath, filename)
                rel = os.path.relpath(full, self.root).replace(os.sep, "/")
                if rel.startswith(prefix):
                    found.append(rel)
        return sorted(found)
