"""Pluggable storage backends behind :class:`~repro.provenance.TraceStore`.

The store's *logic* — content addressing, verdict keys, pointer
validation — is backend-independent; what varies is how raw objects
and index pointers reach disk.  A :class:`StoreBackend` is exactly
that raw surface:

* **objects** — immutable, content-addressed JSON texts keyed by their
  SHA-256 digest; writing the same digest twice keeps one copy, and
  rewrites a body that was altered in place;
* **pointers** — small mutable records ``(kind, name) -> digest``
  (``kind`` is ``"key"`` for verdict-key pointers and ``"name"`` for
  the by-name index).  Pointer updates are *last-writer-wins*: under
  concurrent writers every reader must observe some complete, valid
  pointer — never a torn or dangling one.

Two backends ship:

``dir``
    The original directory tree (``objects/``, ``index/keys/``,
    ``index/by-name/``), one JSON file per object or pointer.  Every
    write goes through a same-directory ``mkstemp`` + ``os.replace``,
    which POSIX guarantees atomic, so concurrent writers of the same
    pointer serialize into last-writer-wins and readers always see a
    whole file.  Objects are written before any pointer that names
    them, so a resolvable pointer can never dangle.

``sqlite``
    One ``store.sqlite`` file in WAL journal mode, shared by any
    number of processes and threads.  Pointer updates for one verdict
    (the key pointer *and* the by-name pointer) commit in a single
    transaction, so a concurrent reader sees either both updates or
    neither — the dir backend can only promise per-pointer atomicity.
    WAL keeps readers unblocked while a writer commits, which is what
    lets many service workers share one warm verdict cache.

Both backends hold the same data; :func:`migrate_store` copies one
store's full contents into another, after which verdict lookups (and
therefore ``repro replay`` digests) are unchanged.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
import threading
import time
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

#: The selectable backend names, in documentation order.
BACKENDS: Tuple[str, ...] = ("dir", "sqlite")

#: The sqlite backend's single database file, inside the store root.
SQLITE_FILENAME = "store.sqlite"

#: Pointer kinds: verdict-key pointers and the by-name index.
_POINTER_KINDS = ("key", "name")


class StoreBackendError(ValueError):
    """An unknown backend name was requested."""


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp file + rename).

    ``os.replace`` is atomic on POSIX, so a concurrent reader of
    ``path`` sees either the old complete file or the new complete
    file; two concurrent writers serialize into last-writer-wins.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, str(path))
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class StoreBackend:
    """Raw object + pointer storage under one store root.

    Subclasses must make :meth:`set_pointers` last-writer-wins-safe
    under concurrent writers and :meth:`get_pointer` immune to torn
    reads; :meth:`put_object` must be idempotent per digest and must
    replace a stored body that differs from ``text``, so a corrupted
    object heals on the next write of its digest.
    """

    #: the backend's registered name (``dir`` / ``sqlite``).
    name: str = ""

    def put_object(self, digest: str, text: str) -> None:
        raise NotImplementedError

    def get_object_text(self, digest: str) -> Optional[str]:
        raise NotImplementedError

    def set_pointers(self, pointers: Sequence[Tuple[str, str, str]]) -> None:
        """Update ``(kind, name) -> digest`` pointers, last-writer-wins."""
        raise NotImplementedError

    def get_pointer(self, kind: str, name: str) -> Optional[str]:
        raise NotImplementedError

    def pointer_names(self, kind: str) -> List[str]:
        """All pointer names of one kind, sorted."""
        raise NotImplementedError

    def iter_objects(self) -> Iterator[Tuple[str, str]]:
        """Every stored ``(digest, text)`` pair (migration support)."""
        raise NotImplementedError

    def iter_pointers(self) -> Iterator[Tuple[str, str, str]]:
        """Every ``(kind, name, digest)`` pointer (migration support)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (connections, handles)."""


class DirBackend(StoreBackend):
    """The original one-file-per-artifact directory tree."""

    name = "dir"

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    # -- objects --------------------------------------------------------

    def _object_path(self, digest: str) -> Path:
        return self.root / "objects" / digest[:2] / f"{digest[2:]}.json"

    def put_object(self, digest: str, text: str) -> None:
        path = self._object_path(digest)
        try:
            if path.read_text(encoding="utf-8") == text:
                return
        except (OSError, UnicodeDecodeError):
            pass
        # Absent, or altered in place since it was written.  Two racing
        # writers of one digest both produce identical bytes, so either
        # atomic replace winning is correct.
        _atomic_write(path, text)

    def get_object_text(self, digest: str) -> Optional[str]:
        try:
            return self._object_path(digest).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            # A bit flip can leave bytes that are not UTF-8 at all.
            return None

    # -- pointers -------------------------------------------------------

    def _pointer_path(self, kind: str, name: str) -> Path:
        subdir = "keys" if kind == "key" else "by-name"
        return self.root / "index" / subdir / f"{name}.json"

    def set_pointers(self, pointers: Sequence[Tuple[str, str, str]]) -> None:
        # Each pointer write is individually atomic (tmp + os.replace):
        # concurrent record_verdict calls for the same name serialize
        # into last-writer-wins per pointer file, and a reader can
        # never observe a torn pointer.  Cross-pointer atomicity (key
        # and by-name moving together) is the sqlite backend's upgrade.
        for kind, name, digest in pointers:
            text = json.dumps({"object": digest}, sort_keys=True)
            _atomic_write(self._pointer_path(kind, name), text)

    def get_pointer(self, kind: str, name: str) -> Optional[str]:
        try:
            payload = json.loads(
                self._pointer_path(kind, name).read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError):
            return None
        digest = payload.get("object")
        return digest if isinstance(digest, str) else None

    def pointer_names(self, kind: str) -> List[str]:
        directory = self._pointer_path(kind, "x").parent
        if not directory.is_dir():
            return []
        # Skip in-flight ``.tmp-*`` files: pathlib's ``*`` matches
        # leading dots, and a crashed writer's leftovers must never
        # surface as phantom analysis names.
        return sorted(
            path.stem
            for path in directory.glob("*.json")
            if not path.name.startswith(".")
        )

    def iter_objects(self) -> Iterator[Tuple[str, str]]:
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for path in sorted(objects.rglob("*.json")):
            if path.name.startswith("."):
                continue
            digest = path.parent.name + path.stem
            try:
                yield digest, path.read_text(encoding="utf-8")
            except OSError:
                continue

    def iter_pointers(self) -> Iterator[Tuple[str, str, str]]:
        for kind in _POINTER_KINDS:
            for name in self.pointer_names(kind):
                digest = self.get_pointer(kind, name)
                if digest is not None:
                    yield kind, name, digest


class SqliteBackend(StoreBackend):
    """One WAL-mode sqlite database shared by many readers and writers.

    Connections are per-thread (sqlite3 objects must not cross
    threads) and never cross a ``fork`` — a forked child opens its
    own.  ``busy_timeout`` makes concurrent writers queue instead of
    erroring, and WAL lets readers proceed while a writer commits.
    """

    name = "sqlite"

    _SCHEMA = (
        "CREATE TABLE IF NOT EXISTS objects ("
        " digest TEXT PRIMARY KEY,"
        " body TEXT NOT NULL)",
        "CREATE TABLE IF NOT EXISTS pointers ("
        " kind TEXT NOT NULL,"
        " name TEXT NOT NULL,"
        " object TEXT NOT NULL,"
        " PRIMARY KEY (kind, name))",
    )

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.path = self.root / SQLITE_FILENAME
        self._local = threading.local()
        # Connect eagerly: the database file doubles as the detection
        # marker (see :func:`detect_backend`), so even a store that is
        # never written must leave it behind — and a bad root fails
        # here, not on the first lookup.
        self._connect()

    def _connect(self) -> sqlite3.Connection:
        connection = getattr(self._local, "connection", None)
        pid = getattr(self._local, "pid", None)
        if connection is not None and pid == os.getpid():
            return connection
        self.root.mkdir(parents=True, exist_ok=True)
        connection = sqlite3.connect(
            str(self.path), timeout=30.0, isolation_level=None
        )
        # Switching a fresh file to WAL needs an exclusive lock, and
        # sqlite can report it locked at once instead of waiting out the
        # busy timeout while other processes open the same new store.
        deadline = time.monotonic() + 30.0
        while True:
            try:
                connection.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) or time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute("PRAGMA busy_timeout=30000")
        for statement in self._SCHEMA:
            connection.execute(statement)
        self._local.connection = connection
        self._local.pid = os.getpid()
        return connection

    def put_object(self, digest: str, text: str) -> None:
        self._connect().execute(
            "INSERT INTO objects (digest, body) VALUES (?, ?) "
            "ON CONFLICT (digest) DO UPDATE SET body = excluded.body "
            "WHERE body != excluded.body",
            (digest, text),
        )

    def get_object_text(self, digest: str) -> Optional[str]:
        row = self._connect().execute(
            "SELECT body FROM objects WHERE digest = ?", (digest,)
        ).fetchone()
        return None if row is None else row[0]

    def set_pointers(self, pointers: Sequence[Tuple[str, str, str]]) -> None:
        connection = self._connect()
        # One transaction for the whole pointer group: the key pointer
        # and the by-name pointer of a verdict move together, so a
        # concurrent reader sees the old verdict or the new one —
        # never a mix.
        with connection:
            connection.execute("BEGIN IMMEDIATE")
            connection.executemany(
                "INSERT OR REPLACE INTO pointers (kind, name, object) "
                "VALUES (?, ?, ?)",
                list(pointers),
            )

    def get_pointer(self, kind: str, name: str) -> Optional[str]:
        row = self._connect().execute(
            "SELECT object FROM pointers WHERE kind = ? AND name = ?",
            (kind, name),
        ).fetchone()
        return None if row is None else row[0]

    def pointer_names(self, kind: str) -> List[str]:
        rows = self._connect().execute(
            "SELECT name FROM pointers WHERE kind = ? ORDER BY name",
            (kind,),
        ).fetchall()
        return [row[0] for row in rows]

    def iter_objects(self) -> Iterator[Tuple[str, str]]:
        rows = self._connect().execute(
            "SELECT digest, body FROM objects ORDER BY digest"
        )
        for digest, body in rows:
            yield digest, body

    def iter_pointers(self) -> Iterator[Tuple[str, str, str]]:
        rows = self._connect().execute(
            "SELECT kind, name, object FROM pointers ORDER BY kind, name"
        )
        for kind, name, digest in rows:
            yield kind, name, digest

    def close(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None and getattr(self._local, "pid", None) == os.getpid():
            connection.close()
        self._local.connection = None


def detect_backend(root: os.PathLike) -> str:
    """The backend already living under ``root`` (``dir`` when fresh).

    A ``store.sqlite`` file marks a migrated (or sqlite-born) store;
    everything else — including an empty or absent root — is the
    historical directory layout, so auto-detection never changes the
    behaviour of a pre-existing dir store.
    """
    return "sqlite" if (Path(root) / SQLITE_FILENAME).is_file() else "dir"


def make_backend(name: str, root: os.PathLike) -> StoreBackend:
    """Instantiate backend ``name`` rooted at ``root``."""
    if name == "dir":
        return DirBackend(Path(root))
    if name == "sqlite":
        return SqliteBackend(Path(root))
    raise StoreBackendError(
        "unknown store backend %r; choose from: %s"
        % (name, ", ".join(BACKENDS))
    )


def migrate_backend(source: StoreBackend, target: StoreBackend) -> int:
    """Copy every object and pointer from ``source`` into ``target``.

    Objects are copied before pointers (the same dangling-pointer
    discipline every backend write obeys), and pointer updates go
    through :meth:`StoreBackend.set_pointers` so the target's own
    atomicity guarantees hold during the copy.  Returns the number of
    objects copied.  Idempotent: re-running a migration is a no-op
    for objects (content-addressed) and last-writer-wins for pointers.
    """
    copied = 0
    for digest, text in source.iter_objects():
        target.put_object(digest, text)
        copied += 1
    pointers: Iterable[Tuple[str, str, str]] = list(source.iter_pointers())
    if pointers:
        target.set_pointers(list(pointers))
    return copied
