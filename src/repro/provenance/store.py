"""Content-addressed provenance store.

One WAL-mode sqlite database, ``<root>/store.sqlite``, holds two
tables::

    objects  (digest, body)        content-addressed artifacts
    pointers (kind, name, object)  ("key", key digest)  -> verdict digest
                                   ("name", analysis)   -> latest verdict

*Objects* are immutable JSON documents of two kinds.  A verdict
artifact holds the key that produced it and the JSON-ready result
fields the batch report needs; the two-sided analysis trace is an
object of its own, which the artifact names in ``trace``.  A store hit
therefore reads only the small verdict, and every key of one
derivation shares one trace object.  An object's name is the SHA-256
of its canonical JSON, so equal artifacts coincide and a trace
object's name is its derivation digest; every read re-hashes the
stored bytes: a corrupted object, or one whose bytes no longer decode,
reads as absent.

*Verdict keys* name everything that determines a verdict **without
running the analysis**: the schema version, the analysis name, the
digests of the two input descriptions, a digest of the whole
``repro`` source tree (the *code epoch* — any source change
conservatively invalidates every cached verdict), and the
verification plan (engine identity, trials, seed, verify flag).
``repro batch`` looks a key up before planning any work: a hit skips
both transformation replay and verification for that entry.

Any number of processes and threads share one store: connections are
per thread and never cross a ``fork``, WAL keeps readers unblocked
while a writer commits, and ``busy_timeout`` makes writers queue.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional

from .. import obs
from .schema import canonical_json

#: Version tag for stored verdict artifacts; bump to orphan old caches.
STORE_SCHEMA = "repro.verdict/2"

#: Environment variable naming the default store root for the CLI.
STORE_ENV_VAR = "REPRO_CACHE_DIR"

#: Default store root used by the CLI when the environment is silent.
DEFAULT_STORE_DIR = ".repro-cache"

#: The store's database file, inside the store root.
STORE_FILENAME = "store.sqlite"

_TABLES = (
    "CREATE TABLE IF NOT EXISTS objects ("
    " digest TEXT PRIMARY KEY,"
    " body TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS pointers ("
    " kind TEXT NOT NULL,"
    " name TEXT NOT NULL,"
    " object TEXT NOT NULL,"
    " PRIMARY KEY (kind, name))",
)


@lru_cache(maxsize=1)
def code_epoch() -> str:
    """SHA-256 over every source file of the ``repro`` package.

    The coarsest safe invalidation key: a cached verdict may only be
    reused when *no* code that could influence it has changed.  This
    over-invalidates (editing one analysis script discards every
    entry's cache), but the dominant warm case — re-running an
    unchanged tree — still hits 100%, and under-invalidation would
    silently report stale verdicts.
    """
    package_root = Path(__file__).resolve().parents[1]
    hasher = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        hasher.update(str(path.relative_to(package_root)).encode("utf-8"))
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    return hasher.hexdigest()


def verdict_key(
    name: str,
    operator_digest: str,
    instruction_digest: str,
    engine: str,
    trials: int,
    seed: int,
    verify: bool,
    epoch: Optional[str] = None,
    symbolic: bool = False,
) -> Dict[str, object]:
    """The lookup key for one entry's memoized verdict.

    ``symbolic`` is part of the key because the symbolic fast path
    changes how a verdict was reached (a proved binding runs a reduced
    confirmation window): a verdict computed one way must never answer
    a lookup planned the other way.
    """
    return {
        "schema": STORE_SCHEMA,
        "name": name,
        "code_epoch": epoch if epoch is not None else code_epoch(),
        "operator_digest": operator_digest,
        "instruction_digest": instruction_digest,
        "engine": engine,
        "trials": trials,
        "seed": seed,
        "verify": verify,
        "symbolic": symbolic,
    }


def _digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _key_digest(key: Dict[str, object]) -> str:
    return _digest_text(canonical_json(key))


def _load(digest: bytes, body: bytes) -> Optional[Dict[str, object]]:
    """The object ``body`` holds, or None unless it hashes to ``digest``.

    Both arrive as raw bytes: a bit flip can leave bytes that are not
    UTF-8 at all, and those must read as absent, not raise.
    """
    if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
        return None
    try:
        return json.loads(body)
    except ValueError:
        return None


class TraceStore:
    """Content-addressed store of verdict artifacts under one root."""

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        self.path = self.root / STORE_FILENAME
        self._local = threading.local()
        # A bad root fails here, not on the first lookup.
        self._connect()

    def _connect(self) -> sqlite3.Connection:
        connection = getattr(self._local, "connection", None)
        if connection is not None and self._local.pid == os.getpid():
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
        for statement in _TABLES:
            connection.execute(statement)
        self._local.connection = connection
        self._local.pid = os.getpid()
        return connection

    def close(self) -> None:
        """Close this thread's connection (a forked child's is not its own)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None and self._local.pid == os.getpid():
            connection.close()
        self._local.connection = None

    # -- raw objects ----------------------------------------------------

    def put_object(self, payload: Dict[str, object]) -> str:
        """Store a JSON payload; returns its content digest.

        Writing a digest again rewrites a body altered since, so a
        corrupted object heals on the next write of its digest.
        """
        text = canonical_json(payload)
        digest = _digest_text(text)
        self._connect().execute(
            "INSERT INTO objects (digest, body) VALUES (?, ?) "
            "ON CONFLICT (digest) DO UPDATE SET body = excluded.body "
            "WHERE body != excluded.body",
            (digest, text),
        )
        return digest

    def get_object(self, digest: str) -> Optional[Dict[str, object]]:
        """Load an object, or None when absent or corrupted.

        The bytes are re-hashed against the name, so an object altered
        in place reads as absent even when it is still valid JSON.
        """
        row = self._connect().execute(
            "SELECT CAST(body AS BLOB) FROM objects WHERE digest = ?", (digest,)
        ).fetchone()
        return None if row is None else _load(digest.encode("utf-8"), row[0])

    # -- the verdict index ----------------------------------------------

    def record_verdict(
        self, key: Dict[str, object], payload: Dict[str, object]
    ) -> str:
        """Store an artifact and index it by key and analysis name.

        The object lands before any pointer names it (no reader can
        follow a pointer to a missing artifact), and both pointers
        commit in one transaction, so a concurrent reader sees the old
        verdict or the new one, never a mix.
        """
        obs.inc("repro_provenance_store_writes_total")
        digest = self.put_object(payload)
        pointers = [("key", _key_digest(key), digest)]
        name = key.get("name")
        if isinstance(name, str) and name:
            pointers.append(("name", name, digest))
        connection = self._connect()
        with connection:
            connection.execute("BEGIN IMMEDIATE")
            connection.executemany(
                "INSERT OR REPLACE INTO pointers (kind, name, object) "
                "VALUES (?, ?, ?)",
                pointers,
            )
        return digest

    def _resolve(self, kind: str, name: str) -> Optional[Dict[str, object]]:
        row = self._connect().execute(
            "SELECT CAST(pointers.object AS BLOB), CAST(objects.body AS BLOB) "
            "FROM pointers JOIN objects ON objects.digest = pointers.object "
            "WHERE pointers.kind = ? AND pointers.name = ?",
            (kind, name),
        ).fetchone()
        return None if row is None else _load(*row)

    def lookup_verdict(
        self, key: Dict[str, object]
    ) -> Optional[Dict[str, object]]:
        """The memoized artifact for a key, or None (a cache miss)."""
        payload = self._resolve("key", _key_digest(key))
        if payload is None:
            obs.inc("repro_provenance_store_misses_total")
            return None
        # Defence in depth: the pointer is mutable state, so re-check
        # that the artifact really answers this key.
        if payload.get("key") != key:
            obs.inc("repro_provenance_store_misses_total")
            return None
        obs.inc("repro_provenance_store_hits_total")
        return payload

    def latest_for(self, name: str) -> Optional[Dict[str, object]]:
        """The most recently recorded artifact for an analysis name."""
        return self._resolve("name", name)

    def names(self) -> List[str]:
        """All analysis names with a by-name pointer, sorted."""
        rows = self._connect().execute(
            "SELECT name FROM pointers WHERE kind = 'name' ORDER BY name"
        ).fetchall()
        return [row[0] for row in rows]


__all__ = [
    "DEFAULT_STORE_DIR",
    "STORE_ENV_VAR",
    "STORE_FILENAME",
    "STORE_SCHEMA",
    "TraceStore",
    "code_epoch",
    "verdict_key",
]
