"""Content-addressed provenance store.

Logical layout (the ``dir`` backend's on-disk shape; the ``sqlite``
backend stores the same records in one WAL database — see
:mod:`repro.provenance.backend`)::

    <root>/
      objects/<aa>/<digest[2:]>.json   content-addressed artifacts
      index/keys/<key-digest>.json     verdict key -> object digest
      index/by-name/<analysis>.json    latest object digest per analysis

*Objects* are immutable JSON documents of two kinds.  A verdict
artifact holds the key that produced it, the JSON-ready result fields
the batch report needs, and the trace's digest; the two-sided analysis
trace is an object of its own, which the artifact names by its object
digest in ``trace``.  A store hit therefore reads only the small
verdict, and every key of one derivation shares one trace object.
An object's name is the SHA-256 of its canonical JSON, so equal
artifacts coincide, and every read re-hashes the text: a corrupted
object reads as absent.

*Verdict keys* name everything that determines a verdict **without
running the analysis**: the schema version, the analysis name, the
digests of the two input descriptions, a digest of the whole
``repro`` source tree (the *code epoch* — any source change
conservatively invalidates every cached verdict), and the
verification plan (engine identity, trials, seed, verify flag).
``repro batch`` looks a key up before planning any work: a hit skips
both transformation replay and verification for that entry.

The storage backend is **not** part of the verdict key: a verdict is
the same verdict wherever it is stored, which is why a dir store and
a sqlite store answer identical lookups with identical artifacts (and
why a batch report is byte-identical across backends).
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional

from .. import obs
from .backend import (
    BACKENDS,
    StoreBackend,
    detect_backend,
    make_backend,
    migrate_backend,
)
from .schema import canonical_json

#: Version tag for stored verdict artifacts; bump to orphan old caches.
STORE_SCHEMA = "repro.verdict/2"

#: Environment variable naming the default store root for the CLI.
STORE_ENV_VAR = "REPRO_CACHE_DIR"

#: Default store root used by the CLI when the environment is silent.
DEFAULT_STORE_DIR = ".repro-cache"


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


class TraceStore:
    """Content-addressed store of verdict artifacts under one root.

    ``backend`` selects the storage substrate (see
    :data:`~repro.provenance.backend.BACKENDS`): ``"dir"`` is the
    historical directory tree, ``"sqlite"`` one WAL database shared
    safely by many processes.  ``None`` auto-detects — a root holding
    a ``store.sqlite`` file opens as sqlite, anything else (including
    a fresh root) as dir — so existing stores keep working unflagged.
    """

    def __init__(self, root: os.PathLike, backend: Optional[str] = None):
        self.root = Path(root)
        resolved = backend if backend is not None else detect_backend(root)
        self._backend: StoreBackend = make_backend(resolved, self.root)

    @property
    def backend_name(self) -> str:
        """The active backend's registered name."""
        return self._backend.name

    def close(self) -> None:
        """Release backend resources (sqlite connections; dir: no-op)."""
        self._backend.close()

    # -- raw objects ----------------------------------------------------

    def _object_path(self, digest: str) -> Path:
        """Dir-backend object location (test/debug support)."""
        return self.root / "objects" / digest[:2] / f"{digest[2:]}.json"

    def put_object(self, payload: Dict[str, object]) -> str:
        """Store a JSON payload; returns its content digest."""
        text = canonical_json(payload)
        digest = _digest_text(text)
        self._backend.put_object(digest, text)
        return digest

    def get_object(self, digest: str) -> Optional[Dict[str, object]]:
        """Load an object, or None when absent or corrupted.

        The text is re-hashed against its name, so an object altered in
        place reads as absent even when it is still valid JSON.
        """
        text = self._backend.get_object_text(digest)
        if text is None or _digest_text(text) != digest:
            return None
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            return None

    # -- the verdict index ----------------------------------------------

    def _key_digest(self, key: Dict[str, object]) -> str:
        return _digest_text(canonical_json(key))

    def _key_path(self, key: Dict[str, object]) -> Path:
        """Dir-backend key-pointer location (test/debug support)."""
        return self.root / "index" / "keys" / f"{self._key_digest(key)}.json"

    def _name_path(self, name: str) -> Path:
        """Dir-backend by-name-pointer location (test/debug support)."""
        return self.root / "index" / "by-name" / f"{name}.json"

    def record_verdict(
        self, key: Dict[str, object], payload: Dict[str, object]
    ) -> str:
        """Store an artifact and index it by key and analysis name.

        The object lands before any pointer names it (no reader can
        follow a pointer to a missing artifact), and both pointers go
        to the backend as one group — atomically together on sqlite,
        individually atomic last-writer-wins on dir.
        """
        obs.inc("repro_provenance_store_writes_total")
        digest = self.put_object(payload)
        pointers = [("key", self._key_digest(key), digest)]
        name = key.get("name")
        if isinstance(name, str) and name:
            pointers.append(("name", name, digest))
        self._backend.set_pointers(pointers)
        return digest

    def _resolve(self, kind: str, name: str) -> Optional[Dict[str, object]]:
        digest = self._backend.get_pointer(kind, name)
        if digest is None:
            return None
        return self.get_object(digest)

    def lookup_verdict(
        self, key: Dict[str, object]
    ) -> Optional[Dict[str, object]]:
        """The memoized artifact for a key, or None (a cache miss)."""
        payload = self._resolve("key", self._key_digest(key))
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

    def names(self):
        """All analysis names with a by-name pointer, sorted."""
        return self._backend.pointer_names("name")


def migrate_store(
    source: TraceStore, target: TraceStore
) -> int:
    """Copy ``source``'s full contents into ``target``.

    The canonical dir→sqlite migration path: every content-addressed
    object and every index pointer carries over, so the target answers
    exactly the lookups the source did — warm verdicts stay warm and
    ``repro replay`` digests are unchanged.  Returns the number of
    objects copied.
    """
    return migrate_backend(source._backend, target._backend)


__all__ = [
    "BACKENDS",
    "DEFAULT_STORE_DIR",
    "STORE_ENV_VAR",
    "STORE_SCHEMA",
    "TraceStore",
    "code_epoch",
    "migrate_store",
    "verdict_key",
]
