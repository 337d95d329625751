"""Content-addressed store: addressing, indexing, corruption defence."""

import hashlib
import json
import sqlite3
from pathlib import Path

from repro.provenance import (
    STORE_FILENAME,
    STORE_SCHEMA,
    TraceStore,
    canonical_json,
    code_epoch,
    verdict_key,
)


def make_key(name="demo", **overrides):
    params = dict(
        operator_digest="a" * 64,
        instruction_digest="b" * 64,
        engine="vectorized",
        trials=120,
        seed=1982,
        verify=True,
        epoch="e" * 64,
    )
    params.update(overrides)
    return verdict_key(name, **params)


#: What an earlier version could have left under a store root: the dir
#: tree its ``repro batch`` wrote, or the ``store.sqlite`` its
#: ``repro serve`` created.
LAYOUTS = ("dir", "sqlite")


def raw(root, sql, params=()):
    """Run one statement on ``root``'s database over a connection of its own."""
    connection = sqlite3.connect(str(Path(root) / STORE_FILENAME))
    try:
        with connection:
            return connection.execute(sql, params).fetchall()
    finally:
        connection.close()


def digest_of(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def leave_dir_tree(root, objects, pointers):
    """Write ``(digest, text)`` objects and ``(kind, name, digest)``
    pointers in the one-file-per-record tree earlier versions kept."""
    for digest, text in objects:
        path = Path(root) / "objects" / digest[:2] / f"{digest[2:]}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    for kind, name, digest in pointers:
        subdir = "keys" if kind == "key" else "by-name"
        path = Path(root) / "index" / subdir / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"object": digest}, sort_keys=True))


def leave_layout(root, layout):
    """Leave under ``root`` what an earlier version left there.

    ``dir``: a tree holding a verdict under the name ``legacy``, which
    the store must never read.  ``sqlite``: the empty database an
    earlier ``repro serve`` created on start, which the store reuses.
    """
    if layout == "dir":
        key = make_key(name="legacy")
        text = canonical_json({"schema": STORE_SCHEMA, "key": key, "result": {}})
        digest = digest_of(text)
        pointers = [
            ("key", digest_of(canonical_json(key)), digest),
            ("name", "legacy", digest),
        ]
        leave_dir_tree(root, [(digest, text)], pointers)
        return
    Path(root).mkdir(parents=True, exist_ok=True)
    connection = sqlite3.connect(str(Path(root) / STORE_FILENAME))
    connection.execute("PRAGMA journal_mode=WAL")
    connection.execute(
        "CREATE TABLE objects (digest TEXT PRIMARY KEY, body TEXT NOT NULL)"
    )
    connection.execute(
        "CREATE TABLE pointers (kind TEXT NOT NULL, name TEXT NOT NULL,"
        " object TEXT NOT NULL, PRIMARY KEY (kind, name))"
    )
    connection.close()


class TestObjects:
    def test_put_get_round_trip(self, tmp_path):
        store = TraceStore(tmp_path)
        digest = store.put_object({"hello": "world"})
        assert store.get_object(digest) == {"hello": "world"}

    def test_content_addressing_dedupes(self, tmp_path):
        store = TraceStore(tmp_path)
        first = store.put_object({"a": 1, "b": 2})
        second = store.put_object({"b": 2, "a": 1})
        assert first == second
        assert raw(tmp_path, "SELECT digest FROM objects") == [(first,)]

    def test_object_name_is_digest_of_canonical_json(self, tmp_path):
        import hashlib

        payload = {"x": [1, 2, 3]}
        store = TraceStore(tmp_path)
        digest = store.put_object(payload)
        expected = hashlib.sha256(
            canonical_json(payload).encode("utf-8")
        ).hexdigest()
        assert digest == expected

    def test_missing_object_is_none(self, tmp_path):
        assert TraceStore(tmp_path).get_object("0" * 64) is None

    def test_corrupted_object_is_none(self, tmp_path):
        store = TraceStore(tmp_path)
        digest = store.put_object({"fine": True})
        raw(tmp_path, "UPDATE objects SET body = '{x' WHERE digest = ?", (digest,))
        assert store.get_object(digest) is None


class TestVerdictIndex:
    def test_record_lookup_round_trip(self, tmp_path):
        store = TraceStore(tmp_path)
        key = make_key()
        payload = {"schema": STORE_SCHEMA, "key": key, "result": {"ok": True}}
        store.record_verdict(key, payload)
        assert store.lookup_verdict(key) == payload

    def test_different_key_is_a_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        key = make_key()
        store.record_verdict(
            key, {"schema": STORE_SCHEMA, "key": key, "result": {}}
        )
        assert store.lookup_verdict(make_key(trials=240)) is None
        assert store.lookup_verdict(make_key(epoch="f" * 64)) is None
        assert store.lookup_verdict(make_key(operator_digest="c" * 64)) is None

    def test_stale_pointer_is_rejected(self, tmp_path):
        """A pointer whose artifact answers a different key is a miss."""
        store = TraceStore(tmp_path)
        key = make_key()
        other = make_key(seed=7)
        store.record_verdict(
            key, {"schema": STORE_SCHEMA, "key": key, "result": {}}
        )
        wrong = store.put_object(
            {"schema": STORE_SCHEMA, "key": other, "result": {}}
        )
        raw(
            tmp_path,
            "UPDATE pointers SET object = ? WHERE kind = 'key' AND name = ?",
            (wrong, digest_of(canonical_json(key))),
        )
        assert store.lookup_verdict(key) is None

    def test_by_name_index(self, tmp_path):
        store = TraceStore(tmp_path)
        key = make_key(name="scasb_rigel")
        payload = {"schema": STORE_SCHEMA, "key": key, "result": {"n": 1}}
        store.record_verdict(key, payload)
        assert store.names() == ["scasb_rigel"]
        assert store.latest_for("scasb_rigel") == payload
        assert store.latest_for("nonsense") is None

    def test_latest_pointer_moves(self, tmp_path):
        store = TraceStore(tmp_path)
        first = {"schema": STORE_SCHEMA, "key": make_key(), "result": {"v": 1}}
        second = {
            "schema": STORE_SCHEMA,
            "key": make_key(seed=7),
            "result": {"v": 2},
        }
        store.record_verdict(make_key(), first)
        store.record_verdict(make_key(seed=7), second)
        assert store.latest_for("demo") == second


class TestCodeEpoch:
    def test_epoch_is_hex_and_cached(self):
        epoch = code_epoch()
        assert len(epoch) == 64
        int(epoch, 16)
        assert code_epoch() is epoch

    def test_key_defaults_to_current_epoch(self):
        key = verdict_key("x", "a" * 64, "b" * 64, "interp", 10, 1, True)
        assert key["code_epoch"] == code_epoch()
        assert key["schema"] == STORE_SCHEMA
