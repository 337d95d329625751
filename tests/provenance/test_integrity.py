"""Store integrity: reads re-hash, and a store hit never needs its trace.

A verdict artifact names its analysis trace by object digest, so a
warm batch reads only the small verdict and ``repro replay`` follows
the reference.  Every object read re-hashes the stored bytes against
its name: an object altered in place, even into valid JSON, reads as
absent, so a tampered verdict is recomputed instead of served.  A
write interrupted before its pointers commit, or one that waits on a
lock, never leaves a wrong or partial verdict behind.
"""

import json
import sqlite3
import threading
import time

import pytest

from repro import api
from repro.analysis.config import RunConfig
from repro.provenance import STORE_FILENAME, STORE_SCHEMA, TraceStore, trace_for

from .test_store import LAYOUTS, leave_layout, raw


def tamper(root, digest, old, new):
    """Swap ``old`` for ``new`` in an object's body in place, keeping its
    name; the body stays valid JSON."""
    ((text,),) = raw(root, "SELECT body FROM objects WHERE digest = ?", (digest,))
    assert old in text
    tampered = text.replace(old, new)
    json.loads(tampered)
    raw(root, "UPDATE objects SET body = ? WHERE digest = ?", (tampered, digest))


def flip_byte(root, table, column, where, params):
    """Set byte 10 of one text value to 0xFF, which no UTF-8 text holds."""
    ((value,),) = raw(
        root, f"SELECT CAST({column} AS BLOB) FROM {table} WHERE {where}", params
    )
    flipped = bytearray(value)
    flipped[10] = 0xFF
    raw(
        root,
        f"UPDATE {table} SET {column} = CAST(? AS TEXT) WHERE {where}",
        (bytes(flipped),) + params,
    )


def latest_digest(root, name):
    ((digest,),) = raw(
        root, "SELECT object FROM pointers WHERE kind = 'name' AND name = ?", (name,)
    )
    return digest


def modulo_cache(report):
    payload = json.loads(report.to_json())
    payload.pop("cache")
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("layout", LAYOUTS)
class TestRehashOnRead:
    def test_tampered_verdict_is_a_miss_and_recomputed(self, tmp_path, layout):
        root = tmp_path / "store"
        leave_layout(root, layout)
        config = RunConfig(trials=40, cache_dir=root)
        cold = api.batch(["movsb_pascal"], config).report
        (fresh,) = cold.results
        trials = fresh.verified_trials
        tamper(
            root,
            latest_digest(root, "movsb_pascal"),
            f'"verified_trials":{trials}',
            f'"verified_trials":{trials + 1}',
        )

        warm = api.batch(["movsb_pascal"], config).report
        (result,) = warm.results
        assert warm.cache_hits == 0
        assert not result.cached
        assert result.verified_trials == trials
        assert warm.to_json() == cold.to_json()

        # The recompute wrote the right bytes back under the same name.
        healed = api.batch(["movsb_pascal"], config).report
        assert healed.cache_hits == 1
        assert modulo_cache(healed) == modulo_cache(cold)

    def test_tampered_trace_object_replays_fresh(self, tmp_path, layout):
        root = tmp_path / "store"
        leave_layout(root, layout)
        config = RunConfig(trials=40, cache_dir=root)
        api.batch(["movsb_pascal"], config)
        store = TraceStore(root)
        trace_ref = store.latest_for("movsb_pascal")["trace"]
        stored, origin = trace_for(store, "movsb_pascal")
        assert origin == "stored"
        store.close()
        tamper(
            root,
            trace_ref,
            '"machine":"Intel 8086"',
            '"machine":"Intel 8088"',
        )

        store = TraceStore(root)
        got, origin = trace_for(store, "movsb_pascal")
        store.close()
        assert origin == "fresh"
        assert got.digest() == stored.digest()
        # The verdict itself is intact and still answers its key.
        assert api.batch(["movsb_pascal"], config).report.cache_hits == 1


@pytest.mark.parametrize("where", ["object", "pointer"])
def test_undecodable_bytes_are_a_miss_and_recomputed(tmp_path, where):
    root = tmp_path / "store"
    config = RunConfig(trials=8, cache_dir=root)
    cold = api.batch(["movsb_pascal"], config).report
    if where == "object":
        digest = latest_digest(root, "movsb_pascal")
        flip_byte(root, "objects", "body", "digest = ?", (digest,))
    else:
        flip_byte(root, "pointers", "object", "kind = ?", ("key",))

    warm = api.batch(["movsb_pascal"], config).report
    assert warm.cache_hits == 0
    assert warm.to_json() == cold.to_json()
    # The recompute rewrote the body, or the key pointer, and hits again.
    assert api.batch(["movsb_pascal"], config).report.cache_hits == 1


@pytest.mark.parametrize("layout", LAYOUTS)
def test_store_hits_never_read_their_traces(tmp_path, layout):
    root = tmp_path / "store"
    leave_layout(root, layout)
    config = RunConfig(trials=8, cache_dir=root)
    cold = api.batch(config=config).report
    replayed = api.replay(cache_dir=root)
    assert replayed.ok
    assert {entry.origin for entry in replayed.entries} == {"stored"}

    store = TraceStore(root)
    verdicts = [store.latest_for(name) for name in store.names()]
    traces = {verdict["trace"] for verdict in verdicts}
    store.close()
    assert len(verdicts) == 20
    for digest in traces:
        raw(root, "DELETE FROM objects WHERE digest = ?", (digest,))

    warm = api.batch(config=config).report
    assert warm.cache_hits == 20
    assert modulo_cache(warm) == modulo_cache(cold)
    replayed = api.replay(cache_dir=root)
    assert replayed.ok
    assert {entry.origin for entry in replayed.entries} == {"fresh"}


def test_one_trace_object_serves_every_key_of_a_derivation(tmp_path):
    root = tmp_path / "store"
    for trials in (8, 12):
        api.batch(["scasb_rigel"], RunConfig(trials=trials, cache_dir=root))
    payloads = [json.loads(body) for (body,) in raw(root, "SELECT body FROM objects")]
    traces = {
        payload["trace"]
        for payload in payloads
        if payload.get("schema") == STORE_SCHEMA
    }
    # Two verdicts (one per trial count), one shared trace object.
    assert len(payloads) == 3
    assert len(traces) == 1


# ---------------------------------------------------------------------------
# fail closed: an interrupted write, a write that waits on a lock

NAMES = ["scasb_rigel", "movsb_pascal", "locc_rigel"]


class TestFailClosed:
    def test_crash_between_object_and_pointer_writes(self, tmp_path):
        root = tmp_path / "store"
        config = RunConfig(trials=8, cache_dir=root)
        cold = api.batch(NAMES, RunConfig(trials=8, cache_dir=tmp_path / "cold"))
        # movsb_pascal's pointer transaction fails after its objects were
        # written: its key pointer must roll back with its name pointer.
        TraceStore(root).close()
        raw(
            root,
            "CREATE TRIGGER crash BEFORE INSERT ON pointers"
            " WHEN NEW.kind = 'name' AND NEW.name = 'movsb_pascal'"
            " BEGIN SELECT RAISE(ABORT, 'crash before the pointers'); END",
        )
        with pytest.raises(sqlite3.IntegrityError, match="crash before the pointers"):
            api.batch(NAMES, config)
        raw(root, "DROP TRIGGER crash")
        names = raw(root, "SELECT name FROM pointers WHERE kind = 'name'")
        committed = {name for (name,) in names}
        assert "movsb_pascal" not in committed
        keys = raw(root, "SELECT name FROM pointers WHERE kind = 'key'")
        assert len(keys) == len(committed)
        # Its trace and verdict objects did land, before the pointers.
        objects = raw(root, "SELECT digest FROM objects")
        assert len(objects) == 2 * (len(committed) + 1)

        warm = api.batch(NAMES, config).report
        assert {r.name for r in warm.results if r.cached} == committed
        assert modulo_cache(warm) == modulo_cache(cold.report)
        assert api.batch(NAMES, config).report.cache_hits == len(NAMES)

    def test_write_waits_out_a_held_lock(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        config = RunConfig(trials=8, cache_dir=root)
        cold = api.batch(NAMES, RunConfig(trials=8, cache_dir=tmp_path / "cold"))
        held = threading.Event()

        def hold():
            # A second connection holds the write lock for about 0.5 s.
            connection = sqlite3.connect(
                str(root / STORE_FILENAME), isolation_level=None
            )
            connection.execute("BEGIN IMMEDIATE")
            held.set()
            time.sleep(0.5)
            connection.execute("COMMIT")
            connection.close()

        holder = threading.Thread(target=hold)
        record = TraceStore.record_verdict
        waits = []

        def record_under_the_lock(store, key, payload):
            if not held.is_set():
                holder.start()
                assert held.wait(10)
            started = time.perf_counter()
            digest = record(store, key, payload)
            waits.append(time.perf_counter() - started)
            return digest

        monkeypatch.setattr(TraceStore, "record_verdict", record_under_the_lock)
        report = api.batch(NAMES, config).report
        holder.join(10)
        assert not holder.is_alive()
        assert waits[0] > 0.25
        assert report.to_json() == cold.report.to_json()
        monkeypatch.undo()
        assert api.batch(NAMES, config).report.cache_hits == len(NAMES)
