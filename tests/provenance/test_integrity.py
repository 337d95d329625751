"""Store integrity: reads re-hash, and a store hit never needs its trace.

A verdict artifact names its analysis trace by object digest, so a
warm batch reads only the small verdict and ``repro replay`` follows
the reference.  Every object read re-hashes the text against its name:
an object altered in place, even into valid JSON, reads as absent, so
a tampered verdict is recomputed instead of served.
"""

import json
import sqlite3

import pytest

from repro import api
from repro.analysis.config import RunConfig
from repro.provenance import BACKENDS, STORE_SCHEMA, TraceStore, trace_for
from repro.provenance.backend import SQLITE_FILENAME


def rewrite_object(root, backend, digest, text):
    """Replace one stored object's body in place, keeping its name."""
    if backend == "dir":
        TraceStore(root, backend="dir")._object_path(digest).write_text(
            text, encoding="utf-8"
        )
        return
    connection = sqlite3.connect(str(root / SQLITE_FILENAME))
    with connection:
        connection.execute(
            "UPDATE objects SET body=? WHERE digest=?", (text, digest)
        )
    connection.close()


def delete_object(root, backend, digest):
    if backend == "dir":
        TraceStore(root, backend="dir")._object_path(digest).unlink()
        return
    connection = sqlite3.connect(str(root / SQLITE_FILENAME))
    with connection:
        connection.execute("DELETE FROM objects WHERE digest=?", (digest,))
    connection.close()


def tamper(root, backend, digest, old, new):
    """Swap ``old`` for ``new`` in an object's text; still valid JSON."""
    store = TraceStore(root, backend=backend)
    text = store._backend.get_object_text(digest)
    store.close()
    assert old in text
    tampered = text.replace(old, new)
    json.loads(tampered)
    rewrite_object(root, backend, digest, tampered)


def modulo_cache(report):
    payload = json.loads(report.to_json())
    payload.pop("cache")
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("backend", BACKENDS)
class TestRehashOnRead:
    def test_tampered_verdict_is_a_miss_and_recomputed(self, tmp_path, backend):
        root = tmp_path / "store"
        config = RunConfig(trials=40, cache_dir=root, store_backend=backend)
        cold = api.batch(["movsb_pascal"], config).report
        (fresh,) = cold.results
        store = TraceStore(root, backend=backend)
        verdict = store._backend.get_pointer("name", "movsb_pascal")
        store.close()
        trials = fresh.verified_trials
        tamper(
            root,
            backend,
            verdict,
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

    def test_tampered_trace_object_replays_fresh(self, tmp_path, backend):
        root = tmp_path / "store"
        config = RunConfig(trials=40, cache_dir=root, store_backend=backend)
        api.batch(["movsb_pascal"], config)
        store = TraceStore(root, backend=backend)
        trace_ref = store.latest_for("movsb_pascal")["trace"]
        stored, origin = trace_for(store, "movsb_pascal")
        assert origin == "stored"
        store.close()
        tamper(
            root,
            backend,
            trace_ref,
            '"machine":"Intel 8086"',
            '"machine":"Intel 8088"',
        )

        store = TraceStore(root, backend=backend)
        got, origin = trace_for(store, "movsb_pascal")
        store.close()
        assert origin == "fresh"
        assert got.digest() == stored.digest()
        # The verdict itself is intact and still answers its key.
        assert api.batch(["movsb_pascal"], config).report.cache_hits == 1


def test_undecodable_dir_object_is_a_miss_and_recomputed(tmp_path):
    root = tmp_path / "store"
    config = RunConfig(trials=8, cache_dir=root)
    cold = api.batch(["movsb_pascal"], config).report
    store = TraceStore(root)
    path = store._object_path(store._backend.get_pointer("name", "movsb_pascal"))
    flipped = bytearray(path.read_bytes())
    flipped[10] = 0xFF  # not a UTF-8 start byte
    path.write_bytes(bytes(flipped))

    warm = api.batch(["movsb_pascal"], config).report
    assert warm.cache_hits == 0
    assert warm.to_json() == cold.to_json()
    assert api.batch(["movsb_pascal"], config).report.cache_hits == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_store_hits_never_read_their_traces(tmp_path, backend):
    root = tmp_path / "store"
    config = RunConfig(trials=8, cache_dir=root, store_backend=backend)
    cold = api.batch(config=config).report
    replayed = api.replay(cache_dir=root, store_backend=backend)
    assert replayed.ok
    assert {entry.origin for entry in replayed.entries} == {"stored"}

    store = TraceStore(root, backend=backend)
    verdicts = [store.latest_for(name) for name in store.names()]
    traces = {verdict["trace"] for verdict in verdicts}
    store.close()
    assert len(verdicts) == 20
    for digest in traces:
        delete_object(root, backend, digest)

    warm = api.batch(config=config).report
    assert warm.cache_hits == 20
    assert modulo_cache(warm) == modulo_cache(cold)
    replayed = api.replay(cache_dir=root, store_backend=backend)
    assert replayed.ok
    assert {entry.origin for entry in replayed.entries} == {"fresh"}


def test_one_trace_object_serves_every_key_of_a_derivation(tmp_path):
    root = tmp_path / "store"
    for trials in (8, 12):
        api.batch(["scasb_rigel"], RunConfig(trials=trials, cache_dir=root))
    store = TraceStore(root)
    objects = list(store._backend.iter_objects())
    payloads = [json.loads(text) for _, text in objects]
    traces = {
        payload["trace"]
        for payload in payloads
        if payload.get("schema") == STORE_SCHEMA
    }
    # Two verdicts (one per trial count), one shared trace object.
    assert len(objects) == 3
    assert len(traces) == 1
