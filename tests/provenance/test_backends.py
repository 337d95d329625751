"""One store per root: every front end shares it, many processes write it.

Tests taking ``layout`` also run on what an earlier version left under
the root (:data:`.test_store.LAYOUTS`): its dir tree, which the store
ignores, or its ``store.sqlite``, which the store reuses.
"""

import asyncio
import concurrent.futures
import json

import pytest

from repro.__main__ import main
from repro.analysis.config import RunConfig
from repro.analysis.runner import run_batch
from repro.obs import counter_value, gauge_value
from repro.provenance import STORE_SCHEMA, TraceStore, canonical_json
from repro.service import AnalysisService, ServiceConfig
from repro.service.loadtest import _Client

from .test_store import (
    LAYOUTS,
    digest_of,
    leave_dir_tree,
    leave_layout,
    make_key,
    raw,
)

NAMES = ["scasb_rigel", "movsb_pascal"]
FAST = dict(trials=6, seed=5)


def verdict(key, **result):
    return {"schema": STORE_SCHEMA, "key": key, "result": result}


def served(root, method, path, payload=None):
    """One request to an :class:`AnalysisService` on store ``root``."""

    async def run():
        service = AnalysisService(ServiceConfig(cache_dir=str(root)))
        await service.start()
        client = _Client(service.config.host, service.port)
        try:
            return await client.request_json(method, path, payload)
        finally:
            await client.close()
            await service.stop()

    return asyncio.run(run())


# ---------------------------------------------------------------------------
# the store's contract


@pytest.mark.parametrize("layout", LAYOUTS)
class TestBackendContract:
    def test_object_round_trip(self, tmp_path, layout):
        leave_layout(tmp_path, layout)
        store = TraceStore(tmp_path)
        digest = store.put_object({"x": 1})
        assert store.get_object(digest) == {"x": 1}
        assert store.get_object("cd" * 32) is None
        store.close()

    def test_pointer_groups_and_names(self, tmp_path, layout):
        leave_layout(tmp_path, layout)
        store = TraceStore(tmp_path)
        demo, other = make_key(name="demo"), make_key(name="other")
        first = store.record_verdict(demo, verdict(demo))
        second = store.record_verdict(other, verdict(other))
        # Each verdict lands with its key pointer and its by-name pointer.
        assert sorted(raw(tmp_path, "SELECT kind, name, object FROM pointers")) == [
            ("key", digest_of(canonical_json(demo)), first),
            ("key", digest_of(canonical_json(other)), second),
            ("name", "demo", first),
            ("name", "other", second),
        ]
        assert store.names() == ["demo", "other"]
        assert store.latest_for("missing") is None
        store.close()

    def test_last_writer_wins(self, tmp_path, layout):
        leave_layout(tmp_path, layout)
        store = TraceStore(tmp_path)
        key = make_key(name="demo")
        store.record_verdict(key, verdict(key, v=1))
        store.record_verdict(key, verdict(key, v=2))
        assert store.lookup_verdict(key) == verdict(key, v=2)
        assert store.latest_for("demo") == verdict(key, v=2)
        store.close()

    def test_trace_store_round_trip(self, tmp_path, layout):
        leave_layout(tmp_path, layout)
        store = TraceStore(tmp_path)
        key = make_key(name="demo")
        payload = verdict(key, ok=1)
        store.record_verdict(key, payload)
        assert store.lookup_verdict(key) == payload
        assert store.names() == ["demo"]
        assert store.latest_for("demo") == payload
        store.close()


# ---------------------------------------------------------------------------
# every front end finds what any other stored under the same root


class TestDetection:
    @pytest.fixture
    def batch_born(self, tmp_path):
        root = tmp_path / "store"
        argv = ["--trials", "20", "--cache-dir", str(root), "movsb_pascal"]
        assert main(["batch"] + argv) == 0
        return root, argv

    @staticmethod
    def _dir_layout_absent(root):
        return not (root / "index").exists() and not (root / "objects").exists()

    @pytest.mark.parametrize("command", ["replay", "trace"])
    def test_read_commands_find_a_sqlite_store(self, batch_born, capsys, command):
        root, _argv = batch_born
        capsys.readouterr()
        assert main([command, "movsb_pascal", "--cache-dir", str(root)]) == 0
        assert "(stored)" in capsys.readouterr().out
        assert self._dir_layout_absent(root)

    def test_stats_counts_a_hit_on_a_sqlite_store(self, batch_born, capsys):
        root, argv = batch_born
        capsys.readouterr()
        assert main(["stats", "--format", "json"] + argv) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert counter_value(snapshot, "repro_provenance_store_hits_total") == 1
        assert gauge_value(snapshot, "repro_provenance_hit_rate") == 1.0
        assert self._dir_layout_absent(root)

    def test_sqlite_root_is_detected(self, tmp_path):
        # A database in the format earlier versions' ``repro serve``
        # wrote keeps answering its keys.
        leave_layout(tmp_path, "sqlite")
        key = make_key(name="demo")
        text = canonical_json(verdict(key, ok=1))
        raw(tmp_path, "INSERT INTO objects VALUES (?, ?)", (digest_of(text), text))
        for kind, name in (("key", digest_of(canonical_json(key))), ("name", "demo")):
            raw(
                tmp_path,
                "INSERT INTO pointers VALUES (?, ?, ?)",
                (kind, name, digest_of(text)),
            )
        store = TraceStore(tmp_path)
        assert store.lookup_verdict(key) == verdict(key, ok=1)
        assert store.names() == ["demo"]
        store.close()

    def test_cli_batch_hits_what_the_service_stored(self, tmp_path, capsys):
        root = tmp_path / "store"
        status, cold = served(root, "POST", "/batch", {"trials": 20})
        assert status == 200 and cold["cache"]["misses"] == 20
        capsys.readouterr()
        argv = ["batch", "--trials", "20", "--cache-dir", str(root), "--json"]
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["cache"] == {"enabled": True, "hits": 20, "misses": 0}

    def test_read_commands_see_the_batch_after_a_served_trace(
        self, tmp_path, capsys
    ):
        from repro import api

        root = tmp_path / "store"
        argv = ["--trials", "20", "--cache-dir", str(root)]
        assert main(["batch"] + argv) == 0
        status, body = served(root, "GET", "/trace?name=scasb_rigel")
        assert status == 200 and body["origin"] == "stored"

        replayed = api.replay(cache_dir=root)
        assert replayed.ok
        assert {entry.origin for entry in replayed.entries} == {"stored"}
        capsys.readouterr()
        assert main(["stats", "--format", "json"] + argv) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert counter_value(snapshot, "repro_provenance_store_hits_total") == 20


# ---------------------------------------------------------------------------
# a report does not depend on what wrote the root before


def _batch_json(root, jobs=1):
    config = RunConfig(cache_dir=root, jobs=jobs, **FAST)
    return run_batch(names=NAMES, config=config).to_json()


class TestCrossBackendEquivalence:
    def test_batch_json_identical_cold_and_warm(self, tmp_path):
        # A root holding an earlier version's dir tree of these very
        # verdicts misses once, then hits what it recomputed.
        fresh, inherited = tmp_path / "fresh", tmp_path / "inherited"
        cold = _batch_json(fresh)
        leave_dir_tree(
            inherited,
            raw(fresh, "SELECT digest, body FROM objects"),
            raw(fresh, "SELECT kind, name, object FROM pointers"),
        )
        assert _batch_json(inherited) == cold
        assert json.loads(cold)["cache"]["misses"] == len(NAMES)
        warm = _batch_json(inherited)
        assert warm == _batch_json(fresh)
        assert json.loads(warm)["cache"]["hits"] == len(NAMES)

    def test_batch_json_identical_pooled(self, tmp_path):
        # A pooled batch forks its workers while the store is open.
        serial = [_batch_json(tmp_path / "serial") for _ in range(2)]
        pooled = [_batch_json(tmp_path / "pooled", jobs=2) for _ in range(2)]
        assert pooled == serial
        assert json.loads(pooled[0])["cache"]["misses"] == len(NAMES)
        assert json.loads(pooled[1])["cache"]["hits"] == len(NAMES)


# ---------------------------------------------------------------------------
# concurrent writers (the index-pointer race)


def _hammer(root, worker, writes):
    """Write ``writes`` verdicts for one shared key, reading back between
    writes; returns the number of torn/invalid reads observed (must be 0).
    """
    store = TraceStore(root)
    key = make_key(name="contended", epoch="e" * 64)
    anomalies = 0
    for i in range(writes):
        store.record_verdict(key, verdict(key, worker=worker, i=i))
        seen = store.lookup_verdict(key)
        # Any winner is fine (last writer wins); a torn pointer, missing
        # object, or key mismatch is not.
        if seen is None or seen.get("key") != key:
            anomalies += 1
        latest = store.latest_for("contended")
        if latest is None or latest.get("key") != key:
            anomalies += 1
    store.close()
    return anomalies


@pytest.mark.parametrize("layout", LAYOUTS)
def test_multiprocess_pointer_stress(tmp_path, layout):
    leave_layout(tmp_path, layout)
    workers, writes = 4, 15
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_hammer, tmp_path, worker, writes)
            for worker in range(workers)
        ]
        anomalies = sum(f.result(timeout=120) for f in futures)
    assert anomalies == 0

    store = TraceStore(tmp_path)
    key = make_key(name="contended", epoch="e" * 64)
    final = store.lookup_verdict(key)
    assert final is not None and final["key"] == key
    assert store.names() == ["contended"]
    store.close()
