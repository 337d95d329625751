"""Storage backends: dir/sqlite parity, migration, concurrent writers."""

import concurrent.futures
import json

import pytest

from repro.__main__ import main
from repro.analysis.config import RunConfig
from repro.analysis.runner import run_batch
from repro.provenance import (
    BACKENDS,
    STORE_SCHEMA,
    TraceStore,
    detect_backend,
    make_backend,
    migrate_store,
    verdict_key,
)
from repro.obs import counter_value, gauge_value
from repro.provenance.backend import SQLITE_FILENAME, StoreBackendError

from .test_store import make_key

NAMES = ["scasb_rigel", "movsb_pascal"]
FAST = dict(trials=6, seed=5)


# ---------------------------------------------------------------------------
# backend contract


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendContract:
    def test_object_round_trip(self, tmp_path, backend):
        store = make_backend(backend, tmp_path)
        store.put_object("ab" * 32, '{"x": 1}')
        assert store.get_object_text("ab" * 32) == '{"x": 1}'
        assert store.get_object_text("cd" * 32) is None
        store.close()

    def test_pointer_groups_and_names(self, tmp_path, backend):
        store = make_backend(backend, tmp_path)
        store.set_pointers(
            [("key", "k1", "a" * 64), ("name", "demo", "a" * 64)]
        )
        store.set_pointers([("name", "other", "b" * 64)])
        assert store.get_pointer("key", "k1") == "a" * 64
        assert store.get_pointer("name", "demo") == "a" * 64
        assert store.get_pointer("name", "missing") is None
        assert store.pointer_names("name") == ["demo", "other"]
        store.close()

    def test_last_writer_wins(self, tmp_path, backend):
        store = make_backend(backend, tmp_path)
        store.set_pointers([("key", "k", "a" * 64)])
        store.set_pointers([("key", "k", "b" * 64)])
        assert store.get_pointer("key", "k") == "b" * 64
        store.close()

    def test_trace_store_round_trip(self, tmp_path, backend):
        store = TraceStore(tmp_path, backend=backend)
        key = make_key(name="demo")
        payload = {"schema": STORE_SCHEMA, "key": key, "result": {"ok": 1}}
        store.record_verdict(key, payload)
        assert store.lookup_verdict(key) == payload
        assert store.names() == ["demo"]
        assert store.latest_for("demo") == payload
        store.close()


class TestDetection:
    def test_fresh_root_is_dir(self, tmp_path):
        assert detect_backend(tmp_path) == "dir"
        assert TraceStore(tmp_path).backend_name == "dir"

    def test_sqlite_root_is_detected(self, tmp_path):
        TraceStore(tmp_path, backend="sqlite").close()
        assert (tmp_path / SQLITE_FILENAME).exists()
        assert detect_backend(tmp_path) == "sqlite"
        assert TraceStore(tmp_path).backend_name == "sqlite"

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(StoreBackendError):
            make_backend("carrier-pigeon", tmp_path)
        with pytest.raises(StoreBackendError):
            TraceStore(tmp_path, backend="carrier-pigeon")

    @pytest.fixture
    def sqlite_born(self, tmp_path):
        root = tmp_path / "store"
        argv = ["--trials", "20", "--cache-dir", str(root), "movsb_pascal"]
        assert main(["batch", "--store-backend", "sqlite"] + argv) == 0
        return root, argv

    @staticmethod
    def _dir_layout_absent(root):
        return not (root / "index").exists() and not (root / "objects").exists()

    @pytest.mark.parametrize("command", ["replay", "trace"])
    def test_read_commands_find_a_sqlite_store(self, sqlite_born, capsys, command):
        root, _argv = sqlite_born
        capsys.readouterr()
        assert main([command, "movsb_pascal", "--cache-dir", str(root)]) == 0
        assert "(stored)" in capsys.readouterr().out
        assert self._dir_layout_absent(root)

    def test_stats_counts_a_hit_on_a_sqlite_store(self, sqlite_born, capsys):
        root, argv = sqlite_born
        capsys.readouterr()
        assert main(["stats", "--format", "json"] + argv) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert counter_value(snapshot, "repro_provenance_store_hits_total") == 1
        assert gauge_value(snapshot, "repro_provenance_hit_rate") == 1.0
        assert self._dir_layout_absent(root)

    def test_explicit_backend_flag_still_wins(self, sqlite_born, capsys):
        root, _argv = sqlite_born
        capsys.readouterr()
        code = main(
            ["replay", "movsb_pascal", "--cache-dir", str(root),
             "--store-backend", "dir"]
        )
        assert code == 0
        assert "(fresh)" in capsys.readouterr().out

    def test_tmp_leftovers_not_listed_as_names(self, tmp_path):
        store = TraceStore(tmp_path, backend="dir")
        key = make_key(name="real")
        store.record_verdict(
            key, {"schema": STORE_SCHEMA, "key": key, "result": {}}
        )
        (tmp_path / "index" / "by-name" / ".tmp-abc.json").write_text(
            "{}", encoding="utf-8"
        )
        assert store.names() == ["real"]


# ---------------------------------------------------------------------------
# cross-backend equivalence


def _batch_json(root, backend, jobs=1):
    config = RunConfig(cache_dir=root, store_backend=backend, jobs=jobs, **FAST)
    return run_batch(names=NAMES, config=config).to_json()


class TestCrossBackendEquivalence:
    def test_batch_json_identical_cold_and_warm(self, tmp_path):
        dir_root = tmp_path / "dir"
        sq_root = tmp_path / "sqlite"
        cold = [_batch_json(dir_root, "dir"), _batch_json(sq_root, "sqlite")]
        warm = [_batch_json(dir_root, "dir"), _batch_json(sq_root, "sqlite")]
        assert cold[0] == cold[1]
        assert warm[0] == warm[1]
        # and warm really was warm on both backends
        assert json.loads(warm[0])["cache"]["hits"] == len(NAMES)

    def test_batch_json_identical_pooled(self, tmp_path):
        serial = _batch_json(tmp_path / "dir", "dir", jobs=1)
        pooled = _batch_json(tmp_path / "sqlite", "sqlite", jobs=2)
        assert serial == pooled

    def test_migration_preserves_lookups_and_replay(self, tmp_path):
        from repro import api

        dir_root = tmp_path / "dir"
        sq_root = tmp_path / "sqlite"
        _batch_json(dir_root, "dir")
        before = api.replay(NAMES, cache_dir=dir_root, store_backend="dir")
        assert before.ok
        assert all(e.origin == "stored" for e in before.entries)

        source = TraceStore(dir_root, backend="dir")
        target = TraceStore(sq_root, backend="sqlite")
        copied = migrate_store(source, target)
        assert copied > 0
        assert target.names() == source.names()
        target.close()

        after = api.replay(NAMES, cache_dir=sq_root, store_backend="sqlite")
        assert after.ok
        assert [e.digest for e in after.entries] == [
            e.digest for e in before.entries
        ]
        assert all(e.origin == "stored" for e in after.entries)

        # the migrated store answers batch lookups warm
        warm = json.loads(_batch_json(sq_root, "sqlite"))
        assert warm["cache"]["hits"] == len(NAMES)


# ---------------------------------------------------------------------------
# concurrent writers (the index-pointer race)


def _hammer(root, backend, worker, writes):
    """Write ``writes`` verdicts for one shared key, reading back between
    writes; returns the number of torn/invalid reads observed (must be 0).
    """
    store = TraceStore(root, backend=backend)
    key = make_key(name="contended", epoch="e" * 64)
    anomalies = 0
    for i in range(writes):
        payload = {
            "schema": STORE_SCHEMA,
            "key": key,
            "result": {"worker": worker, "i": i},
        }
        store.record_verdict(key, payload)
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_multiprocess_pointer_stress(tmp_path, backend):
    workers, writes = 4, 15
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_hammer, tmp_path, backend, worker, writes)
            for worker in range(workers)
        ]
        anomalies = sum(f.result(timeout=120) for f in futures)
    assert anomalies == 0

    store = TraceStore(tmp_path, backend=backend)
    key = make_key(name="contended", epoch="e" * 64)
    final = store.lookup_verdict(key)
    assert final is not None and final["key"] == key
    assert store.names() == ["contended"]
    store.close()
    if backend == "dir":
        # atomic-replace writes leave no temp droppings behind
        stray = [
            p
            for p in tmp_path.rglob(".tmp-*")
        ]
        assert stray == []
