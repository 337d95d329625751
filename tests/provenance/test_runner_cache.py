"""Incremental batch mode: hits skip work, reports stay byte-identical."""

import hashlib
import json

import pytest

import repro.provenance as provenance
from repro import api
from repro.analysis import RunConfig
from repro.analysis.pool import shutdown_pool
from repro.analysis.runner import run_batch
from repro.provenance import STORE_FILENAME

from .test_store import LAYOUTS, leave_layout


def modulo_cache(report):
    payload = json.loads(report.to_json())
    payload.pop("cache", None)
    return json.dumps(payload, sort_keys=True)


NAMES = ["scasb_rigel", "movc3_pc2", "eclipse_failure", "srl_listsearch"]


class TestWarmRuns:
    def test_second_run_is_pure_cache(self, tmp_path):
        root = tmp_path / "cache"
        cold = run_batch(
            names=NAMES,
            config=RunConfig(trials=20, cache_dir=root),
        )
        warm = run_batch(
            names=NAMES,
            config=RunConfig(trials=20, cache_dir=root),
        )
        assert cold.ok and warm.ok
        assert cold.cache_hits == 0
        assert cold.cache_lookup_misses == len(NAMES)
        assert warm.cache_hits == len(NAMES)
        assert warm.cache_lookup_misses == 0
        # The acceptance bar: >= 90% hits on an unchanged tree.
        assert warm.cache_hits / len(warm.results) >= 0.9

    def test_full_catalog_warm_hit_rate(self, tmp_path):
        root = tmp_path / "cache"
        run_batch(config=RunConfig(trials=8, cache_dir=root))
        warm = run_batch(config=RunConfig(trials=8, cache_dir=root))
        assert warm.cache_hits == len(warm.results) == 20

    def test_reports_identical_modulo_cache_field(self, tmp_path):
        root = tmp_path / "cache"
        cold = run_batch(
            names=NAMES,
            config=RunConfig(trials=20, cache_dir=root),
        )
        warm = run_batch(
            names=NAMES,
            config=RunConfig(trials=20, cache_dir=root),
        )
        assert modulo_cache(cold) == modulo_cache(warm)
        assert json.loads(cold.to_json())["cache"] != (
            json.loads(warm.to_json())["cache"]
        )

    def test_warm_results_marked_cached(self, tmp_path):
        root = tmp_path / "cache"
        run_batch(names=NAMES, config=RunConfig(trials=20, cache_dir=root))
        warm = run_batch(
            names=NAMES,
            config=RunConfig(trials=20, cache_dir=root),
        )
        assert all(result.cached for result in warm.results)

    def test_expected_failures_are_memoized_too(self, tmp_path):
        root = tmp_path / "cache"
        run_batch(names=["eclipse_failure"], config=RunConfig(cache_dir=root))
        warm = run_batch(
            names=["eclipse_failure"],
            config=RunConfig(cache_dir=root),
        )
        (result,) = warm.results
        assert result.cached
        assert result.ok
        assert result.failure is not None


class TestInvalidation:
    def test_trials_change_misses(self, tmp_path):
        root = tmp_path / "cache"
        run_batch(names=NAMES, config=RunConfig(trials=20, cache_dir=root))
        other = run_batch(
            names=NAMES,
            config=RunConfig(trials=24, cache_dir=root),
        )
        assert other.cache_hits == 0

    def test_seed_change_misses(self, tmp_path):
        root = tmp_path / "cache"
        run_batch(names=NAMES, config=RunConfig(trials=20, cache_dir=root))
        other = run_batch(
            names=NAMES,
            config=RunConfig(trials=20, seed=7, cache_dir=root),
        )
        assert other.cache_hits == 0

    def test_engine_change_misses(self, tmp_path):
        root = tmp_path / "cache"
        run_batch(
            names=NAMES,
            config=RunConfig(trials=20, cache_dir=root, engine="vectorized"),
        )
        other = run_batch(
            names=NAMES,
            config=RunConfig(trials=20, cache_dir=root, engine="interp"),
        )
        assert other.cache_hits == 0

    def test_code_epoch_change_invalidates_everything(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "cache"
        run_batch(names=NAMES, config=RunConfig(trials=20, cache_dir=root))
        monkeypatch.setattr(provenance, "code_epoch", lambda: "f" * 64)
        stale = run_batch(
            names=NAMES,
            config=RunConfig(trials=20, cache_dir=root),
        )
        assert stale.cache_hits == 0
        assert stale.ok

    def test_no_cache_dir_disables_everything(self, tmp_path):
        report = run_batch(names=NAMES, config=RunConfig(trials=20))
        assert not report.cache_enabled
        assert report.cache_hits == 0
        assert "cache" not in json.loads(report.to_json())


class TestWhatGetsStored:
    def test_errored_entries_are_not_memoized(self, tmp_path, monkeypatch):
        import repro.analyses.scasb_rigel as scasb_rigel

        root = tmp_path / "cache"

        def boom(*args, **kwargs):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(scasb_rigel, "run", boom)
        broken = run_batch(
            names=["scasb_rigel"],
            config=RunConfig(trials=20, cache_dir=root),
        )
        assert not broken.ok
        monkeypatch.undo()
        retry = run_batch(
            names=["scasb_rigel"],
            config=RunConfig(trials=20, cache_dir=root),
        )
        assert retry.cache_hits == 0  # the error was never cached
        assert retry.ok

    def test_stored_artifact_carries_trace_and_digest(self, tmp_path):
        from repro.provenance import AnalysisTrace, TraceStore

        root = tmp_path / "cache"
        run_batch(
            names=["movc3_pc2"],
            config=RunConfig(trials=20, cache_dir=root),
        )
        store = TraceStore(root)
        artifact = store.latest_for("movc3_pc2")
        assert artifact is not None
        assert artifact["schema"] == "repro.verdict/2"
        # The trace is its own object; the verdict names it by digest.
        trace = AnalysisTrace.from_dict(store.get_object(artifact["trace"]))
        assert artifact["trace"] == trace.digest()
        assert "trace_digest" not in artifact

    def test_each_fresh_trace_is_digested_once(self, tmp_path, monkeypatch):
        from repro.provenance import ANALYSIS_TRACE_SCHEMA, schema, store

        hashed = []
        digest_text = store._digest_text

        def counting(text):
            if json.loads(text).get("schema") == ANALYSIS_TRACE_SCHEMA:
                hashed.append(text)
            return digest_text(text)

        def unexpected(fields):
            raise AssertionError("a batch hashed a trace outside the store")

        monkeypatch.setattr(store, "_digest_text", counting)
        monkeypatch.setattr(schema, "_digest", unexpected)
        config = RunConfig(trials=20, cache_dir=tmp_path)
        cold = run_batch(names=NAMES, config=config)
        assert cold.ok
        assert len(hashed) == len(NAMES)  # one per fresh entry
        run_batch(names=NAMES, config=config)
        assert len(hashed) == len(NAMES)  # a store hit hashes no trace

    def test_pool_mode_populates_the_same_cache(self, tmp_path):
        root = tmp_path / "cache"
        cold = run_batch(
            names=NAMES,
            config=RunConfig(trials=20, jobs=2, cache_dir=root),
        )
        warm = run_batch(
            names=NAMES,
            config=RunConfig(trials=20, jobs=1, cache_dir=root),
        )
        assert cold.cache_hits == 0
        assert warm.cache_hits == len(NAMES)
        assert modulo_cache(cold) == modulo_cache(warm)


class TestOneRecordPerDerivation:
    """A stored trace object is its derivation's fields, named by its digest."""

    @pytest.fixture(scope="class")
    def catalog_store(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("catalog-store")
        assert run_batch(config=RunConfig(trials=8, cache_dir=root)).ok
        return root

    def test_every_verdict_names_its_trace_by_the_trace_digest(self, catalog_store):
        from repro.analysis.runner import _replay, resolve_names

        store = provenance.TraceStore(catalog_store)
        try:
            for entry in resolve_names(None):
                trace = _replay(entry.name)[1].trace
                artifact = store.latest_for(entry.name)
                assert artifact["trace"] == trace.digest(), entry.name
                assert "trace_digest" not in artifact, entry.name
                assert store.get_object(artifact["trace"]) == trace.fields(), entry.name
        finally:
            store.close()

    def test_trace_json_is_the_same_fresh_and_stored(self, catalog_store, capsys):
        from repro.__main__ import main
        from repro.analysis.runner import resolve_names

        for entry in resolve_names(None):
            assert api.trace(entry.name, cache_dir=catalog_store).origin == "stored"
            printed = []
            for source in (["--no-cache"], ["--cache-dir", str(catalog_store)]):
                assert main(["trace", entry.name, "--format", "json", *source]) == 0
                printed.append(capsys.readouterr().out)
            assert printed[0] == printed[1], entry.name

    def test_a_store_in_the_earlier_layout_still_replays(self, tmp_path):
        # Earlier stores kept each trace as fields() plus an inner
        # digest, named by the hash of both, and the verdict carried
        # that digest a second time as trace_digest.
        from repro.analysis.runner import _replay, entry_verdict_key, resolve_names
        from repro.provenance import STORE_SCHEMA, canonical_json

        trace = _replay("scasb_rigel")[1].trace
        legacy = {**trace.fields(), "digest": trace.digest()}
        text = canonical_json(legacy).encode("utf-8")
        entry = next(iter(resolve_names(["scasb_rigel"])))
        key = entry_verdict_key(entry, "vectorized", 120, 1982, True)
        store = provenance.TraceStore(tmp_path)
        try:
            name = store.put_object(legacy)
            assert name == hashlib.sha256(text).hexdigest() != trace.digest()
            store.record_verdict(
                key,
                {
                    "schema": STORE_SCHEMA,
                    "key": key,
                    "result": {},
                    "trace": name,
                    "trace_digest": trace.digest(),
                },
            )
        finally:
            store.close()
        replayed = api.replay(["scasb_rigel"], cache_dir=tmp_path)
        assert replayed.ok
        assert [entry.origin for entry in replayed.entries] == ["stored"]
        recorded = api.trace("scasb_rigel", cache_dir=tmp_path)
        assert recorded.origin == "stored"
        assert recorded.digest == trace.digest()


class TestPooledTraceHandOff:
    @pytest.fixture(autouse=True)
    def fresh_pool(self):
        # Workers fork with an empty replay memo and never outlive the test.
        shutdown_pool()
        yield
        shutdown_pool()

    def test_cold_pooled_batch_replays_each_entry_once(self, tmp_path):
        # Each job ships the trace its replay built, so the parent
        # stores it without replaying the entry a second time.
        cold = api.batch(
            config=RunConfig(trials=60, jobs=2, cache_dir=tmp_path), metrics=True
        )
        replays = sum(
            sample["count"]
            for sample in cold.metrics["histograms"]
            if sample["name"] == "repro_phase_seconds"
            and sample["labels"].get("phase") == "replay"
        )
        assert replays == len(cold.results) == 20
        warm = run_batch(config=RunConfig(trials=60, jobs=1, cache_dir=tmp_path))
        assert warm.cache_hits == len(warm.results) == 20
        replayed = api.replay(cache_dir=tmp_path)
        assert replayed.ok
        assert {entry.origin for entry in replayed.entries} == {"stored"}


class TestStoreLifetime:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_run_batch_closes_its_store(self, tmp_path, monkeypatch, layout):
        # A sqlite connection left open sits in a reference cycle and
        # keeps its native memory until a full collection, which a
        # long-lived service reaches only rarely.
        leave_layout(tmp_path, layout)
        closed = self._record_closes(monkeypatch)
        run_batch(
            names=["scasb_rigel"], config=RunConfig(trials=4, cache_dir=tmp_path)
        )
        assert closed == [tmp_path / STORE_FILENAME]

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_trace_closes_its_store(self, tmp_path, monkeypatch, layout):
        # repro trace and the served /trace go through api.trace.
        leave_layout(tmp_path, layout)
        closed = self._record_closes(monkeypatch)
        result = api.trace("scasb_rigel", cache_dir=tmp_path)
        assert result is not None
        assert closed == [tmp_path / STORE_FILENAME]

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_replay_closes_its_store(self, tmp_path, monkeypatch, layout):
        # repro replay and the served /replay go through api.replay.
        leave_layout(tmp_path, layout)
        closed = self._record_closes(monkeypatch)
        result = api.replay(["scasb_rigel"], cache_dir=tmp_path)
        assert result.ok
        assert closed == [tmp_path / STORE_FILENAME]

    @staticmethod
    def _record_closes(monkeypatch):
        closed = []
        close = provenance.TraceStore.close

        def recording_close(store):
            closed.append(store.path)
            close(store)

        monkeypatch.setattr(provenance.TraceStore, "close", recording_close)
        return closed
