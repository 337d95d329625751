"""The persistent worker pool: reuse, respawn, and the no-pool paths."""

import json

import pytest

import repro.analysis.runner as runner_module
from repro import api, obs
from repro.analysis.config import RunConfig
from repro.analysis.pool import PersistentPool, get_pool, shutdown_pool
from repro.analysis.runner import run_batch

NAMES = ["scasb_rigel", "movsb_pascal"]


@pytest.fixture(autouse=True)
def fresh_global_pool():
    """Each test starts and ends with no live global pool."""
    shutdown_pool()
    yield
    shutdown_pool()


def counters(registry):
    snapshot = registry.snapshot()
    return (
        obs.counter_value(snapshot, "repro_pool_spawn_total"),
        obs.counter_value(snapshot, "repro_pool_reuse_total"),
    )


class TestPersistentPool:
    def test_first_acquire_spawns(self):
        pool = PersistentPool()
        with obs.collecting() as registry:
            pool.acquire(2)
            assert pool.workers == 2
            assert counters(registry) == (1, 0)
        pool.shutdown()

    def test_second_acquire_reuses(self):
        pool = PersistentPool()
        with obs.collecting() as registry:
            first = pool.acquire(2)
            assert pool.acquire(2) is first
            assert pool.acquire(1) is first  # smaller demand also fits
            assert counters(registry) == (1, 2)
        pool.shutdown()

    def test_larger_demand_respawns(self):
        pool = PersistentPool()
        with obs.collecting() as registry:
            first = pool.acquire(1)
            assert pool.acquire(2) is not first
            assert pool.workers == 2
            assert counters(registry) == (2, 0)
        pool.shutdown()

    def test_invalidate_forces_fresh_spawn(self):
        pool = PersistentPool()
        executor = pool.acquire(2)
        pool.invalidate(executor)
        assert pool.workers == 0
        assert pool.acquire(2) is not executor
        pool.shutdown()

    def test_invalidate_spares_newer_pool(self):
        pool = PersistentPool()
        stale = pool.acquire(1)
        current = pool.acquire(2)  # respawned: ``stale`` is gone
        pool.invalidate(stale)
        assert pool.acquire(2) is current
        pool.shutdown()

    def test_acquire_rejects_zero_workers(self):
        pool = PersistentPool()
        with pytest.raises(ValueError):
            pool.acquire(0)


class TestRunnerIntegration:
    def test_serial_run_never_touches_pool(self, tmp_path):
        with obs.collecting() as registry:
            run_batch(
                names=NAMES,
                config=RunConfig(jobs=1, trials=6, cache_dir=tmp_path),
            )
            assert counters(registry) == (0, 0)
        assert get_pool().workers == 0

    def test_warm_pooled_run_skips_pool(self, tmp_path):
        config = RunConfig(jobs=2, trials=6, cache_dir=tmp_path)
        with obs.collecting() as registry:
            run_batch(names=NAMES, config=config)  # cold: spawns
            assert counters(registry) == (1, 0)
            report = run_batch(names=NAMES, config=config)  # warm: no pool
            assert counters(registry) == (1, 0)
        assert report.cache_hits == len(NAMES)

    def test_cold_pooled_runs_reuse_one_pool(self, tmp_path):
        with obs.collecting() as registry:
            for seed in (3, 4, 5):
                run_batch(
                    names=NAMES,
                    config=RunConfig(
                        jobs=2, trials=6, seed=seed, cache_dir=tmp_path
                    ),
                )
            spawned, reused = counters(registry)
            assert spawned == 1
            assert reused == 2

    def test_pooled_and_serial_reports_agree(self, tmp_path):
        serial = run_batch(
            names=NAMES, config=RunConfig(jobs=1, trials=6)
        ).to_json()
        pooled = run_batch(
            names=NAMES, config=RunConfig(jobs=2, trials=6)
        ).to_json()
        assert serial == pooled

    def test_pooled_and_serial_runs_do_the_same_work(self, monkeypatch):
        # Two shards a job: 130 trials are three shards, so two jobs
        # per entry.  The pool runs the very jobs a serial run does, so
        # it makes the same batch runs over the same lanes.
        monkeypatch.setattr(runner_module, "RUN_SHARDS", 2)
        work = (
            "repro_engine_batch_runs_total",
            "repro_engine_lanes_total",
            "repro_engine_gate_checks_total",
            "repro_verify_trials_total",
        )
        reports, counts = [], []
        for jobs in (1, 2):
            result = api.batch(
                NAMES, RunConfig(jobs=jobs, trials=130), metrics=True
            )
            payload = json.loads(result.to_json())
            metrics = payload.pop("metrics")
            reports.append(payload)
            counts.append([obs.counter_value(metrics, name) for name in work])
        assert reports[0] == reports[1]
        assert counts[0] == counts[1]
        assert counts[0][0] == 2 * 2 * len(NAMES)  # 2 jobs x 2 descriptions
