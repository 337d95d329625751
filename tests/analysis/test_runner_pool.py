"""Regression tests for shard aggregation and pool-mode timeout handling.

Review findings pinned here: (1) ``_aggregate`` used to let a later
passing shard overwrite an earlier shard's ``VerificationFailure``, so
a multi-shard entry could report ``ok`` despite a real mismatch;
(2) the per-job ``--timeout`` was measured from the result-collection
loop, so jobs queued behind others could be falsely timed out; (3) a
``BrokenProcessPool`` (worker crash) reused the timeout sentinel and
was reported as ``timed_out``.  These tests assert the fixed
semantics: failure is sticky across shards, deadlines start at
dispatch, and a crashed worker is a distinct error — for every window
of the job it was running.
"""

import os
import time

import pytest

import repro.analysis.runner as runner_module
from repro import obs
from repro.analysis.config import RunConfig
from repro.analysis.pool import shutdown_pool
from repro.analysis.runner import (
    _BROKEN_POOL_ERROR,
    BatchJob,
    CatalogEntry,
    _aggregate,
    _record,
    _run_pool,
    execute_shards,
    run_batch,
)


def _entry(name="scasb_rigel", expect_failure=False):
    return CatalogEntry(
        name=name,
        group="failures" if expect_failure else "table2",
        expect_failure=expect_failure,
        machine="rigel",
        instruction="scasb",
        language="isp",
        operation="string scan",
        paper_steps=None,
        has_scenario=True,
    )


def _window_record(
    window, *, succeeded=True, failure=None, verified=None, error=None, steps=4
):
    return {
        "succeeded": succeeded,
        "steps": steps,
        "failure": failure,
        "verified": window[1] if verified is None else verified,
        "error": error,
    }


def _aggregate_one(entry, window_records):
    """Aggregate one job of ``entry`` from ``(window, record)`` pairs."""
    windows = tuple(window for window, _ in window_records)
    job = BatchJob(entry.name, windows, 1982)
    (result,) = _aggregate(
        [entry], [job], [[record for _, record in window_records]]
    )
    return result


class TestFailureIsStickyAcrossShards:
    def test_failure_in_first_shard_not_masked_by_later_pass(self):
        # The reviewed bug: default trials=120 -> two shards; shard 0
        # fails verification, shard 1 passes, and the entry reported ok.
        entry = _entry()
        s0 = (0, 64)
        s1 = (64, 56)
        result = _aggregate_one(
            entry,
            [
                (
                    s0,
                    _window_record(
                        s0,
                        succeeded=False,
                        failure="VerificationFailure: R0 mismatch",
                        verified=0,
                    ),
                ),
                (s1, _window_record(s1)),
            ],
        )
        assert result.succeeded is False
        assert not result.ok
        assert result.failure == "VerificationFailure: R0 mismatch"

    def test_failure_in_final_shard_still_fails(self):
        entry = _entry()
        s0 = (0, 64)
        s1 = (64, 56)
        result = _aggregate_one(
            entry,
            [
                (s0, _window_record(s0)),
                (
                    s1,
                    _window_record(
                        s1,
                        succeeded=False,
                        failure="VerificationFailure: PC mismatch",
                        verified=0,
                    ),
                ),
            ],
        )
        assert result.succeeded is False
        assert not result.ok

    def test_all_shards_pass(self):
        entry = _entry()
        s0 = (0, 64)
        s1 = (64, 56)
        result = _aggregate_one(
            entry, [(s0, _window_record(s0)), (s1, _window_record(s1))]
        )
        assert result.ok
        assert result.succeeded is True
        assert result.verified_trials == 120

    def test_expected_failure_entry_still_ok(self):
        entry = _entry(name="eclipse_failure", expect_failure=True)
        window = (0, 0)
        result = _aggregate_one(
            entry,
            [
                (
                    window,
                    _window_record(
                        window,
                        succeeded=False,
                        failure="documented: no matching addressing mode",
                        verified=0,
                    ),
                )
            ],
        )
        assert result.ok
        assert result.succeeded is False

    def test_multi_shard_verification_failure_not_masked_end_to_end(
        self, monkeypatch
    ):
        import repro.analysis.verify as verify_mod

        real = verify_mod.verify_binding

        def flaky(binding, spec, config=None, *, windows, **kwargs):
            # A job verifies an entry's shards as windows of one call:
            # fail the window at offset 0, keep the others.
            outcomes = real(binding, spec, config, windows=windows, **kwargs)
            return [
                verify_mod.VerificationFailure("injected mismatch in shard 0")
                if offset == 0
                else outcome
                for (offset, _), outcome in zip(windows, outcomes)
            ]

        monkeypatch.setattr(verify_mod, "verify_binding", flaky)
        # 130 trials -> 3 shards; only the first one fails.
        report = run_batch(
            names=["scasb_rigel"], config=RunConfig(trials=130, seed=5)
        )
        (result,) = report.results
        assert result.succeeded is False
        assert not result.ok
        assert not report.ok
        assert "injected mismatch" in (result.failure or "")
        assert '"status": "failed"' in report.to_json()


class TestShardErrorAggregation:
    def test_timed_out_shard_fails_entry(self):
        entry = _entry()
        s0 = (0, 64)
        s1 = (64, 56)
        result = _aggregate_one(entry, [(s0, _window_record(s0)), (s1, None)])
        assert result.timed_out
        assert not result.ok
        assert result.error is None

    def test_broken_pool_is_error_not_timeout(self):
        entry = _entry()
        result = _aggregate_one(entry, [((0, 64), _record(_BROKEN_POOL_ERROR))])
        assert result.error == _BROKEN_POOL_ERROR
        assert result.timed_out is False
        assert not result.ok

    def test_first_error_is_kept(self):
        entry = _entry()
        s0 = (0, 64)
        s1 = (64, 56)
        result = _aggregate_one(
            entry,
            [
                (s0, _window_record(s0, succeeded=False, error="RuntimeError: first")),
                (
                    s1,
                    _window_record(s1, succeeded=False, error="RuntimeError: second"),
                ),
            ],
        )
        assert result.error == "RuntimeError: first"
        assert not result.ok


class TestJobMetrics:
    def test_collecting_job_ships_a_registry_of_its_own(self):
        job = BatchJob("scasb_rigel", ((0, 8), (8, 8)), 5, collect=True)
        with obs.collecting() as outer:
            head, tail = execute_shards(job)
        assert obs.counter_value(head["metrics"], "repro_verify_trials_total") == 16
        assert "metrics" not in tail
        # The job counted into its own registry, not the one around it.
        assert (
            obs.counter_value(outer.snapshot(), "repro_verify_trials_total") == 0
        )

    def test_other_jobs_take_no_snapshot(self):
        job = BatchJob("scasb_rigel", ((0, 8),), 5)
        with obs.collecting() as registry:
            (record,) = execute_shards(job)
        assert "metrics" not in record
        assert (
            obs.counter_value(registry.snapshot(), "repro_verify_trials_total")
            == 8
        )


@pytest.fixture
def no_live_pool():
    """The test spawns its own global pool and leaves none behind."""
    shutdown_pool()
    yield
    shutdown_pool()


def _crash(job):
    os._exit(1)


def _stall(job):
    time.sleep(3)
    return []


class TestPoolSettlement:
    """A job whose worker returns no records still settles each window."""

    JOBS = [
        BatchJob("scasb_rigel", ((0, 64), (64, 64), (128, 2)), 1982),
        BatchJob("eclipse_failure", ((0, 0),), 1982),
    ]

    def test_crashed_worker_errors_every_window(self, monkeypatch, no_live_pool):
        monkeypatch.setattr(runner_module, "execute_shards", _crash)
        outcomes = _run_pool(self.JOBS, 1, None)
        assert [len(records) for records in outcomes] == [3, 1]
        for records in outcomes:
            for record in records:
                assert record["error"] == _BROKEN_POOL_ERROR

    def test_timed_out_job_is_none_per_window(self, monkeypatch, no_live_pool):
        # The one worker is written off with the first job, so the
        # second can never be scheduled and times out too.
        monkeypatch.setattr(runner_module, "execute_shards", _stall)
        assert _run_pool(self.JOBS, 1, 0.2) == [[None, None, None], [None]]


@pytest.mark.slow
class TestPoolTimeouts:
    def test_queued_shards_are_not_charged_for_wait(self):
        # Three entries are three jobs on 2 workers: one job always
        # queues behind the others.  Its deadline must start when a
        # worker picks it up, so a generous per-job timeout never trips
        # merely because earlier jobs used the workers first.
        report = run_batch(
            names=["scasb_rigel", "movsb_pascal", "locc_clu"],
            config=RunConfig(trials=130, seed=7, jobs=2, timeout=120.0),
        )
        assert report.ok
        for result in report.results:
            assert not result.timed_out
            assert result.shards == 3
            assert result.verified_trials == 130
