"""Regression tests for shard aggregation and pool-mode timeout handling.

Review findings pinned here: (1) ``_aggregate`` used to let a later
passing shard overwrite an earlier shard's ``VerificationFailure``, so
a multi-shard entry could report ``ok`` despite a real mismatch;
(2) the per-job ``--timeout`` was measured from the result-collection
loop, so jobs queued behind others could be falsely timed out; (3) a
``BrokenProcessPool`` (worker crash) reused the timeout sentinel and
was reported as ``timed_out``.  These tests assert the fixed
semantics: failure is sticky across shards, deadlines start at
dispatch, and a crashed worker is a distinct error.
"""

import pytest

from repro.analysis.config import RunConfig
from repro.analysis.runner import (
    _BROKEN_POOL_ERROR,
    CatalogEntry,
    ShardSpec,
    _aggregate,
    _error_record,
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


def _record(spec, *, succeeded=True, failure=None, verified=None, error=None, steps=4):
    return {
        "name": spec.name,
        "offset": spec.offset,
        "count": spec.count,
        "succeeded": succeeded,
        "steps": steps,
        "failure": failure,
        "verified": spec.count if verified is None else verified,
        "error": error,
        "duration": 0.01,
    }


def _aggregate_one(entry, shard_records):
    specs = [spec for spec, _ in shard_records]
    records = {
        (spec.name, spec.offset): record for spec, record in shard_records
    }
    (result,) = _aggregate([entry], records, specs)
    return result


class TestFailureIsStickyAcrossShards:
    def test_failure_in_first_shard_not_masked_by_later_pass(self):
        # The reviewed bug: default trials=120 -> two shards; shard 0
        # fails verification, shard 1 passes, and the entry reported ok.
        entry = _entry()
        s0 = ShardSpec(entry.name, 0, 64, 1982)
        s1 = ShardSpec(entry.name, 64, 56, 1982)
        result = _aggregate_one(
            entry,
            [
                (
                    s0,
                    _record(
                        s0,
                        succeeded=False,
                        failure="VerificationFailure: R0 mismatch",
                        verified=0,
                    ),
                ),
                (s1, _record(s1)),
            ],
        )
        assert result.succeeded is False
        assert not result.ok
        assert result.failure == "VerificationFailure: R0 mismatch"

    def test_failure_in_final_shard_still_fails(self):
        entry = _entry()
        s0 = ShardSpec(entry.name, 0, 64, 1982)
        s1 = ShardSpec(entry.name, 64, 56, 1982)
        result = _aggregate_one(
            entry,
            [
                (s0, _record(s0)),
                (
                    s1,
                    _record(
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
        s0 = ShardSpec(entry.name, 0, 64, 1982)
        s1 = ShardSpec(entry.name, 64, 56, 1982)
        result = _aggregate_one(entry, [(s0, _record(s0)), (s1, _record(s1))])
        assert result.ok
        assert result.succeeded is True
        assert result.verified_trials == 120

    def test_expected_failure_entry_still_ok(self):
        entry = _entry(name="eclipse_failure", expect_failure=True)
        spec = ShardSpec(entry.name, 0, 0, 1982)
        result = _aggregate_one(
            entry,
            [
                (
                    spec,
                    _record(
                        spec,
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
            # The serial runner verifies an entry's shards as windows of
            # one call: fail the window at offset 0, keep the others.
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
        s0 = ShardSpec(entry.name, 0, 64, 1982)
        s1 = ShardSpec(entry.name, 64, 56, 1982)
        result = _aggregate_one(entry, [(s0, _record(s0)), (s1, None)])
        assert result.timed_out
        assert not result.ok
        assert result.error is None

    def test_broken_pool_is_error_not_timeout(self):
        entry = _entry()
        spec = ShardSpec(entry.name, 0, 64, 1982)
        result = _aggregate_one(
            entry, [(spec, _error_record(spec, _BROKEN_POOL_ERROR))]
        )
        assert result.error == _BROKEN_POOL_ERROR
        assert result.timed_out is False
        assert not result.ok

    def test_first_error_is_kept(self):
        entry = _entry()
        s0 = ShardSpec(entry.name, 0, 64, 1982)
        s1 = ShardSpec(entry.name, 64, 56, 1982)
        result = _aggregate_one(
            entry,
            [
                (s0, _record(s0, succeeded=False, error="RuntimeError: first")),
                (s1, _record(s1, succeeded=False, error="RuntimeError: second")),
            ],
        )
        assert result.error == "RuntimeError: first"
        assert not result.ok


@pytest.mark.slow
class TestPoolTimeouts:
    def test_queued_shards_are_not_charged_for_wait(self):
        # 130 trials -> 3 shards on 2 workers: one shard always queues
        # behind the others.  Its deadline must start when a worker
        # picks it up, so a generous per-job timeout never trips merely
        # because earlier shards used the workers first.
        report = run_batch(
            names=["scasb_rigel"], trials=130, seed=7, jobs=2, timeout=120.0
        )
        (result,) = report.results
        assert report.ok
        assert not result.timed_out
        assert result.shards == 3
        assert result.verified_trials == 130
