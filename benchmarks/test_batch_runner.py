"""Batch-runner scaling measurements (not a paper artifact).

Measures the wall-clock effect of the two engine-level optimizations
this repo layers over the per-analysis API:

* the content-keyed parse cache (repro.isdl.cache), via a cold-vs-warm
  catalog replay, and
* process-level parallelism (``run_batch(jobs=N)``), via a serial
  vs. ``jobs=4`` comparison of the full catalog with verification.

The parallel speedup assertion needs real cores: ``run_batch`` forks
worker processes, so on a single-CPU host (``os.sched_getaffinity``
reports 1) the workers time-slice one core and the fork/IPC overhead
makes jobs=4 *slower* than serial.  EXPERIMENTS.md records measured
numbers for both situations; here the scaling test self-skips below
2 usable CPUs rather than assert something the hardware cannot show.
"""

import os
import time

import pytest

from repro.analysis import RunConfig
from repro.analysis.runner import run_batch
from repro.isdl import cache


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _timed(config):
    start = time.perf_counter()
    report = run_batch(config=config)
    elapsed = time.perf_counter() - start
    assert report.ok
    return elapsed


@pytest.mark.slow
def test_parse_cache_warm_replay_is_faster():
    cache.clear_caches()
    cold = _timed(RunConfig(trials=0, verify=False))
    stats = cache.cache_stats()
    assert stats["description"]["misses"] > 0
    warm = _timed(RunConfig(trials=0, verify=False))
    # Replays re-parse nothing: every description comes out of the memo.
    assert cache.cache_stats()["description"]["misses"] == stats["description"]["misses"]
    print(f"\ncatalog replay: cold={cold:.3f}s warm={warm:.3f}s")


@pytest.mark.slow
def test_parallel_speedup_vs_serial():
    serial = _timed(RunConfig(jobs=1, trials=240, seed=1982))
    parallel = _timed(RunConfig(jobs=4, trials=240, seed=1982))
    speedup = serial / parallel
    print(
        f"\nbatch --trials 240: jobs=1 {serial:.2f}s, jobs=4 {parallel:.2f}s "
        f"({speedup:.2f}x on {_usable_cpus()} usable CPU(s))"
    )
    if _usable_cpus() < 2:
        pytest.skip(
            "single-CPU host: forked workers time-slice one core, so the "
            f"2x target is unreachable (measured {speedup:.2f}x; "
            "see EXPERIMENTS.md)"
        )
    assert speedup >= 2.0


@pytest.mark.slow
def test_jobs_do_not_change_results():
    # The scheduling knob must be invisible in the report, even here
    # where both modes actually execute.
    serial = run_batch(config=RunConfig(jobs=1, trials=60, seed=7))
    parallel = run_batch(config=RunConfig(jobs=4, trials=60, seed=7))
    assert serial.to_json() == parallel.to_json()
