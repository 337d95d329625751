"""Self-tests of the benchmark: ``PYTHONPATH=src python -m pytest bench/``."""

import io
import json
import os
import subprocess
import sys

import pytest

from bench import run, trace, workloads
from bench.workloads import ROOT, SRC, WORKLOADS, child_env


def _smoke(*extra):
    """``python -m bench run --smoke`` in a fresh process; its result file."""
    out = run.WORK / "test-result.json"
    run.WORK.mkdir(exist_ok=True)
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--seed", "7", "--smoke", "--out", str(out)]
        + list(extra),
        cwd=ROOT, env=child_env(run.WORK), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    out.unlink()
    return report


@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "per_layer"])
def test_every_declared_metric_is_emitted_with_its_unit(traced):
    report = _smoke(*(["--trace"] if traced else []))
    declared = run.declared()["per_layer" if traced else "end_to_end"]
    assert report["host"]["nproc"] >= 1 and report["seed"] == 7
    assert sorted(report["workloads"]) == sorted(WORKLOADS)
    for name, entry in report["workloads"].items():
        (only,) = entry["runs"]
        result = only["result"]
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in declared} == {
            metric: item["unit"] for metric, item in result["metrics"].items()
        }, name
        assert all(isinstance(item["value"], float) for item in result["metrics"].values())
        assert only["detail"]["samples"]["op"] >= 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_seed_alone_determines_the_inputs(name):
    workload = WORKLOADS[name]()
    if name == "verify-deep":
        workload.prepare(None)
    first = workload.inputs_digest(1982, 6)
    assert workload.inputs_digest(1982, 6) == first
    assert workload.inputs_digest(1983, 6) != first


def _plant_wrong_oracle(oracle):
    right = oracle.final_memory
    oracle.final_memory = lambda self: dict(right(self), **{"1": 1})


# A traced measure checks outputs in its own process, where the plant is.
PLANTED = """
import sys
sys.path[:0] = [{src!r}, {root!r}]
from bench import test_bench, workloads
test_bench._plant_wrong_oracle(workloads.Oracle)
from bench.run import main
sys.exit(main(["measure", "--workload", "codegen-corpus", "--seed", "3", "--smoke",
               "--trace", "1"]))
"""


def test_a_wrong_oracle_answer_fails_the_run():
    done = subprocess.run(
        [sys.executable, "-c", PLANTED.format(src=str(SRC), root=str(ROOT))],
        cwd=ROOT, env=child_env(run.WORK), capture_output=True, text=True, timeout=120,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert done.returncode != 0
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_a_wrong_oracle_answer_fails_a_worker(monkeypatch, capsys):
    monkeypatch.setattr(workloads.Oracle, "final_memory", workloads.Oracle.final_memory)
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"{workloads.GO} 0.1\n"))
    _plant_wrong_oracle(workloads.Oracle)
    cpus = os.sched_getaffinity(0)
    try:
        run.worker("codegen-corpus", 3, 0, 1, tuple(sorted(cpus)), smoke=True)
    finally:
        os.sched_setaffinity(0, cpus)  # the worker moved itself between CPUs
    ready, report = capsys.readouterr().out.splitlines()[-2:]
    samples = json.loads(report)["samples"]
    assert ready == workloads.READY
    assert samples["failed"] == samples["attempted"] > 0


def test_metrics_use_full_speed_timings_or_the_best_tagged_quarter():
    mixed = [[1.0, 1.0], [2.0, 1.2], [9.0, 2.0], [8.0, 1.9]]
    assert workloads.fast(mixed, ref=1.0) == [1.0, 2.0]
    slow = [[9.0, 2.0], [8.0, 1.9], [7.0, 1.8], [6.0, 3.0]]
    assert workloads.fast(slow, ref=1.0) == [7.0]


def test_wrappers_pass_results_and_exceptions_through():
    tracer = trace.Tracer()
    payload = object()
    error = KeyError("boom")

    def give(value):
        return value

    def fail():
        raise error

    assert tracer.wrap("a", give)(payload) is payload
    with pytest.raises(KeyError) as raised:
        tracer.wrap("b", fail)()
    assert raised.value is error
    assert [(root.layer, root.calls) for root in tracer.take()] == [
        ("a", {"a": 1}),
        ("b", {"b": 1}),
    ]


def test_self_times_add_up_to_the_operation(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(trace, "clock", lambda: next(ticks))
    tracer = trace.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner() or inner())
    with tracer.operation("kind"):
        outer()
    (root,) = tracer.take()
    assert root.calls == {"inner": 2, "outer": 1, trace.OP: 1}
    assert sum(root.self_s.values()) == root.dur
    summary = trace.summarize([root])
    assert summary["covered_pct"] == pytest.approx(100.0)


def test_install_wraps_imported_names_and_remove_restores_them():
    import repro.analysis.verify
    import repro.lint

    original = repro.lint.lint_binding
    tracer = trace.Tracer()
    installation = trace.install(tracer)
    try:
        assert repro.lint.lint_binding is not original
        assert repro.analysis.verify.lint_binding is repro.lint.lint_binding
        assert not installation.absent
    finally:
        installation.remove()
    assert repro.lint.lint_binding is original
    assert repro.analysis.verify.lint_binding is original


def test_a_missing_target_is_an_absent_layer():
    layer = trace.Layer("gone", ("repro.no_such_module:thing",), "catalog-batch")
    installation = trace.install(trace.Tracer(), (layer,))
    assert installation.present == [] and "gone" in installation.absent


def test_compare_flags_a_metric_worse_than_its_bound():
    def report(op_ms, error_rate=0.0, cycles=7.0):
        summary = {
            metric["name"]: {"median": 1.0} for metric in run.declared()["end_to_end"]
        }
        summary["op_ms"] = {"median": op_ms}
        entry = {
            "summary": summary, "error_rate": error_rate,
            "runs": [{"detail": {"extra": {"codegen.cycles": cycles}}}],
        }
        return {"seed": 1, "workloads": {"codegen-corpus": entry}}

    assert run.compare(report(10.0), report(10.5)) == []
    assert run.compare(report(10.0), report(13.0)) == ["codegen-corpus op_ms"]
    assert run.compare(report(10.0), report(10.0, error_rate=0.01)) == [
        "codegen-corpus error_rate"
    ]
    assert run.compare(report(10.0), report(10.0, cycles=8.0)) == [
        "codegen-corpus emitted code"
    ]
