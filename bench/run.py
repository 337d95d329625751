"""Command line of the benchmark.

``measure``  one workload; the last stdout line is the result object
             ``{correct, attempted, failed, metrics}``.  Untraced, it
             measures in fresh worker processes; traced, in itself.
``run``      every workload, each in a fresh ``measure``
             process, ``--repeat`` times; prints every metric with its
             unit and writes a result file.
``compare``  two result files against the bounds in BENCHMARK.json.
``worker``   set one workload up, print ``ready``, measure its share of
             a run and print the samples (started by ``measure``).
``serve-traced``  ``repro serve`` with the layer wrappers installed;
             writes its spans to a file when it shuts down.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

from . import trace
from .workloads import (
    GO,
    READY,
    ROOT,
    SETUPS,
    SRC,
    WORKLOADS,
    Context,
    Samples,
    child_env,
    fast,
    fastest_cpu,
    nproc,
    percentile,
    scale,
)

BENCHMARK = ROOT / "BENCHMARK.json"

#: scratch space inside the checkout; removed after each measurement.
WORK = ROOT / ".bench_work"

#: fresh worker processes per untraced run; the metrics come from their
#: pooled samples.
WORKERS = 4

#: share of a traced run spent untraced, the base of trace.overhead_ratio.
UNTRACED_SHARE = 1.0 / 3.0

#: stdout prefix of the line before the result: run details as JSON.
DETAIL = "bench-detail "

#: emitted-code counts; a function of the seed and the code generator,
#: so ``compare`` requires them equal at equal seeds.
QUALITY = ("codegen.cycles", "codegen.instrs")


def declared() -> Dict[str, object]:
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


def host() -> Dict[str, object]:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
    }


def end_to_end(
    workload, samples: Samples, setups: List[float], rss_mb: float
) -> Dict[str, float]:
    """The end-to-end metrics, over what ran at full speed, with times
    scaled to the reference CPU."""
    ref = min(samples.probes)
    factor = scale(samples.probes)
    op = fast(samples.op, ref)
    series, concurrency = workload.rate
    rate = fast(getattr(samples, series), ref)
    return {
        "setup_s": factor * statistics.median(sorted(setups)[:SETUPS]),
        "peak_rss_mb": rss_mb,
        "op_ms": factor * statistics.median(op),
        "op_ms_p75": factor * percentile(op, 75),
        "alt_ms": factor * statistics.median(fast(samples.alt, ref)),
        "ops_per_s": 1000.0 * concurrency * len(rate) / (factor * sum(rate)),
    }


def _client_roots(kind: str, timings: List[List[float]]) -> List[trace.Root]:
    """Client-side requests as roots: all of their time is the server's."""
    return [trace.Root(trace.OP, kind, 0.0, ms / 1000.0) for ms, _ in timings]


def _traced(workload, ctx: Context, seconds: float):
    """An untraced then a traced loop; per-layer metrics and details."""
    tracer = trace.Tracer()
    untraced_seconds = UNTRACED_SHARE * seconds
    traced_seconds = seconds - untraced_seconds
    setup = None
    if workload.name == "serve-warm":
        workload.start(ctx, fastest_cpu(ctx.cpus))
        untraced = workload.loop(ctx, untraced_seconds)
        workload.close()
        spans = ctx.work / "spans.json"
        workload.start(ctx, fastest_cpu(ctx.cpus), spans)
        samples = workload.loop(ctx, traced_seconds)
        workload.close()
        with open(spans, encoding="utf-8") as handle:
            served = json.load(handle)
        installation = trace.Installation(
            present=served["present"], absent=served["absent"]
        )
        windows = workload.remote_roots(spans)
        by_kind = {
            "1conn": (_client_roots("1conn", samples.op), windows[0]),
            "2conn": (_client_roots("2conn", samples.alt), windows[1]),
        }
        ops = by_kind["1conn"][0] + by_kind["2conn"][0]
        remote = windows[0] + windows[1]
    else:
        installation = trace.install(tracer)
        try:
            with tracer.operation("setup"):
                workload.prepare(ctx)
        finally:
            installation.remove()
        (setup,) = tracer.take()
        untraced = workload.loop(ctx, untraced_seconds)
        installation = trace.install(tracer)
        ctx.tracer = tracer
        try:
            samples = workload.loop(ctx, traced_seconds)
        finally:
            ctx.tracer = None
            installation.remove()
        roots = tracer.take()
        ops = [root for root in roots if root.layer == trace.OP]
        remote = None
        kinds = sorted({op.kind for op in ops})
        by_kind = {kind: ([op for op in ops if op.kind == kind], None) for kind in kinds}
    ref = min(untraced.probes + samples.probes)
    metrics = trace.layer_metrics(
        ops, remote, setup, fast(untraced.op, ref), fast(samples.op, ref)
    )
    metrics["codegen.cycles"] = samples.extra.get("codegen.cycles", 0.0)
    metrics["codegen.instrs"] = samples.extra.get("codegen.instrs", 0.0)
    failures = trace.coverage_failures(workload.name, installation, ops, remote, setup)
    detail = {
        "layers": trace.summarize(ops, remote),
        "by_kind": {kind: trace.summarize(*pair) for kind, pair in by_kind.items()},
        "setup_ms": setup.dur * 1000.0 if setup else None,
        "present": installation.present,
        "absent": installation.absent,
        "coverage_failures": failures,
    }
    samples.attempted += untraced.attempted
    samples.failed += untraced.failed + len(failures)
    samples.errors += untraced.errors + failures
    return samples, metrics, detail


def worker(
    name: str, seed: int, index: int, count: int, cpus: Tuple[int, ...], smoke: bool
) -> None:
    """One worker of an untraced run: set up, say so, and on ``go SECONDS``
    measure and report; exit at once if stdin closes instead."""
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = Context(
        seed=seed, work=work, smoke=smoke, worker=index, workers=count, cpus=cpus
    )
    workload = WORKLOADS[name]()
    try:
        workload.prepare(ctx)
        print(READY, flush=True)
        order = sys.stdin.readline().split()
        if order[:1] != [GO]:
            return
        samples = workload.loop(ctx, float(order[1]))
        report = {"samples": dataclasses.asdict(samples), "peak_rss_mb": workload.peak_rss_mb()}
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))


def measure(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Run one workload; the result object and the run's details."""
    machine = host()
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(seed=seed, work=work, smoke=smoke)
    workload = WORKLOADS[name]()
    try:
        if traced:
            samples, metrics, detail = _traced(workload, ctx, seconds)
        else:
            setups, samples, rss = workload.measure(ctx, seconds, 1 if smoke else WORKERS)
            metrics = end_to_end(workload, samples, setups, statistics.median(rss))
            ref = min(samples.probes)
            detail = {
                "setup_s": setups, "peak_rss_mb": rss, "extra": samples.extra,
                "probe_ms": 1000.0 * ref,
                "scale": scale(samples.probes),
                "fast": {
                    "op": len(fast(samples.op, ref, 0)),
                    "alt": len(fast(samples.alt, ref, 0)),
                },
            }
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
    wanted = declared()["per_layer" if traced else "end_to_end"]
    result = {
        "correct": samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {
            metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        },
    }
    detail.update(
        workload=name, seed=seed, seconds=seconds, trace=traced, smoke=smoke,
        host=machine, samples={"op": len(samples.op), "alt": len(samples.alt)},
        errors=samples.errors,
    )
    return result, detail


# ---------------------------------------------------------------------------
# sets of runs


def _spread(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median, "q1": q1, "q3": q3,
        "iqr_pct": 100.0 * (q3 - q1) / median if median else 0.0,
    }


def run_one(name: str, seed: int, seconds: float, traced: bool, smoke: bool):
    """One ``measure`` in a fresh process: ``(result, detail, exit code)``."""
    command = [
        sys.executable, "-m", "bench", "measure", "--workload", name,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(traced)),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(
        command, cwd=ROOT, env=child_env(WORK), stdout=subprocess.PIPE, text=True
    )
    lines = done.stdout.splitlines()
    detail = next(
        (json.loads(line[len(DETAIL):]) for line in lines if line.startswith(DETAIL)),
        {},
    )
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return result, detail, done.returncode


def run_set(
    seed: int, seconds: float, repeat: int, traced: bool, smoke: bool
) -> Tuple[Dict[str, object], bool]:
    """Every workload ``repeat`` times, each run in a fresh process: the
    result file's contents, and whether every run passed."""
    ok = True
    report: Dict[str, object] = {
        "schema": "bench.result/1", "seed": seed, "seconds": seconds,
        "repeat": repeat, "trace": traced, "smoke": smoke, "host": host(),
        "workloads": {},
    }
    units = {
        metric["name"]: metric["unit"]
        for metric in declared()["per_layer" if traced else "end_to_end"]
    }
    for name in WORKLOADS:
        runs = []
        for _ in range(repeat):
            result, detail, code = run_one(name, seed, seconds, traced, smoke)
            if result is None or code != 0 or not result["correct"]:
                ok = False
                print(f"{name}: run failed (exit {code}): {detail.get('errors')}", file=sys.stderr)
            runs.append({"result": result, "detail": detail, "exit": code})
        values: Dict[str, List[float]] = {}
        for entry in runs:
            if entry["result"] is not None:
                for metric, item in entry["result"]["metrics"].items():
                    values.setdefault(metric, []).append(item["value"])
        summary = {
            metric: dict(_spread(values[metric]), unit=unit)
            for metric, unit in units.items()
            if metric in values
        }
        attempted = sum(entry["result"]["attempted"] for entry in runs if entry["result"])
        failed = sum(entry["result"]["failed"] for entry in runs if entry["result"])
        report["workloads"][name] = {
            "runs": runs, "summary": summary,
            "error_rate": failed / attempted if attempted else 1.0,
        }
        labels = WORKLOADS[name].labels
        print(f"\n{name}  ({repeat} run(s), seed {seed})")
        for metric, item in summary.items():
            label = f"{metric} ({labels[metric]})" if metric in labels else metric
            print(
                f"  {label:40s} {item['median']:14.6g} {item['unit']:6s}"
                f"  IQR {item['iqr_pct']:5.1f}%"
            )
        print(f"  {'error_rate':40s} {report['workloads'][name]['error_rate']:14.6g}"
              f" ({failed} of {attempted})")
        for key, value in sorted(runs[-1]["detail"].get("extra", {}).items()):
            print(f"  {key:40s} {value:14.6g}")
        if traced and runs and runs[-1]["detail"].get("layers"):
            groups = runs[-1]["detail"]["layers"]["group_pct"]
            shares = ", ".join(f"{group} {pct:.1f}%" for group, pct in groups.items())
            print(f"  self-time shares: {shares}")
    return report, ok


def _quality(entry: Dict[str, object]) -> Dict[str, float]:
    """The emitted-code counts of a workload's last run, if it has them."""
    runs = entry["runs"]
    extra = runs[-1]["detail"].get("extra", {}) if runs else {}
    return {key: value for key, value in extra.items() if key in QUALITY}


def compare(first: Dict[str, object], second: Dict[str, object]) -> List[str]:
    """Regressions of ``second`` against ``first``: a timing or memory
    median worse than its bound, any rise in the error rate, a missing
    workload, and, at the same seed, any change in the emitted code."""
    regressions = []
    for workload, entry in first["workloads"].items():
        other = second["workloads"].get(workload)
        if other is None:
            regressions.append(f"{workload} missing")
            continue
        if other["error_rate"] > entry["error_rate"]:
            regressions.append(f"{workload} error_rate")
        if first["seed"] == second["seed"] and _quality(entry) != _quality(other):
            regressions.append(f"{workload} emitted code")
    for metric in declared()["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload, entry in first["workloads"].items():
            other = second["workloads"].get(workload)
            if other is None or name not in entry["summary"] or name not in other["summary"]:
                continue
            base = entry["summary"][name]["median"]
            new = other["summary"][name]["median"]
            change = (new - base) / base if base else 0.0
            worse = change if metric["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > bound else "ok"
            print(
                f"{workload:16s} {name:14s} {base:12.6g} -> {new:12.6g} "
                f"{100 * change:+6.1f}% (bound {100 * bound:.0f}%) {verdict}"
            )
            if worse > bound:
                regressions.append(f"{workload} {name}")
    return regressions


# ---------------------------------------------------------------------------
# entry point


def serve_traced(spans: str, argv: List[str]) -> int:
    """``repro serve`` under the layer wrappers, spans written at exit."""
    tracer = trace.Tracer()
    installation = trace.install(tracer, trace.LAYERS + trace.SERVICE_LAYERS)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(argv)
    finally:
        with open(spans, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "present": installation.present,
                    "absent": installation.absent,
                    "roots": [root.to_dict() for root in tracer.take()],
                },
                handle,
            )


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["serve-traced"] and len(argv) >= 2:
        return serve_traced(argv[1], argv[2:])
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    default_seconds = float(declared()["run_seconds"])

    p_measure = sub.add_parser("measure", help="one run of one workload")
    p_measure.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p_measure.add_argument("--seed", type=int, required=True)
    p_measure.add_argument("--seconds", type=float, default=default_seconds)
    p_measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_measure.add_argument("--smoke", action="store_true")

    p_run = sub.add_parser("run", help="every workload, each run in a fresh process")
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--repeat", type=int, default=1)
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument("--smoke", action="store_true")
    p_run.add_argument("--out", help="result file (JSON)")

    p_compare = sub.add_parser("compare", help="check B against A's bounds")
    p_compare.add_argument("first")
    p_compare.add_argument("second")

    p_worker = sub.add_parser("worker", help="one worker process of a measure")
    p_worker.add_argument("workload", choices=sorted(WORKLOADS))
    p_worker.add_argument("--seed", type=int, required=True)
    p_worker.add_argument("--index", type=int, required=True)
    p_worker.add_argument(
        "--cpus", type=lambda text: tuple(map(int, text.split(","))), required=True
    )
    p_worker.add_argument("--of", type=int, required=True)
    p_worker.add_argument("--smoke", action="store_true")

    args = parser.parse_args(argv)
    if args.command != "compare" and not (SRC / "repro" / "__init__.py").is_file():
        print("bench: the program (src/repro) is not in this checkout", file=sys.stderr)
        return 2

    if args.command == "worker":
        worker(args.workload, args.seed, args.index, args.of, args.cpus, args.smoke)
        return 0
    if args.command == "measure":
        seconds = min(args.seconds, 0.5) if args.smoke else args.seconds
        result, detail = measure(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
        print(DETAIL + json.dumps(detail, sort_keys=True))
        print(json.dumps(result, sort_keys=True))
        return 0 if result["correct"] else 1
    if args.command == "run":
        report, ok = run_set(
            args.seed, default_seconds, max(1, args.repeat), args.trace, args.smoke
        )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=1, sort_keys=True)
        return 0 if ok else 1
    with open(args.first, encoding="utf-8") as handle:
        first = json.load(handle)
    with open(args.second, encoding="utf-8") as handle:
        second = json.load(handle)
    regressions = compare(first, second)
    if regressions:
        print("regressions: " + ", ".join(regressions), file=sys.stderr)
        return 1
    return 0
