"""Machine-readable verification benchmark across every engine.

``repro bench`` times the differential-verification hot path — the
same trials, the same scenario stream, the same seeds — once per
execution engine (interpreter, vectorized) and emits a JSON payload
(committed as ``BENCH_verify.json``) so the performance trajectory
stays visible across PRs.  Each engine is timed cold (first pass after
a cache clear, lowering cost included) and warm (best of
``WARM_PASSES`` steady-state passes).  The differential gate is off
during timing: the point is the raw engine cost, and running the
interpreter inside the vectorized engine's measurement would measure
both engines at once.

The emitted numbers are wall-clock and therefore host-dependent; the
*ratio* is the tracked quantity.  CI only asserts that the benchmark
runs — never a timing threshold.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence

from ..semantics.engine import DEFAULT_ENGINE, ENGINE_NAMES
from .config import RunConfig
from .report import canonical_report_json
from .runner import _clear_replay_cache, _replay, resolve_names

#: JSON payload schema identifier.
SCHEMA = "repro.bench/2"

#: historical default plan of the benchmarks: 240 trials.
_BENCH_DEFAULTS = RunConfig(trials=240)


def bench_entries(names: Optional[Sequence[str]] = None):
    """The catalog entries the benchmark verifies (scenario-backed only)."""
    return tuple(
        entry
        for entry in resolve_names(names)
        if entry.has_scenario and not entry.expect_failure
    )


#: Warm passes per engine; each entry's warm time is the minimum over
#: these passes, which filters scheduler noise out of the tracked
#: steady-state ratios.
WARM_PASSES = 5


def run_bench(
    names: Optional[Sequence[str]] = None,
    config: Optional[RunConfig] = None,
) -> Dict[str, object]:
    """Time verification of the catalog under every engine.

    The plan comes from ``config`` (None: the historical default of 240
    trials).  ``config.engine`` is ignored — this benchmark times
    *every* engine by design.

    Replays each analysis once (replay cost is engine-independent and
    excluded from the timings), then runs the full ``trials``-trial
    verification per entry per engine, twice over:

    * a **cold** pass right after the kernel cache is cleared — the
      one-time lowering cost is part of what the vectorized engine
      honestly costs, and ``seconds`` keeps reporting this pass so the
      numbers stay comparable across payload revisions;
    * ``WARM_PASSES`` **warm** passes whose per-entry minimum becomes
      ``warm_seconds`` — the steady-state throughput a long batch run
      actually sees, and the basis of the ``speedups`` block, which
      reports the vectorized engine's warm ratio over the interpreter.
    """
    from ..semantics.vectorized import clear_vector_cache
    from .verify import verify_binding

    cfg = config if config is not None else _BENCH_DEFAULTS
    entries = bench_entries(names)
    _clear_replay_cache()
    replayed = []
    for entry in entries:
        module, outcome = _replay(entry.name)
        if outcome.succeeded:
            replayed.append((entry, module, outcome))

    engines: Dict[str, Dict[str, object]] = {}
    for engine in ENGINE_NAMES:
        clear_vector_cache()
        engine_cfg = cfg.replace(engine=engine)

        def timed_pass() -> List[float]:
            seconds = []
            for entry, module, outcome in replayed:
                started = time.perf_counter()
                verify_binding(
                    outcome.binding,
                    module.SCENARIO,
                    config=engine_cfg,
                    gate="off",
                )
                seconds.append(time.perf_counter() - started)
            return seconds

        cold = timed_pass()
        warm = cold
        for _ in range(WARM_PASSES):
            warm = [min(a, b) for a, b in zip(warm, timed_pass())]
        per_entry: List[Dict[str, object]] = [
            {
                "name": entry.name,
                "seconds": round(cold_s, 4),
                "warm_seconds": round(warm_s, 4),
            }
            for (entry, _, _), cold_s, warm_s in zip(replayed, cold, warm)
        ]
        engines[engine] = {
            "seconds": round(sum(cold), 4),
            "warm_seconds": round(sum(warm), 4),
            "entries": per_entry,
        }

    def _seconds(engine: str, key: str) -> float:
        return float(engines[engine][key])  # type: ignore[arg-type]

    def _ratio(num: float, den: float) -> Optional[float]:
        return round(num / den, 2) if den > 0 else None

    # Prove-then-sample fast path, timed on the default engine: the
    # cold pass pays for symbolic execution and the proof itself; warm
    # passes hit the content-keyed prove cache, so a proved binding
    # runs only its short confirmation window.  The tracked quantity is
    # the warm ratio against the same engine's plain sweep.
    from ..symbolic import clear_prove_cache

    clear_prove_cache()
    symbolic_cfg = cfg.replace(engine=DEFAULT_ENGINE, symbolic=True)
    verdicts: List[Optional[str]] = []

    def symbolic_pass(record_verdicts: bool) -> List[float]:
        seconds = []
        for entry, module, outcome in replayed:
            started = time.perf_counter()
            report = verify_binding(
                outcome.binding,
                module.SCENARIO,
                config=symbolic_cfg,
                gate="off",
            )
            seconds.append(time.perf_counter() - started)
            if record_verdicts:
                verdicts.append(report.prove_verdict)
        return seconds

    symbolic_cold = symbolic_pass(record_verdicts=True)
    symbolic_warm = symbolic_cold
    for _ in range(WARM_PASSES):
        symbolic_warm = [
            min(a, b)
            for a, b in zip(symbolic_warm, symbolic_pass(record_verdicts=False))
        ]

    speedups = {
        fast: {
            "vs_interp": _ratio(
                _seconds("interp", "warm_seconds"),
                _seconds(fast, "warm_seconds"),
            ),
        }
        for fast in ENGINE_NAMES
        if fast != "interp"
    }
    return {
        "schema": SCHEMA,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "analyses": len(replayed),
        "engines": engines,
        "speedups": speedups,
        "symbolic": {
            "engine": DEFAULT_ENGINE,
            "seconds": round(sum(symbolic_cold), 4),
            "warm_seconds": round(sum(symbolic_warm), 4),
            "proved": sum(1 for v in verdicts if v == "proved"),
            "refuted": sum(1 for v in verdicts if v == "refuted"),
            "unknown": sum(
                1 for v in verdicts if v not in (None, "proved", "refuted")
            ),
            "speedup_vs_plain": _ratio(
                _seconds(DEFAULT_ENGINE, "warm_seconds"), sum(symbolic_warm)
            ),
        },
    }


#: JSON schema identifier for the cache-effectiveness payload.
CACHE_SCHEMA = "repro.bench-cache/1"


def run_cache_bench(
    names: Optional[Sequence[str]] = None,
    config: Optional[RunConfig] = None,
) -> Dict[str, object]:
    """Cold-vs-warm timing of the incremental batch mode.

    The plan comes from ``config`` (None: 240 trials, like
    :func:`run_bench`); with no ``cache_dir`` the two runs share a
    temporary store.

    Runs the catalog twice against one provenance store: the first run
    populates it (every entry replays and verifies), the second should
    be almost pure cache.  The payload (committed as
    ``BENCH_provenance.json``) records both wall clocks, the hit/miss
    counters, the warm-over-cold speedup, and whether the two JSON
    reports were byte-identical apart from the cache counters — the
    contract ``repro batch`` promises.  As with the engine benchmark,
    CI asserts the numbers exist, never a timing threshold.
    """
    import shutil
    import tempfile

    from .runner import run_batch

    cfg = config if config is not None else _BENCH_DEFAULTS
    own_dir = cfg.cache_dir is None
    root = cfg.cache_dir or tempfile.mkdtemp(prefix="repro-cache-bench-")
    try:
        cold = run_batch(names=names, config=cfg.replace(cache_dir=root))
        warm = run_batch(names=names, config=cfg.replace(cache_dir=root))
    finally:
        if own_dir:
            shutil.rmtree(root, ignore_errors=True)

    def _modulo_cache(report) -> str:
        payload = json.loads(report.to_json())
        payload.pop("cache", None)
        payload.pop("metrics", None)
        return json.dumps(payload, sort_keys=True)

    speedup = cold.elapsed / warm.elapsed if warm.elapsed > 0 else None
    return {
        "schema": CACHE_SCHEMA,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "entries": len(cold.results),
        "cold": {
            "seconds": round(cold.elapsed, 4),
            "hits": cold.cache_hits,
            "misses": cold.cache_lookup_misses,
        },
        "warm": {
            "seconds": round(warm.elapsed, 4),
            "hits": warm.cache_hits,
            "misses": warm.cache_lookup_misses,
        },
        "speedup": round(speedup, 2) if speedup is not None else None,
        "reports_identical_modulo_cache": (
            _modulo_cache(cold) == _modulo_cache(warm)
        ),
    }


def format_bench(payload: Dict[str, object]) -> str:
    """The deterministic JSON text for the committed BENCH artifacts."""
    return canonical_report_json(payload) + "\n"
