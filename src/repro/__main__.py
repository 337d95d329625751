"""Command-line interface to the EXTRA reproduction.

Usage::

    python -m repro table1                 # Table 1 catalog counts
    python -m repro table2 [--no-verify]   # replay all 11 analyses
    python -m repro analyze scasb_rigel    # one analysis, full report
    python -m repro batch --jobs 4 --json  # full catalog, in parallel
    python -m repro trace scasb_rigel      # print the recorded derivation
    python -m repro replay --all           # re-check derivations (drift gate)
    python -m repro stats --format prom    # instrumented run -> metrics
    python -m repro serve --port 8137      # analysis-as-a-service (HTTP/JSON)
    python -m repro loadtest --clients 8   # load-test it -> BENCH_service.json
    python -m repro lint --all             # static-check every description
    python -m repro prove --all            # symbolic equivalence verdicts
    python -m repro figures                # regenerate figures 2-5
    python -m repro failures               # the documented failures
    python -m repro compile i8086          # demo codegen + simulation
    python -m repro machines --format json # spec-derived machine registry
    python -m repro list                   # available analyses

Every subcommand that *runs* things is a thin wrapper over the typed
facade in :mod:`repro.api` — argument parsing and printing live here,
behaviour lives there.  Exit codes are uniform across subcommands:
0 — success; 1 — the command ran but reported findings or failures (a
failed analysis, lint diagnostics, a batch with failed entries); 2 —
usage error (unknown name, bad arguments).
"""

from __future__ import annotations

import argparse
import contextlib
import sys


def _metrics_scope(path):
    """Collecting-context + writeback for a ``--metrics-out`` flag.

    Returns an :class:`contextlib.ExitStack`; entering it turns on
    metrics collection when ``path`` is set.  Call the returned stack's
    ``.registry`` (None when disabled) for the live registry.
    """
    from . import obs

    stack = contextlib.ExitStack()
    stack.registry = (
        stack.enter_context(obs.collecting()) if path else None
    )
    return stack


def _write_metrics(path, snapshot) -> None:
    from . import obs

    if path and snapshot is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(obs.export_json(snapshot) + "\n")


def cmd_table1(_args) -> int:
    from .analysis import format_table
    from .machines import PAPER_TOTAL, table1_rows, total_count

    rows = [(n, str(o), str(p)) for n, o, p in table1_rows()]
    rows.append(("Total", str(total_count()), str(PAPER_TOTAL)))
    print(format_table(rows, ("Machine", "Count", "Paper")))
    return 0


def cmd_table2(args) -> int:
    from .analyses import REGISTRY
    from .analysis import format_table, table2_row

    rows = []
    ok = True
    for spec in (s for s in REGISTRY if s.group == "table2"):
        outcome = spec.module.run(verify=not args.no_verify, trials=args.trials)
        ok = ok and outcome.succeeded
        machine, instruction, language, operation, steps = table2_row(outcome)
        rows.append(
            (
                machine,
                instruction,
                language,
                operation,
                steps,
                str(spec.paper_steps),
            )
        )
    print(
        format_table(
            rows,
            ("Machine", "Instruction", "Language", "Operation", "Steps", "Paper"),
        )
    )
    return 0 if ok else 1


def _default_cache_dir():
    import os

    from .provenance import DEFAULT_STORE_DIR, STORE_ENV_VAR

    return os.environ.get(STORE_ENV_VAR) or DEFAULT_STORE_DIR


def _add_store_backend(parser, default="dir") -> None:
    parser.add_argument(
        "--store-backend",
        choices=["dir", "sqlite"],
        default=default,
        help="provenance store layout: one-file-per-artifact tree or a "
        "single WAL database (default: %(default)s)",
    )


def cmd_batch(args) -> int:
    from . import api

    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or _default_cache_dir()
    config = api.RunConfig(
        engine=args.engine,
        trials=args.trials,
        seed=args.seed,
        verify=not args.no_verify,
        jobs=args.jobs,
        timeout=args.timeout,
        cache_dir=cache_dir,
        store_backend=args.store_backend,
    )
    try:
        with _metrics_scope(args.metrics_out):
            result = api.batch(args.names or None, config)
    except (api.UnknownAnalysisError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    _write_metrics(args.metrics_out, result.metrics)
    if args.json:
        print(result.to_json())
    else:
        print("\n".join(result.summary_lines()))
    return 0 if result.ok else 1


def cmd_verify(args) -> int:
    from . import api
    from .analysis.runner import run_batch

    config = api.RunConfig(
        engine=args.engine,
        trials=args.trials,
        seed=args.seed,
        verify=True,
        symbolic=args.symbolic,
    )
    try:
        with _metrics_scope(args.metrics_out):
            report = run_batch(names=args.names, config=config)
    except (api.UnknownAnalysisError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    _write_metrics(args.metrics_out, report.metrics)
    if args.json:
        print(report.to_json())
    else:
        print("\n".join(report.summary_lines()))
    return 0 if report.ok else 1


def cmd_bench(args) -> int:
    from . import api
    from .analysis.bench import format_bench, run_bench, run_cache_bench

    config = api.RunConfig(trials=args.trials, seed=args.seed)
    try:
        with _metrics_scope(args.metrics_out) as scope:
            registry = scope.registry
            if args.cache:
                payload = run_cache_bench(args.names or None, config)
            else:
                payload = run_bench(args.names or None, config)
            snapshot = None if registry is None else registry.snapshot()
    except (api.UnknownAnalysisError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    _write_metrics(args.metrics_out, snapshot)
    text = format_bench(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    if args.json or not args.out:
        print(text, end="")
    return 0


def cmd_stats(args) -> int:
    import json

    from . import api, obs

    if args.from_file:
        try:
            with open(args.from_file, "r", encoding="utf-8") as handle:
                snapshot = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"stats: cannot read {args.from_file}: {error}", file=sys.stderr)
            return 2
        if (
            not isinstance(snapshot, dict)
            or snapshot.get("schema") != obs.METRICS_SCHEMA
        ):
            print(
                f"stats: {args.from_file} is not a {obs.METRICS_SCHEMA} "
                "snapshot",
                file=sys.stderr,
            )
            return 2
        result = api.StatsResult(snapshot=snapshot)
    else:
        cache_dir = None
        if not args.no_cache:
            cache_dir = args.cache_dir or _default_cache_dir()
        config = api.RunConfig(
            engine=args.engine,
            trials=args.trials,
            seed=args.seed,
            cache_dir=cache_dir,
            store_backend=args.store_backend,
        )
        try:
            result = api.stats(args.names or None, config)
        except (api.UnknownAnalysisError, ValueError) as error:
            print(str(error), file=sys.stderr)
            return 2
    if args.format == "prom":
        print(result.to_prometheus(), end="")
    else:
        print(result.to_json())
    return 0


def cmd_machines(args) -> int:
    from . import api
    from .analysis import format_table

    result = api.machines()
    if args.format == "json":
        print(result.to_json())
        return 0
    rows = []
    for info in result.machines:
        iterated = info.cost["iterated"]
        rows.append(
            (
                info.key,
                info.name,
                str(info.word_bits),
                str(info.instructions),
                str(info.modeled),
                str(info.simulated),
                str(info.fuzz_cases),
                str(len(iterated)),
                "paper" if info.paper else "extension",
            )
        )
    print(
        format_table(
            rows,
            (
                "Key",
                "Machine",
                "Bits",
                "Instr",
                "Modeled",
                "Sim",
                "Fuzz",
                "Iterated",
                "Source",
            ),
        )
    )
    return 0


def cmd_list(_args) -> int:
    from . import analyses

    for group, members in (
        ("Table 2", analyses.TABLE2),
        ("failures", analyses.FAILURES),
        ("extensions", analyses.EXTENSIONS),
    ):
        print(f"{group}:")
        for module in members:
            name = module.__name__.rsplit(".", 1)[-1]
            print(f"  {name:28s} {module.INFO.machine} {module.INFO.instruction} "
                  f"vs {module.INFO.language} {module.INFO.operation}")
    return 0


def cmd_analyze(args) -> int:
    from . import api

    try:
        config = api.RunConfig(engine=args.engine, trials=args.trials)
        result = api.analyze(
            args.name, config, verify=not args.no_verify
        )
    except (api.UnknownAnalysisError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    print(result.report)
    if args.log and result.outcome.log:
        print("transformation log:")
        print(result.outcome.log)
    return 0 if result.succeeded else 1


def cmd_trace(args) -> int:
    import json

    from . import api

    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or _default_cache_dir()
    try:
        result = api.trace(
            args.name,
            cache_dir=cache_dir,
            store_backend=None if cache_dir is None else args.store_backend,
        )
    except api.UnknownAnalysisError as error:
        print(str(error), file=sys.stderr)
        return 2
    if result is None:
        print(f"{args.name}: no trace recorded", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"# {args.name} ({result.origin}) digest={result.digest}")
        print(result.log())
    return 0


def cmd_replay(args) -> int:
    from . import api

    if not args.names and not args.all:
        print("replay: give analysis names or --all", file=sys.stderr)
        return 2
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or _default_cache_dir()
    try:
        result = api.replay(
            None if args.all else args.names,
            cache_dir=cache_dir,
            store_backend=None if cache_dir is None else args.store_backend,
        )
    except api.UnknownAnalysisError as error:
        print(str(error), file=sys.stderr)
        return 2
    for entry in result.entries:
        if entry.error == "no trace recorded":
            print(f"FAILED {entry.name}: no trace recorded")
        elif not entry.ok:
            print(f"FAILED {entry.name} ({entry.origin}): {entry.error}")
        else:
            print(
                f"ok     {entry.name} ({entry.origin}) steps={entry.steps} "
                f"digest={entry.digest[:12]}"
            )
    total = len(result.entries)
    print(
        f"{total - result.failed}/{total} derivations replayed "
        "with digest agreement"
    )
    return 0 if result.ok else 1


def cmd_lint(args) -> int:
    import json
    import os

    from .isdl import parse_description
    from .isdl.errors import IsdlError
    from .lint import (
        export_sarif,
        lint_coverage,
        lint_description,
        lint_targets,
    )

    targets = lint_targets()
    selected = []
    if args.all:
        selected = sorted(targets)
    if not args.names and not args.all:
        print("lint: give target names or --all", file=sys.stderr)
        return 2
    for name in args.names:
        if name in targets:
            selected.append(name)
        elif any(key.startswith(name + ":") for key in targets):
            # A bare machine or language name selects all its targets.
            selected.extend(
                sorted(key for key in targets if key.startswith(name + ":"))
            )
        elif os.path.exists(name):
            selected.append(name)
        else:
            print(
                f"lint: unknown target {name!r}; known targets: "
                + ", ".join(sorted(targets)),
                file=sys.stderr,
            )
            return 2

    reports = []
    for name in selected:
        if name in targets:
            description, suppress = targets[name]()
            reports.append(lint_description(description, suppress, target=name))
            continue
        with open(name, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            description = parse_description(text)
        except IsdlError as error:
            print(f"{name}: {error}", file=sys.stderr)
            return 1
        reports.append(lint_description(description, target=name))

    if args.symbolic:
        reports.extend(_symbolic_lint_reports())

    coverage = lint_coverage() if args.all else None
    clean = all(report.clean for report in reports)
    if args.format == "sarif":
        print(export_sarif(reports))
    elif args.format == "json":
        payload = {
            "schema": "repro.lint/1",
            "clean": clean,
            "reports": [report.to_dict() for report in reports],
        }
        if coverage is not None:
            payload["coverage"] = coverage
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for report in reports:
            lines = report.format_lines()
            if lines:
                print("\n".join(lines))
            else:
                print(f"{report.target}: clean")
        if coverage is not None:
            for row in coverage:
                if row["status"] != "ok":
                    print(
                        f"{row['name']}: no-descriptions "
                        "(catalog-only stub; nothing to lint)"
                    )
    return 0 if clean else 1


def _symbolic_lint_reports():
    """Binding-level symbolic lint (E401/W402) over the catalog.

    One report per catalog analysis that produces a verified binding;
    the target is ``binding:<analysis>`` so the rows are visually
    distinct from description-level targets like ``i8086:scasb``.
    """
    import importlib

    from .analysis.runner import catalog
    from .lint import LintReport, lint_binding_symbolic

    reports = []
    for entry in catalog():
        if entry.expect_failure or not entry.has_scenario:
            continue
        module = importlib.import_module(f"repro.analyses.{entry.name}")
        outcome = module.run(verify=False)
        if not outcome.succeeded or outcome.binding is None:
            continue
        diagnostics = lint_binding_symbolic(outcome.binding, module.SCENARIO)
        reports.append(
            LintReport(
                target=f"binding:{entry.name}",
                diagnostics=tuple(diagnostics),
            )
        )
    return reports


def cmd_prove(args) -> int:
    import json

    from . import api
    from .analysis.runner import resolve_names

    if not args.names and not args.all:
        print("prove: give analysis names or --all", file=sys.stderr)
        return 2
    try:
        entries = resolve_names(None if args.all else args.names)
    except api.UnknownAnalysisError as error:
        print(str(error), file=sys.stderr)
        return 2
    results = [api.prove(entry.name, seed=args.seed) for entry in entries]
    counts = {
        verdict: sum(1 for r in results if r.verdict == verdict)
        for verdict in ("proved", "refuted", "unknown", "skipped")
    }
    if args.json:
        payload = {
            "schema": "repro.prove/1",
            "seed": args.seed,
            "summary": counts,
            "results": [result.to_dict() for result in results],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for result in results:
            line = f"{result.verdict:8s} {result.name:28s}"
            if result.verdict == "proved":
                line += (
                    f" nodes={result.term_nodes}"
                    f" unroll={result.unroll_depth}"
                )
            elif result.verdict == "refuted":
                line += (
                    f" {result.message} "
                    f"[counterexample {result.counterexample}]"
                )
            elif result.reason:
                line += f" ({result.reason})"
            print(line)
        judged = len(results) - counts["skipped"]
        print(
            f"{counts['proved']}/{judged} proved, "
            f"{counts['refuted']} refuted, "
            f"{counts['unknown']} unknown "
            f"({counts['skipped']} skipped)"
        )
    return 1 if counts["refuted"] else 0


def cmd_serve(args) -> int:
    import asyncio

    from .service import AnalysisService, ServiceConfig

    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or _default_cache_dir()
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        request_timeout=args.timeout or None,
        cache_dir=cache_dir,
        store_backend=args.store_backend,
        jobs=args.jobs,
        trials=args.trials,
    )
    service = AnalysisService(config)

    async def _serve() -> None:
        await service.start()
        print(
            "repro service on http://%s:%d (store: %s, backend: %s)"
            % (
                config.host,
                service.port,
                cache_dir or "<disabled>",
                config.store_backend,
            ),
            flush=True,
        )
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_loadtest(args) -> int:
    from .service import run_loadtest

    report = run_loadtest(
        args.url,
        clients=args.clients,
        requests_per_client=args.requests,
        trials=args.trials,
        store_backend=args.store_backend,
        cache_dir=args.cache_dir,
        out=args.out,
    )
    if args.json:
        print(report.to_json())
    else:
        print("\n".join(report.summary_lines()))
    return 0 if not report.errors else 1


def cmd_figures(_args) -> int:
    from .analyses.scasb_rigel import INFO, augment_scasb, simplify_scasb
    from .analysis import AnalysisSession
    from .isdl import format_description
    from .languages import rigel
    from .machines.i8086 import descriptions as i8086

    print("--- Figure 2: Rigel index operator ---\n")
    print(format_description(rigel.index()))
    print("--- Figure 3: Intel 8086 scasb ---\n")
    print(format_description(i8086.scasb()))
    session = AnalysisSession(INFO, rigel.index(), i8086.scasb())
    simplify_scasb(session)
    print("--- Figure 4: simplified scasb ---\n")
    print(format_description(session.instruction.description))
    augment_scasb(session)
    print("--- Figure 5: augmented scasb ---\n")
    print(format_description(session.instruction.description))
    return 0


def cmd_failures(_args) -> int:
    from .analyses import run_failures

    ok = True
    for outcome in run_failures():
        title = (
            f"{outcome.machine} {outcome.instruction} vs "
            f"{outcome.language} {outcome.operation}"
        )
        print(title)
        if outcome.succeeded:
            print("  UNEXPECTEDLY SUCCEEDED")
            ok = False
        else:
            print(f"  failed (as the paper documents): {outcome.failure}\n")
    return 0 if ok else 1


def _compile_b4800(target, args) -> int:
    from .codegen import ir

    program = (
        ir.ListSearch(
            result="node",
            head=ir.Param("head", 0, 250),
            key=ir.Param("key", 0, 255),
            key_offset=ir.Const(1),
            link_offset=ir.Const(0),
        ),
    )
    asm = target.compile(program, use_exotic=not args.decomposed)
    print(asm.listing())
    nodes = [16 + i * 4 for i in range(args.length)]
    memory = {}
    for index, addr in enumerate(nodes):
        memory[addr] = nodes[index + 1] if index + 1 < len(nodes) else 0
        memory[addr + 1] = index
    result = target.simulate(
        asm, {"head": nodes[0], "key": args.length - 1}, memory
    )
    print(f"; simulated: {result.cycles} cycles")
    print(f"; result node = {result.results['node']}")
    return 0


def cmd_compile(args) -> int:
    from .codegen import ir, target_for

    target = target_for(args.machine, with_extensions=args.extensions)
    if args.machine == "b4800":
        return _compile_b4800(target, args)
    program = (
        ir.StringMove(
            dst=ir.Param("dst", 0, 30000),
            src=ir.Param("src", 0, 30000),
            length=ir.Const(args.length),
        ),
        ir.StringIndex(
            result="idx",
            base=ir.Param("dst", 0, 30000),
            length=ir.Const(args.length),
            char=ir.Const(ord("|")),
        )
        if args.machine != "ibm370"
        else ir.StringMove(
            dst=ir.Add(ir.Param("dst", 0, 30000), ir.Const(args.length)),
            src=ir.Param("dst", 0, 30000),
            length=ir.Const(args.length),
        ),
    )
    asm = target.compile(program, use_exotic=not args.decomposed)
    print(asm.listing())
    data = (b"abc|" * (args.length // 4 + 1))[: args.length]
    memory = {100 + i: byte for i, byte in enumerate(data)}
    result = target.simulate(asm, {"src": 100, "dst": 10000}, memory)
    print(f"; simulated: {result.cycles} cycles, "
          f"{result.instructions_executed} instructions executed")
    for name, value in result.results.items():
        print(f"; result {name} = {value}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="EXTRA: exotic-instruction analysis (Morgan & Rowe 1982)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table 1 catalog counts")

    p_table2 = sub.add_parser("table2", help="replay all Table 2 analyses")
    p_table2.add_argument("--no-verify", action="store_true")
    p_table2.add_argument("--trials", type=int, default=60)

    p_batch = sub.add_parser(
        "batch", help="run the full analysis catalog in parallel"
    )
    p_batch.add_argument(
        "names", nargs="*", help="analysis names (default: full catalog)"
    )
    p_batch.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = serial)"
    )
    p_batch.add_argument(
        "--trials", type=int, default=120, help="verification trials per analysis"
    )
    p_batch.add_argument(
        "--seed", type=int, default=1982, help="root seed for all verification"
    )
    p_batch.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job timeout in seconds (parallel mode only)",
    )
    p_batch.add_argument("--no-verify", action="store_true")
    p_batch.add_argument(
        "--json", action="store_true", help="deterministic JSON report"
    )
    p_batch.add_argument(
        "--engine",
        default=None,
        help="execution engine: interp | vectorized (default: vectorized)",
    )
    p_batch.add_argument(
        "--cache-dir",
        default=None,
        help="provenance store root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    p_batch.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the provenance cache; replay and verify everything",
    )
    _add_store_backend(p_batch)
    p_batch.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="collect metrics during the run and write the JSON snapshot here",
    )

    p_trace = sub.add_parser(
        "trace", help="print one analysis's recorded derivation"
    )
    p_trace.add_argument("name")
    p_trace.add_argument(
        "--format", choices=["text", "json"], default="text"
    )
    p_trace.add_argument(
        "--cache-dir",
        default=None,
        help="provenance store root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    p_trace.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore stored traces; record a fresh derivation",
    )
    _add_store_backend(p_trace)

    p_replay = sub.add_parser(
        "replay", help="re-apply recorded derivations with digest checks"
    )
    p_replay.add_argument("names", nargs="*", help="analysis names")
    p_replay.add_argument(
        "--all", action="store_true", help="replay the whole catalog"
    )
    p_replay.add_argument(
        "--cache-dir",
        default=None,
        help="provenance store root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    p_replay.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore stored traces; self-check fresh derivations",
    )
    _add_store_backend(p_replay)

    p_verify = sub.add_parser(
        "verify", help="differentially verify named analyses"
    )
    p_verify.add_argument("names", nargs="+", help="analysis names")
    p_verify.add_argument("--trials", type=int, default=120)
    p_verify.add_argument("--seed", type=int, default=1982)
    p_verify.add_argument(
        "--engine",
        default=None,
        help="execution engine: interp | vectorized (default: vectorized)",
    )
    p_verify.add_argument(
        "--json", action="store_true", help="deterministic JSON report"
    )
    p_verify.add_argument(
        "--symbolic",
        action="store_true",
        help="prove-then-sample: symbolically proved bindings run a "
        "reduced confirmation trial window",
    )
    p_verify.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="collect metrics during the run and write the JSON snapshot here",
    )

    p_bench = sub.add_parser(
        "bench", help="time verification per execution engine"
    )
    p_bench.add_argument(
        "names", nargs="*", help="analysis names (default: verified catalog)"
    )
    p_bench.add_argument("--trials", type=int, default=240)
    p_bench.add_argument("--seed", type=int, default=1982)
    p_bench.add_argument(
        "--json", action="store_true", help="print the JSON payload"
    )
    p_bench.add_argument(
        "--out", default=None, help="write the payload to this path"
    )
    p_bench.add_argument(
        "--cache",
        action="store_true",
        help="benchmark the provenance cache (cold vs warm batch)",
    )
    p_bench.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="collect metrics during the run and write the JSON snapshot here",
    )

    p_stats = sub.add_parser(
        "stats", help="run an instrumented batch and print its metrics"
    )
    p_stats.add_argument(
        "names", nargs="*", help="analysis names (default: full catalog)"
    )
    p_stats.add_argument(
        "--format",
        choices=["json", "prom"],
        default="json",
        help="snapshot JSON or Prometheus text exposition",
    )
    p_stats.add_argument(
        "--from",
        dest="from_file",
        default=None,
        metavar="FILE",
        help="print a previously saved --metrics-out snapshot instead of "
        "running anything",
    )
    p_stats.add_argument(
        "--trials",
        type=int,
        default=20,
        help="verification trials for the instrumented run (kept small: "
        "stats is about the metrics, not the verdict)",
    )
    p_stats.add_argument("--seed", type=int, default=1982)
    p_stats.add_argument(
        "--engine",
        default=None,
        help="execution engine: interp | vectorized (default: vectorized)",
    )
    p_stats.add_argument(
        "--cache-dir",
        default=None,
        help="provenance store root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    p_stats.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the provenance cache for the instrumented run",
    )
    _add_store_backend(p_stats)

    p_serve = sub.add_parser(
        "serve", help="run the analysis service (asyncio HTTP/JSON)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8137, help="0 binds an ephemeral port"
    )
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        help="provenance store root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    p_serve.add_argument(
        "--no-cache",
        action="store_true",
        help="serve without a provenance store (every request re-runs)",
    )
    _add_store_backend(p_serve, default="sqlite")
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        help="concurrent analysis requests before 429 backpressure",
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="per-request timeout in seconds (504 past it); 0 disables",
    )
    p_serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="default batch parallelism (request bodies may override)",
    )
    p_serve.add_argument(
        "--trials", type=int, default=120, help="default verification trials"
    )

    p_loadtest = sub.add_parser(
        "loadtest", help="load-test the analysis service"
    )
    p_loadtest.add_argument(
        "--url",
        default=None,
        help="target service URL (default: hermetic in-process server)",
    )
    p_loadtest.add_argument("--clients", type=int, default=8)
    p_loadtest.add_argument(
        "--requests", type=int, default=25, help="requests per client"
    )
    p_loadtest.add_argument(
        "--trials", type=int, default=12, help="verification trials per batch"
    )
    _add_store_backend(p_loadtest, default="sqlite")
    p_loadtest.add_argument(
        "--cache-dir",
        default=None,
        help="hermetic mode store root (default: a temporary directory)",
    )
    p_loadtest.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the BENCH_service.json payload here",
    )
    p_loadtest.add_argument(
        "--json", action="store_true", help="print the JSON payload"
    )

    sub.add_parser("list", help="list available analyses")

    p_machines = sub.add_parser(
        "machines", help="spec-derived machine registry with coverage"
    )
    p_machines.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="coverage table or the repro.machines/1 JSON payload",
    )

    p_lint = sub.add_parser(
        "lint", help="static-check ISDL descriptions"
    )
    p_lint.add_argument(
        "names",
        nargs="*",
        help="targets: i8086:scasb, rigel:index, a bare machine/language "
        "name, or a path to an ISDL source file",
    )
    p_lint.add_argument(
        "--all", action="store_true", help="lint every catalog description"
    )
    p_lint.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text"
    )
    p_lint.add_argument(
        "--symbolic",
        action="store_true",
        help="also run the symbolic equivalence prover over every catalog "
        "binding (E401/W402)",
    )

    p_analyze = sub.add_parser("analyze", help="run one analysis")
    p_analyze.add_argument("name")
    p_analyze.add_argument("--no-verify", action="store_true")
    p_analyze.add_argument("--trials", type=int, default=120)
    p_analyze.add_argument("--log", action="store_true")
    p_analyze.add_argument(
        "--engine",
        default=None,
        help="execution engine: interp | vectorized (default: vectorized)",
    )

    p_prove = sub.add_parser(
        "prove", help="symbolic equivalence verdicts for analyses"
    )
    p_prove.add_argument("names", nargs="*", help="analysis names")
    p_prove.add_argument(
        "--all", action="store_true", help="prove the whole catalog"
    )
    p_prove.add_argument("--seed", type=int, default=1982)
    p_prove.add_argument(
        "--json", action="store_true", help="deterministic JSON report"
    )

    sub.add_parser("figures", help="regenerate figures 2-5")
    sub.add_parser("failures", help="run the documented failure attempts")

    p_compile = sub.add_parser("compile", help="demo code generation")
    p_compile.add_argument(
        "machine", choices=["i8086", "vax11", "ibm370", "b4800"]
    )
    p_compile.add_argument("--length", type=int, default=16)
    p_compile.add_argument("--decomposed", action="store_true")
    p_compile.add_argument("--extensions", action="store_true")

    args = parser.parse_args(argv)
    handlers = {
        "table1": cmd_table1,
        "table2": cmd_table2,
        "batch": cmd_batch,
        "trace": cmd_trace,
        "replay": cmd_replay,
        "verify": cmd_verify,
        "bench": cmd_bench,
        "stats": cmd_stats,
        "serve": cmd_serve,
        "loadtest": cmd_loadtest,
        "list": cmd_list,
        "machines": cmd_machines,
        "lint": cmd_lint,
        "prove": cmd_prove,
        "analyze": cmd_analyze,
        "figures": cmd_figures,
        "failures": cmd_failures,
        "compile": cmd_compile,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
