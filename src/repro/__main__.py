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

The operation table (:mod:`repro.operations`) builds every subcommand
and calls the typed facade in :mod:`repro.api`; what is left here is one
printer per command, ``cmd_<name>(args, result)``, returning the exit
code: 0 — success; 1 — the command ran but reported findings or
failures (a failed analysis, lint diagnostics, a batch with failed
entries).  :func:`main` maps a usage error (unknown name, bad
arguments) to 2 for every command.
"""

from __future__ import annotations

import contextlib
import signal
import sys


def cmd_table1(_args, _result) -> int:
    from .analysis import format_table
    from .machines import PAPER_TOTAL, table1_rows, total_count

    rows = [(n, str(o), str(p)) for n, o, p in table1_rows()]
    rows.append(("Total", str(total_count()), str(PAPER_TOTAL)))
    print(format_table(rows, ("Machine", "Count", "Paper")))
    return 0


def cmd_table2(args, _result) -> int:
    from .analyses import REGISTRY
    from .analysis import format_table, table2_row

    rows = []
    ok = True
    for spec in (s for s in REGISTRY if s.group == "table2"):
        outcome = spec.module.run(verify=args.verify, trials=args.trials)
        ok = ok and outcome.succeeded
        rows.append(table2_row(outcome) + (str(spec.paper_steps),))
    headers = ("Machine", "Instruction", "Language", "Operation", "Steps", "Paper")
    print(format_table(rows, headers))
    return 0 if ok else 1


def cmd_batch(args, result) -> int:
    if args.json:
        print(result.to_json())
    else:
        print("\n".join(result.summary_lines()))
    return 0 if result.ok else 1


#: several names verify as one batch, printed the same way.
cmd_verify = cmd_batch


def cmd_bench(args, _result) -> int:
    from .analysis.bench import format_bench, run_bench

    text = format_bench(run_bench(args.names, args.config))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    if args.json or not args.out:
        print(text, end="")
    return 0


def cmd_stats(args, _result) -> int:
    import json

    from . import api, obs

    if args.from_file:
        try:
            with open(args.from_file, "r", encoding="utf-8") as handle:
                snapshot = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise ValueError(
                f"stats: cannot read {args.from_file}: {error}"
            ) from None
        if (
            not isinstance(snapshot, dict)
            or snapshot.get("schema") != obs.METRICS_SCHEMA
        ):
            raise ValueError(
                f"stats: {args.from_file} is not a {obs.METRICS_SCHEMA} "
                "snapshot"
            )
        result = api.StatsResult(snapshot=snapshot)
    else:
        result = api.stats(args.names, args.config)
    if args.format == "prom":
        print(result.to_prometheus(), end="")
    else:
        print(result.to_json())
    return 0


#: ``repro machines`` columns: header and ``MachineInfo`` attribute.
_MACHINE_COLUMNS = (
    ("Key", "key"), ("Machine", "name"), ("Bits", "word_bits"),
    ("Instr", "instructions"), ("Modeled", "modeled"), ("Sim", "simulated"),
    ("Fuzz", "fuzz_cases"),
)


def cmd_machines(args, result) -> int:
    from .analysis import format_table

    if args.format == "json":
        print(result.to_json())
        return 0
    rows = [
        tuple(str(getattr(info, attr)) for _, attr in _MACHINE_COLUMNS)
        + (str(len(info.cost["iterated"])), "paper" if info.paper else "extension")
        for info in result.machines
    ]
    headers = tuple(header for header, _ in _MACHINE_COLUMNS)
    print(format_table(rows, headers + ("Iterated", "Source")))
    return 0


def cmd_list(_args, _result) -> int:
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


def cmd_analyze(args, result) -> int:
    print(result.report)
    if args.log and result.outcome.log:
        print("transformation log:")
        print(result.outcome.log)
    return 0 if result.succeeded else 1


def cmd_trace(args, result) -> int:
    import json

    if result is None:
        print(f"{args.name}: no trace recorded", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"# {args.name} ({result.origin}) digest={result.digest}")
        print(result.log())
    return 0


def cmd_replay(_args, result) -> int:
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


def cmd_lint(args, _result) -> int:
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
        raise ValueError("lint: give target names or --all")
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
            raise ValueError(
                f"lint: unknown target {name!r}; known targets: "
                + ", ".join(sorted(targets))
            )

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


def cmd_prove(args, _result) -> int:
    import json

    from . import api
    from .analysis.runner import resolve_names

    entries = resolve_names(args.names)
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


def cmd_serve(args, _result) -> int:
    import asyncio

    from .service import AnalysisService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        request_timeout=args.timeout or None,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        trials=args.trials,
    )
    service = AnalysisService(config)
    # Both signals raise KeyboardInterrupt, so either one ends in
    # service.stop() and the atexit pool shutdown: a shell's background
    # job starts with SIGINT ignored, and SIGTERM would otherwise kill
    # the process outright.
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.default_int_handler)

    async def _serve() -> None:
        await service.start()
        print(
            "repro service on http://%s:%d (store: %s)"
            % (config.host, service.port, config.cache_dir or "<disabled>"),
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


def cmd_loadtest(args, _result) -> int:
    from .service import run_loadtest

    report = run_loadtest(
        args.url,
        clients=args.clients,
        requests_per_client=args.requests,
        trials=args.trials,
        cache_dir=args.cache_dir,
        out=args.out,
    )
    if args.json:
        print(report.to_json())
    else:
        print("\n".join(report.summary_lines()))
    return 0 if not report.errors else 1


def cmd_figures(_args, _result) -> int:
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


def cmd_failures(_args, _result) -> int:
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


def cmd_compile(args, _result) -> int:
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


def _exit_on_signal(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    from . import obs
    from .operations import OPERATIONS, cli_inputs, cli_parser, invoke

    # SIGTERM unwinds like sys.exit, so atexit handlers still run: the
    # worker pool's shutdown among them, which would otherwise leave a
    # pooled run's workers behind.
    signal.signal(signal.SIGTERM, _exit_on_signal)
    parsed = cli_parser().parse_args(argv)
    op = OPERATIONS[parsed.command]
    printer = globals()["cmd_" + op.name]
    metrics_out = getattr(parsed, "metrics_out", None)
    collect = obs.collecting() if metrics_out else contextlib.nullcontext()
    try:
        with collect as registry:
            args = cli_inputs(op, parsed)
            result = invoke(op.call, vars(args)) if op.call else None
            code = printer(args, result)
            snapshot = None if registry is None else registry.snapshot()
    except ValueError as error:  # unknown names and bad inputs included
        print(str(error), file=sys.stderr)
        return 2
    if snapshot is not None:
        with open(metrics_out, "w", encoding="utf-8") as handle:
            handle.write(obs.export_json(snapshot) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
