"""Layer tracing from outside the program.

The benchmark times calls into each layer's public functions without
touching the program: :func:`install` replaces every callable in
:data:`LAYERS` at the attribute its caller looks up at call time (the
defining module or class, plus every module that imported the same
function object by name) with a wrapper that opens a span, calls the
original, and returns its result or re-raises its exception unchanged.

A span is ``{id, parent, layer, start, dur}``.  Open spans live on a
thread-local stack; when one closes, its *self time* is its duration
minus the durations of the spans it directly caused, and that self time
is added to the outermost open span of the thread (the *root*).  Only
roots are kept, each with per-layer self time, inclusive time, call
counts and unit counts, so memory stays flat however many spans a run
opens.  A root opened by the benchmark around one workload operation
keeps its own self time as ``unattributed``: time inside the operation
that no layer span covers.

Targets are resolved by name with ``getattr``; a target that no longer
exists is reported as an absent layer, never a crash.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: the clock every span reads.  CLOCK_MONOTONIC is shared by all
#: processes on a host, so server spans and client requests line up.
clock = time.monotonic

#: layer name of a root the benchmark opens around one operation.
OP = "op"


@dataclass(frozen=True)
class Layer:
    """One traced layer and what is wrapped for it.

    ``targets`` are ``"module:Class.attr"`` or ``"module:function"``
    paths.  ``units`` turns ``(args, kwargs, result)`` into a work
    count; ``home`` is the workload where the layer does most of its
    work (a present layer with no calls there fails the traced run).
    bench/README.md lists the metrics each layer should move.
    """

    name: str
    targets: Tuple[str, ...]
    home: str
    units: Optional[Callable] = None


def _arg(position: int, keyword: str) -> Callable:
    def units(args, kwargs, result) -> int:
        value = kwargs.get(keyword, args[position] if len(args) > position else 0)
        return int(value)

    return units


def _lanes(args, kwargs, result) -> int:
    return int(getattr(result, "n", 1))


def _hit(args, kwargs, result) -> int:
    return 0 if result is None else 1


#: every layer the traced run measures, in pipeline order.  The
#: executor-run layer (``engine.exec``) has no static target: it is
#: wrapped on each executor ``engine.lower`` returns.
LAYERS: Tuple[Layer, ...] = (
    Layer(
        "isdl.parse", ("repro.isdl.cache:TextMemo.__call__",),
        "catalog-batch",
    ),
    Layer(
        "transform.apply", ("repro.transform.engine:Session.apply",),
        "catalog-batch",
    ),
    Layer(
        "transform.locate",
        (
            "repro.transform.engine:Session.expr",
            "repro.transform.engine:Session.stmt",
            "repro.transform.engine:Session.decl",
        ),
        "catalog-batch",
    ),
    Layer(
        "analysis.match", ("repro.analysis.matcher:Matcher.match",),
        "catalog-batch",
    ),
    Layer(
        "analyses.replay", ("repro.analyses:REGISTRY[*].run",),
        "catalog-batch",
    ),
    Layer(
        "lint", ("repro.lint.engine:lint_binding",),
        "catalog-batch",
    ),
    Layer(
        "symbolic.prove", ("repro.symbolic.prover:prove_binding",),
        "verify-deep",
    ),
    Layer(
        "randomgen.draw",
        (
            "repro.semantics.randomgen:ScenarioStream.window",
            "repro.semantics.randomgen:ScenarioStream.draw_batch",
        ),
        "verify-deep",
        units=_arg(2, "count"),
    ),
    Layer(
        "engine.lower", ("repro.semantics.engine:ExecutionEngine.executor",),
        "verify-deep",
    ),
    Layer(
        "engine.exec", (),
        "verify-deep",
        units=_lanes,
    ),
    Layer(
        "verify.self", ("repro.analysis.verify:verify_binding",),
        "verify-deep",
    ),
    Layer(
        "runner.self", ("repro.analysis.runner:run_batch",),
        "catalog-batch",
    ),
    Layer(
        "provenance.key",
        (
            "repro.analysis.runner:entry_verdict_key",
            "repro.provenance.store:code_epoch",
        ),
        "catalog-batch",
    ),
    Layer(
        "provenance.lookup",
        ("repro.provenance.store:TraceStore.lookup_verdict",),
        "catalog-batch",
        units=_hit,
    ),
    Layer(
        "provenance.write",
        ("repro.provenance.store:TraceStore.record_verdict",),
        "catalog-batch",
    ),
    Layer(
        "report.json", ("repro.analysis.runner:BatchReport.to_json",),
        "serve-warm",
    ),
    Layer(
        "codegen.compile", ("repro.codegen.emitter:Target.compile",),
        "codegen-corpus",
    ),
    Layer(
        "codegen.simulate", ("repro.codegen.emitter:Target.simulate",),
        "codegen-corpus",
    ),
    Layer(
        "codegen.library", ("repro.codegen.bindings_db:library_for",),
        "codegen-corpus",
    ),
)

#: wrapped only inside the served process: the server-side facade call.
SERVICE_LAYERS: Tuple[Layer, ...] = (
    Layer(
        "service.exec", ("repro.api:batch",),
        "serve-warm",
    ),
)

_BY_NAME = {layer.name: layer for layer in LAYERS + SERVICE_LAYERS}


class _Frame:
    __slots__ = ("id", "parent", "layer", "start", "child", "root", "kind")

    def __init__(self, span_id, parent, layer, start, root, kind=None):
        self.id = span_id
        self.parent = parent
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.root = root
        self.kind = kind


@dataclass
class Root:
    """A finished outermost span and everything nested under it."""

    layer: str
    kind: Optional[str]
    start: float
    dur: float
    self_s: Dict[str, float] = field(default_factory=dict)
    incl_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    units: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "layer": self.layer, "kind": self.kind, "start": self.start,
            "dur": self.dur, "self_s": self.self_s, "incl_s": self.incl_s,
            "calls": self.calls, "units": self.units,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Root":
        return cls(**payload)


class Tracer:
    """Span stacks per thread, finished roots in one list."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.roots: List[Root] = []

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, kind: Optional[str] = None) -> _Frame:
        stack = self._stack()
        if stack:
            top = stack[-1]
            frame = _Frame(next(self._ids), top.id, layer, 0.0, top.root)
        else:
            frame = _Frame(next(self._ids), None, layer, 0.0, None, kind)
            frame.root = Root(layer, kind, 0.0, 0.0)
        stack.append(frame)
        frame.start = clock()
        return frame

    def _close(self, frame: _Frame, units: int) -> None:
        dur = clock() - frame.start
        stack = self._stack()
        stack.pop()
        root = frame.root
        layer = frame.layer
        root.self_s[layer] = root.self_s.get(layer, 0.0) + dur - frame.child
        root.incl_s[layer] = root.incl_s.get(layer, 0.0) + dur
        root.calls[layer] = root.calls.get(layer, 0) + 1
        if units:
            root.units[layer] = root.units.get(layer, 0) + units
        if stack:
            stack[-1].child += dur
        else:
            root.start = frame.start
            root.dur = dur
            with self._lock:
                self.roots.append(root)

    def wrap(
        self,
        layer: str,
        fn: Callable,
        units: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` inside a ``layer`` span; results and errors pass through."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, 0)
                raise
            tracer._close(frame, units(args, kwargs, result) if units else 0)
            if on_result is not None:
                on_result(result)
            return result

        traced.__bench_traced__ = fn
        return traced

    @contextlib.contextmanager
    def operation(self, kind: str):
        """A root span around one workload operation; yields its record."""
        frame = self._open(OP, kind)
        before = parse_misses()
        try:
            yield frame.root
        finally:
            frame.root.units["isdl.parse.miss"] = parse_misses() - before
            self._close(frame, 0)

    def take(self) -> List[Root]:
        with self._lock:
            roots, self.roots = self.roots, []
        return roots


def parse_misses() -> int:
    """Parse-cache misses so far, from the ISDL memo counters."""
    stats = getattr(sys.modules.get("repro.isdl.cache"), "cache_stats", None)
    if stats is None:
        return 0
    return sum(entry.get("misses", 0) for entry in stats().values())


# ---------------------------------------------------------------------------
# installing wrappers


@dataclass
class Installation:
    """Undo log of one :func:`install` call."""

    patches: List[Tuple[object, str, object]] = field(default_factory=list)
    present: List[str] = field(default_factory=list)
    absent: Dict[str, str] = field(default_factory=dict)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()
        # A module imported while wrappers were in place bound them by name.
        for module in _program_modules():
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and "__bench_traced__" in vars(value):
                    setattr(module, name, value.__bench_traced__)


def _program_modules() -> List[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _resolve(target: str) -> List[Tuple[object, str]]:
    """``(owner, attr)`` pairs for one target path; raises LookupError."""
    module_name, _, path = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise LookupError(f"{module_name}: {error}") from None
    if path.endswith("[*].run"):
        registry = getattr(module, path[: -len("[*].run")], None)
        if registry is None:
            raise LookupError(f"{target}: no such registry")
        owners = [getattr(spec, "module", None) for spec in registry]
        pairs = [(owner, "run") for owner in owners if callable(getattr(owner, "run", None))]
        if not pairs:
            raise LookupError(f"{target}: registry has no run functions")
        return pairs
    owner: object = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{target}: no attribute {part!r}")
    attr = parts[-1]
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise LookupError(f"{target}: not defined on {owner.__name__}")
        return [(owner, attr)]
    if not callable(getattr(owner, attr, None)):
        raise LookupError(f"{target}: no callable {attr!r}")
    # A module-level function is also looked up under every name that
    # imported the same object (``from ..lint import lint_binding``).
    original = getattr(owner, attr)
    pairs = []
    for module_obj in _program_modules():
        for name, value in list(vars(module_obj).items()):
            if value is original:
                pairs.append((module_obj, name))
    return pairs


def install(tracer: Tracer, layers: Sequence[Layer] = LAYERS) -> Installation:
    """Wrap every target of ``layers``; absent targets are recorded."""
    installation = Installation()
    exec_units = _BY_NAME["engine.exec"].units
    # Load the facade first, so names it imports are found and wrapped.
    with contextlib.suppress(ImportError):
        importlib.import_module("repro.api")

    def wrap_executor(executor) -> None:
        for method in ("run", "run_batch"):
            bound = getattr(executor, method, None)
            if bound is None or hasattr(bound, "__bench_traced__"):
                continue
            try:
                setattr(executor, method, tracer.wrap("engine.exec", bound, exec_units))
            except AttributeError:
                return

    for layer in layers:
        if not layer.targets:
            continue
        wrapped = 0
        for target in layer.targets:
            try:
                pairs = _resolve(target)
            except LookupError as error:
                installation.absent[layer.name] = str(error)
                continue
            on_result = wrap_executor if layer.name == "engine.lower" else None
            wrappers: Dict[int, Callable] = {}
            for owner, attr in pairs:
                original = vars(owner)[attr]
                if hasattr(original, "__bench_traced__"):
                    continue
                # One wrapper per function, however many names it has.
                traced = wrappers.get(id(original))
                if traced is None:
                    traced = tracer.wrap(layer.name, original, layer.units, on_result)
                    wrappers[id(original)] = traced
                setattr(owner, attr, traced)
                installation.patches.append((owner, attr, original))
                wrapped += 1
        if wrapped:
            installation.present.append(layer.name)
            installation.absent.pop(layer.name, None)
    if "engine.lower" in installation.present:
        installation.present.append("engine.exec")
    return installation


# ---------------------------------------------------------------------------
# per-layer metrics


#: per-layer metric -> the traced layer whose share of self time it is.
SHARE_METRICS: Dict[str, str] = {
    "isdl.parse.pct": "isdl.parse",
    "transform.apply.pct": "transform.apply",
    "transform.locate.pct": "transform.locate",
    "analysis.match.pct": "analysis.match",
    "analyses.replay.pct": "analyses.replay",
    "lint.pct": "lint",
    "symbolic.prove.pct": "symbolic.prove",
    "randomgen.draw.pct": "randomgen.draw",
    "engine.lower.pct": "engine.lower",
    "engine.exec.pct": "engine.exec",
    "verify.self.pct": "verify.self",
    "runner.self.pct": "runner.self",
    "provenance.key.pct": "provenance.key",
    "provenance.lookup.pct": "provenance.lookup",
    "provenance.write.pct": "provenance.write",
    "report.json.pct": "report.json",
    "service.exec.pct": "service.exec",
    "service.outside.pct": "service.outside",
    "codegen.compile.pct": "codegen.compile",
    "codegen.simulate.pct": "codegen.simulate",
    "unattributed.pct": OP,
}

#: per-layer metric -> (layer, "calls" | "units"), averaged per operation.
COUNT_METRICS: Dict[str, Tuple[str, str]] = {
    "isdl.parse.misses": ("isdl.parse.miss", "units"),
    "transform.apply.calls": ("transform.apply", "calls"),
    "lint.calls": ("lint", "calls"),
    "symbolic.prove.calls": ("symbolic.prove", "calls"),
    "randomgen.draw.trials": ("randomgen.draw", "units"),
    "engine.exec.trials": ("engine.exec", "units"),
    "provenance.writes": ("provenance.write", "calls"),
}


def _sum(roots: Sequence[Root], attr: str) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for root in roots:
        for layer, value in getattr(root, attr).items():
            total[layer] = total.get(layer, 0.0) + value
    return total


def summarize(
    ops: Sequence[Root],
    remote: Optional[Sequence[Root]] = None,
) -> Dict[str, object]:
    """Self time per layer over ``ops``, in ms per operation and shares.

    ``remote`` are roots recorded by another process while ``ops`` ran
    (the server of ``serve-warm``); their layers count toward the
    operations' time, and whatever the client waited on beyond them is
    ``service.outside``.
    """
    total = sum(op.dur for op in ops)
    self_s = _sum(ops, "self_s")
    calls = _sum(ops, "calls")
    units = _sum(ops, "units")
    if remote is not None:
        self_s.pop(OP, None)
        for attr, into in (("self_s", self_s), ("calls", calls), ("units", units)):
            for layer, value in _sum(remote, attr).items():
                into[layer] = into.get(layer, 0.0) + value
        self_s["service.outside"] = total - sum(root.dur for root in remote)
    n = max(1, len(ops))
    ms = {layer: 1000.0 * value / n for layer, value in sorted(self_s.items())}
    share = {
        layer: (100.0 * value / total if total else 0.0)
        for layer, value in sorted(self_s.items())
    }
    groups: Dict[str, float] = {}
    for layer, value in share.items():
        group = "unattributed" if layer == OP else layer.split(".")[0]
        groups[group] = groups.get(group, 0.0) + value
    return {
        "ops": len(ops),
        "op_ms": 1000.0 * total / n,
        "self_ms": ms,
        "self_pct": share,
        "group_pct": dict(sorted(groups.items(), key=lambda kv: -kv[1])),
        "calls": {layer: value / n for layer, value in sorted(calls.items())},
        "units": {layer: value / n for layer, value in sorted(units.items())},
        "covered_pct": sum(share.values()),
    }


def layer_metrics(
    ops: Sequence[Root],
    remote: Optional[Sequence[Root]],
    setup: Optional[Root],
    untraced_ms: Sequence[float],
    traced_ms: Sequence[float],
) -> Dict[str, float]:
    """The per-layer metrics a traced run prints."""
    summary = summarize(ops, remote)
    share = summary["self_pct"]
    per_op_calls = summary["calls"]
    per_op_units = summary["units"]
    metrics: Dict[str, float] = {}
    for name, layer in SHARE_METRICS.items():
        metrics[name] = share.get(layer, 0.0)
    for name, (layer, kind) in COUNT_METRICS.items():
        source = per_op_calls if kind == "calls" else per_op_units
        metrics[name] = source.get(layer, 0.0)
    roots = list(ops) + list(remote or ())
    lookups = sum(root.calls.get("provenance.lookup", 0) for root in roots)
    hits = sum(root.units.get("provenance.lookup", 0) for root in roots)
    metrics["provenance.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["codegen.library.setup_pct"] = (
        100.0 * setup.incl_s.get("codegen.library", 0.0) / setup.dur
        if setup is not None and setup.dur
        else 0.0
    )
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_ms) / statistics.median(untraced_ms)
        if traced_ms and untraced_ms
        else 0.0
    )
    return metrics


def coverage_failures(
    workload: str,
    installation: Installation,
    ops: Sequence[Root],
    remote: Optional[Sequence[Root]],
    setup: Optional[Root],
) -> List[str]:
    """Present layers with no calls on the workload they call home."""
    roots = list(ops) + list(remote or ()) + ([setup] if setup else [])
    called = _sum(roots, "calls")
    failures = []
    for name in installation.present:
        layer = _BY_NAME[name]
        if layer.home == workload and not called.get(name):
            failures.append(f"layer {name} made no calls on {workload}")
    return failures
