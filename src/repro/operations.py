"""The operation table: every user-facing operation, declared once.

The paper's code generator is driven by a table of bindings rather than
by per-machine code; the front ends follow the same idea.  Each
parameter is declared once in :data:`PARAMS` (name, type, default,
allowed values, help), and each operation is one :class:`Operation`
record listing the parameters it takes (overriding at most their
defaults), its HTTP route, and the :mod:`repro.api` function it calls.
From these records ``python -m repro`` builds every subcommand
(:func:`cli_parser`, :func:`cli_inputs`) and ``repro serve`` routes
every analysis endpoint and checks its requests (:data:`ROUTES`,
:func:`http_inputs`); both call the facade through :func:`invoke`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import urllib.parse
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

#: JSON types a request field may declare: what it reads as, and a test.
_KINDS = {
    str: ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    list: (
        "a list of names",
        lambda v: isinstance(v, list) and all(_KINDS[str][1](i) for i in v),
    ),
}


@dataclass(frozen=True)
class Param:
    """One input, shared by every operation that takes it.

    On the command line a ``bool`` is a switch that flips its default
    (``--name``, or ``--no-name`` when it defaults to True); any other
    parameter is ``--name VALUE`` unless it is ``positional``.  Over
    HTTP, ``name`` is the request field and ``type`` its JSON type; a
    positional without ``nargs`` is a required field.
    """

    name: str
    type: type = str
    default: object = None
    help: Optional[str] = None
    choices: Optional[Tuple[str, ...]] = None
    positional: bool = False
    nargs: Optional[str] = None
    flag: Optional[str] = None  # when not derived from ``name``
    metavar: Optional[str] = None

    @property
    def required(self) -> bool:
        return self.positional and self.nargs is None

    @property
    def dest(self) -> str:
        """Where argparse stores the parsed value."""
        return "no_" + self.name if self.default is True else self.name

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        if self.positional:
            parser.add_argument(
                self.name, nargs=self.nargs, choices=self.choices, help=self.help
            )
        elif self.type is bool:
            flag = "--" + self.dest.replace("_", "-")
            parser.add_argument(flag, action="store_true", help=self.help)
        else:
            parser.add_argument(
                self.flag or "--" + self.name.replace("_", "-"),
                dest=self.name,
                type=self.type if self.type in (int, float) else None,
                default=self.default,
                choices=self.choices,
                metavar=self.metavar,
                help=self.help,
            )

    def read(self, parsed: argparse.Namespace) -> object:
        """This parameter's value in ``parsed`` (a ``--no-`` switch flipped)."""
        value = getattr(parsed, self.dest)
        return not value if self.default is True else value

    def check(self, value: object) -> None:
        """Raise ValueError naming this field unless ``value`` fits it."""
        expected, fits = _KINDS[self.type]
        if not fits(value):
            raise ValueError(f"field {self.name!r} must be {expected}, got {value!r}")


_LAYOUT = "provenance store layout (default: %(default)s; None: the one there)"

#: every parameter, declared once.  Keys are unique; a parameter whose
#: meaning differs between operations (the output formats, the two
#: timeouts, the names positionals) has one entry per meaning.
PARAMS: Dict[str, Param] = {
    "name": Param("name", positional=True, help="analysis name"),
    "names": Param(
        "names", list, positional=True, nargs="*",
        help="analysis names (default: the whole catalog)",
    ),
    "names+": Param(
        "names", list, positional=True, nargs="+", help="analysis names"
    ),
    "targets": Param(
        "names", list, positional=True, nargs="*",
        help="i8086:scasb, rigel:index, a machine or language, or a file",
    ),
    "machine": Param(
        "machine", positional=True, choices=("i8086", "vax11", "ibm370", "b4800")
    ),
    "all": Param("all", bool, False, "the whole catalog"),
    "jobs": Param("jobs", int, 1, "worker processes (1 = serial)"),
    "trials": Param("trials", int, 120, "verification trials per analysis"),
    "seed": Param("seed", int, 1982, "root seed for all verification"),
    "timeout": Param("timeout", float, None, "per-job timeout (pooled runs)"),
    "request_timeout": Param(
        "timeout", float, 60.0, "per-request timeout (504 past it); 0 disables"
    ),
    "verify": Param("verify", bool, True, "replay without verifying"),
    "symbolic": Param("symbolic", bool, False, "use the symbolic prover"),
    "engine": Param("engine", help="interp | vectorized (default: vectorized)"),
    "json": Param("json", bool, False, "print JSON"),
    "log": Param("log", bool, False, "print the transformation log"),
    "cache_dir": Param(
        "cache_dir", help="provenance store root (default: $REPRO_CACHE_DIR "
        "or .repro-cache; loadtest: a temporary directory)",
    ),
    "no_cache": Param("no_cache", bool, False, "use no provenance store"),
    "store_backend": Param("store_backend", choices=("dir", "sqlite"), help=_LAYOUT),
    "metrics_out": Param(
        "metrics_out", metavar="FILE", help="write the run's metrics snapshot here"
    ),
    "out": Param("out", help="write the JSON payload here"),
    "service_out": Param(
        "out", metavar="FILE", help="write the BENCH_service.json payload here"
    ),
    "cache": Param("cache", bool, False, "benchmark cold vs warm batches"),
    "format": Param("format", default="text", choices=("text", "json")),
    "lint_format": Param("format", default="text", choices=("text", "json", "sarif")),
    "stats_format": Param("format", default="json", choices=("json", "prom")),
    "from_file": Param(
        "from_file", flag="--from", metavar="FILE",
        help="print a saved --metrics-out snapshot instead of running",
    ),
    "host": Param("host", default="127.0.0.1"),
    "port": Param("port", int, 8137, "0 binds an ephemeral port"),
    "queue_limit": Param("queue_limit", int, 8, "requests in flight before 429"),
    "url": Param("url", help="service URL (default: an in-process server)"),
    "clients": Param("clients", int, 8),
    "requests": Param("requests", int, 25, "requests per client"),
    "length": Param("length", int, 16),
    "decomposed": Param("decomposed", bool, False),
    "extensions": Param("extensions", bool, False),
}


@dataclass(frozen=True)
class Route:
    """How an operation is served.

    ``methods`` are the accepted HTTP methods (GET reads the fields from
    the query string); ``wire`` lists the result attributes the answer
    carries, None meaning the result's own ``to_json()``; ``call`` names
    the facade function when it is not the operation's own.
    """

    methods: Tuple[str, ...]
    fields: Tuple[Param, ...]
    wire: Optional[Tuple[str, ...]] = None
    call: Optional[str] = None


@dataclass(frozen=True)
class Operation:
    """One user-facing operation.

    ``call`` names the :mod:`repro.api` function that runs it; with
    None, its printer (``cmd_<name>`` in :mod:`repro.__main__`) does the
    work.  The printer returns the exit code: 0 success, 1 findings or
    failures.  A usage error (a ``ValueError``) is 2 for every command.
    """

    name: str
    help: str
    params: Tuple[Param, ...] = ()
    call: Optional[str] = None
    http: Optional[Route] = None


def _params(spec: str) -> Tuple[Param, ...]:
    """Parameters by key, space separated; ``key=value`` overrides the
    parameter's default (``trials=60``)."""
    params = []
    for item in spec.split():
        key, _, default = item.partition("=")
        param = PARAMS[key]
        if default:
            param = dataclasses.replace(param, default=param.type(default))
        params.append(param)
    return tuple(params)


def _op(name, help, params="", call=None, http=None) -> Operation:
    return Operation(name, help, _params(params), call, http)


def _route(methods, fields, wire="", call=None) -> Route:
    return Route(
        tuple(methods.split("/")), _params(fields), tuple(wire.split()) or None, call
    )


#: every operation, in ``--help`` order.
OPERATIONS: Dict[str, Operation] = {op.name: op for op in (
    _op("table1", "Table 1 catalog counts"),
    _op("table2", "replay all Table 2 analyses", "verify trials=60"),
    _op(
        "batch", "run the full analysis catalog in parallel",
        "names jobs trials seed timeout verify json engine cache_dir no_cache "
        "store_backend=dir metrics_out",
        call="batch",
        http=_route("POST", "names trials seed engine symbolic verify jobs"),
    ),
    _op(
        "trace", "print one analysis's recorded derivation",
        "name format cache_dir no_cache store_backend",
        call="trace",
        http=_route("GET/POST", "name", wire="name origin digest steps"),
    ),
    _op(
        "replay", "re-apply recorded derivations with digest checks",
        "names all cache_dir no_cache store_backend",
        call="replay",
        http=_route("GET/POST", "names", wire="ok failed entries"),
    ),
    # Several names verify as one batch; the service verifies one name.
    _op(
        "verify", "differentially verify named analyses",
        "names+ trials seed engine json symbolic metrics_out",
        call="batch",
        http=_route(
            "POST", "name trials seed engine symbolic", call="verify",
            wire="name ok verified_trials engine trials seed failure error",
        ),
    ),
    _op(
        "bench", "time verification per execution engine",
        "names trials=240 seed json out cache metrics_out",
    ),
    _op(
        "stats", "run an instrumented batch and print its metrics",
        "names stats_format from_file trials=20 seed engine cache_dir no_cache "
        "store_backend",
    ),
    _op(
        "serve", "run the analysis service (asyncio HTTP/JSON)",
        "host port cache_dir no_cache store_backend=sqlite queue_limit "
        "request_timeout jobs trials",
    ),
    _op(
        "loadtest", "load-test the analysis service",
        "url clients requests trials=12 store_backend=sqlite cache_dir service_out "
        "json",
    ),
    _op("list", "list available analyses"),
    _op(
        "machines", "spec-derived machine registry with coverage", "format",
        call="machines",
    ),
    _op("lint", "static-check ISDL descriptions", "targets all lint_format symbolic"),
    _op(
        "analyze", "run one analysis", "name verify trials log engine",
        call="analyze",
        http=_route(
            "POST", "name trials engine verify", wire="name succeeded steps failure"
        ),
    ),
    _op("prove", "symbolic equivalence verdicts for analyses", "names all seed json"),
    _op("figures", "regenerate figures 2-5"),
    _op("failures", "run the documented failure attempts"),
    _op("compile", "demo code generation", "machine length decomposed extensions"),
)}

#: served operations by request path.
ROUTES: Dict[str, Operation] = {
    "/" + op.name: op for op in OPERATIONS.values() if op.http is not None
}

#: facade functions taking their run plan as one ``config``; the others
#: take the plan's fields as keywords.
_PLAN_CALLS = ("analyze", "batch", "stats")


def _plan(values: Mapping[str, object]) -> Dict[str, object]:
    """The inputs among ``values`` that are fields of a run plan."""
    from .analysis.config import RunConfig

    fields = {field.name for field in dataclasses.fields(RunConfig)}
    return {key: value for key, value in values.items() if key in fields}


def invoke(call: str, values: Mapping[str, object]):
    """Call :mod:`repro.api` function ``call`` on ``values``.

    The function is looked up by name now, not when the table was built,
    so a wrapper installed on that name sees the call.  Bad inputs raise
    ``ValueError`` (an unknown analysis name included).
    """
    from . import api

    kwargs = {key: values[key] for key in ("name", "names", "metrics") if key in values}
    if call in _PLAN_CALLS:
        kwargs["config"] = api.RunConfig(**_plan(values))
    else:
        kwargs.update(_plan(values))
    return getattr(api, call)(**kwargs)


# ---------------------------------------------------------------------------
# the command line


class Inputs(argparse.Namespace):
    """One command's inputs by parameter name; ``config`` is their plan."""

    @property
    def config(self):
        from .analysis.config import RunConfig

        return RunConfig(**_plan(vars(self)))


def cli_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` parser: one subcommand per operation."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="EXTRA: exotic-instruction analysis (Morgan & Rowe 1982)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for op in OPERATIONS.values():
        sub = commands.add_parser(op.name, help=op.help)
        for param in op.params:
            param.add_to(sub)
    return parser


def cli_inputs(op: Operation, parsed: argparse.Namespace) -> Inputs:
    """``op``'s parsed options as inputs.

    ``--no-cache`` and ``--cache-dir`` resolve to one ``cache_dir``
    (None: no store).  ``--all`` means every catalog entry
    (``names=None``), and an operation taking both needs names or
    ``--all``.  ``--metrics-out`` asks the facade for its metrics block.
    """
    values = {param.name: param.read(parsed) for param in op.params}
    if PARAMS["no_cache"] in op.params:
        from .provenance import DEFAULT_STORE_DIR, STORE_ENV_VAR

        store = values["cache_dir"] or os.environ.get(STORE_ENV_VAR)
        values["cache_dir"] = None if values.pop("no_cache") else (
            store or DEFAULT_STORE_DIR
        )
    if PARAMS["names"] in op.params and PARAMS["all"] in op.params:
        if values["all"]:
            values["names"] = None
        elif not values["names"]:
            raise ValueError(f"{op.name}: give analysis names or --all")
    if "metrics_out" in values:
        values["metrics"] = values["metrics_out"] is not None
    return Inputs(**values)


# ---------------------------------------------------------------------------
# HTTP


def http_inputs(op: Operation, method: str, query: str, body: Mapping) -> Dict:
    """A request's fields, checked against the ones ``op``'s route takes.

    A GET reads them from the ``query`` string, anything else from the
    JSON ``body``.  Raises ValueError naming the first unknown, missing
    or wrongly typed field; a null field counts as absent.
    """
    fields = {param.name: param for param in op.http.fields}
    request = body
    if method == "GET":
        request = {
            key: values if key in fields and fields[key].type is list else values[0]
            for key, values in urllib.parse.parse_qs(
                query, keep_blank_values=True
            ).items()
        }
    for key, value in request.items():
        if key not in fields:
            raise ValueError(
                f"/{op.name} takes no field {key!r} (it takes: {', '.join(fields)})"
            )
        if value is not None:
            fields[key].check(value)
    for param in fields.values():
        if param.required and request.get(param.name) is None:
            raise ValueError(f"/{op.name} needs field {param.name!r}")
    return {key: value for key, value in request.items() if value is not None}


def wire(op: Operation, result) -> str:
    """The JSON text ``op``'s route answers ``result`` with."""
    if op.http.wire is None:
        return result.to_json()
    payload = {key: getattr(result, key) for key in op.http.wire}
    return json.dumps(payload, sort_keys=True, default=dataclasses.asdict)
