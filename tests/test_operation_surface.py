"""The user-facing option surface, pinned literally.

Every subcommand and every served endpoint is built from one operation
table; these literals are the surface that table must reproduce, so an
option or a request field cannot be added, dropped or re-defaulted
unnoticed.  A CLI row is ``(flag, dest, default, type, choices,
nargs, metavar)``; ``flag`` is None for a positional.  The metavars keep
each subcommand's usage line, which argparse prints on a usage error.
"""

import argparse

import pytest

from repro.__main__ import main

CLI_SURFACE = {
    "table1": [],
    "table2": [
        ("--no-verify", "no_verify", False, None, None, 0, None),
        ("--trials", "trials", 60, "int", None, None, None),
    ],
    "batch": [
        (None, "names", None, None, None, "*", None),
        ("--jobs", "jobs", 1, "int", None, None, None),
        ("--trials", "trials", 120, "int", None, None, None),
        ("--seed", "seed", 1982, "int", None, None, None),
        ("--timeout", "timeout", None, "float", None, None, None),
        ("--no-verify", "no_verify", False, None, None, 0, None),
        ("--json", "json", False, None, None, 0, None),
        ("--engine", "engine", None, None, None, None, None),
        ("--cache-dir", "cache_dir", None, None, None, None, None),
        ("--no-cache", "no_cache", False, None, None, 0, None),
        ("--metrics-out", "metrics_out", None, None, None, None, "FILE"),
    ],
    "trace": [
        (None, "name", None, None, None, None, None),
        ("--format", "format", "text", None, ("text", "json"), None, None),
        ("--cache-dir", "cache_dir", None, None, None, None, None),
        ("--no-cache", "no_cache", False, None, None, 0, None),
    ],
    "replay": [
        (None, "names", None, None, None, "*", None),
        ("--all", "all", False, None, None, 0, None),
        ("--cache-dir", "cache_dir", None, None, None, None, None),
        ("--no-cache", "no_cache", False, None, None, 0, None),
    ],
    "verify": [
        (None, "names", None, None, None, "+", None),
        ("--trials", "trials", 120, "int", None, None, None),
        ("--seed", "seed", 1982, "int", None, None, None),
        ("--engine", "engine", None, None, None, None, None),
        ("--json", "json", False, None, None, 0, None),
        ("--symbolic", "symbolic", False, None, None, 0, None),
        ("--metrics-out", "metrics_out", None, None, None, None, "FILE"),
    ],
    "bench": [
        (None, "names", None, None, None, "*", None),
        ("--trials", "trials", 240, "int", None, None, None),
        ("--seed", "seed", 1982, "int", None, None, None),
        ("--json", "json", False, None, None, 0, None),
        ("--out", "out", None, None, None, None, None),
        ("--metrics-out", "metrics_out", None, None, None, None, "FILE"),
    ],
    "stats": [
        (None, "names", None, None, None, "*", None),
        ("--format", "format", "json", None, ("json", "prom"), None, None),
        ("--from", "from_file", None, None, None, None, "FILE"),
        ("--trials", "trials", 20, "int", None, None, None),
        ("--seed", "seed", 1982, "int", None, None, None),
        ("--engine", "engine", None, None, None, None, None),
        ("--cache-dir", "cache_dir", None, None, None, None, None),
        ("--no-cache", "no_cache", False, None, None, 0, None),
    ],
    "serve": [
        ("--host", "host", "127.0.0.1", None, None, None, None),
        ("--port", "port", 8137, "int", None, None, None),
        ("--cache-dir", "cache_dir", None, None, None, None, None),
        ("--no-cache", "no_cache", False, None, None, 0, None),
        ("--queue-limit", "queue_limit", 8, "int", None, None, None),
        ("--timeout", "timeout", 60.0, "float", None, None, None),
        ("--jobs", "jobs", 1, "int", None, None, None),
        ("--trials", "trials", 120, "int", None, None, None),
    ],
    "loadtest": [
        ("--url", "url", None, None, None, None, None),
        ("--clients", "clients", 8, "int", None, None, None),
        ("--requests", "requests", 25, "int", None, None, None),
        ("--trials", "trials", 12, "int", None, None, None),
        ("--cache-dir", "cache_dir", None, None, None, None, None),
        ("--out", "out", None, None, None, None, "FILE"),
        ("--json", "json", False, None, None, 0, None),
    ],
    "list": [],
    "machines": [
        ("--format", "format", "text", None, ("text", "json"), None, None),
    ],
    "lint": [
        (None, "names", None, None, None, "*", None),
        ("--all", "all", False, None, None, 0, None),
        ("--format", "format", "text", None, ("text", "json", "sarif"), None, None),
        ("--symbolic", "symbolic", False, None, None, 0, None),
    ],
    "analyze": [
        (None, "name", None, None, None, None, None),
        ("--no-verify", "no_verify", False, None, None, 0, None),
        ("--trials", "trials", 120, "int", None, None, None),
        ("--log", "log", False, None, None, 0, None),
        ("--engine", "engine", None, None, None, None, None),
    ],
    "prove": [
        (None, "names", None, None, None, "*", None),
        ("--all", "all", False, None, None, 0, None),
        ("--seed", "seed", 1982, "int", None, None, None),
        ("--json", "json", False, None, None, 0, None),
    ],
    "figures": [],
    "failures": [],
    "compile": [
        (
            None, "machine",
            None, None, ("i8086", "vax11", "ibm370", "b4800"), None, None,
        ),
        ("--length", "length", 16, "int", None, None, None),
        ("--decomposed", "decomposed", False, None, None, 0, None),
        ("--extensions", "extensions", False, None, None, 0, None),
    ],
}

#: the request fields each analysis endpoint accepts (docs/service.md).
HTTP_SURFACE = {
    "analyze": {"name", "trials", "engine", "verify"},
    "verify": {"name", "trials", "seed", "engine", "symbolic"},
    "batch": {"names", "trials", "seed", "engine", "symbolic", "verify", "jobs"},
    "trace": {"name"},
    "replay": {"names"},
}


class _Parsed(Exception):
    """Raised in place of parsing, carrying the parser main() built."""


def _cli_parser(monkeypatch):
    def capture(self, args=None, namespace=None):
        raise _Parsed(self)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_Parsed) as excinfo:
        main(["list"])
    return excinfo.value.args[0]


def _rows(parser):
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        rows.append(
            (
                action.option_strings[0] if action.option_strings else None,
                action.dest,
                action.default,
                getattr(action.type, "__name__", None),
                tuple(action.choices) if action.choices else None,
                action.nargs,
                action.metavar,
            )
        )
    return rows


def test_cli_surface_is_pinned(monkeypatch):
    parser = _cli_parser(monkeypatch)
    (commands,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    got = {name: _rows(sub) for name, sub in commands.choices.items()}
    assert list(got) == list(CLI_SURFACE)
    for name, rows in CLI_SURFACE.items():
        assert got[name] == rows, name
    assert sum(len(rows) for rows in got.values()) == 75


def test_http_surface_is_pinned():
    from repro.operations import OPERATIONS

    served = {
        op.name: {param.name for param in op.http.fields}
        for op in OPERATIONS.values()
        if op.http
    }
    assert served == HTTP_SURFACE
    assert sum(len(fields) for fields in served.values()) == 18
