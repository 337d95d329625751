"""The transformation session: apply, record, export, and replay traces.

A :class:`Session` plays the role of the paper's interactive monitor:
the "user" (here: a recorded analysis script) positions a cursor by
pattern and names a transformation; the session verifies applicability
via the transformation's guards, applies it, and records the step.
Every analysis in :mod:`repro.analyses` is such a script, and the step
count the session accumulates is what Table 2 reports.

Since the provenance refactor each recorded step is a
:class:`TraceEvent` — a versioned, JSON-serializable record carrying
the transformation name, anchor path, parameters, the constraints the
step emitted, and SHA-256 digests of the description before and after
the step.  A session's full history exports as a
:class:`SessionTrace` (:meth:`Session.trace`) and any trace replays
against a fresh description with per-step digest checking
(:meth:`Session.replay`): a replay whose digests drift from the
recorded ones — the script changed, the ISDL description changed, or a
transformation stopped being deterministic — raises
:class:`ReplayDivergenceError` naming the exact step.

Locating nodes by *pattern* rather than by raw path keeps scripts
readable and robust: ``session.expr("(al - fetch()) = 0")`` finds the
unique subtree structurally equal to the parsed pattern (comments
ignored); ``occurrence=`` disambiguates repeated subtrees in walk
(preorder) order.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, get_args

from ..constraints import (
    Constraint,
    LanguageFact,
    constraint_from_dict,
    constraint_to_dict,
)
from ..isdl import (
    ast,
    description_digest,
    format_expr,
    format_stmts,
    parse_expr,
    parse_stmts,
)
from ..isdl.visitor import Path, strip_comments, walk
from .base import Context, TransformError, TransformResult
from .registry import get

# Import all transformation modules so the registry is populated the
# moment anyone builds a session.
from . import (  # noqa: F401  (imported for registration side effects)
    augment,
    constraints_t,
    extra_global,
    extra_local,
    extra_loops,
    globals_,
    local,
    loops,
    motion,
    structuring,
)

#: Version tag carried by every serialized trace.  Bump on any change
#: to the event schema or the digest definition — stored traces from
#: an older schema must never be replayed against a newer engine.
TRACE_SCHEMA = "repro.trace/1"

_STMT_TYPES = get_args(ast.Stmt)
_EXPR_TYPES = get_args(ast.Expr)


class ReplayDivergenceError(Exception):
    """A replayed trace diverged from its recorded digests.

    Deliberately *not* a :class:`TransformError`: the analysis driver
    treats transform errors as documented paper failures, while a
    divergence means the recorded derivation no longer proves what it
    proved — scripts and descriptions have drifted apart.
    """

    def __init__(
        self,
        label: str,
        step: int,
        transform: str,
        phase: str,
        expected: str,
        actual: str,
    ):
        self.label = label
        self.step = step
        self.transform = transform
        self.phase = phase
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"replay of {label} diverged at step {step} ({transform}): "
            f"description digest {phase} the step is {actual[:12]}..., "
            f"trace records {expected[:12]}..."
        )


def _param_to_json(value: object) -> object:
    """One step parameter -> a JSON-representable value."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (tuple, list)):
        items = tuple(value)
        if items and all(isinstance(item, _STMT_TYPES) for item in items):
            return {"__stmts__": format_stmts(items)}
        if items and all(isinstance(item, LanguageFact) for item in items):
            return {
                "__facts__": [
                    {"name": fact.name, "description": fact.description}
                    for fact in items
                ]
            }
        if all(item is None or isinstance(item, (bool, int, str)) for item in items):
            return {"__tuple__": list(items)}
    raise TypeError(f"step parameter is not trace-serializable: {value!r}")


def _param_from_json(value: object) -> object:
    """Inverse of :func:`_param_to_json`."""
    if isinstance(value, dict):
        if "__stmts__" in value:
            return parse_stmts(value["__stmts__"])
        if "__facts__" in value:
            return tuple(
                LanguageFact(name=fact["name"], description=fact["description"])
                for fact in value["__facts__"]
            )
        if "__tuple__" in value:
            return tuple(value["__tuple__"])
        raise ValueError(f"unknown parameter encoding: {value!r}")
    return value


@dataclass(frozen=True)
class TraceEvent:
    """One applied transformation step, serializable and replayable."""

    index: int
    transform: str
    path: Path
    note: str
    is_augment: bool
    constraints: Tuple[Constraint, ...] = ()
    #: keyword parameters the step was applied with (fix_operand's
    #: operand/value, augment statement tuples, fresh names, ...).
    params: Tuple[Tuple[str, object], ...] = ()
    #: SHA-256 of the description's printed form before/after the step.
    digest_before: str = ""
    digest_after: str = ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form; round-trips through :meth:`from_dict`."""
        return {
            "index": self.index,
            "transform": self.transform,
            "path": [[field, index] for field, index in self.path],
            "note": self.note,
            "is_augment": self.is_augment,
            "constraints": [
                constraint_to_dict(constraint) for constraint in self.constraints
            ],
            "params": {name: _param_to_json(value) for name, value in self.params},
            "digest_before": self.digest_before,
            "digest_after": self.digest_after,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TraceEvent":
        return cls(
            index=int(payload["index"]),
            transform=str(payload["transform"]),
            path=tuple(
                (field, None if index is None else int(index))
                for field, index in payload["path"]
            ),
            note=str(payload["note"]),
            is_augment=bool(payload["is_augment"]),
            constraints=tuple(
                constraint_from_dict(entry) for entry in payload["constraints"]
            ),
            params=tuple(
                sorted(
                    (
                        (name, _param_from_json(value))
                        for name, value in payload["params"].items()
                    ),
                    key=lambda kv: kv[0],
                )
            ),
            digest_before=str(payload["digest_before"]),
            digest_after=str(payload["digest_after"]),
        )


def format_trace_log(label: str, events: Sequence[TraceEvent]) -> str:
    """The human-readable step log for a sequence of trace events."""
    lines = [f"session {label}: {len(events)} step(s)"]
    for event in events:
        marker = " [augment]" if event.is_augment else ""
        lines.append(f"  {event.index:3d}. {event.transform}{marker}: {event.note}")
        for constraint in event.constraints:
            lines.append(f"       -> constraint: {constraint.describe()}")
    return "\n".join(lines)


@dataclass(frozen=True)
class SessionTrace:
    """One session's exported derivation: digests plus every event."""

    label: str
    initial_digest: str
    final_digest: str
    events: Tuple[TraceEvent, ...] = ()

    @property
    def steps(self) -> int:
        return len(self.events)

    def log(self) -> str:
        return format_trace_log(self.label, self.events)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": TRACE_SCHEMA,
            "label": self.label,
            "initial_digest": self.initial_digest,
            "final_digest": self.final_digest,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SessionTrace":
        schema = payload.get("schema")
        if schema != TRACE_SCHEMA:
            raise ValueError(
                f"unsupported trace schema {schema!r}; expected {TRACE_SCHEMA!r}"
            )
        return cls(
            label=str(payload["label"]),
            initial_digest=str(payload["initial_digest"]),
            final_digest=str(payload["final_digest"]),
            events=tuple(
                TraceEvent.from_dict(entry) for entry in payload["events"]
            ),
        )


class Session:
    """Transformation session over one description."""

    def __init__(self, description: ast.Description, label: str = ""):
        self.original = description
        self.description = description
        self.label = label or description.name
        self.history: List[TraceEvent] = []
        self.constraints: List[Constraint] = []
        self.augmented = False
        self._digest = description_digest(description)
        self._initial_digest = self._digest

    # ------------------------------------------------------------------
    # locating nodes

    @staticmethod
    def _pattern_text(node: object) -> str:
        """Canonical text of a pattern node, for error messages."""
        if isinstance(node, _STMT_TYPES):
            return format_stmts([node]).strip()
        if isinstance(node, _EXPR_TYPES):
            return format_expr(node)
        return repr(node)

    def _nearest_miss(self, wanted: object) -> Optional[str]:
        """The closest same-family node text to a pattern that matched nothing."""
        if isinstance(wanted, _STMT_TYPES):
            family: tuple = _STMT_TYPES
        elif isinstance(wanted, _EXPR_TYPES):
            family = _EXPR_TYPES
        else:
            family = (type(wanted),)
        wanted_text = self._pattern_text(wanted)
        best: Optional[str] = None
        best_score = -1.0
        for _path, node in walk(self.description):
            if not isinstance(node, family):
                continue
            text = self._pattern_text(strip_comments(node))
            score = difflib.SequenceMatcher(None, wanted_text, text).ratio()
            if score > best_score:
                best, best_score = text, score
        return best

    def _no_match_error(self, wanted: object) -> TransformError:
        message = (
            f"{self.label}: no node matches the pattern "
            f"{self._pattern_text(wanted)!r}"
        )
        nearest = self._nearest_miss(wanted)
        if nearest is not None:
            message += f"; nearest miss: {nearest!r}"
        return TransformError(message)

    def _find(self, pattern, occurrence: int = 0) -> Path:
        wanted = strip_comments(pattern)
        matches = []
        for path, node in walk(self.description):
            # strip_comments keeps a node's class and dataclass equality
            # is False across classes: only same-class nodes can match.
            if type(node) is type(wanted) and strip_comments(node) == wanted:
                matches.append(path)
        if not matches:
            raise self._no_match_error(wanted)
        if occurrence >= len(matches):
            raise TransformError(
                f"{self.label}: pattern {self._pattern_text(wanted)!r} has "
                f"only {len(matches)} match(es), "
                f"occurrence {occurrence} requested"
            )
        return matches[occurrence]

    def expr(self, text: str, occurrence: int = 0) -> Path:
        """Path of the expression structurally equal to ``text``.

        Bare assignment targets are skipped — a pattern like ``"rf"``
        means a *use* of ``rf``, not the left side of ``rf <- 1``.
        """
        wanted = strip_comments(parse_expr(text))
        matches = []
        for path, node in walk(self.description):
            if type(node) is not type(wanted):
                continue
            if path and path[-1] == ("target", None):
                continue
            if strip_comments(node) == wanted:
                matches.append(path)
        if not matches:
            raise self._no_match_error(wanted)
        if occurrence >= len(matches):
            raise TransformError(
                f"{self.label}: expression pattern {text!r} has "
                f"{len(matches)} match(es), occurrence {occurrence} requested"
            )
        return matches[occurrence]

    def stmt(self, text: str, occurrence: int = 0) -> Path:
        """Path of the statement structurally equal to ``text``."""
        stmts = parse_stmts(text)
        if len(stmts) != 1:
            raise TransformError("stmt pattern must be a single statement")
        return self._find(stmts[0], occurrence)

    def decl(self, name: str) -> Path:
        """Path of the register declaration named ``name``."""
        for path, node in walk(self.description):
            if isinstance(node, ast.RegDecl) and node.name == name:
                return path
        raise TransformError(f"{self.label}: no register declaration {name!r}")

    def routine_decl(self, name: str) -> Path:
        """Path of the routine declaration named ``name``."""
        for path, node in walk(self.description):
            if isinstance(node, ast.RoutineDecl) and node.name == name:
                return path
        raise TransformError(f"{self.label}: no routine declaration {name!r}")

    def entry_path(self) -> Path:
        return self.routine_decl(self.description.entry_routine().name)

    # ------------------------------------------------------------------
    # applying steps

    def apply(self, transform_name: str, at: Optional[Path] = None, **params) -> TransformResult:
        """Apply one transformation; raises TransformError when invalid."""
        transformation = get(transform_name)
        ctx = Context(self.description)
        result = transformation.apply(ctx, at or (), **params)
        digest_before = self._digest
        self.description = result.description
        self._digest = description_digest(result.description)
        self.constraints.extend(result.constraints)
        self.augmented = self.augmented or result.is_augment
        self.history.append(
            TraceEvent(
                index=len(self.history) + 1,
                transform=transform_name,
                path=at or (),
                note=result.note,
                is_augment=result.is_augment,
                constraints=result.constraints,
                params=tuple(sorted(params.items(), key=lambda kv: kv[0])),
                digest_before=digest_before,
                digest_after=self._digest,
            )
        )
        return result

    def trace(self) -> SessionTrace:
        """Export the session's derivation as a serializable trace."""
        return SessionTrace(
            label=self.label,
            initial_digest=self._initial_digest,
            final_digest=self._digest,
            events=tuple(self.history),
        )

    def replay(self, trace: Optional[SessionTrace] = None) -> "Session":
        """Re-apply a recorded trace to this session's original description.

        With no argument, replays this session's own history — recorded
        paths were resolved against the tree state at each step and
        every transformation is deterministic, so the replay reproduces
        the final description exactly (useful for auditing a script's
        effect without its pattern-locating logic).

        Given a :class:`SessionTrace` (typically loaded from the
        provenance store), the events are re-applied against the
        *current* original description and every recorded digest is
        checked: a mismatch raises :class:`ReplayDivergenceError`
        naming the exact step, which is how drift between scripts and
        ISDL descriptions is detected.  Returns the fresh session.
        """
        if trace is None:
            trace = self.trace()
        fresh = Session(self.original, label=f"{self.label} (replay)")
        if trace.initial_digest and fresh._digest != trace.initial_digest:
            raise ReplayDivergenceError(
                label=fresh.label,
                step=0,
                transform="(source description)",
                phase="before",
                expected=trace.initial_digest,
                actual=fresh._digest,
            )
        for event in trace.events:
            if event.digest_before and fresh._digest != event.digest_before:
                raise ReplayDivergenceError(
                    label=fresh.label,
                    step=event.index,
                    transform=event.transform,
                    phase="before",
                    expected=event.digest_before,
                    actual=fresh._digest,
                )
            fresh.apply(event.transform, at=event.path, **dict(event.params))
            if event.digest_after and fresh._digest != event.digest_after:
                raise ReplayDivergenceError(
                    label=fresh.label,
                    step=event.index,
                    transform=event.transform,
                    phase="after",
                    expected=event.digest_after,
                    actual=fresh._digest,
                )
        return fresh

    def apply_stmts(self, transform_name: str, stmts_text: str, **params) -> TransformResult:
        """Apply a transformation that takes a ``stmts=`` parameter."""
        return self.apply(
            transform_name, stmts=parse_stmts(stmts_text), **params
        )

    # ------------------------------------------------------------------
    # reporting

    @property
    def steps(self) -> int:
        return len(self.history)

    def log(self) -> str:
        """Human-readable step log."""
        return format_trace_log(self.label, self.history)
