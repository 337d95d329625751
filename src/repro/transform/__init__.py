"""The transformation library and engine.

Source-to-source transformations over ISDL descriptions, organized in
the paper's seven categories (§5): local, code-motion, loop, global,
routine-structuring, constraint-and-assertion, and augment-producing.
The :class:`~repro.transform.engine.Session` applies transformations at
cursor positions, verifying each one's dataflow guards — the analysis
scripts in :mod:`repro.analyses` drive it.
"""

from .base import CATEGORIES, Context, Transformation, TransformError, TransformResult
from .engine import (
    TRACE_SCHEMA,
    ReplayDivergenceError,
    Session,
    SessionTrace,
    TraceEvent,
    format_trace_log,
)
from .registry import all_transformations, by_category, get, library_size

__all__ = [
    "CATEGORIES",
    "Context",
    "Transformation",
    "TransformError",
    "TransformResult",
    "TRACE_SCHEMA",
    "ReplayDivergenceError",
    "Session",
    "SessionTrace",
    "TraceEvent",
    "format_trace_log",
    "all_transformations",
    "by_category",
    "get",
    "library_size",
]
