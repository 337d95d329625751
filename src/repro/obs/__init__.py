"""Observability: process-local metrics behind a zero-cost switch.

The instrumented hot paths (parse/kernel caches, execution engines,
verification, the batch runner, the provenance store) all report
through the module-level helpers here — :func:`inc`,
:func:`gauge_set`, :func:`observe`, :func:`span` — which forward to
the *installed* :class:`~repro.obs.metrics.MetricsRegistry`.

**Disabled is the default and costs (almost) nothing**: when no
registry is installed, every helper is one global load and one branch,
and :func:`span` returns a shared no-op context manager without
allocating.  Library consumers see zero behavioural change; only the
CLI (``repro stats``, ``--metrics-out``) installs a real registry, via
the :func:`collecting` context manager.

Metrics are observability data only.  They never enter provenance
digests or deterministic JSON reports (the batch report's ``metrics``
block is additive and only present when collection was on), so
enabling collection cannot perturb replay digests or byte-identity
contracts.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional

from .export import export_json, export_prometheus
from .metrics import (
    BUCKET_BOUNDS,
    COUNTERS,
    GAUGES,
    HISTOGRAM_BOUNDS,
    HISTOGRAMS,
    METRICS_SCHEMA,
    SPAN_PHASES,
    MetricsRegistry,
    bounds_for,
    counter_value,
    empty_snapshot,
    gauge_value,
)

__all__ = [
    "BUCKET_BOUNDS",
    "COUNTERS",
    "GAUGES",
    "HISTOGRAM_BOUNDS",
    "HISTOGRAMS",
    "METRICS_SCHEMA",
    "SPAN_PHASES",
    "MetricsRegistry",
    "bounds_for",
    "active",
    "collecting",
    "counter_value",
    "empty_snapshot",
    "enabled",
    "export_json",
    "export_prometheus",
    "gauge_set",
    "gauge_value",
    "inc",
    "merge",
    "observe",
    "snapshot",
    "span",
]

#: the installed registry; ``None`` means collection is off.
_registry: Optional[MetricsRegistry] = None


def enabled() -> bool:
    """True when a metrics registry is collecting in this process."""
    return _registry is not None


def active() -> Optional[MetricsRegistry]:
    """The installed registry, or None when collection is off."""
    return _registry


@contextmanager
def collecting(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Install a registry for the duration of the block.

    Nested ``collecting`` blocks stack: the inner registry collects
    while active, and the outer one is restored afterwards.  This is
    the only supported way to turn collection on — there is no global
    enable flag to leak across tests.
    """
    global _registry
    previous = _registry
    _registry = registry if registry is not None else MetricsRegistry()
    try:
        yield _registry
    finally:
        _registry = previous


def inc(name: str, value: int = 1, /, **labels: str) -> None:
    registry = _registry
    if registry is not None:
        registry.inc(name, value, **labels)


def gauge_set(name: str, value: float, /, **labels: str) -> None:
    registry = _registry
    if registry is not None:
        registry.gauge_set(name, value, **labels)


def observe(name: str, value: float, /, **labels: str) -> None:
    registry = _registry
    if registry is not None:
        registry.observe(name, value, **labels)


class _NullSpan:
    """Shared, stateless stand-in for a span when collection is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(phase: str, **labels: str):
    """A timing context manager for one phase (no-op when disabled)."""
    registry = _registry
    if registry is None:
        return _NULL_SPAN
    return registry.span(phase, **labels)


def snapshot() -> Dict[str, object]:
    """The installed registry's snapshot (empty when disabled)."""
    registry = _registry
    if registry is None:
        return empty_snapshot()
    return registry.snapshot()


def merge(snapshot: Mapping[str, object]) -> None:
    """Merge a snapshot into the installed registry (if any)."""
    registry = _registry
    if registry is not None:
        registry.merge(snapshot)
