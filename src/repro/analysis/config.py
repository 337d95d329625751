"""One run-parameter surface for everything that verifies analyses.

``run_batch`` (:mod:`repro.analysis.runner`), ``verify_binding``
(:mod:`repro.analysis.verify`), and the benchmarks
(:mod:`repro.analysis.bench`) take their whole verification plan as
one frozen :class:`RunConfig`; the public :mod:`repro.api` facade, the
CLI and the HTTP service build one from their inputs.  A config checks
its own fields when it is constructed, so a bad plan fails at the
front end that took it, never half-way through a run.

A bare call keeps its entry point's historical default plan
(``verify_binding`` runs 200 trials, ``run_bench`` 240, the batch
runner 120).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:
    from ..semantics.engine import ExecutionEngine


class UnknownAnalysisError(ValueError):
    """A requested analysis name is not in the catalog."""


@dataclass(frozen=True)
class RunConfig:
    """The complete plan for one verification-bearing run.

    ``engine`` accepts a name, an :class:`ExecutionEngine`, or None
    (the default engine) — exactly what every ``--engine`` flag
    accepts.  ``jobs``/``timeout``/``cache_dir`` only matter to the
    batch runner; single-binding verification ignores them.
    """

    engine: Union[None, str, ExecutionEngine] = None
    trials: int = 120
    seed: int = 1982
    verify: bool = True
    jobs: int = 1
    timeout: Optional[float] = None
    cache_dir: Union[None, str, "os.PathLike"] = None
    #: run the symbolic equivalence prover before sampling: a *proved*
    #: binding drops to a short confirmation window, a *refuted* one
    #: replays its concrete counterexample as the failing trial, and an
    #: *unknown* verdict falls back to the full differential sweep.
    symbolic: bool = False

    def __post_init__(self) -> None:
        for name in ("trials", "seed", "jobs"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("verify", "symbolic"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be a boolean, got {value!r}")
        floor = 1 if self.verify else 0
        if self.trials < floor:
            raise ValueError(
                f"trials must be >= {floor}"
                + (" when verifying" if self.verify else "")
                + f", got {self.trials}"
            )
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.timeout is not None and (
            isinstance(self.timeout, bool)
            or not isinstance(self.timeout, (int, float))
            or not self.timeout > 0
        ):
            raise ValueError(f"timeout must be > 0 seconds, got {self.timeout!r}")

    def resolve_engine(self, gate: Optional[str] = None) -> ExecutionEngine:
        """The concrete engine this plan runs on."""
        from ..semantics.engine import ExecutionEngine

        return ExecutionEngine.resolve(self.engine, gate)

    def replace(self, **changes: object) -> "RunConfig":
        """A copy with ``changes`` applied (dataclasses.replace)."""
        return dataclasses.replace(self, **changes)
