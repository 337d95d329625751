"""Transformation framework: context, results, and the base protocol.

A transformation is applied *at a point* in a description (an AST path),
exactly like positioning the cursor in the paper's structure-editor
monitor and naming the transformation.  Application either returns a new
description (plus any constraints the step uncovered) or raises
:class:`TransformError` explaining why the step is invalid there — EXTRA
"verifies that the transformations can be correctly applied and applies
them".

:class:`Context` packages the dataflow answers guards need (effect
summaries, CFGs, liveness, reaching definitions, available copies) for
one immutable description, each computed on first use; a fresh context
is built per step because the description changes under every
successful step and the trees are tiny.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..constraints import Constraint
from ..dataflow import (
    AvailableCopies,
    Cfg,
    EffectAnalysis,
    Liveness,
    ReachingDefinitions,
    build_cfg,
)
from ..isdl import ast
from ..isdl.visitor import Path, node_at, walk


class TransformError(Exception):
    """The transformation's applicability conditions do not hold here."""


@dataclass(frozen=True)
class TransformResult:
    """Outcome of one successful transformation step."""

    description: ast.Description
    constraints: Tuple[Constraint, ...] = ()
    note: str = ""
    #: True for augment-producing steps — they construct an instruction
    #: *variant* rather than preserving semantics of the original.
    is_augment: bool = False


class Context:
    """Dataflow-backed view of one description, cached per routine."""

    def __init__(self, description: ast.Description):
        self.description = description
        self._cfgs: Dict[str, Cfg] = {}
        self._liveness: Dict[str, Liveness] = {}
        self._reaching: Dict[str, ReachingDefinitions] = {}
        self._copies: Dict[str, AvailableCopies] = {}
        self._routine_paths: Dict[str, Path] = {}
        for i, section in enumerate(description.sections):
            for j, decl in enumerate(section.decls):
                if isinstance(decl, ast.RoutineDecl):
                    self._routine_paths[decl.name] = (
                        ("sections", i),
                        ("decls", j),
                    )

    @functools.cached_property
    def effects(self) -> EffectAnalysis:
        """Effect summaries, computed on first read (many steps never ask)."""
        return EffectAnalysis(self.description)

    # -- navigation ---------------------------------------------------

    def node(self, path: Path) -> object:
        return node_at(self.description, path)

    def parent(self, path: Path) -> Tuple[Path, object]:
        if not path:
            raise TransformError("the root has no parent")
        parent_path = path[:-1]
        return parent_path, node_at(self.description, parent_path)

    def routine_path(self, name: str) -> Path:
        try:
            return self._routine_paths[name]
        except KeyError:
            raise TransformError(f"no routine named {name!r}")

    def enclosing_routine(self, path: Path) -> Tuple[ast.RoutineDecl, Path]:
        """The routine whose body contains ``path``."""
        for length in range(len(path), -1, -1):
            node = node_at(self.description, path[:length])
            if isinstance(node, ast.RoutineDecl):
                return node, path[:length]
        raise TransformError(f"path {path!r} is not inside a routine")

    def enclosing_repeat(self, path: Path) -> Tuple[ast.Repeat, Path]:
        """The innermost ``repeat`` containing ``path``."""
        for length in range(len(path) - 1, -1, -1):
            node = node_at(self.description, path[:length])
            if isinstance(node, ast.Repeat):
                return node, path[:length]
        raise TransformError(f"path {path!r} is not inside a repeat loop")

    def stmt_position(self, path: Path) -> Tuple[Path, str, int]:
        """Decompose a statement path into (parent path, field, index)."""
        if not path or path[-1][1] is None:
            raise TransformError(f"path {path!r} does not address a list element")
        field, index = path[-1]
        return path[:-1], field, index

    # -- dataflow (lazy per routine) ------------------------------------

    def cfg(self, routine_name: str) -> Cfg:
        if routine_name not in self._cfgs:
            base = self.routine_path(routine_name)
            routine = node_at(self.description, base)
            self._cfgs[routine_name] = build_cfg(routine, base)
        return self._cfgs[routine_name]

    def liveness(self, routine_name: str) -> Liveness:
        if routine_name not in self._liveness:
            self._liveness[routine_name] = Liveness(
                self.cfg(routine_name), self.effects
            )
        return self._liveness[routine_name]

    def reaching(self, routine_name: str) -> ReachingDefinitions:
        if routine_name not in self._reaching:
            names = [decl.name for decl in self.description.registers()]
            routine = self.description.routine(routine_name)
            names.extend(routine.params)
            names.append(routine.name)
            self._reaching[routine_name] = ReachingDefinitions(
                self.cfg(routine_name), self.effects, names
            )
        return self._reaching[routine_name]

    def copies(self, routine_name: str) -> AvailableCopies:
        if routine_name not in self._copies:
            self._copies[routine_name] = AvailableCopies(
                self.cfg(routine_name), self.effects
            )
        return self._copies[routine_name]

    # -- common guard helpers -------------------------------------------

    def expr_is_pure(self, expr: ast.Expr) -> bool:
        return self.effects.expr_is_pure(expr)

    def is_boolean_valued(self, expr: ast.Expr) -> bool:
        """True when ``expr`` always evaluates to 0 or 1.

        Needed by identities like ``e and 1 = e`` that hold only for
        boolean-valued ``e``.  Conservative: constants 0/1, one-bit
        registers, comparison/logical operators, and ``not``.
        """
        if isinstance(expr, ast.Const):
            return expr.value in (0, 1)
        if isinstance(expr, ast.Var):
            try:
                width = self.description.register(expr.name).width
            except KeyError:
                return False
            return isinstance(width, ast.BitWidth) and width.bits == 1
        if isinstance(expr, ast.BinOp):
            return expr.op in ("=", "<>", "<", "<=", ">", ">=", "and", "or")
        if isinstance(expr, ast.UnOp):
            return expr.op == "not"
        return False

    def defs_of_global(self, name: str) -> List[Tuple[Path, ast.Assign]]:
        """Every assignment to global ``name`` anywhere in the description."""
        found = []
        for path, node in walk(self.description):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.target, ast.Var)
                and node.target.name == name
            ):
                found.append((path, node))
            if isinstance(node, ast.Input) and name in node.names:
                found.append((path, node))
        return found

    def uses_of_global(self, name: str) -> List[Path]:
        """Paths of every ``Var`` *read* of global ``name``.

        Assignment targets are definitions, not uses, and are excluded.
        """
        uses = []
        for path, node in walk(self.description):
            if isinstance(node, ast.Var) and node.name == name:
                if path and path[-1] == ("target", None):
                    continue
                uses.append(path)
        return uses


class Transformation:
    """Base class for all transformations.

    Subclasses set ``name``, ``category`` (one of the paper's seven), a
    docstring, and implement :meth:`apply`.  ``apply`` must raise
    :class:`TransformError` when the applicability conditions fail and
    must never mutate the input description.
    """

    name: str = ""
    category: str = ""

    def apply(self, ctx: Context, path: Path, **params) -> TransformResult:
        raise NotImplementedError

    # Convenience used by many subclasses.
    @staticmethod
    def _require(condition: bool, message: str) -> None:
        if not condition:
            raise TransformError(message)


#: The paper's seven transformation categories (§5).
CATEGORIES = (
    "local",
    "code-motion",
    "loop",
    "global",
    "routine-structuring",
    "constraint-assertion",
    "augment",
)
