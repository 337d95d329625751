"""Side-effect summaries for routines and expressions.

Transformation guards constantly ask "does this expression read anything
that statement writes?" — and expressions may call routines (``fetch()``)
that read and write global registers and memory.  This module computes a
fixed point of per-routine effect summaries over the call graph and then
answers def/use questions with calls fully expanded.

The distinguished pseudo-location :data:`MEM` stands for all of ``Mb``;
we do not attempt alias analysis on addresses (neither did the paper —
its language bans register aliasing precisely to keep this simple).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set

from ..isdl import ast

#: Pseudo-location representing the whole memory array ``Mb``.
MEM = "@Mb"

#: Pseudo-location representing the output stream: two ``output``
#: statements may never be reordered relative to each other.
OUT = "@out"


@dataclass(frozen=True)
class Effects:
    """What a piece of code may read and write."""

    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()

    def __or__(self, other: "Effects") -> "Effects":
        return Effects(self.reads | other.reads, self.writes | other.writes)

    @property
    def pure(self) -> bool:
        """True when the code writes nothing (reads are allowed)."""
        return not self.writes

    def conflicts_with(self, other: "Effects") -> bool:
        """True when reordering the two pieces of code could change results."""
        return bool(
            (self.writes & other.reads)
            or (self.reads & other.writes)
            or (self.writes & other.writes)
        )


class EffectAnalysis:
    """Effect summaries for all routines of one description.

    Statements and expressions add what they read and write into two
    sets (:meth:`_walk_stmt`, :meth:`_walk_expr`), so an :class:`Effects`
    is built once per query and per routine summary, not per statement.
    """

    def __init__(self, description: ast.Description):
        self._description = description
        self._routines: Dict[str, ast.RoutineDecl] = {
            routine.name: routine for routine in description.routines()
        }
        self._summaries: Dict[str, Effects] = {}
        self._compute()

    # ------------------------------------------------------------------
    # public queries

    def routine_effects(self, name: str) -> Effects:
        """Summary of a routine: global reads/writes, calls expanded."""
        try:
            return self._summaries[name]
        except KeyError:
            raise KeyError(f"no routine {name!r} in {self._description.name}")

    def expr_effects(self, expr: ast.Expr) -> Effects:
        """Reads (and, via calls, writes) performed when evaluating ``expr``."""
        reads: Set[str] = set()
        writes: Set[str] = set()
        self._walk_expr(expr, reads, writes)
        return Effects(frozenset(reads), frozenset(writes))

    def stmt_effects(self, stmt: ast.Stmt) -> Effects:
        """Reads and writes of one statement, including nested bodies."""
        reads: Set[str] = set()
        writes: Set[str] = set()
        self._walk_stmt(stmt, reads, writes)
        return Effects(frozenset(reads), frozenset(writes))

    def expr_is_pure(self, expr: ast.Expr) -> bool:
        """True when evaluating ``expr`` writes no state."""
        writes: Set[str] = set()
        self._walk_expr(expr, set(), writes)
        return not writes

    # ------------------------------------------------------------------
    # summary fixpoint

    def _compute(self) -> None:
        for name in self._routines:
            self._summaries[name] = Effects()
        changed = True
        while changed:
            changed = False
            for name, routine in self._routines.items():
                summary = self._routine_body_effects(routine)
                if summary != self._summaries[name]:
                    self._summaries[name] = summary
                    changed = True

    def _routine_body_effects(self, routine: ast.RoutineDecl) -> Effects:
        reads: Set[str] = set()
        writes: Set[str] = set()
        for stmt in routine.body:
            self._walk_stmt(stmt, reads, writes)
        # Parameters and the return slot are locals, not global effects.
        local = set(routine.params) | {routine.name}
        return Effects(frozenset(reads - local), frozenset(writes - local))

    def _walk_stmt(self, stmt: ast.Stmt, reads: Set[str], writes: Set[str]) -> None:
        if isinstance(stmt, ast.Assign):
            self._walk_expr(stmt.expr, reads, writes)
            target = stmt.target
            if isinstance(target, ast.MemRead):
                self._walk_expr(target.addr, reads, writes)
                writes.add(MEM)
            else:
                writes.add(target.name)
            return
        if isinstance(stmt, (ast.ExitWhen, ast.Assert)):
            self._walk_expr(stmt.cond, reads, writes)
            return
        if isinstance(stmt, ast.Output):
            writes.add(OUT)
            for expr in stmt.exprs:
                self._walk_expr(expr, reads, writes)
            return
        if isinstance(stmt, ast.Input):
            writes.update(stmt.names)
            return
        if isinstance(stmt, ast.If):
            self._walk_expr(stmt.cond, reads, writes)
            for inner in stmt.then + stmt.els:
                self._walk_stmt(inner, reads, writes)
            return
        if isinstance(stmt, ast.Repeat):
            for inner in stmt.body:
                self._walk_stmt(inner, reads, writes)
            return
        raise TypeError(f"no effects for {type(stmt).__name__}")

    def _walk_expr(self, expr: ast.Expr, reads: Set[str], writes: Set[str]) -> None:
        # The commonest node classes are tested first.
        if isinstance(expr, ast.Var):
            reads.add(expr.name)
            return
        if isinstance(expr, ast.BinOp):
            self._walk_expr(expr.left, reads, writes)
            self._walk_expr(expr.right, reads, writes)
            return
        if isinstance(expr, ast.Const):
            return
        if isinstance(expr, ast.MemRead):
            reads.add(MEM)
            self._walk_expr(expr.addr, reads, writes)
            return
        if isinstance(expr, ast.Call):
            for arg in expr.args:
                self._walk_expr(arg, reads, writes)
            summary = self._summaries.get(expr.name)
            if summary is None:
                # Unknown routine: be maximally conservative.
                reads.add(MEM)
                writes.add(MEM)
                return
            reads.update(summary.reads)
            writes.update(summary.writes)
            return
        if isinstance(expr, ast.UnOp):
            self._walk_expr(expr.operand, reads, writes)
            return
        raise TypeError(f"no effects for {type(expr).__name__}")
