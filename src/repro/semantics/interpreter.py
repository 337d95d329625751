"""Big-step interpreter for ISDL descriptions.

Exotic instructions loop, so they cannot be symbolically executed (the
paper's critique of Oakley's method); they can, however, be *concretely*
executed.  This interpreter gives every description an executable
semantics, which the analysis layer uses for differential testing: after
a sequence of transformations claims two descriptions equivalent, both
are run on randomized states and must produce identical outputs and
identical final memories.

Execution model
---------------

* The entry routine (the one containing ``input``) runs with operand
  values supplied by the caller; ``output`` appends results in order.
* Routines share the description's global registers; parameters are
  call-by-value locals, and a routine returns a value by assigning to its
  own name (``fetch <- Mb[di]``).
* ``exit_when`` leaves the innermost ``repeat`` when its condition is
  true.  A configurable step budget guards against non-termination.
* ``assert`` statements introduced by analysis are checked at runtime.

A description is resolved once, when its :class:`Interpreter` is built:
every statement and expression becomes one closure transcribing the
node's big-step rule, with names, widths, callees and operator
functions already looked up.  Resolution raises nothing a run may not
reach: an undeclared name or routine, a wrong arity, an unknown
operator or a duplicate register raises only in a run that gets there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..isdl import ast
from ..isdl.errors import SemanticError
from .values import (
    BINARY_OPS,
    BYTE_MASK,
    UNARY_OPS,
    apply_binop,
    apply_unop,
    width_bits,
)


class StepLimitExceeded(SemanticError):
    """The description executed more statements than the budget allows."""


class AssertionFailed(SemanticError):
    """An ``assert`` statement evaluated to false during execution."""


class _LoopExit(Exception):
    """Internal control-flow signal raised by a true ``exit_when``."""


@dataclass(frozen=True)
class ExecutionResult:
    """Everything observable about one run of a description."""

    outputs: Tuple[int, ...]
    memory: Dict[int, int]  # nonzero final cells
    registers: Dict[str, int]
    steps: int


class _Run:
    """The state of one run; each call's frame is a list
    ``[return value, *arguments]`` passed beside it."""

    __slots__ = ("regs", "mem", "inputs", "outputs", "steps")

    def __init__(self, nregs: int, inputs, memory) -> None:
        self.regs = [0] * nregs
        self.mem = dict(memory) if memory else {}
        self.inputs = dict(inputs)
        self.outputs: List[int] = []
        self.steps = 0


#: A resolved node: ``node(run, frame)``, a value for an expression.
_Node = Callable[[_Run, list], Any]

#: Where a node resolves names: its routine's name and parameter slots.
_Scope = Tuple[str, Dict[str, int]]


def _mask(width: Optional[ast.Width]) -> int:
    """The store mask of ``width``; -1 keeps an unbounded integer."""
    bits = width_bits(width)
    return -1 if bits is None else (1 << bits) - 1


def _raiser(message: str, *operands: _Node) -> _Node:
    """A node that evaluates ``operands`` and then raises ``message``."""

    def fail(st, fr):
        for operand in operands:
            operand(st, fr)
        raise SemanticError(message)

    return fail


#: The wrong-arity message: routine name, parameter and argument counts.
_ARITY = "routine {!r} expects {} arguments, got {}"


class Interpreter:
    """Executes one ISDL description."""

    def __init__(self, description: ast.Description, max_steps: int = 200_000):
        self._description = description
        self._max_steps = max_steps
        self._routines: Dict[str, ast.RoutineDecl] = {}
        for routine in description.routines():
            if routine.name in self._routines:
                raise SemanticError(f"duplicate routine {routine.name!r}")
            self._routines[routine.name] = routine
        self._entry = description.entry_routine()
        self._step_limit = f"{description.name}: exceeded {max_steps} steps"
        decls = description.registers()
        self._names = tuple(decl.name for decl in decls)
        self._registers = {
            decl.name: (slot, _mask(decl.width)) for slot, decl in enumerate(decls)
        }
        self._duplicates = [
            name for slot, name in enumerate(self._names) if name in self._names[:slot]
        ]
        # Calls bind a routine's one-slot cell, so recursive and
        # forward calls resolve before every body is built.
        self._bodies: Dict[str, List[_Node]] = {name: [] for name in self._routines}
        for name, routine in self._routines.items():
            params = {param: i + 1 for i, param in enumerate(routine.params)}
            self._bodies[name].append(self._block(routine.body, (name, params)))

    @property
    def description(self) -> ast.Description:
        return self._description

    def run(
        self,
        inputs: Mapping[str, int],
        memory: Optional[Mapping[int, int]] = None,
    ) -> ExecutionResult:
        """Execute the entry routine.

        ``inputs`` supplies a value for every name listed in the entry
        routine's ``input`` statement (missing names default to 0, matching
        an uninitialized register); ``memory`` pre-loads ``Mb``.
        """
        if self._duplicates:
            raise SemanticError(
                f"duplicate register declaration {self._duplicates[0]!r}"
            )
        if self._entry.params:
            entry = self._entry
            raise SemanticError(_ARITY.format(entry.name, len(entry.params), 0))
        st = _Run(len(self._names), inputs, memory)
        self._bodies[self._entry.name][0](st, [0])
        return ExecutionResult(
            outputs=tuple(st.outputs),
            memory={addr: value for addr, value in st.mem.items() if value != 0},
            registers=dict(zip(self._names, st.regs)),
            steps=st.steps,
        )

    # ------------------------------------------------------------------
    # statements

    def _block(self, stmts: Tuple[ast.Stmt, ...], scope: _Scope) -> _Node:
        """Each statement ticks the step budget, then runs."""
        body = tuple(self._stmt(stmt, scope) for stmt in stmts)
        limit, message = self._max_steps, self._step_limit

        def block(st, fr):
            for stmt in body:
                st.steps += 1
                if st.steps > limit:
                    raise StepLimitExceeded(message)
                stmt(st, fr)

        return block

    def _stmt(self, stmt: ast.Stmt, scope: _Scope) -> _Node:
        build = _STATEMENTS.get(type(stmt))
        return build(self, stmt, scope) if build else _raiser(
            f"cannot execute {type(stmt).__name__}"
        )

    def _assign(self, stmt: ast.Assign, scope: _Scope) -> _Node:
        """The value evaluates first, then a memory target's address."""
        value = self._expr(stmt.expr, scope)
        if isinstance(stmt.target, ast.Var):
            return self._store(stmt.target.name, value, scope)
        addr = self._expr(stmt.target.addr, scope)

        def write(st, fr):
            v = value(st, fr)
            a = addr(st, fr)
            if a < 0:
                raise SemanticError(f"memory write at negative address {a}")
            st.mem[a] = v & BYTE_MASK

        return write

    def _store(self, name: str, value: _Node, scope: _Scope) -> _Node:
        """``name <- value``: the return slot, a parameter, a register."""
        routine, params = scope
        if name == routine or name in params:
            index = 0 if name == routine else params[name]

            def store(st, fr):
                fr[index] = value(st, fr)

        elif name in self._registers:
            slot, mask = self._registers[name]

            def store(st, fr):
                st.regs[slot] = value(st, fr) & mask

        else:
            return _raiser(f"assignment to undeclared name {name!r}", value)
        return store

    def _if(self, stmt: ast.If, scope: _Scope) -> _Node:
        cond = self._expr(stmt.cond, scope)
        then = self._block(stmt.then, scope)
        els = self._block(stmt.els, scope)
        return lambda st, fr: then(st, fr) if cond(st, fr) else els(st, fr)

    def _repeat(self, stmt: ast.Repeat, scope: _Scope) -> _Node:
        """Each iteration ticks once more before its body."""
        body = self._block(stmt.body, scope)
        limit, message = self._max_steps, self._step_limit

        def repeat(st, fr):
            try:
                while True:
                    st.steps += 1
                    if st.steps > limit:
                        raise StepLimitExceeded(message)
                    body(st, fr)
            except _LoopExit:
                pass

        return repeat

    def _exit_when(self, stmt: ast.ExitWhen, scope: _Scope) -> _Node:
        """A true condition leaves the innermost dynamically enclosing
        ``repeat``, across routine calls."""
        cond = self._expr(stmt.cond, scope)

        def exit_when(st, fr):
            if cond(st, fr):
                raise _LoopExit()

        return exit_when

    def _input(self, stmt: ast.Input, scope: _Scope) -> _Node:
        """Each name is assigned its input, 0 when none is given."""
        stores = tuple(
            self._store(name, lambda st, fr, name=name: st.inputs.get(name, 0), scope)
            for name in stmt.names
        )

        def input_(st, fr):
            for store in stores:
                store(st, fr)

        return input_

    def _output(self, stmt: ast.Output, scope: _Scope) -> _Node:
        exprs = tuple(self._expr(expr, scope) for expr in stmt.exprs)
        return lambda st, fr: st.outputs.extend([expr(st, fr) for expr in exprs])

    def _assert(self, stmt: ast.Assert, scope: _Scope) -> _Node:
        cond = self._expr(stmt.cond, scope)
        message = f"{self._description.name}: assertion failed"

        def assert_(st, fr):
            if not cond(st, fr):
                raise AssertionFailed(message)

        return assert_

    # ------------------------------------------------------------------
    # expressions

    def _expr(self, expr: ast.Expr, scope: _Scope) -> _Node:
        build = _EXPRESSIONS.get(type(expr))
        return build(self, expr, scope) if build else _raiser(
            f"cannot evaluate {type(expr).__name__}"
        )

    def _const(self, expr: ast.Const, scope: _Scope) -> _Node:
        value = expr.value
        return lambda st, fr: value

    def _var(self, expr: ast.Var, scope: _Scope) -> _Node:
        """A parameter, the routine's return slot, then a register."""
        name, (routine, params) = expr.name, scope
        if name in params or name == routine:
            index = params.get(name, 0)
            return lambda st, fr: fr[index]
        if name in self._registers:
            slot = self._registers[name][0]
            return lambda st, fr: st.regs[slot]
        return _raiser(f"reference to undeclared register {name!r}")

    def _memread(self, expr: ast.MemRead, scope: _Scope) -> _Node:
        addr = self._expr(expr.addr, scope)

        def read(st, fr):
            a = addr(st, fr)
            if a < 0:
                raise SemanticError(f"memory read at negative address {a}")
            return st.mem.get(a, 0)

        return read

    def _call(self, expr: ast.Call, scope: _Scope) -> _Node:
        """Arguments evaluate left to right, then the arity is checked."""
        callee = self._routines.get(expr.name)
        if callee is None:
            return _raiser(f"call to undeclared routine {expr.name!r}")
        args = tuple(self._expr(arg, scope) for arg in expr.args)
        if len(args) != len(callee.params):
            message = _ARITY.format(callee.name, len(callee.params), len(args))
            return _raiser(message, *args)
        cell = self._bodies[expr.name]
        mask = _mask(callee.width)

        def call(st, fr):
            frame = [0] + [arg(st, fr) for arg in args]
            cell[0](st, frame)
            return frame[0] & mask

        return call

    def _binop(self, expr: ast.BinOp, scope: _Scope) -> _Node:
        """Both operands evaluate, left first, before the operator
        applies; an unknown operator raises only then."""
        op = BINARY_OPS.get(expr.op) or partial(apply_binop, expr.op)
        left = self._expr(expr.left, scope)
        if isinstance(expr.right, ast.Const):
            value = expr.right.value
            return lambda st, fr: op(left(st, fr), value)
        right = self._expr(expr.right, scope)
        return lambda st, fr: op(left(st, fr), right(st, fr))

    def _unop(self, expr: ast.UnOp, scope: _Scope) -> _Node:
        op = UNARY_OPS.get(expr.op) or partial(apply_unop, expr.op)
        operand = self._expr(expr.operand, scope)
        return lambda st, fr: op(operand(st, fr))


#: One builder per statement kind, each transcribing its big-step rule.
_STATEMENTS = {
    ast.Assign: Interpreter._assign,
    ast.If: Interpreter._if,
    ast.Repeat: Interpreter._repeat,
    ast.ExitWhen: Interpreter._exit_when,
    ast.Input: Interpreter._input,
    ast.Output: Interpreter._output,
    ast.Assert: Interpreter._assert,
}

#: One builder per expression kind.
_EXPRESSIONS = {
    ast.Const: Interpreter._const,
    ast.Var: Interpreter._var,
    ast.MemRead: Interpreter._memread,
    ast.Call: Interpreter._call,
    ast.BinOp: Interpreter._binop,
    ast.UnOp: Interpreter._unop,
}


def run_description(
    description: ast.Description,
    inputs: Mapping[str, int],
    memory: Optional[Mapping[int, int]] = None,
    max_steps: int = 200_000,
) -> ExecutionResult:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    return Interpreter(description, max_steps=max_steps).run(inputs, memory)
