"""Bounded symbolic execution of ISDL descriptions.

:class:`SymbolicExecutor` mirrors the reference interpreter
(:mod:`repro.semantics.interpreter`) statement for statement, but over
:mod:`repro.symbolic.terms` instead of integers:

* registers start at ``const 0`` and truncate on store to their
  declared width, exactly like the interpreter (the truncation itself
  is provisional — it vanishes when the interval analysis proves the
  value fits);
* frame locals and the routine-name return slot are never truncated,
  and routine returns truncate to the routine width — byte-for-byte
  the interpreter's rules;
* an ``if`` with an undecided condition executes both branches under
  interval refinements of the condition and merges the states with
  ``ite`` terms; a branch whose refinement would require an *empty*
  interval is statically infeasible and is pruned instead of executed;
* ``assert`` conditions are assumed true (they are checked statically
  by lint's E304 and dynamically by every confirmation trial);
* ``repeat`` first attempts a bounded **concrete unroll** (every
  ``exit_when`` must decide), then falls back to **summarization**:
  the loop body is executed once over fresh *slot* variables standing
  for the loop-carried state, and the loop's observable behaviour —
  the ordered exit events plus the fallthrough update — is digested
  into an uninterpreted ``loop(digest, out, args...)`` application.
  Two alpha-equivalent loops digest identically, so equal summaries
  applied to equal entry states produce identical terms.

Summarization runs in up to two passes.  Pass one gives every slot its
full width range.  If the body matches the regular counted-loop shape
(an ``exit_when ctr = 0`` before any write to ``ctr``, whose only
update is ``ctr <- ctr - 1``, with a finite entry interval), pass two
re-executes the body under *trip-bounded* slot intervals — the counter
gets ``[0, entry_hi]``, and every ``±k`` induction register gets its
entry interval widened by ``k * (trips + 1)`` in the update direction.
The tighter intervals let width truncations drop inside the body,
which is what makes a 16-bit machine loop's summary digest equal an
unbounded-integer operator loop's.  Pass two is self-checking: a slot
whose claimed interval fails to discharge its own update mask is
demoted back to the full width range (never unsound — the claimed
interval is only kept when the no-wraparound argument it rests on is
visible in the resulting terms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..dataflow.effects import MEM, OUT, Effects, EffectAnalysis
from ..isdl import ast
from ..lint.intervals import Interval
from ..semantics.values import width_bits
from .terms import (
    FALSE,
    MAYBE,
    TRUE,
    BudgetExceeded,
    SymbolicError,
    Term,
    TermBuilder,
    Unsupported,
    digest_keys,
    term_key,
)

__all__ = ["SymResult", "SymbolicExecutor"]


class _LoopExit(Exception):
    """A decided ``exit_when`` fired during concrete unrolling."""


class _UnrollAbort(Exception):
    """Concrete unrolling hit an undecidable exit or the budget."""


class _BodyDone(Exception):
    """Summarization: an exit always fires here, on every iteration."""


class _BranchDead(Exception):
    """Summarization: this branch always exits the loop."""


@dataclass(frozen=True)
class SymResult:
    """Observable outcome of one symbolic run."""

    outputs: Tuple[Term, ...]
    memory: Term
    registers: Dict[str, Term]


class _Frame:
    __slots__ = ("routine", "locals", "retval")

    def __init__(self, routine: ast.RoutineDecl, locals_: Dict[str, Term], retval: Term):
        self.routine = routine
        self.locals = locals_
        self.retval = retval


class _UnrollCtx:
    __slots__ = ()


class _SumCtx:
    __slots__ = (
        "serial",
        "writes",
        "order",
        "path_base",
        "touches_mem",
        "events",
        "written_so_far",
    )

    def __init__(self, serial, writes, order, path_base, touches_mem):
        self.serial = serial
        self.writes = writes
        self.order = order
        self.path_base = path_base
        self.touches_mem = touches_mem
        self.events: List[_ExitEvent] = []
        self.written_so_far: Set[str] = set()


@dataclass
class _ExitEvent:
    """One ``exit_when`` reached during a summarization pass."""

    cond: Term  # path condition AND exit condition, as a flag term
    path_empty: bool
    terminal: bool  # the exit provably always fires at this point
    writes_before: frozenset
    snapshot: Tuple[Term, ...]
    mem: Optional[Term]


@dataclass
class _PassResult:
    slots: Tuple[Term, ...]
    mem_slot: Optional[Term]
    events: List[_ExitEvent]
    fallthrough: Tuple[Term, ...]
    mem_out: Optional[Term]
    always_exits: bool


class SymbolicExecutor:
    """Symbolically execute one description's entry routine."""

    def __init__(
        self,
        description: ast.Description,
        builder: TermBuilder,
        *,
        max_stmts: int = 20_000,
        unroll_budget: int = 64,
        max_loop_passes: int = 3,
    ):
        self._description = description
        self._builder = builder
        self._entry = description.entry_routine()
        self._routines = {r.name: r for r in description.routines()}
        self._registers = {r.name: r.width for r in description.registers()}
        self._effects = EffectAnalysis(description)
        self._max_stmts = max_stmts
        self._unroll_budget = unroll_budget
        self._max_loop_passes = max_loop_passes
        #: concrete loop iterations executed across all unroll attempts.
        self.unroll_iterations = 0
        #: deepest successful or attempted unroll of a single loop.
        self.max_unroll_depth = 0

    # ------------------------------------------------------------------
    # entry point

    def run(self, inputs: Mapping[str, Term]) -> SymResult:
        """Execute the entry routine over symbolic inputs.

        ``inputs`` maps input names to terms; names the description
        reads but the mapping omits default to ``const 0``, mirroring
        the interpreter's uninitialized-register rule.
        """
        builder = self._builder
        self._inputs = dict(inputs)
        self._regs: Dict[str, Term] = {
            name: builder.const(0) for name in self._registers
        }
        self._mem: Term = builder.memvar()
        self._outputs: List[Term] = []
        self._frames: List[_Frame] = []
        self._loops: List[object] = []
        self._path: List[Term] = []
        self._stmts = 0
        with builder.refinement_scope():
            self._exec_routine(self._entry, ())
        return SymResult(tuple(self._outputs), self._mem, dict(self._regs))

    # ------------------------------------------------------------------
    # state bookkeeping

    def _fork_state(self):
        return (
            dict(self._regs),
            self._mem,
            list(self._outputs),
            [(dict(frame.locals), frame.retval) for frame in self._frames],
        )

    def _restore_state(self, state) -> None:
        regs, mem, outputs, frames = state
        self._regs = dict(regs)
        self._mem = mem
        self._outputs = list(outputs)
        for frame, (locals_, retval) in zip(self._frames, frames):
            frame.locals = dict(locals_)
            frame.retval = retval

    def _note_write(self, name: str) -> None:
        if self._loops:
            ctx = self._loops[-1]
            if isinstance(ctx, _SumCtx) and (
                name in ctx.writes or name == MEM
            ):
                ctx.written_so_far.add(name)

    def _store(self, target, value: Term) -> None:
        if isinstance(target, ast.MemRead):
            addr = self._eval(target.addr)
            self._mem = self._builder.store(self._mem, addr, value)
            self._note_write(MEM)
            return
        self._store_name(target.name, value)

    def _store_name(self, name: str, value: Term) -> None:
        frame = self._frames[-1] if self._frames else None
        if frame is not None:
            if name == frame.routine.name:
                frame.retval = value
                self._note_write(name)
                return
            if name in frame.locals:
                frame.locals[name] = value
                self._note_write(name)
                return
        if name in self._regs:
            bits = width_bits(self._registers[name])
            self._regs[name] = (
                value if bits is None else self._builder.trunc(bits, value)
            )
            self._note_write(name)
            return
        raise Unsupported(f"assignment to undeclared name {name!r}")

    def _set_raw(self, name: str, value: Term) -> None:
        """Bind a name without truncation (slots and summaries are
        already in range by construction)."""
        frame = self._frames[-1] if self._frames else None
        if frame is not None:
            if name == frame.routine.name:
                frame.retval = value
                return
            if name in frame.locals:
                frame.locals[name] = value
                return
        if name in self._regs:
            self._regs[name] = value
            return
        raise Unsupported(f"cannot bind loop state for {name!r}")

    def _load_name(self, name: str) -> Term:
        frame = self._frames[-1] if self._frames else None
        if frame is not None:
            if name in frame.locals:
                return frame.locals[name]
            if name == frame.routine.name:
                return frame.retval
        value = self._regs.get(name)
        if value is None:
            raise Unsupported(f"reference to undeclared register {name!r}")
        return value

    def _name_bits(self, name: str) -> Optional[int]:
        width = self._registers.get(name)
        return width_bits(width) if width is not None else None

    # ------------------------------------------------------------------
    # expressions

    def _eval(self, expr: ast.Expr) -> Term:
        builder = self._builder
        if isinstance(expr, ast.Const):
            return builder.const(expr.value)
        if isinstance(expr, ast.Var):
            return self._load_name(expr.name)
        if isinstance(expr, ast.MemRead):
            addr = self._eval(expr.addr)
            return builder.select(self._mem, addr)
        if isinstance(expr, ast.Call):
            routine = self._routines.get(expr.name)
            if routine is None:
                raise Unsupported(f"call to unknown routine {expr.name!r}")
            if any(f.routine.name == expr.name for f in self._frames):
                raise Unsupported(f"recursive call to {expr.name!r}")
            args = tuple(self._eval(arg) for arg in expr.args)
            return self._exec_routine(routine, args)
        if isinstance(expr, ast.BinOp):
            left = self._eval(expr.left)
            right = self._eval(expr.right)
            return self._apply_binop(expr.op, left, right)
        if isinstance(expr, ast.UnOp):
            operand = self._eval(expr.operand)
            if expr.op == "not":
                return builder.not_(operand)
            if expr.op == "-":
                return builder.neg(operand)
            raise Unsupported(f"unary operator {expr.op!r}")
        raise Unsupported(f"cannot evaluate {type(expr).__name__}")

    def _apply_binop(self, op: str, left: Term, right: Term) -> Term:
        builder = self._builder
        if op == "+":
            return builder.add(left, right)
        if op == "-":
            return builder.sub(left, right)
        if op == "*":
            return builder.mul(left, right)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return builder.cmp(op, left, right)
        if op == "and":
            return builder.and_(left, right)
        if op == "or":
            return builder.or_(left, right)
        raise Unsupported(f"binary operator {op!r}")

    # ------------------------------------------------------------------
    # statements

    def _tick(self) -> None:
        self._stmts += 1
        if self._stmts > self._max_stmts:
            raise BudgetExceeded(
                f"statement budget exceeded ({self._max_stmts})"
            )

    def _exec_routine(self, routine: ast.RoutineDecl, args: Tuple[Term, ...]) -> Term:
        if len(args) != len(routine.params):
            raise Unsupported(
                f"routine {routine.name!r} expects {len(routine.params)} "
                f"arguments, got {len(args)}"
            )
        frame = _Frame(
            routine, dict(zip(routine.params, args)), self._builder.const(0)
        )
        self._frames.append(frame)
        try:
            with self._builder.refinement_scope():
                self._exec_block(routine.body)
        finally:
            self._frames.pop()
        bits = width_bits(routine.width)
        if bits is None:
            return frame.retval
        return self._builder.trunc(bits, frame.retval)

    def _exec_block(self, stmts: Sequence[ast.Stmt]) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: ast.Stmt) -> None:
        self._tick()
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.expr)
            self._store(stmt.target, value)
        elif isinstance(stmt, ast.If):
            self._exec_if(stmt)
        elif isinstance(stmt, ast.Repeat):
            self._exec_repeat(stmt)
        elif isinstance(stmt, ast.ExitWhen):
            self._exec_exit(stmt)
        elif isinstance(stmt, ast.Input):
            zero = self._builder.const(0)
            for name in stmt.names:
                self._store_name(name, self._inputs.get(name, zero))
        elif isinstance(stmt, ast.Output):
            for expr in stmt.exprs:
                self._outputs.append(self._eval(expr))
        elif isinstance(stmt, ast.Assert):
            self._exec_assert(stmt)
        else:
            raise Unsupported(f"cannot execute {type(stmt).__name__}")

    def _exec_assert(self, stmt: ast.Assert) -> None:
        cond = self._eval(stmt.cond)
        verdict = self._builder.decide(cond)
        if verdict == TRUE:
            return
        if verdict == FALSE:
            raise Unsupported("assertion is statically false")
        overlay = self._builder.refine(cond, True)
        if overlay is None:
            raise Unsupported("assertion unsatisfiable under intervals")
        # Assume the assertion (it is lint-checked statically and every
        # confirmation trial checks it dynamically); the refinement is
        # scoped to the enclosing routine body, branch, or loop pass.
        self._builder.push_refinement(overlay)

    # -- conditionals ---------------------------------------------------

    def _exec_if(self, stmt: ast.If) -> None:
        builder = self._builder
        cond = self._eval(stmt.cond)
        verdict = builder.decide(cond)
        if verdict == TRUE:
            self._exec_block(stmt.then)
            return
        if verdict == FALSE:
            self._exec_block(stmt.els)
            return
        ref_true = builder.refine(cond, True)
        ref_false = builder.refine(cond, False)
        if ref_true is None and ref_false is None:
            raise Unsupported("contradictory branch condition")
        if ref_true is None:
            # The then-branch would need an empty interval: infeasible.
            with builder.refinement_scope():
                builder.push_refinement(ref_false)
                self._exec_block(stmt.els)
            return
        if ref_false is None:
            with builder.refinement_scope():
                builder.push_refinement(ref_true)
                self._exec_block(stmt.then)
            return
        saved = self._fork_state()
        state_true, dead_true = self._run_branch(
            stmt.then, builder.ne0(cond), ref_true
        )
        self._restore_state(saved)
        state_false, dead_false = self._run_branch(
            stmt.els, builder.not_(cond), ref_false
        )
        if dead_true and dead_false:
            raise _BranchDead()
        if dead_true:
            return  # the live else-result is already the current state
        if dead_false:
            self._restore_state(state_true)
            return
        self._merge_state(cond, state_true)

    def _run_branch(self, block, path_flag: Term, overlay):
        self._path.append(path_flag)
        dead = False
        try:
            with self._builder.refinement_scope():
                self._builder.push_refinement(overlay)
                try:
                    self._exec_block(block)
                except _BranchDead:
                    dead = True
                except _LoopExit:
                    # A concrete loop exit inside an undecided branch
                    # cannot be merged; abandon the enclosing unroll.
                    raise _UnrollAbort()
        finally:
            self._path.pop()
        return self._fork_state(), dead

    def _merge_state(self, cond: Term, then_state) -> None:
        """Merge the then-branch state into the current (else) state."""
        builder = self._builder
        regs_t, mem_t, outputs_t, frames_t = then_state
        if len(outputs_t) != len(self._outputs):
            raise Unsupported("branches emit different output counts")
        self._outputs = [
            t if t is e else builder.ite(cond, t, e)
            for t, e in zip(outputs_t, self._outputs)
        ]
        for name, value_t in regs_t.items():
            value_e = self._regs[name]
            if value_t is not value_e:
                self._regs[name] = builder.ite(cond, value_t, value_e)
        if mem_t is not self._mem:
            self._mem = builder.ite(cond, mem_t, self._mem)
        for frame, (locals_t, retval_t) in zip(self._frames, frames_t):
            for name, value_t in locals_t.items():
                value_e = frame.locals[name]
                if value_t is not value_e:
                    frame.locals[name] = builder.ite(cond, value_t, value_e)
            if retval_t is not frame.retval:
                frame.retval = builder.ite(cond, retval_t, frame.retval)

    # -- loop exits -----------------------------------------------------

    def _exec_exit(self, stmt: ast.ExitWhen) -> None:
        if not self._loops:
            raise Unsupported("exit_when outside repeat")
        ctx = self._loops[-1]
        builder = self._builder
        cond = self._eval(stmt.cond)
        verdict = builder.decide(cond)
        if isinstance(ctx, _UnrollCtx):
            if verdict == TRUE:
                raise _LoopExit()
            if verdict == FALSE:
                return
            raise _UnrollAbort()
        if verdict == FALSE:
            return
        flag = builder.ne0(cond)
        path = self._path[ctx.path_base:]
        full = flag
        for entry in reversed(path):
            full = builder.and_(entry, full)
        terminal = verdict == TRUE
        overlay = None
        if not terminal:
            overlay = builder.refine(cond, False)
            if overlay is None:
                # staying in the loop is infeasible: the exit always fires.
                terminal = True
        ctx.events.append(
            _ExitEvent(
                cond=full,
                path_empty=not path,
                terminal=terminal,
                writes_before=frozenset(ctx.written_so_far),
                snapshot=tuple(self._load_name(name) for name in ctx.order),
                mem=self._mem if ctx.touches_mem else None,
            )
        )
        if terminal:
            if path:
                raise _BranchDead()
            raise _BodyDone()
        self._builder.push_refinement(overlay)

    # ------------------------------------------------------------------
    # repeat: concrete unroll, then summarization

    def _exec_repeat(self, stmt: ast.Repeat) -> None:
        try:
            self._try_unroll(stmt)
            return
        except _UnrollAbort:
            pass
        self._summarize(stmt)

    def _try_unroll(self, stmt: ast.Repeat) -> None:
        saved = self._fork_state()
        self._loops.append(_UnrollCtx())
        depth = 0
        try:
            with self._builder.refinement_scope():
                while True:
                    if depth >= self._unroll_budget:
                        raise _UnrollAbort()
                    depth += 1
                    try:
                        self._exec_block(stmt.body)
                    except _LoopExit:
                        break
        except _UnrollAbort:
            self._restore_state(saved)
            raise
        finally:
            self._loops.pop()
            self.unroll_iterations += depth
            self.max_unroll_depth = max(self.max_unroll_depth, depth)

    # -- summarization --------------------------------------------------

    def _summarize(self, stmt: ast.Repeat) -> None:
        combined = Effects()
        for inner in stmt.body:
            combined = combined | self._effects.stmt_effects(inner)
        if OUT in combined.writes:
            raise Unsupported("output inside a summarized loop")
        writes = set(combined.writes) - {MEM}
        mem_written = MEM in combined.writes
        touches_mem = mem_written or MEM in combined.reads
        order = self._canon_order(stmt.body, writes)
        if set(order) != writes:
            raise Unsupported("loop-carried state not locatable in body")
        entry_terms = tuple(self._load_name(name) for name in order)
        entry_mem = self._mem
        defaults = [
            Interval.from_bits(self._name_bits(name)) for name in order
        ]

        result = self._loop_pass(stmt, order, defaults, touches_mem)
        trip = self._find_counter(result, order, entry_terms)
        if trip is not None:
            counter_i, bound, form = trip
            deltas = self._find_induction(result)
            demoted: Set[int] = set()
            for _ in range(self._max_loop_passes):
                intervals = list(defaults)
                intervals[counter_i] = Interval(
                    1 if form == "post" else 0, bound
                )
                for j, delta in deltas.items():
                    if j == counter_i or j in demoted:
                        continue
                    claimed = self._induction_interval(
                        entry_terms[j], delta, bound, defaults[j]
                    )
                    if claimed is not None:
                        intervals[j] = claimed
                candidate = self._loop_pass(stmt, order, intervals, touches_mem)
                bad = self._recheck(
                    candidate, order, counter_i, form, deltas, demoted
                )
                if bad is None:
                    break  # the counter pattern itself broke: keep pass one
                if not bad:
                    result = candidate
                    break
                demoted |= bad
        self._apply_summary(
            result, order, entry_terms, entry_mem, touches_mem, mem_written
        )

    def _loop_pass(
        self,
        stmt: ast.Repeat,
        order: Tuple[str, ...],
        intervals: Sequence[Interval],
        touches_mem: bool,
    ) -> _PassResult:
        builder = self._builder
        serial = builder.fresh_loop_serial()
        slots = tuple(
            builder.slot(serial, index, interval)
            for index, interval in enumerate(intervals)
        )
        mem_slot = builder.slot(serial, "mem", None) if touches_mem else None
        saved = self._fork_state()
        ctx = _SumCtx(serial, set(order), order, len(self._path), touches_mem)
        self._loops.append(ctx)
        always = False
        try:
            for name, slot in zip(order, slots):
                self._set_raw(name, slot)
            if mem_slot is not None:
                self._mem = mem_slot
            with builder.refinement_scope():
                try:
                    self._exec_block(stmt.body)
                except _BodyDone:
                    always = True
                fallthrough = tuple(
                    self._load_name(name) for name in order
                )
                mem_out = self._mem if touches_mem else None
        finally:
            self._loops.pop()
            self._restore_state(saved)
        return _PassResult(slots, mem_slot, ctx.events, fallthrough, mem_out, always)

    def _canon_order(self, body, writes: Set[str]) -> Tuple[str, ...]:
        """Loop-written names in structural first-occurrence order.

        Purely syntactic (calls walked in place), so two
        alpha-equivalent bodies order their corresponding names
        identically — the property slot numbering and summary digests
        rest on.
        """
        order: List[str] = []
        seen: Set[str] = set()
        walking: Set[str] = set()

        def note(name: str) -> None:
            if name in writes and name not in seen:
                seen.add(name)
                order.append(name)

        def walk_expr(expr: ast.Expr) -> None:
            if isinstance(expr, ast.Var):
                note(expr.name)
            elif isinstance(expr, ast.MemRead):
                walk_expr(expr.addr)
            elif isinstance(expr, ast.Call):
                for arg in expr.args:
                    walk_expr(arg)
                routine = self._routines.get(expr.name)
                if routine is not None and expr.name not in walking:
                    walking.add(expr.name)
                    for inner in routine.body:
                        walk_stmt(inner)
                    walking.discard(expr.name)
            elif isinstance(expr, ast.BinOp):
                walk_expr(expr.left)
                walk_expr(expr.right)
            elif isinstance(expr, ast.UnOp):
                walk_expr(expr.operand)

        def walk_stmt(stmt: ast.Stmt) -> None:
            if isinstance(stmt, ast.Assign):
                walk_expr(stmt.expr)
                if isinstance(stmt.target, ast.MemRead):
                    walk_expr(stmt.target.addr)
                else:
                    note(stmt.target.name)
            elif isinstance(stmt, ast.If):
                walk_expr(stmt.cond)
                for inner in stmt.then:
                    walk_stmt(inner)
                for inner in stmt.els:
                    walk_stmt(inner)
            elif isinstance(stmt, ast.Repeat):
                for inner in stmt.body:
                    walk_stmt(inner)
            elif isinstance(stmt, (ast.ExitWhen, ast.Assert)):
                walk_expr(stmt.cond)
            elif isinstance(stmt, ast.Output):
                for expr in stmt.exprs:
                    walk_expr(expr)
            elif isinstance(stmt, ast.Input):
                for name in stmt.names:
                    note(name)

        for stmt in body:
            walk_stmt(stmt)
        return tuple(order)

    # -- counted-loop recognition --------------------------------------

    @staticmethod
    def _strip_trunc(term: Term) -> Term:
        return term.args[1] if term.kind == "trunc" else term

    def _is_decrement(self, term: Term, slot: Term) -> bool:
        return term.kind == "sum" and term.args == (-1, ((slot, 1),))

    def _is_eq_zero(self, cond: Term, operand: Term) -> bool:
        """``cond`` is ``operand = 0`` (modulo a residual truncation —
        detection works on the loose pass-one terms; the trip-bounded
        recheck sees the masks drop)."""
        if cond.kind != "cmp" or cond.args[0] != "=":
            return False
        _, a, b = cond.args
        if b.kind == "const" and b.args[0] == 0:
            return self._strip_trunc(a) is operand
        if a.kind == "const" and a.args[0] == 0:
            return self._strip_trunc(b) is operand
        return False

    def _counter_form(
        self, result: _PassResult, index: int, name: str
    ) -> Optional[str]:
        """Recognize the two regular counted-loop shapes.

        ``"pre"``: ``exit_when ctr = 0`` before any write to ``ctr``,
        whose only update is ``ctr <- ctr - 1`` (body entries span
        ``[0, entry]``).  ``"post"``: ``ctr <- ctr - 1`` followed by
        ``exit_when ctr = 0`` (mvc-style; body entries span
        ``[1, entry]`` — the exit fires before a zero entry can
        happen, so the pre-decrement value is always positive).
        """
        slot = result.slots[index]
        update = self._strip_trunc(result.fallthrough[index])
        if not self._is_decrement(update, slot):
            return None
        decremented = None
        for event in result.events:
            if not event.path_empty:
                continue
            if name not in event.writes_before and self._is_eq_zero(
                event.cond, slot
            ):
                return "pre"
            if decremented is None:
                # lazily built: the decremented-value pattern only
                # exists when the sum was actually formed this pass.
                decremented = update
            if self._is_eq_zero(event.cond, decremented):
                return "post"
        return None

    def _find_counter(
        self,
        result: _PassResult,
        order: Tuple[str, ...],
        entry_terms: Tuple[Term, ...],
    ) -> Optional[Tuple[int, int, str]]:
        if result.always_exits:
            return None
        for index, name in enumerate(order):
            form = self._counter_form(result, index, name)
            if form is None:
                continue
            entry = self._builder.interval(entry_terms[index])
            floor = 1 if form == "post" else 0
            if entry.lo is None or entry.lo < floor or entry.hi is None:
                continue
            return index, entry.hi, form
        return None

    def _find_induction(self, result: _PassResult) -> Dict[int, int]:
        deltas: Dict[int, int] = {}
        for index, slot in enumerate(result.slots):
            term = result.fallthrough[index]
            if term.kind == "trunc":
                # A masked update (``di <- di + 1`` on a 16-bit machine)
                # still claims its delta; the pass-two recheck insists
                # the mask drops under the claimed interval, so a real
                # wraparound demotes the slot instead of proving wrong.
                term = term.args[1]
            if term.kind != "sum":
                continue
            const, pairs = term.args
            if pairs == ((slot, 1),) and const != 0:
                deltas[index] = const
        return deltas

    def _induction_interval(
        self,
        entry_term: Term,
        delta: int,
        bound: int,
        default: Interval,
    ) -> Optional[Interval]:
        entry = self._builder.interval(entry_term)
        span = delta * (bound + 1)
        if delta > 0:
            if entry.hi is None:
                return None
            lo, hi = entry.lo, entry.hi + span
        else:
            if entry.lo is None:
                return None
            lo, hi = entry.lo + span, entry.hi
        # Clamp into the width range; the pass-two recheck proves the
        # update carries no residual mask under the claimed interval,
        # i.e. that no wraparound escapes the clamp.
        if default.lo is not None:
            lo = default.lo if lo is None else max(lo, default.lo)
        if default.hi is not None:
            hi = default.hi if hi is None else min(hi, default.hi)
        if lo is not None and hi is not None and lo > hi:
            return None
        return Interval(lo, hi)

    def _recheck(
        self,
        candidate: _PassResult,
        order: Tuple[str, ...],
        counter_i: int,
        form: str,
        deltas: Dict[int, int],
        demoted: Set[int],
    ) -> Optional[Set[int]]:
        """Validate a trip-bounded pass; ``None`` = counter broke,
        else the set of induction slots whose claim failed.

        The counter's own pattern must re-verify in the *same* form
        (its claimed interval floor rests on that form's exit
        argument) and its update must now be a bare decrement — the
        claimed interval is only kept when it demonstrably discharged
        the width mask it promised to."""
        if candidate.always_exits:
            return None
        if (
            self._counter_form(candidate, counter_i, order[counter_i])
            != form
        ):
            return None
        if not self._is_decrement(
            candidate.fallthrough[counter_i], candidate.slots[counter_i]
        ):
            return None
        bad: Set[int] = set()
        for index, delta in deltas.items():
            if index == counter_i or index in demoted:
                continue
            term = candidate.fallthrough[index]
            slot_j = candidate.slots[index]
            if not (
                term.kind == "sum"
                and term.args == (delta, ((slot_j, 1),))
            ):
                bad.add(index)
        return bad

    # -- applying a summary --------------------------------------------

    def _apply_summary(
        self,
        result: _PassResult,
        order: Tuple[str, ...],
        entry_terms: Tuple[Term, ...],
        entry_mem: Term,
        touches_mem: bool,
        mem_written: bool,
    ) -> None:
        builder = self._builder
        events = result.events
        if not events:
            # No reachable exit: the concrete loop would spin to the
            # step limit; there is no post-loop state to summarize.
            raise Unsupported("loop has no reachable exit")
        if events[0].path_empty and events[0].terminal:
            # The first exit provably fires on the first iteration:
            # the loop is exactly its body prefix, once.  Substitute
            # entry values for the slots and skip the summary node.
            mapping = dict(zip(result.slots, entry_terms))
            if result.mem_slot is not None:
                mapping[result.mem_slot] = entry_mem
            memo: Dict[Term, Term] = {}
            for index, name in enumerate(order):
                self._set_raw(
                    name, self._subst(events[0].snapshot[index], mapping, memo)
                )
            if mem_written:
                self._mem = self._subst(events[0].mem, mapping, memo)
            return
        rename: Dict[int, int] = {}
        memo_keys: Dict[Term, str] = {}
        keys = ["N:%d:%d:%d" % (len(order), int(touches_mem), int(mem_written))]
        for event in events:
            parts = [term_key(event.cond, rename, memo_keys)]
            parts.extend(
                term_key(term, rename, memo_keys) for term in event.snapshot
            )
            if mem_written:
                parts.append(term_key(event.mem, rename, memo_keys))
            keys.append("E:" + "|".join(parts))
        if result.always_exits:
            keys.append("F:always")
        else:
            parts = [
                term_key(term, rename, memo_keys)
                for term in result.fallthrough
            ]
            if mem_written:
                parts.append(term_key(result.mem_out, rename, memo_keys))
            keys.append("F:" + "|".join(parts))
        digest = digest_keys(keys)
        args = tuple(entry_terms) + ((entry_mem,) if touches_mem else ())
        for index, name in enumerate(order):
            joined: Optional[Interval] = None
            for event in events:
                interval = builder.interval(event.snapshot[index])
                joined = interval if joined is None else joined.join(interval)
            if joined is None:
                joined = Interval.from_bits(self._name_bits(name))
            self._set_raw(name, builder.loopout(digest, index, args, joined))
        if mem_written:
            self._mem = builder.loopout(digest, "mem", args, None)

    def _subst(
        self,
        term: Term,
        mapping: Dict[Term, Term],
        memo: Dict[Term, Term],
    ) -> Term:
        """Rebuild ``term`` with slots replaced (through the smart
        constructors, so the result renormalizes)."""
        direct = mapping.get(term)
        if direct is not None:
            return direct
        hit = memo.get(term)
        if hit is not None:
            return hit
        builder = self._builder
        kind = term.kind
        if kind in ("const", "var", "memvar", "slot"):
            result = term
        elif kind == "sum":
            const, pairs = term.args
            result = builder.const(const)
            for part, coeff in pairs:
                result = builder.add(
                    result,
                    builder.scale(self._subst(part, mapping, memo), coeff),
                )
        elif kind == "mul":
            result = builder.mul(
                self._subst(term.args[0], mapping, memo),
                self._subst(term.args[1], mapping, memo),
            )
        elif kind == "cmp":
            result = builder.cmp(
                term.args[0],
                self._subst(term.args[1], mapping, memo),
                self._subst(term.args[2], mapping, memo),
            )
        elif kind == "ite":
            cond = self._subst(term.args[0], mapping, memo)
            result = builder.ite(
                cond,
                self._subst(term.args[1], mapping, memo),
                self._subst(term.args[2], mapping, memo),
            )
        elif kind == "trunc":
            result = builder.trunc(
                term.args[0], self._subst(term.args[1], mapping, memo)
            )
        elif kind == "store":
            result = builder.store(
                self._subst(term.args[0], mapping, memo),
                self._subst(term.args[1], mapping, memo),
                self._subst(term.args[2], mapping, memo),
            )
        elif kind == "select":
            result = builder.select(
                self._subst(term.args[0], mapping, memo),
                self._subst(term.args[1], mapping, memo),
            )
        elif kind == "loop":
            digest, index = term.args[0], term.args[1]
            rebuilt = tuple(
                self._subst(arg, mapping, memo) for arg in term.args[2:]
            )
            result = builder.loopout(
                digest, index, rebuilt, builder._base.get(term)
            )
        else:  # pragma: no cover - exhaustive over builder kinds
            raise Unsupported(f"cannot substitute term kind {kind!r}")
        memo[term] = result
        return result
