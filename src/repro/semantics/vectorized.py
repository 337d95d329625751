"""Batch (SIMD-style) ISDL execution engine: N trials per array op.

The big-step interpreter (:mod:`repro.semantics.interpreter`) runs one
machine state at a time, so a 240-trial verification pays 240 full
passes over the description.  This module lowers a description *once*
into a lane-masked kernel that executes all N randomized states together:
registers become length-N vectors, ``Mb`` a dense ``(N, width)`` byte
image, and control flow is resolved with active-lane masks instead of
branches:

* ``if`` evaluates its condition as a boolean vector and runs both
  branches under complementary masks;
* ``repeat`` iterates while *any* lane is still active; each lane
  leaves the loop mask when its ``exit_when`` fires (or when it dies);
* per-lane errors (step limit, failed assertions, negative addresses,
  semantic errors) retire the lane and record exactly the exception —
  type *and* message — the interpreter would have raised, so
  differential harnesses can compare failure reports byte-for-byte.

The kernel runs on NumPy int64 arrays.  It guards against int64
overflow with static value-range tracking plus checked arithmetic, and
a batch it cannot run exactly goes to one other path: lane by lane on
the interpreter, the reference semantics, so results are *always*
bit-identical to it.  Three kinds of batch take that path: one that
escalates (:class:`_Escalate`: a value past +/-2**61, or a write past
the memory image), one whose inputs or initial memory the lanes
cannot hold (:func:`_np_eligible`), and every batch on a host without
numpy.

Compiled kernels are cached content-keyed beside the parse memos
(namespace ``vectorized``).  The differential gate lives here too: a
:class:`VectorizedDescription` re-runs a seeded sample of the lanes its
kernel ran on that same interpreter (the modes and the sampling rule
are documented in :mod:`repro.semantics.engine`).  A scalar run is an
N=1 batch, so it is gated like any other.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .. import obs
from ..isdl import ast
from ..isdl.cache import CacheStats, TextMemo
from ..isdl.digest import description_text
from ..isdl.errors import SemanticError
from .engine import GATE_PERIOD, GATE_SEED, EngineMismatchError
from .interpreter import (
    AssertionFailed,
    ExecutionResult,
    Interpreter,
    StepLimitExceeded,
    _LoopExit,
)
from .randomgen import ScenarioBatch, derive_seed
from .values import BYTE_MASK, width_bits
from .vectorized_fuse import FuseBail, match_repeat as _match_fused

try:  # pragma: no cover - exercised through both branches in CI matrices
    import numpy as _np
except Exception:  # pragma: no cover
    _np = None

#: True when numpy is importable: the kernel runs only then.
HAVE_NUMPY = _np is not None

#: Default statement budget, matching :class:`Interpreter`.
DEFAULT_MAX_STEPS = 200_000

#: Values stored into unmasked (``integer``) slots stay within +/-2**61;
#: anything larger escalates to the interpreter.
_GUARD = 1 << 61

#: Checked arithmetic keeps intermediate magnitudes within +/-2**62 so
#: plain int64 ops on two guarded values can never wrap.
_SAFE = 1 << 62

#: Dict memories with keys at or above this run on the interpreter
#: (the dense image would be too wide).
_MEM_KEY_LIMIT = 1 << 16


class _Escalate(Exception):
    """Internal: this batch needs the interpreter's exact integers."""


class _NumpyOps:
    """The kernel's lane ops: int64 arrays with overflow guards that
    escalate."""

    def true_mask(self, n):
        return _np.ones(n, dtype=bool)

    def zeros(self, n):
        return _np.zeros(n, dtype=_np.int64)

    def budget(self, n, max_steps):
        return _np.full(n, max_steps, dtype=_np.int64)

    # Hot-path note: these run thousands of times per batch, so they use
    # ndarray methods / operators directly — the np.any / np.logical_*
    # wrappers cost several µs each at n≈240.  Scalar bools appear when
    # the lowerer folds a comparison of two scalar operands, so every op
    # keeps an isinstance escape hatch (and ``~`` is never applied to a
    # Python bool: ``~True == -2``).

    def any(self, m):
        if isinstance(m, _np.ndarray):
            return bool(m.any())
        return bool(m)

    def andm(self, a, b):
        return a & b

    def orm(self, a, b):
        return a | b

    def notm(self, a):
        if isinstance(a, _np.ndarray):
            return ~a
        return not a

    def andnot(self, a, b):
        if isinstance(b, _np.ndarray):
            return a & ~b
        return self.andm(a, not b)

    def b2i(self, x):
        if isinstance(x, _np.ndarray):
            if x.dtype == bool:
                return x.astype(_np.int64)
            return x
        if isinstance(x, (bool, _np.bool_)):
            return 1 if x else 0
        return x

    def sel(self, m, a, b):
        return _np.where(m, a, b)

    def stor(self, dst, v, m):
        if isinstance(m, _np.ndarray):
            _np.putmask(dst, m, v)
        elif m:
            dst[:] = v

    def dec(self, budget, m, k):
        _np.subtract(budget, k, out=budget, where=m)

    def lanes(self, m):
        return _np.nonzero(m)[0].tolist()

    def at(self, vec, lane):
        if isinstance(vec, _np.ndarray):
            return int(vec[lane])
        return int(vec)

    def freeze(self, v):
        if isinstance(v, _np.ndarray):
            return v.copy()
        return v

    def max_abs(self, x):
        if isinstance(x, _np.ndarray):
            return int(_np.abs(x).max()) if x.size else 0
        return abs(int(x))

    def guard61(self, x):
        if self.max_abs(x) > _GUARD:
            raise _Escalate()
        return x

    def cadd(self, a, b):
        if self.max_abs(a) + self.max_abs(b) > _SAFE:
            raise _Escalate()
        return a + b

    def csub(self, a, b):
        if self.max_abs(a) + self.max_abs(b) > _SAFE:
            raise _Escalate()
        return a - b

    def cmul(self, a, b):
        if self.max_abs(a) * self.max_abs(b) > _SAFE:
            raise _Escalate()
        return a * b


_NP_OPS = _NumpyOps() if HAVE_NUMPY else None


# ---------------------------------------------------------------------------
# batch memories


#: Read-only ``arange(n)`` rows per lane count (never mutate entries).
_NPMEM_ROWS: Dict[int, Any] = {}


class _NpMem:
    """Dense ``(n, width)`` uint8 memory image of a batch's lanes.

    Reads outside the image return 0 (sparse-memory semantics); writes
    outside it escalate to the interpreter, whose memory is a dict.
    Negative addresses never reach the image: the lowered code shrinks
    the mask through the runtime's negative-address checks first.
    """

    def __init__(self, img) -> None:
        self.img = img
        self._w = int(img.shape[1])
        rows = _NPMEM_ROWS.get(img.shape[0])
        if rows is None:
            rows = _NPMEM_ROWS[img.shape[0]] = _np.arange(img.shape[0])
            if len(_NPMEM_ROWS) > 64:
                _NPMEM_ROWS.clear()
                _NPMEM_ROWS[img.shape[0]] = rows
        self._rows = rows

    @classmethod
    def from_batch(cls, batch: ScenarioBatch) -> "_NpMem":
        # Pad so in-arena reads a few bytes past a string never leave
        # the image; drawn bytes are already in [0, 255].
        n = batch.n
        img = _np.zeros((n, batch.width + 64), dtype=_np.uint8)
        img[:, : batch.width] = batch.image
        return cls(img)

    @classmethod
    def from_dict(cls, cells: Mapping[int, int], n: int) -> "_NpMem":
        width = 128
        if cells:
            width = max(width, max(cells) + 65)
        row = _np.zeros(width, dtype=_np.uint8)
        for addr, value in cells.items():
            row[addr] = value
        return cls(_np.repeat(row[None, :], n, axis=0))

    def read(self, m, addr, clip):
        if isinstance(addr, int):
            if addr < 0 or addr >= self._w:
                return 0
            return self.img[:, addr].astype(_np.int64)
        a = addr
        if clip:
            # Retired lanes may hold negative addresses; park them at 0.
            a = _np.where(m, a, 0)
        # After clipping (or when the lowerer proved the address
        # non-negative) every lane index is >= 0, so a single max
        # reduction decides whether the cheap direct gather is safe.
        if int(a.max()) < self._w:
            return self.img[self._rows, a].astype(_np.int64)
        inside = a < self._w
        a2 = _np.where(inside, a, 0)
        vals = self.img[self._rows, a2].astype(_np.int64)
        return _np.where(inside, vals, 0)

    def write(self, m, addr, v):
        sel = self._rows[m]
        if sel.size == 0:
            return
        if isinstance(addr, int):
            if addr >= self._w:
                raise _Escalate()
            vv = v[m] if isinstance(v, _np.ndarray) else v
            self.img[sel, addr] = vv & BYTE_MASK
            return
        a = addr[m]
        if int(a.max()) >= self._w:
            raise _Escalate()
        vv = v[m] if isinstance(v, _np.ndarray) else v
        self.img[sel, a] = vv & BYTE_MASK

    def snapshot_lanes(self, lanes) -> List[Dict[int, int]]:
        """Nonzero cells of each of ``lanes``, in address order."""
        snapshots = []
        for row in self.img[lanes]:
            cells = row.nonzero()[0]
            snapshots.append(dict(zip(cells.tolist(), row[cells].tolist())))
        return snapshots


# ---------------------------------------------------------------------------
# lane runtime


class _Runtime:
    """Per-batch mutable state threaded through the generated kernel.

    ``live`` tracks lanes that have not yet raised; ``errors[i]`` holds
    the (exception type name, message) a retired lane would have raised
    under the interpreter.  Step-budget bookkeeping is *deferred*:
    ticks decrement a per-lane budget, but the over-budget check
    (``settle``) only runs at loop heads, before per-lane error sites,
    before calls, and at the end of the run.  This is sound because the
    budget is monotone and a should-have-stopped lane's extra effects
    are discarded with the lane — but it must happen *before* any other
    error could be recorded, so the reported exception matches the
    interpreter's precedence exactly.
    """

    __slots__ = (
        "M",
        "n",
        "max_steps",
        "mem",
        "budget",
        "live",
        "errors",
        "outputs",
        "pend",
        "_steplimit_msg",
        "_assert_msg",
    )

    def __init__(self, M, n, max_steps, mem, name) -> None:
        self.M = M
        self.n = n
        self.max_steps = max_steps
        self.mem = mem
        self.budget = M.budget(n, max_steps)
        self.live = M.true_mask(n)
        self.errors: List[Optional[Tuple[str, str]]] = [None] * n
        self.outputs: List[Tuple[Any, Any]] = []
        self.pend = None
        self._steplimit_msg = "%s: exceeded %d steps" % (name, max_steps)
        self._assert_msg = "%s: assertion failed" % name

    def dec(self, m, k):
        self.M.dec(self.budget, m, k)

    def kill(self, mask, kind, message):
        self.live = self.M.andnot(self.live, mask)
        errors = self.errors
        for lane in self.M.lanes(mask):
            if errors[lane] is None:
                errors[lane] = (kind, message)

    def settle(self, m):
        M = self.M
        neg = self.budget < 0
        if not M.any(neg):
            return m
        over = M.andm(m, neg)
        if M.any(over):
            self.kill(over, "StepLimitExceeded", self._steplimit_msg)
            # Park the killed lanes' budget at 0 so the fast no-lane-
            # over-budget path above stays taken for later settles;
            # their step count is never reported (they raise).
            M.stor(self.budget, 0, over)
            return M.andnot(m, over)
        return m

    def tick_settle(self, m, k):
        self.M.dec(self.budget, m, k)
        return self.settle(m)

    def fail(self, m, kind, message):
        """Whole-mask semantic failure; returns the (empty) new mask."""
        M = self.M
        if M.any(m):
            self.kill(m, kind, message)
        return M.andnot(m, m)

    def assertfail(self, bad):
        self.kill(bad, "AssertionFailed", self._assert_msg)

    def check_negread(self, m, addr):
        return self._negcheck(m, addr, "memory read at negative address %d")

    def check_negwrite(self, m, addr):
        return self._negcheck(m, addr, "memory write at negative address %d")

    def _negcheck(self, m, addr, template):
        M = self.M
        bad = M.andm(m, addr < 0)
        if not M.any(bad):
            return m
        errors = self.errors
        for lane in M.lanes(bad):
            if errors[lane] is None:
                errors[lane] = ("SemanticError", template % M.at(addr, lane))
        self.live = M.andnot(self.live, bad)
        return M.andnot(m, bad)

    def output(self, v, m):
        if self.M.any(m):
            self.outputs.append((self.M.freeze(v), m))

    def finish(self):
        live = self.settle(self.live)
        if self.pend is not None:
            # exit_when escaped the entry routine: the interpreter
            # leaks the internal _LoopExit signal, so these lanes do too.
            leak = self.M.andm(live, self.pend)
            if self.M.any(leak):
                self.kill(leak, "_LoopExit", "")


# ---------------------------------------------------------------------------
# lowering: ISDL -> lane-masked kernel source


def _mangle(name: str) -> str:
    """A collision-free Python identifier fragment for an ISDL name.

    Dots (and any other non-alphanumeric character, including ``_``
    itself) escape to ``_XX`` hex, so ``a_b`` and ``a.b`` can never
    collide after mangling.
    """
    out = []
    for ch in name:
        if ch.isascii() and ch.isalnum():
            out.append(ch)
        else:
            out.append("_%02x" % ord(ch))
    return "".join(out)


class _Writer:
    """Tiny indented-source emitter."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


#: Vector lowering templates.  Comparison operands are pre-normalized
#: to integers and logical operands to booleans, so a template never
#: does arithmetic on a boolean array (numpy's ``+`` on two of them is
#: ``or``, and its ``-`` raises).
#: Module-level and mutable on purpose: miscompile-detection tests
#: monkeypatch an entry to plant a wrong lowering and prove the
#: differential gate catches it.
_VECTOR_BINOPS: Dict[str, str] = {
    "+": "({left} + {right})",
    "-": "({left} - {right})",
    "*": "({left} * {right})",
    "=": "({left} == {right})",
    "<>": "({left} != {right})",
    "<": "({left} < {right})",
    "<=": "({left} <= {right})",
    ">": "({left} > {right})",
    ">=": "({left} >= {right})",
    "and": "M.andm({left}, {right})",
    "or": "M.orm({left}, {right})",
}

_VECTOR_UNOPS: Dict[str, str] = {
    "not": "M.notm({operand})",
    "-": "(-({operand}))",
}

#: Checked fallbacks used when static bounds could leave +/-2**62.
_VECTOR_CHECKED: Dict[str, str] = {"+": "M.cadd", "-": "M.csub", "*": "M.cmul"}

_CMP_OPS = frozenset(("=", "<>", "<", "<=", ">", ">="))
_BOOL_OPS = frozenset(("and", "or"))


def _collect_calls(expr, out) -> None:
    if isinstance(expr, ast.Call):
        out.add(expr.name)
        for arg in expr.args:
            _collect_calls(arg, out)
    elif isinstance(expr, ast.BinOp):
        _collect_calls(expr.left, out)
        _collect_calls(expr.right, out)
    elif isinstance(expr, ast.UnOp):
        _collect_calls(expr.operand, out)
    elif isinstance(expr, ast.MemRead):
        _collect_calls(expr.addr, out)


def _compute_can_pend(routines: Mapping[str, ast.RoutineDecl]) -> Dict[str, bool]:
    """Which routines can propagate a cross-routine ``_LoopExit``.

    A routine *pends* when an ``exit_when`` fires outside any lexical
    ``repeat`` of that routine, or when a call outside any lexical
    ``repeat`` reaches a routine that pends (a lexical ``repeat``
    catches the signal, ending the propagation).
    """
    exits0: Dict[str, bool] = {}
    calls0: Dict[str, set] = {}

    def scan(stmts, in_repeat, name) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Repeat):
                scan(stmt.body, True, name)
            elif isinstance(stmt, ast.If):
                if not in_repeat:
                    _collect_calls(stmt.cond, calls0[name])
                scan(stmt.then, in_repeat, name)
                scan(stmt.els, in_repeat, name)
            elif in_repeat:
                continue
            elif isinstance(stmt, ast.ExitWhen):
                exits0[name] = True
                _collect_calls(stmt.cond, calls0[name])
            elif isinstance(stmt, ast.Assign):
                _collect_calls(stmt.expr, calls0[name])
                if isinstance(stmt.target, ast.MemRead):
                    _collect_calls(stmt.target.addr, calls0[name])
            elif isinstance(stmt, ast.Output):
                for expr in stmt.exprs:
                    _collect_calls(expr, calls0[name])
            elif isinstance(stmt, ast.Assert):
                _collect_calls(stmt.cond, calls0[name])

    for name, routine in routines.items():
        exits0[name] = False
        calls0[name] = set()
        scan(routine.body, False, name)

    can = dict(exits0)
    changed = True
    while changed:
        changed = False
        for name in routines:
            if can[name]:
                continue
            if any(can.get(callee, False) for callee in calls0[name]):
                can[name] = True
                changed = True
    return can


class _VectorLowerer:
    """Lowers one routine body to lane-masked kernel statements.

    Values are ``(src, kind, lo, hi)``: the expression text, whether it
    evaluates to an integer vector or a boolean mask, and conservative
    static bounds used to decide between plain int64 templates and the
    checked (escalating) arithmetic helpers.  The active-lane mask is
    threaded in SSA style: each statement takes the current mask
    variable and returns the (possibly narrowed) one that follows it.
    """

    def __init__(
        self,
        writer: _Writer,
        routine: ast.RoutineDecl,
        routines: Mapping[str, ast.RoutineDecl],
        register_masks: Mapping[str, Optional[int]],
        can_pend: Mapping[str, bool],
        fused: Optional[List] = None,
    ) -> None:
        self.w = writer
        self.routine = routine
        self.routines = routines
        self.register_masks = register_masks
        self.can_pend = can_pend
        self.fused = fused if fused is not None else []
        self.params = set(routine.params)
        self._tmp = 0
        self._pending: Optional[List] = None  # [maskvar, tick count]
        self._settled = False
        self._repeat_depth = 0

    # -- tick bookkeeping ------------------------------------------------

    def tmp(self, prefix: str = "_t") -> str:
        self._tmp += 1
        return "%s%d" % (prefix, self._tmp)

    def pend_tick(self, mv: str) -> None:
        if self._pending is not None and self._pending[0] == mv:
            self._pending[1] += 1
        else:
            self.flush()
            self._pending = [mv, 1]
        self._settled = False

    def flush(self) -> None:
        if self._pending is not None:
            self.w.emit("_rt.dec(%s, %d)" % (self._pending[0], self._pending[1]))
            self._pending = None

    def ensure_settled(self, mv: str) -> str:
        self.flush()
        if self._settled:
            return mv
        out = self.tmp("_mv")
        self.w.emit("%s = _rt.settle(%s)" % (out, mv))
        self._settled = True
        return out

    def fail(self, mv: str, kind: str, message: str) -> str:
        mv = self.ensure_settled(mv)
        out = self.tmp("_mv")
        self.w.emit("%s = _rt.fail(%s, %r, %r)" % (out, mv, kind, message))
        return out

    # -- value helpers ---------------------------------------------------

    def as_int(self, val):
        src, kind, lo, hi = val
        if kind == "bool":
            return ("M.b2i(%s)" % src, "int", 0, 1)
        return val

    def as_truth(self, val) -> str:
        src, kind, _, _ = val
        if kind == "bool":
            return src
        return "(%s != 0)" % src

    def guarded(self, val):
        """An int value safe to put in an unmasked (integer) slot."""
        src, kind, lo, hi = self.as_int(val)
        if lo < -_GUARD or hi > _GUARD:
            return ("M.guard61(%s)" % src, "int", -_GUARD, _GUARD)
        return (src, kind, lo, hi)

    def cmp_safe(self, val):
        """An int value safe for an int64 comparison."""
        src, kind, lo, hi = self.as_int(val)
        if lo < -_SAFE or hi > _SAFE:
            return ("M.guard61(%s)" % src, "int", -_GUARD, _GUARD)
        return (src, kind, lo, hi)

    def resolvable(self, name: str) -> bool:
        return (
            name in self.params
            or name == self.routine.name
            or name in self.register_masks
        )

    # -- purity scan (mask-join elision for simple if bodies) ------------

    def expr_pure(self, expr) -> bool:
        if isinstance(expr, ast.Const):
            return True
        if isinstance(expr, ast.Var):
            return self.resolvable(expr.name)
        if isinstance(expr, ast.BinOp):
            return (
                expr.op in _VECTOR_BINOPS
                and self.expr_pure(expr.left)
                and self.expr_pure(expr.right)
            )
        if isinstance(expr, ast.UnOp):
            return expr.op in _VECTOR_UNOPS and self.expr_pure(expr.operand)
        return False  # MemRead (settle point), Call, unknown nodes

    def block_pure(self, stmts) -> bool:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                if isinstance(stmt.target, ast.MemRead):
                    return False
                if not self.resolvable(stmt.target.name):
                    return False
                if not self.expr_pure(stmt.expr):
                    return False
            elif isinstance(stmt, ast.If):
                if not self.expr_pure(stmt.cond):
                    return False
                if not self.block_pure(stmt.then) or not self.block_pure(stmt.els):
                    return False
            elif isinstance(stmt, ast.Input):
                if any(not self.resolvable(n) for n in stmt.names):
                    return False
            elif isinstance(stmt, ast.Output):
                if any(not self.expr_pure(e) for e in stmt.exprs):
                    return False
            else:
                return False  # Repeat, ExitWhen, Assert, unknown
        return True

    # -- expressions -----------------------------------------------------

    def expr(self, expr, mv: str):
        if isinstance(expr, ast.Const):
            value = int(expr.value)
            return (repr(value), "int", value, value), mv
        if isinstance(expr, ast.Var):
            return self.load(expr.name, mv)
        if isinstance(expr, ast.MemRead):
            return self.memread(expr, mv)
        if isinstance(expr, ast.Call):
            return self.call(expr, mv)
        if isinstance(expr, ast.BinOp):
            return self.binop(expr, mv)
        if isinstance(expr, ast.UnOp):
            return self.unop(expr, mv)
        mv = self.fail(
            mv, "SemanticError", "cannot evaluate %s" % type(expr).__name__
        )
        return ("0", "int", 0, 0), mv

    def load(self, name: str, mv: str):
        if name in self.params:
            return ("l_" + _mangle(name), "int", -_GUARD, _GUARD), mv
        if name == self.routine.name:
            return ("_retval", "int", -_GUARD, _GUARD), mv
        if name in self.register_masks:
            mask = self.register_masks[name]
            if mask is None:
                return ("r_" + _mangle(name), "int", -_GUARD, _GUARD), mv
            return ("r_" + _mangle(name), "int", 0, mask), mv
        mv = self.fail(
            mv, "SemanticError", "reference to undeclared register %r" % name
        )
        return ("0", "int", 0, 0), mv

    def memread(self, expr, mv: str):
        addr, mv = self.expr(expr.addr, mv)
        asrc, _, alo, _ = self.as_int(addr)
        out = self.tmp("_v")
        if alo < 0:
            mv = self.ensure_settled(mv)
            atemp = self.tmp("_a")
            self.w.emit("%s = %s" % (atemp, asrc))
            nm = self.tmp("_mv")
            self.w.emit("%s = _rt.check_negread(%s, %s)" % (nm, mv, atemp))
            mv = nm
            self.w.emit("%s = _rt.mem.read(%s, %s, True)" % (out, mv, atemp))
        else:
            self.w.emit("%s = _rt.mem.read(%s, %s, False)" % (out, mv, asrc))
        return (out, "int", 0, BYTE_MASK), mv

    def call(self, expr, mv: str):
        routine = self.routines.get(expr.name)
        if routine is None:
            # The interpreter raises *before* evaluating arguments.
            mv = self.fail(
                mv,
                "SemanticError",
                "call to undeclared routine %r" % expr.name,
            )
            return ("0", "int", 0, 0), mv
        args = []
        for arg in expr.args:
            val, mv = self.expr(arg, mv)
            args.append(self.guarded(val)[0])
        if len(expr.args) != len(routine.params):
            # Arity mismatch raises *after* argument evaluation; any
            # effects the arguments had (mask narrowing) already stand.
            mv = self.fail(
                mv,
                "SemanticError",
                "routine %r expects %d arguments, got %d"
                % (routine.name, len(routine.params), len(expr.args)),
            )
            return ("0", "int", 0, 0), mv
        self.flush()
        mv = self.ensure_settled(mv)
        ret = self.tmp("_r")
        pend = self.tmp("_p")
        arglist = (", " + ", ".join(args)) if args else ""
        self.w.emit(
            "%s, %s = f_%s(%s%s)" % (ret, pend, _mangle(expr.name), mv, arglist)
        )
        self._settled = False
        nm = self.tmp("_mv")
        self.w.emit("%s = M.andm(%s, _rt.live)" % (nm, mv, ))
        mv = nm
        if self.can_pend.get(expr.name):
            mv = self._merge_pend(pend, mv)
        bits = width_bits(routine.width)
        if bits is None:
            bounds = (-_GUARD, _GUARD)
        else:
            bounds = (0, (1 << bits) - 1)
        return (ret, "int", bounds[0], bounds[1]), mv

    def _merge_pend(self, pend: str, mv: str) -> str:
        """Route a callee's escaped exit_when to the right catcher."""
        out = self.tmp("_mv")
        self.w.emit("%s = %s" % (out, mv))
        self.w.emit("if %s is not None:" % pend)
        self.w.indent += 1
        if self._repeat_depth == 0:
            # No lexical repeat here either: keep propagating upward.
            self.w.emit(
                "_pend = %s if _pend is None else M.orm(_pend, %s)"
                % (pend, pend)
            )
        self.w.emit("%s = M.andnot(%s, %s)" % (out, mv, pend))
        self.w.indent -= 1
        return out

    def binop(self, expr, mv: str):
        template = _VECTOR_BINOPS.get(expr.op)
        if template is None:
            # Both operands evaluate first, then ValueError (scalar order).
            _, mv = self.expr(expr.left, mv)
            _, mv = self.expr(expr.right, mv)
            mv = self.fail(
                mv, "ValueError", "unknown binary operator %r" % expr.op
            )
            return ("0", "int", 0, 0), mv
        left, mv = self.expr(expr.left, mv)
        right, mv = self.expr(expr.right, mv)
        if expr.op in _BOOL_OPS:
            src = template.format(
                left=self.as_truth(left), right=self.as_truth(right)
            )
            return (src, "bool", 0, 1), mv
        if expr.op in _CMP_OPS:
            lsrc = self.cmp_safe(left)[0]
            rsrc = self.cmp_safe(right)[0]
            return (template.format(left=lsrc, right=rsrc), "bool", 0, 1), mv
        lsrc, _, llo, lhi = self.as_int(left)
        rsrc, _, rlo, rhi = self.as_int(right)
        if expr.op == "+":
            lo, hi = llo + rlo, lhi + rhi
        elif expr.op == "-":
            lo, hi = llo - rhi, lhi - rlo
        else:
            corners = (llo * rlo, llo * rhi, lhi * rlo, lhi * rhi)
            lo, hi = min(corners), max(corners)
        if lo < -_SAFE or hi > _SAFE:
            checked = _VECTOR_CHECKED[expr.op]
            return (
                ("%s(%s, %s)" % (checked, lsrc, rsrc), "int", -_SAFE, _SAFE),
                mv,
            )
        return (template.format(left=lsrc, right=rsrc), "int", lo, hi), mv

    def unop(self, expr, mv: str):
        template = _VECTOR_UNOPS.get(expr.op)
        if template is None:
            _, mv = self.expr(expr.operand, mv)
            mv = self.fail(
                mv, "ValueError", "unknown unary operator %r" % expr.op
            )
            return ("0", "int", 0, 0), mv
        operand, mv = self.expr(expr.operand, mv)
        if expr.op == "not":
            return (template.format(operand=self.as_truth(operand)), "bool", 0, 1), mv
        src, _, lo, hi = self.as_int(operand)
        return (template.format(operand=src), "int", -hi, -lo), mv

    # -- statements ------------------------------------------------------

    def block(self, stmts, mv: str) -> str:
        for stmt in stmts:
            mv = self.stmt(stmt, mv)
        return mv

    def stmt(self, stmt, mv: str) -> str:
        self.pend_tick(mv)
        if isinstance(stmt, ast.Assign):
            return self.assign(stmt, mv)
        if isinstance(stmt, ast.If):
            return self.if_stmt(stmt, mv)
        if isinstance(stmt, ast.Repeat):
            return self.repeat(stmt, mv)
        if isinstance(stmt, ast.ExitWhen):
            return self.exit_when(stmt, mv)
        if isinstance(stmt, ast.Input):
            for name in stmt.names:
                mv = self.store(
                    name, ("_inputs.get(%r, 0)" % name, "int", -_GUARD, _GUARD), mv
                )
            return mv
        if isinstance(stmt, ast.Output):
            for expr in stmt.exprs:
                val, mv = self.expr(expr, mv)
                self.w.emit("_rt.output(%s, %s)" % (self.as_int(val)[0], mv))
            return mv
        if isinstance(stmt, ast.Assert):
            return self.assert_stmt(stmt, mv)
        return self.fail(
            mv, "SemanticError", "cannot execute %s" % type(stmt).__name__
        )

    def assign(self, stmt, mv: str) -> str:
        if isinstance(stmt.target, ast.MemRead):
            # Scalar order: value first, then address.
            val, mv = self.expr(stmt.expr, mv)
            vsrc = self.as_int(val)[0]
            vtemp = self.tmp("_w")
            self.w.emit("%s = %s" % (vtemp, vsrc))
            addr, mv = self.expr(stmt.target.addr, mv)
            asrc, _, alo, _ = self.as_int(addr)
            if alo < 0:
                mv = self.ensure_settled(mv)
                atemp = self.tmp("_a")
                self.w.emit("%s = %s" % (atemp, asrc))
                nm = self.tmp("_mv")
                self.w.emit("%s = _rt.check_negwrite(%s, %s)" % (nm, mv, atemp))
                mv = nm
                asrc = atemp
            self.w.emit("_rt.mem.write(%s, %s, %s)" % (mv, asrc, vtemp))
            return mv
        val, mv = self.expr(stmt.expr, mv)
        return self.store(stmt.target.name, val, mv)

    def store(self, name: str, val, mv: str) -> str:
        # Scalar resolution order: return slot, parameters, registers.
        if name == self.routine.name:
            self.w.emit(
                "_retval = M.sel(%s, %s, _retval)" % (mv, self.guarded(val)[0])
            )
            return mv
        if name in self.params:
            slot = "l_" + _mangle(name)
            self.w.emit(
                "%s = M.sel(%s, %s, %s)" % (slot, mv, self.guarded(val)[0], slot)
            )
            return mv
        if name in self.register_masks:
            mask = self.register_masks[name]
            slot = "r_" + _mangle(name)
            if mask is None:
                self.w.emit(
                    "M.stor(%s, %s, %s)" % (slot, self.guarded(val)[0], mv)
                )
            else:
                self.w.emit(
                    "M.stor(%s, (%s) & %d, %s)"
                    % (slot, self.as_int(val)[0], mask, mv)
                )
            return mv
        # The interpreter evaluates the value (already done) and only
        # then notices the bad name.
        return self.fail(
            mv, "SemanticError", "assignment to undeclared name %r" % name
        )

    def if_stmt(self, stmt, mv: str) -> str:
        cond, mv = self.expr(stmt.cond, mv)
        csrc = self.as_truth(cond)
        self.flush()
        ctemp = self.tmp("_c")
        self.w.emit("%s = %s" % (ctemp, csrc))
        mt = self.tmp("_mt")
        self.w.emit("%s = M.andm(%s, %s)" % (mt, mv, ctemp))
        pure = self.block_pure(stmt.then) and self.block_pure(stmt.els)
        saved = self._settled
        if pure:
            # Pure branches cannot narrow the mask, so the join is the
            # entry mask and the complement/or bookkeeping is elided.
            self._emit_branch(stmt.then, mt)
            self._settled = saved
            if stmt.els:
                me = self.tmp("_me")
                self.w.emit("%s = M.andnot(%s, %s)" % (me, mv, ctemp))
                self._emit_branch(stmt.els, me)
            self._settled = False
            return mv
        me = self.tmp("_me")
        self.w.emit("%s = M.andnot(%s, %s)" % (me, mv, ctemp))
        then_final = self.tmp("_mf")
        self.w.emit("%s = %s" % (then_final, mt))
        self.w.emit("if M.any(%s):" % mt)
        self.w.indent += 1
        final = self.block(stmt.then, mt)
        self.flush()
        self.w.emit("%s = %s" % (then_final, final))
        self.w.indent -= 1
        self._settled = saved
        else_final = me
        if stmt.els:
            else_final = self.tmp("_mf")
            self.w.emit("%s = %s" % (else_final, me))
            self.w.emit("if M.any(%s):" % me)
            self.w.indent += 1
            final = self.block(stmt.els, me)
            self.flush()
            self.w.emit("%s = %s" % (else_final, final))
            self.w.indent -= 1
        self._settled = False
        out = self.tmp("_mv")
        self.w.emit("%s = M.orm(%s, %s)" % (out, then_final, else_final))
        return out

    def _emit_branch(self, stmts, mask: str) -> None:
        self.w.emit("if M.any(%s):" % mask)
        self.w.indent += 1
        before = len(self.w.lines)
        self.block(stmts, mask)
        self.flush()
        if len(self.w.lines) == before:
            self.w.emit("pass")
        self.w.indent -= 1

    def repeat(self, stmt, mv: str) -> str:
        self.flush()
        plan = _match_fused(stmt, self)
        if plan is not None:
            # Regular byte loop: run the whole batch in closed form; the
            # plan raises before mutating anything when the batch needs
            # the generic masked loop, so the fallback starts clean.
            self.fused.append(plan)
            regs = "".join("r_%s, " % _mangle(nm) for nm in plan.reg_names)
            self.w.emit("try:")
            self.w.indent += 1
            self.w.emit(
                "_FUSED[%d].run(_rt, %s, (%s))"
                % (len(self.fused) - 1, mv, regs)
            )
            self.w.indent -= 1
            self.w.emit("except _FuseBail:")
            self.w.indent += 1
            self._emit_generic_repeat(stmt, mv)
            self.w.indent -= 1
        else:
            self._emit_generic_repeat(stmt, mv)
        self._settled = False
        # Lanes that exited (exit_when) are alive again after the loop;
        # lanes that died inside it stay retired.
        out = self.tmp("_mv")
        self.w.emit("%s = M.andm(%s, _rt.live)" % (out, mv))
        return out

    def _emit_generic_repeat(self, stmt, mv: str) -> None:
        loop = self.tmp("_lp")
        self.w.emit("%s = %s" % (loop, mv))
        self.w.emit("while M.any(%s):" % loop)
        self.w.indent += 1
        # One tick per iteration, with the only *eager* step-limit check:
        # it is what guarantees loop termination once every lane is
        # either done, dead, or out of budget.
        self.w.emit("%s = _rt.tick_settle(%s, 1)" % (loop, loop))
        self._settled = True
        self._repeat_depth += 1
        final = self.block(stmt.body, loop)
        self._repeat_depth -= 1
        self.flush()
        self.w.emit("%s = %s" % (loop, final))
        self.w.indent -= 1

    def exit_when(self, stmt, mv: str) -> str:
        cond, mv = self.expr(stmt.cond, mv)
        csrc = self.as_truth(cond)
        self.flush()
        if self._repeat_depth > 0:
            out = self.tmp("_mv")
            self.w.emit("%s = M.andnot(%s, %s)" % (out, mv, csrc))
            return out
        # exit_when outside any lexical repeat: the interpreter raises
        # _LoopExit through the call stack; here the lanes pend until a
        # caller's repeat (or the entry) picks them up.
        fired = self.tmp("_p")
        self.w.emit("%s = M.andm(%s, %s)" % (fired, mv, csrc))
        self.w.emit("if M.any(%s):" % fired)
        self.w.indent += 1
        self.w.emit(
            "_pend = %s if _pend is None else M.orm(_pend, %s)" % (fired, fired)
        )
        self.w.indent -= 1
        out = self.tmp("_mv")
        self.w.emit("%s = M.andnot(%s, %s)" % (out, mv, fired))
        return out

    def assert_stmt(self, stmt, mv: str) -> str:
        mv = self.ensure_settled(mv)
        cond, mv = self.expr(stmt.cond, mv)
        csrc = self.as_truth(cond)
        ctemp = self.tmp("_c")
        self.w.emit("%s = %s" % (ctemp, csrc))
        bad = self.tmp("_b")
        self.w.emit("%s = M.andnot(%s, %s)" % (bad, mv, ctemp))
        self.w.emit("if M.any(%s):" % bad)
        self.w.indent += 1
        self.w.emit("_rt.assertfail(%s)" % bad)
        self.w.indent -= 1
        out = self.tmp("_mv")
        self.w.emit("%s = M.andnot(%s, %s)" % (out, mv, bad))
        return out


# ---------------------------------------------------------------------------
# program assembly


@dataclass
class VectorProgram:
    """One description's generated batch kernel plus its source."""

    description_name: str
    source: str
    #: ``fn(M, runtime, input_vectors) -> {register: vector}``
    fn: Callable[..., Dict[str, Any]]


def _emit_vector_routine(
    writer: _Writer,
    routine: ast.RoutineDecl,
    routines: Mapping[str, ast.RoutineDecl],
    register_masks: Mapping[str, Optional[int]],
    can_pend: Mapping[str, bool],
    fused: Optional[List] = None,
) -> None:
    params = "".join(", l_" + _mangle(p) for p in routine.params)
    writer.emit("def f_%s(_m0%s):" % (_mangle(routine.name), params))
    writer.indent += 1
    # Dead-call cutoff: without it a recursion under an all-retired mask
    # would never consume budget and never terminate.
    writer.emit("if not M.any(_m0):")
    writer.indent += 1
    writer.emit("return 0, None")
    writer.indent -= 1
    writer.emit("_retval = 0")
    pends = can_pend.get(routine.name, False)
    if pends:
        writer.emit("_pend = None")
    lowerer = _VectorLowerer(
        writer, routine, routines, register_masks, can_pend, fused
    )
    lowerer.block(routine.body, "_m0")
    lowerer.flush()
    bits = width_bits(routine.width)
    ret = "_retval" if bits is None else "(_retval) & %d" % ((1 << bits) - 1)
    writer.emit("return %s, %s" % (ret, "_pend" if pends else "None"))
    writer.indent -= 1


def _lower_vectorized(description: ast.Description) -> VectorProgram:
    """Generate, compile, and instantiate the batch kernel."""
    routines: Dict[str, ast.RoutineDecl] = {}
    for routine in description.routines():
        if routine.name in routines:
            raise SemanticError("duplicate routine %r" % routine.name)
        routines[routine.name] = routine
    entry = description.entry_routine()
    fused: List[Any] = []

    register_masks: Dict[str, Optional[int]] = {}
    register_order: List[str] = []
    duplicate_register: Optional[str] = None
    for decl in description.registers():
        if decl.name in register_masks and duplicate_register is None:
            duplicate_register = decl.name
            continue
        bits = width_bits(decl.width)
        register_masks[decl.name] = None if bits is None else (1 << bits) - 1
        register_order.append(decl.name)

    can_pend = _compute_can_pend(routines)

    w = _Writer()
    w.emit("def __run_batch__(M, _rt, _inputs):")
    w.indent += 1
    if duplicate_register is not None:
        # Like the interpreter, duplicate declarations fail at run
        # time (when the register file is built), for every lane.
        w.emit(
            "_rt.fail(_rt.live, 'SemanticError', %r)"
            % ("duplicate register declaration %r" % duplicate_register)
        )
        w.emit("return {}")
        w.indent -= 1
    else:
        w.emit("_n = _rt.n")
        for name in register_order:
            w.emit("r_%s = M.zeros(_n)" % _mangle(name))
        for routine in routines.values():
            _emit_vector_routine(
                w, routine, routines, register_masks, can_pend, fused
            )
        if entry.params:
            w.emit(
                "_rt.fail(_rt.live, 'SemanticError', %r)"
                % (
                    "routine %r expects %d arguments, got 0"
                    % (entry.name, len(entry.params))
                )
            )
        else:
            w.emit("_r, _p = f_%s(_rt.live)" % _mangle(entry.name))
            w.emit("_rt.pend = _p")
        w.emit("_rt.finish()")
        registers_src = ", ".join(
            "%r: r_%s" % (name, _mangle(name)) for name in register_order
        )
        w.emit("return {%s}" % registers_src)
        w.indent -= 1

    source = w.source()
    code = compile(source, "<isdl-vec:%s>" % description.name, "exec")
    namespace: Dict[str, Any] = {"_FUSED": fused, "_FuseBail": FuseBail}
    exec(code, namespace)  # noqa: S102 - our own generated source
    return VectorProgram(
        description_name=description.name,
        source=source,
        fn=namespace["__run_batch__"],
    )


# ---------------------------------------------------------------------------
# content-keyed kernel cache


class _VectorMemo:
    """Content-keyed memo from descriptions to batch kernels.

    Keys are SHA-256 digests of the pretty-printed description (the
    scheme of the parse memos in :mod:`repro.isdl.cache`, under the
    ``vectorized`` namespace; the text comes from the per-object memo
    in :mod:`repro.isdl.digest`), so structurally identical descriptions
    share one lowering per process.
    """

    def __init__(self) -> None:
        self._entries: Dict[bytes, VectorProgram] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get(self, description: ast.Description) -> VectorProgram:
        key = TextMemo.key_for("vectorized", description_text(description))
        with self._lock:
            try:
                program = self._entries[key]
            except KeyError:
                pass
            else:
                self.stats.hits += 1
                obs.inc("repro_compile_cache_hits_total")
                return program
        obs.inc("repro_compile_cache_misses_total")
        with obs.span("compile"):
            program = _lower_vectorized(description)
        with self._lock:
            self.stats.misses += 1
            return self._entries.setdefault(key, program)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)


_vector_memo = _VectorMemo()


def compile_vectorized(description: ast.Description) -> VectorProgram:
    """The (cached) batch kernel for ``description``."""
    return _vector_memo.get(description)


def vector_cache_stats() -> Dict[str, int]:
    """Hit/miss/entry counts for the vectorized kernel cache."""
    return {
        "hits": _vector_memo.stats.hits,
        "misses": _vector_memo.stats.misses,
        "entries": len(_vector_memo),
    }


def clear_vector_cache() -> None:
    """Drop every cached kernel (used by tests and benchmarks)."""
    _vector_memo.clear()


# ---------------------------------------------------------------------------
# batch results


_EXC_TYPES = {
    "StepLimitExceeded": StepLimitExceeded,
    "AssertionFailed": AssertionFailed,
    "SemanticError": SemanticError,
    "ValueError": ValueError,
    "_LoopExit": _LoopExit,
}


def _rebuild_error(kind: str, message: str) -> Exception:
    if kind == "_LoopExit":
        return _LoopExit()
    return _EXC_TYPES[kind](message)


def _index(lanes):
    """``lanes`` as a fancy index when numpy is present."""
    return _np.asarray(lanes, dtype=_np.intp) if HAVE_NUMPY else list(lanes)


def _gather(vec, lanes) -> list:
    """A vector's, mask's or input column's scalar at each of ``lanes``
    (a scalar broadcasts); masks come back truthy or falsy."""
    if HAVE_NUMPY and isinstance(vec, _np.ndarray):
        return vec[lanes].tolist()
    if isinstance(vec, (list, tuple)):
        return [int(vec[lane]) for lane in lanes]
    return [int(vec)] * len(lanes)


def lanes_inputs(inputs: Mapping[str, Any], lanes) -> List[Dict[str, int]]:
    """Each of ``lanes``' scalar inputs, read from batch input columns."""
    index = _index(lanes)
    columns = [(name, _gather(value, index)) for name, value in inputs.items()]
    return [{name: column[j] for name, column in columns} for j in range(len(index))]


@dataclass
class BatchResult:
    """Everything observable about one batch run, lane-addressable.

    ``lane_outcomes`` normalizes lanes to the same shape the gate's
    ``_observe`` uses — ``("result", ExecutionResult)`` or
    ``("raise", type name, message, exception)`` — so differential
    comparison is a tuple equality per lane.  It reads every requested
    lane with one gather per register, output, step and memory vector.

    A ``numpy`` result holds the kernel's arrays and memory image; an
    ``interp`` result (a batch run lane by lane on the interpreter)
    holds list columns and one final memory per lane.
    """

    n: int
    #: ``numpy`` or ``interp``
    backend: str
    max_steps: int
    errors: List[Optional[Tuple[str, str]]]
    registers: Dict[str, Any]
    steps: Any
    #: ``(values, mask)`` per ``output`` the run made
    _outputs: List[Tuple[Any, Any]]
    #: an :class:`_NpMem`, or each lane's final memory
    _mem: Any

    def ok(self, lane: int) -> bool:
        return self.errors[lane] is None

    def _lanes_memory(self, index) -> List[Dict[int, int]]:
        """Each indexed lane's nonzero final cells."""
        if isinstance(self._mem, list):
            return [self._mem[lane] for lane in index]
        return self._mem.snapshot_lanes(index)

    def _lanes_outputs(self, index) -> List[Tuple[int, ...]]:
        """Each indexed lane's outputs, in emission order."""
        columns = [(_gather(v, index), _gather(m, index)) for v, m in self._outputs]
        return [tuple(v[j] for v, m in columns if m[j]) for j in range(len(index))]

    def lane_outcomes(self, lanes: Sequence[int]) -> list:
        """The outcome of each of ``lanes``, in order."""
        index = _index(lanes)
        outputs = self._lanes_outputs(index)
        memories = self._lanes_memory(index)
        steps = _gather(self.steps, index)
        regs = [(name, _gather(vec, index)) for name, vec in self.registers.items()]
        outcomes = []
        for j, lane in enumerate(lanes):
            error = self.errors[lane]
            if error is None:
                values = {name: column[j] for name, column in regs}
                result = ExecutionResult(outputs[j], memories[j], values, steps[j])
                outcomes.append(("result", result))
            else:
                outcomes.append(("raise", error[0], error[1], _rebuild_error(*error)))
        return outcomes

    def lane_outcome(self, lane: int):
        return self.lane_outcomes([lane])[0]

    def lane_raise_or_result(self, lane: int) -> ExecutionResult:
        outcome = self.lane_outcome(lane)
        if outcome[0] == "raise":
            raise outcome[3]
        return outcome[1]


def _np_bool(value, n: int):
    if isinstance(value, _np.ndarray):
        return value
    return _np.full(n, bool(value))


def _np_vec(value, n: int):
    if isinstance(value, _np.ndarray):
        return value
    return _np.full(n, int(value), dtype=_np.int64)


def _lanes_outputs_differ(a: "BatchResult", b: "BatchResult"):
    if a.backend == b.backend == "numpy" and len(a._outputs) == len(b._outputs):
        diff = _np.zeros(a.n, dtype=bool)
        for (va, ma), (vb, mb) in zip(a._outputs, b._outputs):
            ma_, mb_ = _np_bool(ma, a.n), _np_bool(mb, b.n)
            va_, vb_ = _np_vec(va, a.n), _np_vec(vb, b.n)
            diff |= (ma_ != mb_) | (ma_ & (va_ != vb_))
        return diff
    index = _index(range(a.n))
    return [
        x != y for x, y in zip(a._lanes_outputs(index), b._lanes_outputs(index))
    ]


def _lanes_memory_differ(a: "BatchResult", b: "BatchResult"):
    mem_a, mem_b = a._mem, b._mem
    if isinstance(mem_a, _NpMem) and isinstance(mem_b, _NpMem):
        wa, wb = mem_a.img.shape[1], mem_b.img.shape[1]
        if wa == wb and mem_a.img.tobytes() == mem_b.img.tobytes():
            # Agreement is the overwhelmingly common case; a memcmp
            # beats materializing an (n, width) boolean difference.
            return _np.zeros(a.n, dtype=bool)
        w = min(wa, wb)
        diff = (mem_a.img[:, :w] != mem_b.img[:, :w]).any(axis=1)
        # The wider image's extra columns must be all-zero to agree
        # (zero cells are absent from snapshots on both sides).
        if wa > wb:
            diff |= mem_a.img[:, w:].any(axis=1)
        elif wb > wa:
            diff |= mem_b.img[:, w:].any(axis=1)
        return diff
    index = _index(range(a.n))
    return [x != y for x, y in zip(a._lanes_memory(index), b._lanes_memory(index))]


def lanes_disagree(a: "BatchResult", b: "BatchResult"):
    """Per-lane booleans: do two batch runs observably disagree?

    Compares live outputs and final memories columnar (a handful of
    array ops when both ran on numpy lanes) — the wide equivalent of the
    scalar verifier's ``outputs``/``memory`` checks.  Errors are *not*
    compared here; callers scan ``errors`` directly because error
    lanes carry scalar-engine exception payloads, not results.
    """
    if a.n != b.n:
        raise ValueError(
            "batch width mismatch: %d vs %d lanes" % (a.n, b.n)
        )
    out = _lanes_outputs_differ(a, b)
    mem = _lanes_memory_differ(a, b)
    if HAVE_NUMPY and isinstance(out, _np.ndarray) and isinstance(mem, _np.ndarray):
        return out | mem
    return [bool(out[lane]) or bool(mem[lane]) for lane in range(a.n)]


# ---------------------------------------------------------------------------
# execution wrapper


def _np_eligible(inputs: Mapping[str, Any], memory) -> bool:
    if not HAVE_NUMPY:
        return False
    if isinstance(memory, ScenarioBatch):
        if memory.image is None:
            return False
    elif memory:
        for addr, value in memory.items():
            if addr < 0 or addr >= _MEM_KEY_LIMIT:
                return False
            if value < 0 or value > BYTE_MASK:
                return False
    for value in inputs.values():
        if isinstance(value, int):
            if abs(value) > _GUARD:
                return False
        elif not isinstance(value, _np.ndarray):
            for item in value:
                if abs(int(item)) > _GUARD:
                    return False
    return True


#: An interpreted error lane's placeholder result (never reported).
_NO_RESULT = ExecutionResult((), {}, {}, 0)


def _observe(executor, inputs, memory):
    """Run an executor and normalize the observable outcome.

    Semantic exceptions are part of the observable behaviour (a
    description that exceeds its step budget must do so under both
    engines, with the same message), so they are captured and compared
    rather than propagated.
    """
    try:
        return ("result", executor.run(inputs, memory))
    except (SemanticError, ValueError) as error:
        return ("raise", type(error).__name__, str(error), error)


@lru_cache(maxsize=1 << 14)
def _sampled_positions(name: str, first: int, count: int) -> Tuple[int, ...]:
    """Positions ``p < count`` whose gate index ``first + p`` is sampled.

    Index 0 is always sampled; any other index when its seeded draw
    lands on the period.  Memoized, so the SHA-256 draws of a window
    shape are paid once, not once per lane of every batch.
    """
    return tuple(
        position
        for position in range(count)
        if first + position == 0
        or derive_seed(GATE_SEED, "gate", name, first + position) % GATE_PERIOD
        == 0
    )


class VectorizedDescription:
    """Executes one ISDL description on N machine states at once.

    ``run`` is a drop-in scalar interface (an N=1 batch) with the same
    contract as :class:`Interpreter` — same results, same exceptions,
    same messages, same ``steps``.
    ``run_batch`` is the wide interface the verification pipeline uses.

    ``gate`` (``always``, ``sampled`` or ``off``) sets how often a lane
    the kernel ran is cross-checked against the interpreter.  A lane's
    gate index is its position in its window, counted from the
    executor's next trial: a :class:`ScenarioBatch` holding several
    windows (the batch runner's 64-trial shards) numbers each of them
    from there, any other batch is one window, and scalar runs count on
    one at a time.  A window of a stacked batch therefore gets the
    indices a fresh executor running it alone would give it, and every
    window checks its own first lane.  A trial is checked when the
    gate is ``always``, or — under ``sampled`` — when its index is 0 or
    its seeded draw lands on the sampling period.  The draw derives
    from the description name and the index, so which trials are
    checked is deterministic across processes, independent of sharding
    order, and identical whether trials arrive one at a time or as a
    batch.
    """

    def __init__(
        self,
        description: ast.Description,
        max_steps: int = DEFAULT_MAX_STEPS,
        gate: str = "off",
    ):
        self._description = description
        self._max_steps = max_steps
        self._gate = gate
        self._trial = 0
        self._program = compile_vectorized(description)
        #: built on the first gate check or interpreted batch
        self._interpreter: Optional[Interpreter] = None

    @property
    def description(self) -> ast.Description:
        return self._description

    @property
    def source(self) -> str:
        """The generated kernel source (for debugging and tests)."""
        return self._program.source

    def run(
        self,
        inputs: Mapping[str, int],
        memory: Optional[Mapping[int, int]] = None,
    ) -> ExecutionResult:
        batch = self.run_batch({k: (v,) for k, v in inputs.items()}, memory, n=1)
        return batch.lane_raise_or_result(0)

    def run_batch(
        self,
        inputs: Mapping[str, Any],
        memory: Union[None, Mapping[int, int], ScenarioBatch] = None,
        n: Optional[int] = None,
    ) -> BatchResult:
        """Run ``n`` lanes; lane ``i`` sees ``inputs[name][i]`` (scalars
        broadcast) and its own copy of ``memory``.

        With a :class:`ScenarioBatch` as ``memory``, lane ``i`` gets the
        batch's lane-``i`` arena — the zero-copy path used by
        ``verify_binding``.  Under a gate, the sampled lanes of a batch
        the kernel ran are re-run on the interpreter before it returns.
        """
        if n is None:
            if isinstance(memory, ScenarioBatch):
                n = memory.n
            else:
                n = 1
                for value in inputs.values():
                    if not isinstance(value, int):
                        n = len(value)
                        break
        first = self._trial
        self._trial += n
        if _np_eligible(inputs, memory):
            try:
                result = self._run_lanes(inputs, memory, n)
            except _Escalate:
                pass
            else:
                if self._gate != "off":
                    self._check(result, inputs, memory, first)
                return result
        return self._interpret(inputs, memory, n)

    def _reference(self) -> Interpreter:
        """The interpreter, built on first use."""
        if self._interpreter is None:
            self._interpreter = Interpreter(
                self._description, max_steps=self._max_steps
            )
        return self._interpreter

    def _check(self, result: BatchResult, inputs, memory, first: int) -> None:
        """Re-run the gated lanes of each window on the interpreter.

        The gated lanes of every window are collected first and read in
        one columnar step — their outcomes via
        :meth:`BatchResult.lane_outcomes`, which has the shape
        ``_observe`` produces, their inputs and initial memories beside
        them — then compared lane by lane, window by window.
        """
        windows = (
            memory.windows if isinstance(memory, ScenarioBatch) else ()
        ) or (result.n,)
        lanes, indices, start = [], [], 0
        for count in windows:
            positions = (
                range(count)
                if self._gate == "always"
                else _sampled_positions(self._description.name, first, count)
            )
            for position in positions:
                lanes.append(start + position)
                indices.append(first + position)
            start += count
        if isinstance(memory, ScenarioBatch):
            memories = memory.lanes_memory(lanes)
        else:
            memories = [memory] * len(lanes)
        for got, lane_inputs, lane_memory, index in zip(
            result.lane_outcomes(lanes), lanes_inputs(inputs, lanes), memories, indices
        ):
            self._compare(got, lane_inputs, lane_memory, index)

    def _compare(self, got, inputs, memory, index: int) -> None:
        """Cross-check one lane's outcome against the interpreter."""
        obs.inc("repro_engine_gate_checks_total")
        want = _observe(self._reference(), inputs, memory)
        if got[:3] != want[:3]:
            raise EngineMismatchError(
                "vectorized engine disagrees with the interpreter on %r "
                "(trial %d, inputs %r): vectorized %r vs interpreted %r"
                % (self._description.name, index, dict(inputs), got[:3], want[:3])
            )

    def _run_lanes(self, inputs, memory, n: int) -> BatchResult:
        """Run the kernel on numpy lanes; raises :class:`_Escalate`."""
        vec_inputs = {
            name: (
                _np.full(n, value, dtype=_np.int64)
                if isinstance(value, int)
                else _np.asarray(value, dtype=_np.int64)
            )
            for name, value in inputs.items()
        }
        if isinstance(memory, ScenarioBatch):
            mem = _NpMem.from_batch(memory)
        else:
            mem = _NpMem.from_dict(memory or {}, n)
        runtime = _Runtime(_NP_OPS, n, self._max_steps, mem, self._description.name)
        registers = self._program.fn(_NP_OPS, runtime, vec_inputs)
        return BatchResult(
            n=n,
            backend="numpy",
            max_steps=self._max_steps,
            errors=runtime.errors,
            registers=registers,
            steps=self._max_steps - runtime.budget,
            _outputs=runtime.outputs,
            _mem=runtime.mem,
        )

    def _interpret(self, inputs, memory, n: int) -> BatchResult:
        """Run the batch lane by lane on the interpreter.

        Every batch the numpy lanes cannot run comes here, so it is
        exact by construction: the interpreter is the reference
        semantics.  An error lane records the exception the
        interpreter raised, as a kernel lane records the one it would
        have raised.
        """
        obs.inc("repro_vector_fallback_total")
        interpreter = self._reference()
        if isinstance(memory, ScenarioBatch):
            memories = memory.lanes_memory(range(n))
        else:
            memories = [memory] * n
        errors: List[Optional[Tuple[str, str]]] = []
        results: List[ExecutionResult] = []
        for lane_inputs, lane_memory in zip(lanes_inputs(inputs, range(n)), memories):
            try:
                results.append(interpreter.run(lane_inputs, lane_memory))
                errors.append(None)
            except (SemanticError, ValueError, _LoopExit) as error:
                results.append(_NO_RESULT)
                errors.append((type(error).__name__, str(error)))
        width = max((len(result.outputs) for result in results), default=0)
        names = next((r.registers for r, e in zip(results, errors) if e is None), {})
        return BatchResult(
            n=n,
            backend="interp",
            max_steps=self._max_steps,
            errors=errors,
            registers={
                name: [result.registers.get(name, 0) for result in results]
                for name in names
            },
            steps=[result.steps for result in results],
            _outputs=[
                (
                    [r.outputs[k] if k < len(r.outputs) else 0 for r in results],
                    [k < len(r.outputs) for r in results],
                )
                for k in range(width)
            ],
            _mem=[result.memory for result in results],
        )


def run_vectorized(
    description: ast.Description,
    inputs: Mapping[str, int],
    memory: Optional[Mapping[int, int]] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ExecutionResult:
    """One-shot scalar convenience wrapper (an N=1 batch)."""
    return VectorizedDescription(description, max_steps=max_steps).run(
        inputs, memory
    )
