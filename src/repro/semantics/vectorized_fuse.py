"""Closed-form execution of regular ISDL byte loops for the batch engine.

The generic vectorized lowering executes ``repeat`` bodies one masked
iteration at a time, which costs a few microseconds of numpy dispatch
per statement per iteration.  Every string-primitive loop in the
catalog (moves, scans, compares, fills, translates) belongs to a much
smaller family — ±1 induction registers, at most one byte-write
stream, exits that either count a register down to zero or test a byte
compare — and for that family the whole loop collapses into a handful
of closed forms:

* a counter exit's firing iteration is known from the register's entry
  value alone (modularly, for width-masked registers);
* every address stream is affine in the iteration number, so all the
  bytes a compare will ever look at can be fetched as one ``(lanes,
  iterations)`` gather, and the first iteration where a condition
  holds is an ``argmax`` over that matrix;
* overlapping copy loops (``dst`` inside the source window) repeat the
  first ``delta`` source bytes, so the gather is simply re-indexed
  ``t mod delta`` — the classic memmove forward-fill identity;
* step counts are an exact linear function of the firing iteration, so
  step-limit deaths and the surviving lanes' budgets match the scalar
  engines without executing anything.

``match_repeat`` recognizes the family at lowering time and builds a
:class:`FusedPlan`; the generated kernel runs the plan inside ``try``
and falls back to the generic masked loop when the plan raises
:class:`FuseBail` — which it always does *before* mutating any state,
so the fallback path starts from an untouched batch.  Lanes whose
reads would leave the memory image (or whose address registers would
wrap) are only tolerated when the step budget provably kills them
first; anything else bails.  Correctness is anchored by the
differential gate and the engine-equivalence suites, which compare
fused results bit-for-bit against the interpreter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..isdl import ast

try:  # pragma: no cover - exercised via the numpy backend
    import numpy as _np

    HAVE_NUMPY = True
except Exception:  # pragma: no cover - numpy-less fallback environments
    _np = None
    HAVE_NUMPY = False

#: Sentinel "never fires" iteration count; far above any budget bound.
_INF = 1 << 60

#: Hard ceiling on the materialized iteration axis.  ``lanes × cap``
#: int64 matrices stay well under 10 MB at verification batch sizes.
_CAP = 4096

#: Read-only index-vector caches: batch runs reuse the same handful of
#: lane counts and iteration horizons, and ``arange`` allocations were
#: a measurable slice of the per-run overhead.  Never mutate a cached
#: array in place.
_ROWFLAT: Dict[Tuple[int, int], "object"] = {}
_T1D: Dict[int, "object"] = {}
_ROWS: Dict[int, "object"] = {}


def _rowflat_for(n: int, width: int):
    key = (n, width)
    hit = _ROWFLAT.get(key)
    if hit is None:
        hit = _ROWFLAT[key] = (
            _np.arange(n, dtype=_np.int64) * width
        )[:, None]
        if len(_ROWFLAT) > 64:
            _ROWFLAT.clear()
            _ROWFLAT[key] = hit
    return hit


def _t1d_for(T: int):
    hit = _T1D.get(T)
    if hit is None:
        hit = _T1D[T] = _np.arange(T, dtype=_np.int64)[None, :]
        if len(_T1D) > 64:
            _T1D.clear()
            _T1D[T] = hit
    return hit


def _rows_for(n: int):
    hit = _ROWS.get(n)
    if hit is None:
        hit = _ROWS[n] = _np.arange(n)
        if len(_ROWS) > 64:
            _ROWS.clear()
            _ROWS[n] = hit
    return hit


class FuseBail(Exception):
    """This batch needs the generic loop; raised before any mutation."""


class _NoMatch(Exception):
    """Match-time: the repeat body is outside the fused family."""


# ---------------------------------------------------------------------------
# matching


class _Matcher:
    """Normalizes one ``repeat`` body into a :class:`FusedPlan`.

    Two passes: the first collects per-register increment totals (a
    stream's slope needs the register's full per-iteration delta before
    its first use), the second resolves operands and address streams
    with running update counts so a register read *between* two of its
    own updates gets the right within-iteration offset.
    """

    def __init__(self, lowerer) -> None:
        self.low = lowerer
        self.reg_names: List[str] = []
        self.reg_index: Dict[str, int] = {}
        self.widths: List[Optional[int]] = []
        self.inc_events: Dict[str, List[Tuple[int, int]]] = {}
        self.assigned_pos: Dict[str, int] = {}
        self.assigned_matrix: Dict[str, int] = {}
        self.upd: Dict[str, int] = {}
        self.streams: List[Tuple[Tuple[int, ...], int, int]] = []
        self.stream_key: Dict[Tuple, int] = {}
        self.read_pos: Dict[int, int] = {}
        self.matrices: List[Tuple] = []
        self.exits: List[Tuple[int, int, Tuple]] = []
        self.write: Optional[Tuple[int, int, Tuple]] = None
        self.tabs: List[Tuple[int, int]] = []
        self.ticks: List[int] = []

    # -- registers -------------------------------------------------------

    def reg(self, name: str) -> int:
        low = self.low
        if name in low.params or name == low.routine.name:
            raise _NoMatch()
        if name not in low.register_masks:
            raise _NoMatch()
        if name not in self.reg_index:
            self.reg_index[name] = len(self.reg_names)
            self.reg_names.append(name)
            self.widths.append(low.register_masks[name])
        return self.reg_index[name]

    def delta(self, name: str) -> int:
        return sum(d for d, _ in self.inc_events.get(name, ()))

    # -- shape helpers ---------------------------------------------------

    @staticmethod
    def _inc_form(stmt) -> Optional[Tuple[str, int]]:
        """``r <- r + 1`` / ``r <- r - 1`` => ``(r, ±1)``."""
        if not isinstance(stmt.target, ast.Var):
            return None
        expr = stmt.expr
        if (
            isinstance(expr, ast.BinOp)
            and expr.op in ("+", "-")
            and isinstance(expr.left, ast.Var)
            and expr.left.name == stmt.target.name
            and isinstance(expr.right, ast.Const)
            and expr.right.value == 1
        ):
            return stmt.target.name, (1 if expr.op == "+" else -1)
        return None

    def _callee(self, name: str) -> ast.RoutineDecl:
        low = self.low
        callee = low.routines.get(name)
        if callee is None or callee.params or callee.name == low.routine.name:
            raise _NoMatch()
        if low.can_pend.get(name, False):
            raise _NoMatch()
        from .values import width_bits

        bits = width_bits(callee.width)
        if bits is not None and (1 << bits) - 1 < 255:
            raise _NoMatch()
        return callee

    # -- pass 1: collect increments --------------------------------------

    def _scan_calls(self, expr, pos: int) -> None:
        if isinstance(expr, ast.Call):
            callee = self._callee(expr.name)
            loads = 0
            for cs in callee.body:
                if not isinstance(cs, ast.Assign):
                    raise _NoMatch()
                inc = self._inc_form(cs)
                if inc is not None:
                    self.reg(inc[0])
                    self.inc_events.setdefault(inc[0], []).append((inc[1], pos))
                    continue
                if (
                    isinstance(cs.target, ast.Var)
                    and cs.target.name == callee.name
                    and isinstance(cs.expr, ast.MemRead)
                    and isinstance(cs.expr.addr, ast.Var)
                ):
                    loads += 1
                    continue
                raise _NoMatch()
            if loads != 1:
                raise _NoMatch()
            return
        if isinstance(expr, ast.BinOp):
            self._scan_calls(expr.left, pos)
            self._scan_calls(expr.right, pos)
        elif isinstance(expr, ast.UnOp):
            self._scan_calls(expr.operand, pos)
        elif isinstance(expr, ast.MemRead):
            self._scan_calls(expr.addr, pos)

    def _pass1(self, body) -> None:
        for pos, stmt in enumerate(body):
            if isinstance(stmt, ast.ExitWhen):
                self._scan_calls(stmt.cond, pos)
                continue
            if not isinstance(stmt, ast.Assign):
                raise _NoMatch()
            self._scan_calls(stmt.expr, pos)
            if isinstance(stmt.target, ast.MemRead):
                self._scan_calls(stmt.target.addr, pos)
                if self.write is not None:
                    raise _NoMatch()
                self.write = (pos, -1, ())  # placeholder; pass 2 fills it
                continue
            if not isinstance(stmt.target, ast.Var):
                raise _NoMatch()
            inc = self._inc_form(stmt)
            if inc is not None:
                self.reg(inc[0])
                self.inc_events.setdefault(inc[0], []).append((inc[1], pos))
                continue
            name = stmt.target.name
            self.reg(name)
            if name in self.assigned_pos:
                raise _NoMatch()
            self.assigned_pos[name] = pos
        for name in self.assigned_pos:
            if name in self.inc_events:
                raise _NoMatch()
        self.write = None  # rebuilt for real in pass 2

    # -- pass 2: streams, operands, matrices, exits ----------------------

    def stream(self, addr, pos: int) -> Tuple:
        """An address expression -> ``("stream", i)`` or ``("tab", b, i)``."""
        terms: List = []

        def flatten(e) -> None:
            if isinstance(e, ast.BinOp) and e.op == "+":
                flatten(e.left)
                flatten(e.right)
            else:
                terms.append(e)

        flatten(addr)
        reg_terms: List[int] = []
        offset = 0
        inner = None
        moving = 0
        for term in terms:
            if isinstance(term, ast.Const):
                offset += term.value
            elif isinstance(term, ast.Var):
                name = term.name
                if name in self.assigned_pos:
                    raise _NoMatch()
                ri = self.reg(name)
                d = self.delta(name)
                if d not in (-1, 0, 1):
                    raise _NoMatch()
                if d != 0:
                    moving += 1
                offset += d * self.upd.get(name, 0)
                reg_terms.append(ri)
            elif isinstance(term, ast.MemRead):
                if inner is not None:
                    raise _NoMatch()
                inner = self.stream(term.addr, pos)
            else:
                raise _NoMatch()
        if moving > 1:
            raise _NoMatch()
        slope = 0
        mov_spec = None
        for ri in reg_terms:
            d = self.delta(self.reg_names[ri])
            if d != 0:
                slope = d
                mov_spec = (ri, d, self.widths[ri])
        key = (tuple(sorted(reg_terms)), offset, slope, mov_spec)
        if key in self.stream_key:
            si = self.stream_key[key]
        else:
            si = len(self.streams)
            self.stream_key[key] = si
            self.streams.append((tuple(reg_terms), offset, slope, mov_spec))
        self.read_pos[si] = max(self.read_pos.get(si, pos), pos)
        if inner is not None:
            if slope != 0 or inner[0] != "stream":
                raise _NoMatch()
            self.tabs.append((si, inner[1]))
            return ("tab", si, inner[1])
        return ("stream", si)

    def operand(self, expr, pos: int, tick: List[int]) -> Tuple:
        if isinstance(expr, ast.Const):
            return ("const", expr.value)
        if isinstance(expr, ast.Var):
            name = expr.name
            if name in self.assigned_pos:
                if self.assigned_pos[name] >= pos:
                    raise _NoMatch()
                return ("matrix", self.assigned_matrix[name])
            ri = self.reg(name)
            if self.delta(name) != 0:
                raise _NoMatch()
            return ("reg", ri)
        if isinstance(expr, ast.MemRead):
            src = self.stream(expr.addr, pos)
            if src[0] == "tab":
                return src
            return ("mem", src[1])
        if isinstance(expr, ast.Call):
            callee = self._callee(expr.name)
            tick[0] += len(callee.body)
            out = None
            for cs in callee.body:
                inc = self._inc_form(cs)
                if inc is not None:
                    self.upd[inc[0]] = self.upd.get(inc[0], 0) + 1
                    continue
                out = self.operand(cs.expr, pos, [0])
            if out is None or out[0] not in ("mem", "tab"):
                raise _NoMatch()
            return out
        raise _NoMatch()

    def cmp_matrix(self, expr, pos: int, tick: List[int]) -> int:
        """A boolean expression -> index of its 0/1 value matrix."""
        if isinstance(expr, ast.BinOp) and expr.op in ("=", "<>"):
            left, right = expr.left, expr.right
            # ``a - b = 0`` is the catalog's idiomatic equality compare.
            if (
                expr.op == "="
                and isinstance(right, ast.Const)
                and right.value == 0
                and isinstance(left, ast.BinOp)
                and left.op == "-"
            ):
                a = self.operand(left.left, pos, tick)
                b = self.operand(left.right, pos, tick)
                self.matrices.append(("cmp", "=", a, b))
                return len(self.matrices) - 1
            a = self.operand(left, pos, tick)
            b = self.operand(right, pos, tick)
            self.matrices.append(("cmp", expr.op, a, b))
            return len(self.matrices) - 1
        raise _NoMatch()

    def _pass2(self, body) -> None:
        for pos, stmt in enumerate(body):
            tick = [1]
            if isinstance(stmt, ast.ExitWhen):
                cond = stmt.cond
                spec = None
                if isinstance(cond, ast.BinOp) and cond.op == "=":
                    left, right = cond.left, cond.right
                    if isinstance(left, ast.Const):
                        left, right = right, left
                    if (
                        isinstance(left, ast.Var)
                        and isinstance(right, ast.Const)
                        and right.value == 0
                        and left.name in self.inc_events
                    ):
                        events = self.inc_events[left.name]
                        if len(events) == 1 and events[0][0] == -1:
                            ri = self.reg(left.name)
                            off = -self.upd.get(left.name, 0)
                            spec = ("counter", ri, off)
                if spec is None and isinstance(cond, (ast.Var, ast.UnOp)):
                    negate = False
                    flag = cond
                    if isinstance(cond, ast.UnOp):
                        if cond.op != "not" or not isinstance(
                            cond.operand, ast.Var
                        ):
                            raise _NoMatch()
                        negate = True
                        flag = cond.operand
                    name = flag.name
                    if (
                        name not in self.assigned_pos
                        or self.assigned_pos[name] >= pos
                    ):
                        raise _NoMatch()
                    spec = ("cond", self.assigned_matrix[name], negate)
                if spec is None:
                    spec = ("cond", self.cmp_matrix(cond, pos, tick), False)
                self.ticks.append(tick[0])
                prefix = 1 + sum(self.ticks)
                self.exits.append((pos, prefix, spec))
                continue
            assert isinstance(stmt, ast.Assign)
            if isinstance(stmt.target, ast.MemRead):
                src = self.operand(stmt.expr, pos, tick)
                if src[0] not in ("const", "reg", "mem", "tab", "matrix"):
                    raise _NoMatch()
                dst = self.stream(stmt.target.addr, pos)
                if dst[0] != "stream":
                    raise _NoMatch()
                si = dst[1]
                if self.streams[si][2] not in (-1, 1):
                    raise _NoMatch()
                self.write = (pos, si, src)
                self.ticks.append(tick[0])
                continue
            inc = self._inc_form(stmt)
            if inc is not None:
                self.upd[inc[0]] = self.upd.get(inc[0], 0) + 1
                self.ticks.append(1)
                continue
            name = stmt.target.name
            expr = stmt.expr
            if isinstance(expr, (ast.MemRead, ast.Call)):
                src = self.operand(expr, pos, tick)
                if src[0] == "mem":
                    self.matrices.append(("mem", src[1]))
                elif src[0] == "tab":
                    self.matrices.append(("tabmem", src[1], src[2]))
                else:
                    raise _NoMatch()
                wm = self.widths[self.reg(name)]
                if wm is not None and wm < 255:
                    raise _NoMatch()
                self.assigned_matrix[name] = len(self.matrices) - 1
            else:
                self.assigned_matrix[name] = self.cmp_matrix(expr, pos, tick)
            self.ticks.append(tick[0])

    # -- plan assembly ---------------------------------------------------

    def plan(self, body) -> "FusedPlan":
        self._pass1(body)
        self.upd = {}
        self._pass2(body)
        if self.write is not None:
            wpos = self.write[0]
            for si, pos in self.read_pos.items():
                if si != self.write[1] and pos > wpos:
                    raise _NoMatch()
        # Byte matrices needed at runtime, with their write-overlap mode.
        byte_streams: Dict[int, str] = {}

        def need_bytes(op) -> None:
            if op[0] == "mem":
                byte_streams.setdefault(op[1], "")
            elif op[0] == "tab":
                byte_streams.setdefault(op[2], "")

        for spec in self.matrices:
            if spec[0] == "mem":
                byte_streams.setdefault(spec[1], "")
            elif spec[0] == "tabmem":
                byte_streams.setdefault(spec[2], "")
            else:
                need_bytes(spec[2])
                need_bytes(spec[3])
        if self.write is not None:
            need_bytes(self.write[2])
        for si in byte_streams:
            byte_streams[si] = self._mode(si)
        finals: List[Tuple] = []
        for name, events in self.inc_events.items():
            finals.append(("affine", self.reg_index[name], tuple(events)))
        for name, mi in self.assigned_matrix.items():
            finals.append(
                ("matrix", self.reg_index[name], mi, self.assigned_pos[name])
            )
        iter_ticks = 1 + sum(self.ticks)
        return FusedPlan(
            reg_names=tuple(self.reg_names),
            widths=tuple(self.widths),
            iter_ticks=iter_ticks,
            streams=tuple(self.streams),
            matrices=tuple(self.matrices),
            exits=tuple(self.exits),
            write=self.write,
            finals=tuple(finals),
            reads=tuple(sorted(byte_streams.items())),
            tabs=tuple(self.tabs),
            has_cond=any(e[2][0] == "cond" for e in self.exits),
        )

    def _mode(self, si: int) -> str:
        """How a read stream must be reconciled with the write stream."""
        if self.write is None:
            return "plain"
        wpos, wsi, src = self.write
        if si == wsi:
            return "same"
        rslope = self.streams[si][2]
        wslope = self.streams[wsi][2]
        if rslope == wslope and rslope != 0:
            if src[0] == "mem" and src[1] == si:
                return "selfcopy"
            if src[0] == "matrix" and self._matrix_stream(src[1]) == si:
                return "selfcopy"
            if src[0] == "const":
                return "constfill"
            return "check"
        return "check"

    def _matrix_stream(self, mi: int) -> int:
        spec = self.matrices[mi]
        return spec[1] if spec[0] == "mem" else -1


def match_repeat(stmt, lowerer) -> Optional["FusedPlan"]:
    """A :class:`FusedPlan` for this repeat, or None for the generic loop."""
    if not HAVE_NUMPY:
        return None
    try:
        return _Matcher(lowerer).plan(stmt.body)
    except _NoMatch:
        return None


# ---------------------------------------------------------------------------
# execution


class FusedPlan:
    """A matched loop's closed-form batch executor.

    ``run`` either executes the loop for the whole active mask —
    byte-exact with the generic lowering, including step accounting and
    step-limit deaths — or raises :class:`FuseBail` before touching any
    state.
    """

    __slots__ = (
        "reg_names",
        "widths",
        "iter_ticks",
        "streams",
        "matrices",
        "exits",
        "write",
        "finals",
        "reads",
        "tabs",
        "has_cond",
    )

    def __init__(
        self,
        reg_names,
        widths,
        iter_ticks,
        streams,
        matrices,
        exits,
        write,
        finals,
        reads,
        tabs,
        has_cond,
    ) -> None:
        self.reg_names = reg_names
        self.widths = widths
        self.iter_ticks = iter_ticks
        self.streams = streams
        self.matrices = matrices
        self.exits = exits
        self.write = write
        self.finals = finals
        self.reads = reads
        self.tabs = tabs
        self.has_cond = has_cond

    # -- address helpers -------------------------------------------------

    @staticmethod
    def _first_bad(a0, slope, width, moving, regs, write: bool):
        """First iteration whose address the closed form cannot trust.

        For *writes* that is any address outside ``[0, width)`` — the
        dense image cannot hold the cell the interpreter would
        create.  For *reads* only a **negative** address is bad (the
        interpreter raises on it); addresses at or beyond ``width``
        read as 0 under sparse-memory semantics, which the masked
        gathers reproduce exactly.  Either way, a moving base
        register's width wrap invalidates the affine address model.
        """
        np = _np
        if write:
            if slope > 0:
                t = np.where(a0 < 0, 0, np.maximum(width - a0, 0))
            elif slope < 0:
                t = np.where((a0 < 0) | (a0 >= width), 0, a0 + 1)
            else:
                t = np.where((a0 >= 0) & (a0 < width), _INF, 0)
        else:
            if slope < 0:
                t = np.where(a0 < 0, 0, a0 + 1)
            else:
                t = np.where(a0 < 0, 0, _INF)
        if moving is not None and moving[2] is not None:
            ri, d, wm = moving
            v0 = regs[ri]
            wrap = v0 + 1 if d < 0 else wm + 1 - v0
            t = np.minimum(t, np.maximum(wrap, 0))
        return t

    @staticmethod
    def _extent(a0, slope, e):
        """Per-lane inclusive address range touched over ``e`` accesses."""
        np = _np
        last = a0 + slope * np.maximum(e - 1, 0)
        return np.minimum(a0, last), np.maximum(a0, last)

    def _val2d(self, op, regs, a0s, bytes2d, mats, rowflat, flat, width):
        np = _np
        kind = op[0]
        if kind == "const":
            return op[1]
        if kind == "reg":
            return regs[op[1]][:, None]
        if kind == "mem":
            return bytes2d[op[1]]
        if kind == "matrix":
            m = mats[op[1]]
            return m.astype(np.int64) if m.dtype == bool else m
        # ("tab", base stream, inner stream)
        idx = a0s[op[1]][:, None] + bytes2d[op[2]]
        base = a0s[op[1]]
        if int(base.min()) >= 0 and int(base.max()) + 255 < width:
            return flat.take(rowflat + idx).astype(np.int64)
        # Sparse-memory semantics for out-of-image cells: read as 0.
        inside = (idx >= 0) & (idx < width)
        np.minimum(idx, width - 1, out=idx)
        np.maximum(idx, 0, out=idx)
        vals = flat.take(rowflat + idx).astype(np.int64)
        vals[~inside] = 0
        return vals

    # -- the closed-form run ---------------------------------------------

    def run(self, rt, mv, regs) -> None:
        img = rt.mem.img
        np = _np
        if not bool(mv.any()):
            return
        if not img.flags["C_CONTIGUOUS"]:
            raise FuseBail()
        flat = img.ravel()  # a view: writes through it hit the image
        n, width = img.shape
        bud = rt.budget
        ticks_per_iter = self.iter_ticks
        active = mv

        it_budget = np.maximum(bud // ticks_per_iter + 2, 0)

        a0s = []
        for bases, offset, slope, moving in self.streams:
            if bases:
                a = regs[bases[0]] + offset if offset else regs[bases[0]].copy()
                for ri in bases[1:]:
                    a += regs[ri]
            else:
                a = np.empty(n, dtype=np.int64)
                a.fill(offset)
            a0s.append(a)

        # Counter exits fire at an iteration known from entry values.
        horizon = it_budget
        counter_cands: Dict[int, "object"] = {}
        for pos, prefix, spec in self.exits:
            if spec[0] != "counter":
                continue
            _, ri, off = spec
            wm = self.widths[ri]
            if wm is not None:
                cand = (regs[ri] + off) & wm
            else:
                cand = regs[ri] + off
                cand = np.where(cand >= 0, cand, _INF)
            counter_cands[pos] = cand
            horizon = np.minimum(horizon, cand)

        # First iteration at which any read becomes untrustworthy.
        # Starts as a scalar and only becomes a vector when a stream
        # contributes a per-lane bound (it is only ever compared or
        # min-folded, so broadcasting keeps the semantics).
        t_bad = _INF
        for si, _mode in self.reads:
            bases, offset, slope, moving = self.streams[si]
            t_bad = np.minimum(
                t_bad,
                self._first_bad(a0s[si], slope, width, moving, regs, False),
            )
        for bsi, _isi in self.tabs:
            # Table reads at or past ``width`` return 0 through the
            # masked gather, matching sparse memory; only a negative
            # base invalidates the lane.
            t_bad = np.minimum(t_bad, np.where(a0s[bsi] >= 0, _INF, 0))
        t_bad_w = None
        wsi = None
        if self.write is not None:
            wsi = self.write[1]
            bases, offset, slope, moving = self.streams[wsi]
            t_bad_w = self._first_bad(
                a0s[wsi], slope, width, moving, regs, True
            )

        # Unmodelled read/write overlap: bail while nothing is mutated.
        if self.write is not None:
            e_bound = horizon + 1
            wlo, whi = self._extent(a0s[wsi], self.streams[wsi][2], e_bound)
            for si, mode in self.reads:
                if mode != "check":
                    continue
                rlo, rhi = self._extent(a0s[si], self.streams[si][2], e_bound)
                clash = active & (np.maximum(wlo, rlo) <= np.minimum(whi, rhi))
                if bool(clash.any()):
                    raise FuseBail()
            for bsi, _isi in self.tabs:
                clash = active & (
                    np.maximum(wlo, a0s[bsi]) <= np.minimum(whi, a0s[bsi] + 255)
                )
                if bool(clash.any()):
                    raise FuseBail()

        horizon_max = int(horizon[active].max())
        T = min(horizon_max + 1, _CAP)

        while True:
            t1d = _t1d_for(T)
            rowflat = _rowflat_for(n, width)
            bytes2d: Dict[int, "object"] = {}
            for si, mode in self.reads:
                bases, offset, slope, moving = self.streams[si]
                te = t1d
                if mode == "selfcopy":
                    d = (a0s[wsi] - a0s[si]) * slope
                    dd = np.where(d > 0, d, 1)[:, None]
                    te = np.where((d > 0)[:, None], t1d % dd, t1d)
                idx = a0s[si][:, None] + slope * te
                lo0 = int(a0s[si].min())
                hi0 = int(a0s[si].max())
                span = slope * (T - 1)
                lo = lo0 + min(span, 0)
                hi = hi0 + max(span, 0)
                if lo >= 0 and hi < width:
                    vals = flat.take(rowflat + idx).astype(np.int64)
                else:
                    # Sparse-memory semantics: out-of-image reads are 0.
                    inside = (idx >= 0) & (idx < width)
                    np.minimum(idx, width - 1, out=idx)
                    np.maximum(idx, 0, out=idx)
                    vals = flat.take(rowflat + idx).astype(np.int64)
                    vals[~inside] = 0
                if mode == "constfill":
                    d = (a0s[wsi] - a0s[si]) * slope
                    vals = np.where(
                        (d > 0)[:, None] & (t1d >= np.maximum(d, 0)[:, None]),
                        self.write[2][1] & 255,
                        vals,
                    )
                bytes2d[si] = vals

            mats: List = []
            for spec in self.matrices:
                if spec[0] == "mem":
                    mats.append(bytes2d[spec[1]])
                elif spec[0] == "tabmem":
                    mats.append(
                        self._val2d(
                            ("tab", spec[1], spec[2]),
                            regs,
                            a0s,
                            bytes2d,
                            mats,
                            rowflat,
                            flat,
                            width,
                        )
                    )
                else:
                    _, op, lhs, rhs = spec
                    a = self._val2d(
                        lhs, regs, a0s, bytes2d, mats, rowflat, flat, width
                    )
                    b = self._val2d(
                        rhs, regs, a0s, bytes2d, mats, rowflat, flat, width
                    )
                    mats.append((a == b) if op == "=" else (a != b))

            # The first exit seeds fire/win_* directly (scalars broadcast
            # through the later arithmetic); only additional exits pay
            # for the where-folds.
            fire = None
            win_prefix = 0
            win_pos = 1 << 30
            for pos, prefix, spec in self.exits:
                if spec[0] == "counter":
                    cand = counter_cands[pos]
                else:
                    _, mi, negate = spec
                    m2 = mats[mi]
                    if negate:
                        m2 = ~m2
                    hit = m2.any(axis=1)
                    cand = np.where(hit, m2.argmax(axis=1), _INF)
                if fire is None:
                    fire, win_prefix, win_pos = cand, prefix, pos
                    continue
                better = cand < fire
                fire = np.where(better, cand, fire)
                win_prefix = np.where(better, prefix, win_prefix)
                win_pos = np.where(better, pos, win_pos)
            if fire is None:
                fire = np.empty(n, dtype=np.int64)
                fire.fill(_INF)

            fire_eff = np.minimum(fire, it_budget)
            total_ticks = ticks_per_iter * fire_eff + win_prefix
            die = active & (total_ticks > bud)

            # Lanes whose reads go bad before their firing iteration are
            # fine only if the budget provably kills them first; their
            # computed firing iteration is itself untrustworthy, so this
            # covers computed-dead lanes too.
            risky = active & (fire_eff >= t_bad)
            if bool(risky.any()):
                tb = np.minimum(t_bad, it_budget)
                forced = risky & (ticks_per_iter * tb + 1 > bud)
                if bool((risky & ~forced).any()):
                    raise FuseBail()
                die = die | forced
            ok = active & ~die

            if self.write is not None:
                execs_w = fire + (self.write[0] < win_pos)
                if bool((ok & (execs_w > t_bad_w)).any()):
                    raise FuseBail()

            ok_fire = int(fire[ok].max()) if bool(ok.any()) else -1
            if ok_fire < T:
                break
            T = ok_fire + 2
            if T > _CAP:
                raise FuseBail()

        # ---- point of no return: mutate the batch ----------------------
        if bool(die.any()):
            rt.kill(die, "StepLimitExceeded", rt._steplimit_msg)
            np.copyto(bud, 0, where=die)
        if not bool(ok.any()):
            return
        np.subtract(bud, total_ticks, out=bud, where=ok)

        if self.write is not None:
            pos_w, si, src = self.write
            execs_w = fire + (pos_w < win_pos)
            wmask = ok[:, None] & (t1d < execs_w[:, None])
            if bool(wmask.any()):
                slope = self.streams[si][2]
                idx = a0s[si][:, None] + slope * t1d
                np.minimum(idx, width - 1, out=idx)
                np.maximum(idx, 0, out=idx)
                vals = self._val2d(
                    src, regs, a0s, bytes2d, mats, rowflat, flat, width
                )
                if not isinstance(vals, np.ndarray):
                    flat[(rowflat + idx)[wmask]] = np.uint8(vals & 255)
                else:
                    vals = np.broadcast_to(vals, wmask.shape)
                    flat[(rowflat + idx)[wmask]] = (
                        vals[wmask] & 255
                    ).astype(np.uint8)

        for spec in self.finals:
            if spec[0] == "affine":
                _, ri, events = spec
                value = regs[ri]
                for delta, pos in events:
                    # An increment at the winning exit's own position sits
                    # in a call inside its condition, so it ran before
                    # the test fired.
                    value = value + delta * (fire + (pos <= win_pos))
            else:
                _, ri, mi, pos = spec
                execs = fire + (pos < win_pos)
                m2 = mats[mi]
                if m2.dtype == bool:
                    m2 = m2.astype(np.int64)
                col = execs - 1
                np.minimum(col, T - 1, out=col)
                np.maximum(col, 0, out=col)
                picked = m2[_rows_for(n), col]
                value = np.where(execs > 0, picked, regs[ri])
            wm = self.widths[ri]
            if wm is not None:
                value = value & wm
            np.copyto(regs[ri], value, where=ok)
