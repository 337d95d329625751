"""Randomized scenario generation for differential testing.

An analysis claims an operator description and a (simplified, augmented)
instruction description equivalent under constraints.  To check the claim
we run both on many randomized machine states.  A :class:`ScenarioSpec`
says how to draw those states: which operands are string base addresses,
which are lengths, which are characters, and how big the memory region
under test is.

The generator deliberately produces adversarial cases alongside typical
ones: zero lengths (the paper's ``zf`` initialization bug surfaces only
there), characters that do or do not occur in the string, and equal
strings for the compare instructions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple


@lru_cache(maxsize=None)
def load_numpy():
    """numpy, imported on the first call; None when it cannot be imported.

    Only the columnar draw and the lanes that run on it use numpy, so
    it loads with the first batch drawn, not with this module: every
    analysis module imports this one, and a command that draws nothing
    (``repro list``, a warm ``repro batch``) never pays for numpy.
    """
    try:
        import numpy
    except Exception:  # pragma: no cover - numpy-less fallback
        return None
    return numpy


def derive_seed(root: int, *labels: object) -> int:
    """A stable 64-bit seed derived from ``root`` and a label path.

    Scenario streams must be reproducible from a *single* root seed even
    when the trials are sharded across worker processes, so no two
    consumers may ever share a bare :class:`random.Random`.  Instead
    every consumer derives its own seed: SHA-256 over the root and its
    labels, independent of Python's per-process hash randomization.
    """
    digest = hashlib.sha256()
    digest.update(str(int(root)).encode("ascii"))
    for label in labels:
        digest.update(b"\x00")
        digest.update(str(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


@dataclass(frozen=True)
class OperandSpec:
    """How to draw one operand value.

    ``role`` is one of:

    * ``"address"`` — a base address inside the scenario's memory arena,
    * ``"length"``  — a string length in ``[0, max_length]``,
    * ``"char"``    — a byte, biased to sometimes occur in the string,
    * ``"range"``   — uniform in ``[lo, hi]``,
    * ``"fixed"``   — always ``lo``.
    """

    role: str
    lo: int = 0
    hi: int = 0


@dataclass(frozen=True)
class ScenarioSpec:
    """Random-state recipe for one analysis's differential test."""

    operands: Mapping[str, OperandSpec]
    max_length: int = 12
    #: distance kept between generated strings so they never overlap
    #: (Pascal strings cannot overlap — paper §4.3).
    arena_stride: int = 64
    #: when true, two address operands may be made to overlap (used to
    #: demonstrate the movc3/sassign failure).
    allow_overlap: bool = False


@dataclass(frozen=True)
class Scenario:
    """One concrete randomized machine state."""

    inputs: Dict[str, int]
    memory: Dict[int, int]


# ---------------------------------------------------------------------------
# counter-based drawing core
#
# Every scenario value is a pure function of ``(trial_seed, slot)``: the
# trial seed comes from a splitmix64 mix of the stream key and the trial
# index, and each operand reads from fixed, data-independent slot
# numbers.  That makes a *batch* draw (one numpy op per slot across N
# lanes) byte-identical to N sequential scalar draws by construction —
# the property the vectorized engine and the sharded batch runner both
# rely on.  The stream key itself still comes from :func:`derive_seed`
# (one SHA-256 per stream, not one per trial).

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SLOT_SALT = 0xD1B54A32D192ED03
#: threshold for the 0.7-probability overlap decision.
_P70 = (7 << 64) // 10


def _mix64(x: int) -> int:
    """The splitmix64 finalizer over python ints (exact 64-bit wrap)."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _trial_seed(stream_key: int, index: int) -> int:
    return _mix64((stream_key + index * _GOLDEN) & _MASK64)


def _draw64(trial_seed: int, slot: int) -> int:
    """Slot ``slot`` of the trial's draw sequence, a uniform 64-bit int."""
    return _mix64(trial_seed ^ ((slot * _SLOT_SALT) & _MASK64))


@dataclass(frozen=True)
class _Layout:
    """Fixed slot assignment for one spec (data-independent)."""

    #: (name, decision_slot, offset_slot, first_data_slot)
    addresses: Tuple[Tuple[str, int, int, int], ...]
    #: (name, role, lo, hi, first_slot)
    others: Tuple[Tuple[str, str, int, int, int], ...]
    count: int
    blocks: int
    total_slots: int


#: layout cache keyed by spec identity (specs are module-level
#: constants; holding the spec keeps its id stable).
_LAYOUTS: Dict[int, Tuple[ScenarioSpec, _Layout]] = {}


def _layout(spec: ScenarioSpec) -> _Layout:
    cached = _LAYOUTS.get(id(spec))
    if cached is not None and cached[0] is spec:
        return cached[1]
    plan = _compute_layout(spec)
    _LAYOUTS[id(spec)] = (spec, plan)
    return plan


def _compute_layout(spec: ScenarioSpec) -> _Layout:
    count = spec.max_length + 4
    blocks = (count + 7) // 8
    next_slot = 1  # slot 0 is the shared string length
    addresses: List[Tuple[str, int, int, int]] = []
    others: List[Tuple[str, str, int, int, int]] = []
    for name, operand in spec.operands.items():
        if operand.role == "address":
            addresses.append((name, next_slot, next_slot + 1, next_slot + 2))
            next_slot += 2 + blocks
    for name, operand in spec.operands.items():
        if operand.role == "address":
            continue
        others.append((name, operand.role, operand.lo, operand.hi, next_slot))
        if operand.role == "char":
            next_slot += 3
        elif operand.role == "range":
            next_slot += 1
        elif operand.role not in ("length", "fixed"):
            raise ValueError(f"unknown operand role {operand.role!r}")
    return _Layout(tuple(addresses), tuple(others), count, blocks, next_slot)


def _draw_scenario(spec: ScenarioSpec, trial_seed: int) -> Scenario:
    """Draw one scenario from its trial seed (the scalar reference)."""
    plan = _layout(spec)
    length = _draw64(trial_seed, 0) % (spec.max_length + 1)
    inputs: Dict[str, int] = {}
    memory: Dict[int, int] = {}
    next_base = 16
    first_base: Optional[int] = None
    first_data: Optional[Tuple[int, ...]] = None

    # Addresses and the backing strings first, so "char" operands can be
    # biased toward bytes that actually occur in the first string.
    for name, dec_slot, off_slot, data_slot in plan.addresses:
        if (
            spec.allow_overlap
            and first_base is not None
            and _draw64(trial_seed, dec_slot) < _P70
        ):
            base = max(
                1, first_base + int(_draw64(trial_seed, off_slot) % 5) - 2
            )
        else:
            base = next_base
            next_base += spec.arena_stride
        if first_base is None:
            first_base = base
        data: List[int] = []
        for block in range(plan.blocks):
            word = _draw64(trial_seed, data_slot + block)
            for shift in range(0, 64, 8):
                data.append((word >> shift) & 0xFF)
        data = data[: plan.count]
        for offset, value in enumerate(data):
            memory[base + offset] = value
        if first_data is None:
            first_data = tuple(data)
        inputs[name] = base

    for name, role, lo, hi, slot in plan.others:
        if role == "length":
            inputs[name] = length
        elif role == "char":
            decision = _draw64(trial_seed, slot)
            if length and first_data is not None and decision >> 63:
                inputs[name] = first_data[
                    _draw64(trial_seed, slot + 1) % length
                ]
            else:
                inputs[name] = _draw64(trial_seed, slot + 2) & 0xFF
        elif role == "range":
            inputs[name] = lo + _draw64(trial_seed, slot) % (hi - lo + 1)
        else:  # fixed — _layout rejected every other role already
            inputs[name] = lo
    return Scenario(inputs=inputs, memory=memory)


def _pin_corner(spec: ScenarioSpec, scenario: Scenario, index: int) -> Scenario:
    """Indices 0 and 1 pin the corner lengths 0 and 1."""
    if index == 0:
        return _with_length(spec, scenario, 0)
    if index == 1:
        return _with_length(spec, scenario, 1)
    return scenario


def generate_scenario_at(
    spec: ScenarioSpec, seed: int, index: int
) -> Scenario:
    """Draw the scenario at global trial ``index`` of the ``seed`` stream.

    Each index gets its own trial seed mixed from the stream key, so
    scenario ``index`` is the same value no matter which shard, process,
    or call order produces it.  Indices 0 and 1 pin the corner cases
    every string instruction must survive: length zero and length one.
    """
    stream_key = derive_seed(seed, "scenario")
    scenario = _draw_scenario(spec, _trial_seed(stream_key, index))
    return _pin_corner(spec, scenario, index)


@dataclass(frozen=True)
class ScenarioBatch:
    """``n`` scenarios of one stream, materialized at once.

    When numpy is available the batch holds columnar state: one int64
    vector per operand in ``inputs`` plus a dense ``(n, width)`` byte
    memory image whose lane ``i`` row is that lane's arena.  The
    vectorized engine runs directly on these arrays; every scalar
    consumer can still reconstruct the exact per-trial
    :class:`Scenario` via :meth:`scenario`.  Without numpy the batch
    holds the scalar draws, with one plain list per operand in
    ``inputs``.

    A batch holds one or more *windows* of the stream back to back:
    lane ``i`` of a :meth:`ScenarioStream.draw_batch` batch is scenario
    ``offset + i``, and :meth:`ScenarioStream.draw_windows` lays several
    ``(offset, count)`` windows end to end, recording their lane counts
    in ``windows``.

    The batch is provably identical to sequential draws: both paths
    evaluate the same ``(trial_seed, slot)`` counter function, so there
    is no separate "batch RNG" to drift.
    """

    spec: ScenarioSpec
    seed: int
    #: stream index of lane 0
    offset: int
    n: int
    #: operand name -> int64 vector (numpy array, or list without numpy)
    inputs: Dict[str, object]
    #: dense ``(n, width)`` uint8 arena image, or ``None`` without numpy
    image: Optional[object]
    #: per-address-operand base vectors, used to reconstruct sparse dicts
    bases: Dict[str, object]
    #: scalar fallback draws (populated only without numpy)
    scenarios: Tuple[Scenario, ...] = ()
    #: lane counts of the stream windows the batch holds, in lane
    #: order; empty for a single window of all ``n`` lanes
    windows: Tuple[int, ...] = ()

    @property
    def width(self) -> int:
        if self.image is None:
            return 0
        return int(self.image.shape[1])

    def lane_inputs(self, lane: int) -> Dict[str, int]:
        return {name: int(vec[lane]) for name, vec in self.inputs.items()}

    def lane_memory(self, lane: int) -> Dict[int, int]:
        return self.lanes_memory([lane])[0]

    def lanes_memory(self, lanes: Sequence[int]) -> List[Dict[int, int]]:
        """Each of ``lanes``' initial memory: every address operand's
        arena window, read with one gather per operand."""
        if self.image is None:
            return [dict(self.scenarios[lane].memory) for lane in lanes]
        np = load_numpy()
        index = np.asarray(lanes, dtype=np.intp)
        span = np.arange(self.spec.max_length + 4)
        memories: List[Dict[int, int]] = [{} for _ in range(len(index))]
        for base_vec in self.bases.values():
            bases = base_vec[index]
            block = self.image[index[:, None], bases[:, None] + span].tolist()
            for memory, base, cells in zip(memories, bases.tolist(), block):
                memory.update(zip(range(base, base + len(span)), cells))
        return memories

    def scenario(self, lane: int) -> Scenario:
        """The exact :class:`Scenario` this lane was drawn from."""
        if self.scenarios:
            return self.scenarios[lane]
        return Scenario(
            inputs=self.lane_inputs(lane), memory=self.lane_memory(lane)
        )


def _batch_draw(
    spec: ScenarioSpec, stream_key: int, offset: int, n: int
) -> Tuple[Dict[str, object], object, Dict[str, object]]:
    """Columnar draw of ``n`` lanes (numpy path of ``draw_batch``)."""
    np = load_numpy()
    plan = _layout(spec)
    u64 = np.uint64
    idx = np.arange(offset, offset + n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        trial_seeds = u64(stream_key) + idx * u64(_GOLDEN)

        def mix(x):
            x = x ^ (x >> u64(30))
            x = x * u64(0xBF58476D1CE4E5B9)
            x = x ^ (x >> u64(27))
            x = x * u64(0x94D049BB133111EB)
            return x ^ (x >> u64(31))

        trial_seeds = mix(trial_seeds)

        # One 2D mix materializes every slot of every lane at once —
        # per-slot mixing was the batch draw's hottest spot.
        salts = np.arange(plan.total_slots, dtype=np.uint64) * u64(_SLOT_SALT)
        drawn = mix(trial_seeds[:, None] ^ salts[None, :])

        def draw(slot):
            return drawn[:, slot]

        length = (draw(0) % u64(spec.max_length + 1)).astype(np.int64)

        naddr = len(plan.addresses)
        width = 16 + max(naddr, 1) * spec.arena_stride + plan.count
        image = np.zeros((n, width), dtype=np.uint8)
        rows = np.arange(n)
        inputs: Dict[str, object] = {}
        bases: Dict[str, object] = {}
        # ``next_base`` advances only for lanes that did NOT overlap, so
        # under allow_overlap the arena layout is per-lane state.
        next_base = np.full(n, 16, dtype=np.int64)
        first_base: Optional[int] = None
        first_data = None
        shifts = np.arange(0, 64, 8, dtype=np.uint64)
        for name, dec_slot, off_slot, data_slot in plan.addresses:
            raw = np.empty((n, plan.blocks * 8), dtype=np.uint64)
            for block in range(plan.blocks):
                word = draw(data_slot + block)
                raw[:, block * 8 : block * 8 + 8] = (
                    word[:, None] >> shifts[None, :]
                ) & u64(0xFF)
            data = raw[:, : plan.count].astype(np.int64)
            if spec.allow_overlap and first_base is not None:
                overlap = draw(dec_slot) < u64(_P70)
                shifted = np.maximum(
                    1,
                    first_base
                    + (draw(off_slot) % u64(5)).astype(np.int64)
                    - 2,
                )
                base_vec = np.where(overlap, shifted, next_base)
                next_base = np.where(
                    overlap, next_base, next_base + spec.arena_stride
                )
                cols = base_vec[:, None] + np.arange(plan.count)[None, :]
                image[rows[:, None], cols] = data
            else:
                # Before the first address (or without allow_overlap)
                # every lane shares one constant base.
                const_base = int(next_base[0])
                base_vec = np.full(n, const_base, dtype=np.int64)
                image[:, const_base : const_base + plan.count] = data
                next_base = next_base + spec.arena_stride
            if first_base is None:
                first_base = 16
                first_data = data
            inputs[name] = base_vec
            bases[name] = base_vec

        for name, role, lo, hi, slot in plan.others:
            if role == "length":
                inputs[name] = length.copy()
            elif role == "char":
                raw = (draw(slot + 2) & u64(0xFF)).astype(np.int64)
                if first_data is None:
                    inputs[name] = raw
                else:
                    from_string = (draw(slot) >> u64(63)).astype(bool) & (
                        length > 0
                    )
                    pick = (
                        draw(slot + 1) % np.maximum(length, 1).astype(u64)
                    ).astype(np.int64)
                    inputs[name] = np.where(
                        from_string, first_data[rows, pick], raw
                    )
            elif role == "range":
                inputs[name] = lo + (
                    draw(slot) % u64(hi - lo + 1)
                ).astype(np.int64)
            else:  # fixed
                inputs[name] = np.full(n, lo, dtype=np.int64)

        # Pin the corner lengths for global trials 0 and 1 (inputs only,
        # exactly like the scalar path's _pin_corner).
        for pinned_index, pinned_length in ((0, 0), (1, 1)):
            lane = pinned_index - offset
            if 0 <= lane < n:
                for name, role, *_ in plan.others:
                    if role == "length":
                        inputs[name][lane] = pinned_length
    return inputs, image, bases


@dataclass(frozen=True)
class ScenarioStream:
    """The full deterministic scenario stream for one (spec, seed) pair.

    Every consumer of randomized states — the verifier, the batch
    runner's shards, the fuzz suites, and all execution engines —
    should draw from one stream object instead of re-deriving the
    window arithmetic, so "trial ``i``" denotes the *same* machine
    state everywhere by construction.  The stream is stateless: any
    index can be drawn at any time, in any process, in any order, and
    :meth:`draw_batch` materializes a whole window columnar while
    staying byte-identical to per-index :meth:`at` draws.
    """

    spec: ScenarioSpec
    seed: int = 0

    @property
    def stream_key(self) -> int:
        return derive_seed(self.seed, "scenario")

    def at(self, index: int) -> Scenario:
        """The scenario at global trial ``index``."""
        return generate_scenario_at(self.spec, self.seed, index)

    def window(self, offset: int, count: int) -> Tuple[Scenario, ...]:
        """``count`` consecutive scenarios starting at ``offset``.

        Sharding ``N`` trials into contiguous windows reproduces the
        exact scenarios of one ``window(0, N)`` call, in order.
        """
        stream_key = self.stream_key
        return tuple(
            _pin_corner(
                self.spec,
                _draw_scenario(
                    self.spec, _trial_seed(stream_key, offset + index)
                ),
                offset + index,
            )
            for index in range(count)
        )

    def draw_windows(
        self, windows: Sequence[Tuple[int, int]]
    ) -> ScenarioBatch:
        """Several ``(offset, count)`` windows end to end in one batch.

        Back-to-back windows are one :meth:`draw_batch`; otherwise each
        window is drawn on its own and the draws are stacked.  Either
        way lane ``i`` holds the same scenario the per-window draws
        hold, and ``windows`` records each window's lane count.
        """
        contiguous = all(
            offset == previous + count
            for (previous, count), (offset, _) in zip(windows, windows[1:])
        )
        if contiguous:
            batch = self.draw_batch(windows[0][0], sum(c for _, c in windows))
            return replace(batch, windows=tuple(c for _, c in windows))
        return _stack([self.draw_batch(offset, count) for offset, count in windows])

    def draw_batch(self, offset: int, count: int) -> ScenarioBatch:
        """``count`` lanes starting at ``offset`` as one columnar draw.

        Lane ``i`` of the batch holds exactly ``self.at(offset + i)``;
        the seed-contract regression tests compare drawn-state digests
        between the two paths.  Falls back to scalar draws when numpy
        is unavailable.
        """
        if load_numpy() is None:
            scenarios = self.window(offset, count)
            names = scenarios[0].inputs if scenarios else ()
            return ScenarioBatch(
                spec=self.spec,
                seed=self.seed,
                offset=offset,
                n=count,
                inputs={
                    name: [s.inputs[name] for s in scenarios] for name in names
                },
                image=None,
                bases={},
                scenarios=scenarios,
            )
        inputs, image, bases = _batch_draw(
            self.spec, self.stream_key, offset, count
        )
        return ScenarioBatch(
            spec=self.spec,
            seed=self.seed,
            offset=offset,
            n=count,
            inputs=inputs,
            image=image,
            bases=bases,
        )


def _stack(batches: Sequence[ScenarioBatch]) -> ScenarioBatch:
    """Lay draws of one stream end to end, one window per draw."""
    first = batches[0]
    if first.image is None:
        inputs: Dict[str, object] = {
            name: [value for batch in batches for value in batch.inputs[name]]
            for name in first.inputs
        }
        image = None
        bases: Dict[str, object] = {}
    else:
        np = load_numpy()
        inputs = {
            name: np.concatenate([batch.inputs[name] for batch in batches])
            for name in first.inputs
        }
        image = np.concatenate([batch.image for batch in batches])
        bases = {
            name: np.concatenate([batch.bases[name] for batch in batches])
            for name in first.bases
        }
    return ScenarioBatch(
        spec=first.spec,
        seed=first.seed,
        offset=first.offset,
        n=sum(batch.n for batch in batches),
        inputs=inputs,
        image=image,
        bases=bases,
        scenarios=tuple(s for batch in batches for s in batch.scenarios),
        windows=tuple(batch.n for batch in batches),
    )


def generate_scenarios(
    spec: ScenarioSpec, trials: int, seed: int = 0, offset: int = 0
) -> Tuple[Scenario, ...]:
    """Draw ``trials`` scenarios deterministically from ``seed``.

    Compatibility wrapper over :meth:`ScenarioStream.window`.
    """
    return ScenarioStream(spec, seed).window(offset, trials)


def _with_length(spec: ScenarioSpec, scenario: Scenario, length: int) -> Scenario:
    inputs = dict(scenario.inputs)
    for name, operand in spec.operands.items():
        if operand.role == "length":
            inputs[name] = length
    return Scenario(inputs=inputs, memory=scenario.memory)
