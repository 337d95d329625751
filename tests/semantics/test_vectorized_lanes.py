"""Lane semantics of the vectorized engine.

The batch kernel advances every lane through the same instruction
stream under a mask; these tests pin the mask behaviour down where it
is easiest to get wrong: one lane exiting while others keep running,
every lane running a different iteration count, the step budget
expiring in only *some* lanes, and the degenerate one-lane batch.  A
batch the lanes cannot hold runs on the interpreter instead.
"""

import pytest

from repro import obs
from repro.isdl import parse_description
from repro.semantics import (
    Interpreter,
    StepLimitExceeded,
    VectorizedDescription,
)
from repro.semantics.engine import ExecutionEngine
from repro.semantics.vectorized import _observe

COUNTER = parse_description(
    """
    t.op := begin
        ** S **
            n<15:0>, acc<15:0>
        ** P **
            t.execute() := begin
                input (n, acc);
                repeat
                    exit_when (n = 0);
                    n <- n - 1;
                    acc <- acc + 3;
                end_repeat;
                output (acc);
            end
    end
    """
)

SCANNER = parse_description(
    """
    t.op := begin
        ** S **
            p<15:0>, c<7:0>, n<15:0>
        ** P **
            t.execute() := begin
                input (p, c, n);
                repeat
                    exit_when (n = 0);
                    exit_when (Mb[ p ] = c);
                    p <- p + 1;
                    n <- n - 1;
                end_repeat;
                output (p, n);
            end
    end
    """
)


def scalar_reference(description, lanes, memory=None, max_steps=200_000):
    """Per-lane outcomes via the scalar interpreter, batch-shaped."""
    interp = Interpreter(description, max_steps=max_steps)
    outcomes = []
    for inputs in lanes:
        try:
            result = interp.run(dict(inputs), dict(memory or {}))
            outcomes.append(
                ("result", result.outputs, result.memory, result.steps)
            )
        except StepLimitExceeded as e:
            outcomes.append(("raise", type(e).__name__, str(e)))
    return outcomes


def batch_outcomes(result, lanes=None):
    """Scalar-shaped outcomes of ``lanes`` (default: every lane)."""
    outcomes = []
    for outcome in result.lane_outcomes(range(result.n) if lanes is None else lanes):
        if outcome[0] == "result":
            r = outcome[1]
            outcomes.append(("result", r.outputs, r.memory, r.steps))
        else:
            outcomes.append(("raise", outcome[1], outcome[2]))
    return outcomes


class TestExitMasks:
    def test_exit_fires_in_lane_zero_only(self):
        """Lane 0 exits on entry; the other lanes must keep running."""
        engine = VectorizedDescription(SCANNER)
        memory = {30: 7}
        # Lane 0: n = 0 -> immediate counter exit.  Lanes 1-3 scan
        # toward the sentinel at address 30 from different distances.
        lanes = [
            {"p": 10, "c": 7, "n": 0},
            {"p": 28, "c": 7, "n": 9},
            {"p": 25, "c": 7, "n": 9},
            {"p": 10, "c": 7, "n": 3},
        ]
        result = engine.run_batch(
            {
                "p": [lane["p"] for lane in lanes],
                "c": [lane["c"] for lane in lanes],
                "n": [lane["n"] for lane in lanes],
            },
            memory,
            n=4,
        )
        got = batch_outcomes(result)
        assert got == scalar_reference(SCANNER, lanes, memory)
        # Lane 0 really did stop where it started.
        assert got[0][1] == (10, 0)
        # Lanes 1 and 2 found the sentinel at different offsets ...
        assert got[1][1] == (30, 7)
        assert got[2][1] == (30, 4)
        # ... and lane 3 ran out of budget before reaching it.
        assert got[3][1] == (13, 0)

    def test_every_lane_runs_a_different_iteration_count(self):
        engine = VectorizedDescription(COUNTER)
        counts = list(range(8))
        result = engine.run_batch(
            {"n": counts, "acc": [100] * len(counts)}, {}, n=len(counts)
        )
        got = batch_outcomes(result)
        lanes = [{"n": n, "acc": 100} for n in counts]
        assert got == scalar_reference(COUNTER, lanes)
        # Distinct loop trip counts produce distinct step counts.
        steps = [outcome[3] for outcome in got]
        assert len(set(steps)) == len(counts)
        assert [outcome[1] for outcome in got] == [
            (100 + 3 * n,) for n in counts
        ]


class TestLaneOutcomes:
    def test_any_lanes_in_the_order_asked(self):
        """One gather serves any lanes, repeated or out of order, and
        raising lanes among them."""
        engine = VectorizedDescription(SCANNER, max_steps=30)
        memory = {30: 7}
        lanes = [
            {"p": 10, "c": 7, "n": 0},
            {"p": 28, "c": 7, "n": 9},
            {"p": 25, "c": 7, "n": 9},
            {"p": 10, "c": 7, "n": 3},
            {"p": 40, "c": 7, "n": 400},
        ]
        result = engine.run_batch(
            {name: [lane[name] for lane in lanes] for name in "pcn"},
            memory,
            n=len(lanes),
        )
        order = [4, 1, 3, 1, 0]
        got = batch_outcomes(result, order)
        assert got[0][:2] == ("raise", "StepLimitExceeded")
        assert got == scalar_reference(
            SCANNER, [lanes[i] for i in order], memory, max_steps=30
        )


class TestStepLimit:
    def test_budget_expires_in_a_strict_subset_of_lanes(self):
        """Some lanes finish, some hit the limit — never all-or-nothing."""
        max_steps = 60
        engine = VectorizedDescription(COUNTER, max_steps=max_steps)
        counts = [0, 3, 200, 5, 400]
        lanes = [{"n": n, "acc": 0} for n in counts]
        result = engine.run_batch(
            {"n": counts, "acc": [0] * len(counts)}, {}, n=len(counts)
        )
        got = batch_outcomes(result)
        assert got == scalar_reference(
            COUNTER, lanes, max_steps=max_steps
        )
        kinds = [outcome[0] for outcome in got]
        assert kinds.count("raise") == 2
        assert kinds.count("result") == 3
        # The raising lanes carry the scalar engine's exact message.
        scalar = Interpreter(COUNTER, max_steps=max_steps)
        with pytest.raises(StepLimitExceeded) as excinfo:
            scalar.run({"n": 200, "acc": 0}, {})
        assert got[2] == ("raise", "StepLimitExceeded", str(excinfo.value))

    def test_raising_lane_does_not_poison_neighbours(self):
        """A lane that dies mid-loop leaves other lanes' state intact."""
        engine = VectorizedDescription(COUNTER, max_steps=40)
        result = engine.run_batch({"n": [1000, 2], "acc": [0, 50]}, {}, n=2)
        assert result.errors[0] is not None
        assert result.errors[1] is None
        assert result.lane_raise_or_result(1).outputs == (56,)


class TestDegenerateBatch:
    def test_single_lane_batch_equals_scalar_run(self):
        engine = VectorizedDescription(SCANNER)
        memory = {12: 9, 14: 3}
        inputs = {"p": 10, "c": 3, "n": 8}
        result = engine.run_batch(
            {name: [value] for name, value in inputs.items()}, memory, n=1
        )
        assert result.n == 1
        scalar = Interpreter(SCANNER).run(dict(inputs), dict(memory))
        lane = result.lane_raise_or_result(0)
        assert lane.outputs == scalar.outputs
        assert lane.memory == scalar.memory
        assert lane.registers == scalar.registers
        assert lane.steps == scalar.steps


#: a scan whose exit condition calls a routine that advances the
#: pointer, so the pointer also moves on the iteration the exit fires.
ADVANCING_SCAN = parse_description(
    """
    t.op := begin
        ** S **
            p: integer, n: integer, c<7:0>, start: integer
        ** R **
            next(): integer := begin
                next <- Mb[ p ];
                p <- p + 1;
            end
        ** P **
            t.execute() := begin
                input (p, n, c);
                start <- p;
                repeat
                    exit_when (n = 0);
                    exit_when (c = next());
                    n <- n - 1;
                end_repeat;
                output (p - start, n);
            end
    end
    """
)


class TestFusedLoops:
    def test_increment_inside_exit_call_counts_on_the_exit_iteration(self):
        engine = VectorizedDescription(ADVANCING_SCAN)
        memory = {10 + i: i for i in range(8)}
        lanes = [{"p": 10, "n": 8, "c": c} for c in (0, 3, 7, 99)]
        result = engine.run_batch(
            {name: [lane[name] for lane in lanes] for name in ("p", "n", "c")},
            memory,
            n=len(lanes),
        )
        got = batch_outcomes(result)
        assert got == scalar_reference(ADVANCING_SCAN, lanes, memory)
        assert [outcome[1] for outcome in got] == [(1, 8), (4, 5), (8, 1), (8, 0)]


# ---------------------------------------------------------------------------
# batches the numpy lanes cannot run

#: squares an unmasked register, writes it at ``a`` and reads ``b``.
SQUARE_STORE = parse_description(
    """
    t.op := begin
        ** S **
            x: integer, a<31:0>, b<31:0>
        ** P **
            t.execute() := begin
                input (x, a, b);
                x <- x * x;
                Mb[ a ] <- x;
                output (x, Mb[ b ]);
            end
    end
    """
)

#: (inputs, initial memory) of batches that leave the numpy lanes: with
#: numpy the first two escalate mid-run, and the lanes refuse the other
#: three before it.
FALLBACK_BATCHES = {
    "square past 2**61": (
        {"x": [3, 2**31 + 1, 5], "a": [10, 11, 12], "b": [10, 11, 12]},
        {},
    ),
    "write at 70000": (
        {"x": [1, 2, 3], "a": [10, 70_000, 20], "b": [70_000] * 3},
        {},
    ),
    "memory key 70000": (
        {"x": [1, 2], "a": [10, 11], "b": [70_000, 12]},
        {70_000: 9},
    ),
    "initial byte 300": (
        {"x": [1, 2], "a": [10, 11], "b": [12, 10]},
        {12: 300},
    ),
    "input 2**62": (
        {"x": [2**62, 4], "a": [10, 11], "b": [10, 11]},
        {},
    ),
}


class TestInterpreterFallback:
    @pytest.mark.parametrize(
        "inputs, memory", FALLBACK_BATCHES.values(), ids=list(FALLBACK_BATCHES)
    )
    def test_batch_runs_on_the_interpreter(self, inputs, memory):
        n = len(inputs["x"])
        with obs.collecting() as registry:
            result = VectorizedDescription(SQUARE_STORE).run_batch(
                inputs, memory, n=n
            )
        assert (
            obs.counter_value(registry.snapshot(), "repro_vector_fallback_total")
            == 1
        )
        reference = Interpreter(SQUARE_STORE)
        lanes = [
            {name: column[lane] for name, column in inputs.items()}
            for lane in range(n)
        ]
        assert [outcome[:3] for outcome in result.lane_outcomes(range(n))] == [
            _observe(reference, lane, memory)[:3] for lane in lanes
        ]
        gated = ExecutionEngine(name="vectorized", gate="always").executor(
            SQUARE_STORE
        )
        with obs.collecting() as registry:
            assert gated.run_batch(inputs, memory, n=n).n == n
        # The batch already ran lane by lane on the interpreter, so the
        # gate has nothing to cross-check.
        assert (
            obs.counter_value(registry.snapshot(), "repro_engine_gate_checks_total")
            == 0
        )

    def test_scalar_run_on_the_interpreter_is_not_rechecked(self):
        # A scalar run is an N=1 batch, gated on the batch path: one the
        # lanes refuse runs on the interpreter and is not run again.
        gated = ExecutionEngine(name="vectorized", gate="always").executor(
            SQUARE_STORE
        )
        inputs = {"x": 2**62, "a": 10, "b": 10}
        with obs.collecting() as registry:
            result = gated.run(inputs)
            snapshot = registry.snapshot()
        assert result == Interpreter(SQUARE_STORE).run(inputs)
        assert result.outputs == (2**124, 0)
        assert obs.counter_value(snapshot, "repro_vector_fallback_total") == 1
        assert obs.counter_value(snapshot, "repro_engine_gate_checks_total") == 0


# ---------------------------------------------------------------------------
# differential gate on a planted vector-lowering bug

SUB_ONE = parse_description(
    """
    t.op := begin
        ** S **
            x<7:0>
        ** P **
            t.execute() := begin
                input (x);
                x <- x - 1;
                output (x);
            end
    end
    """
)


class TestVectorizedGate:
    def test_gate_fires_on_scalar_run(self, planted_vector_bug):
        from repro.semantics.engine import (
            EngineMismatchError,
            ExecutionEngine,
        )

        executor = ExecutionEngine(name="vectorized").executor(SUB_ONE)
        with pytest.raises(EngineMismatchError) as excinfo:
            executor.run({"x": 5})
        assert "vectorized engine disagrees with" in str(excinfo.value)
        assert "t.op" in str(excinfo.value)

    def test_gate_fires_on_batch_run(self, planted_vector_bug):
        from repro.semantics.engine import (
            EngineMismatchError,
            ExecutionEngine,
        )

        executor = ExecutionEngine(name="vectorized").executor(SUB_ONE)
        with pytest.raises(EngineMismatchError) as excinfo:
            executor.run_batch({"x": [5, 9, 13]}, {}, n=3)
        assert "vectorized engine disagrees with" in str(excinfo.value)

    def test_gate_off_lets_the_bug_through(self, planted_vector_bug):
        from repro.semantics.engine import ExecutionEngine

        executor = ExecutionEngine(name="vectorized", gate="off").executor(
            SUB_ONE
        )
        assert executor.run({"x": 5}).outputs == (6,)

    def test_scalar_engines_are_immune(self, planted_vector_bug):
        from repro.semantics.engine import ExecutionEngine

        executor = ExecutionEngine(name="interp").executor(SUB_ONE)
        assert executor.run({"x": 5}).outputs == (4,)
