"""Kernel-compiler tests: parity, caching, and the gate.

The vectorized engine lowers each description to a lane-masked Python
kernel.  It is only trustworthy because (a) it reproduces the
interpreter's observable behaviour *exactly* — results, step counts,
and every error message — for a single trial and on every lane of a
wide batch, and (b) the differential gate catches it if it ever stops
doing so.  The planted-miscompile tests prove (b) is not vacuous: they
break the lowering on purpose and watch the gate fire.
"""

import dataclasses

import pytest

from repro.analysis import RunConfig
from repro.isdl import ast, parse_description, printer
from repro.isdl.visitor import replace_at, walk
from repro.isdl.errors import SemanticError
from repro.semantics import (
    AssertionFailed,
    ExecutionEngine,
    Interpreter,
    StepLimitExceeded,
    VectorizedDescription,
    clear_vector_cache,
    compile_vectorized,
    vector_cache_stats,
)
from repro.semantics.engine import EngineMismatchError
from repro.semantics.interpreter import _LoopExit

#: width of the multi-lane parity batch; every lane runs the same state.
LANES = 3


def make(body, regs="x<7:0>, y<15:0>", sections=""):
    return parse_description(
        f"""
        t.op := begin
            ** S **
                {regs}
            {sections}
            ** P **
                t.execute() := begin
                    {body}
                end
        end
        """
    )


def observe(run):
    try:
        result = run()
        return ("ok", result.outputs, result.memory, result.registers, result.steps)
    except (StepLimitExceeded, AssertionFailed, SemanticError, ValueError) as e:
        return ("raise", type(e).__name__, str(e))
    except _LoopExit:
        # exit_when outside any repeat leaks the internal signal.
        return ("raise", "_LoopExit", "")


def assert_parity(description, inputs, memory=None, max_steps=200_000):
    """Vectorized at N=1 and on every batch lane == the interpreter.

    Returns the interpreter's observation for further checks.
    """

    def fresh():
        return dict(memory) if memory else None

    interp = Interpreter(description, max_steps=max_steps)
    vector = VectorizedDescription(description, max_steps=max_steps)
    want = observe(lambda: interp.run(inputs, fresh()))
    assert observe(lambda: vector.run(inputs, fresh())) == want
    batch = vector.run_batch(
        {name: [value] * LANES for name, value in inputs.items()}, fresh(), n=LANES
    )
    for lane in range(LANES):
        assert observe(lambda: batch.lane_raise_or_result(lane)) == want
    return want


#: Each path-dependent run-time error, in the arm of an ``if`` that
#: ``x = 1`` takes and ``x = 0`` does not.
LAZY_ERRORS = {
    "undeclared-read": "output (zz);",
    "undeclared-write": "zz <- 1;",
    "undeclared-routine": "x <- nosuch();",
    "wrong-arity": "x <- f(x, n);",
    "negative-read": "output (Mb[ n - 5 ]);",
    "negative-write": "Mb[ n - 5 ] <- 1;",
    "step-limit": "repeat n <- n + 1; end_repeat;",
    "assertion": "assert (x = 0);",
    "unknown-operator": "output (x * n);",
    "loop-exit-leak": "exit_when (x = 1);",
}


def lazy_error(kind):
    desc = make(
        f"input (x, n); if (x = 1) then {LAZY_ERRORS[kind]} end_if;"
        " output (x, n);",
        regs="x<7:0>, n: integer",
        sections="""
        ** R **
            f(a): integer := begin f <- a; end
        """,
    )
    if kind != "unknown-operator":
        return desc
    # The parser knows no unknown operator; plant one in the arm.
    path, node = next(
        (path, node)
        for path, node in walk(desc)
        if isinstance(node, ast.BinOp) and node.op == "*"
    )
    return replace_at(desc, path, dataclasses.replace(node, op="<<"))


class TestParity:
    """Vectorized results match the interpreter field for field."""

    def test_arithmetic_and_widths(self):
        desc = make("input (x, y); x <- x + 250; y <- y * 3; output (x, y);")
        assert_parity(desc, {"x": 200, "y": 40000})

    def test_integer_variables_never_truncate(self):
        desc = make("input (n); n <- n * n; output (n);", regs="n: integer")
        assert_parity(desc, {"n": 10**6})

    def test_memory_roundtrip_and_byte_masking(self):
        desc = make("input (y); Mb[ y ] <- 300; output (Mb[ y ]);")
        assert_parity(desc, {"y": 5}, {5: 9, 6: 200})

    def test_negative_memory_read_message(self):
        desc = make("input (n); output (Mb[ n - 5 ]);", regs="n: integer")
        assert_parity(desc, {"n": 1})

    def test_negative_memory_write_message(self):
        desc = make("input (n); Mb[ n - 5 ] <- 1;", regs="n: integer")
        assert_parity(desc, {"n": 1})

    def test_repeat_exit_when_and_steps(self):
        desc = make(
            "input (x); repeat exit_when (x = 0); x <- x - 1; end_repeat;"
            " output (x);"
        )
        assert_parity(desc, {"x": 9})

    def test_nested_repeats(self):
        desc = make(
            """
            input (x, y);
            repeat
                exit_when (x = 0);
                y <- x;
                repeat
                    exit_when (y = 0);
                    y <- y - 1;
                    Mb[ y ] <- x;
                end_repeat;
                x <- x - 1;
            end_repeat;
            output (x, y);
            """
        )
        assert_parity(desc, {"x": 5, "y": 0})

    def test_step_limit_message_and_threshold(self):
        looping = make("input (x); repeat x <- x + 1; end_repeat;")
        interp = assert_parity(looping, {"x": 0}, max_steps=50)
        assert interp[:2] == ("raise", "StepLimitExceeded")
        assert "exceeded 50 steps" in interp[2]
        # One step under the budget still succeeds identically.
        bounded = make(
            "input (x); repeat exit_when (x = 3); x <- x + 1; end_repeat;"
            " output (x);"
        )
        assert_parity(bounded, {"x": 0}, max_steps=50)

    def test_assertion_message(self):
        desc = make("input (x); assert (x > 10); output (x);")
        assert assert_parity(desc, {"x": 3})[1] == "AssertionFailed"

    def test_and_or_do_not_short_circuit(self):
        # Both operands evaluate even when the left decides: the memory
        # read on the right must still be able to raise.
        desc = make(
            "input (n); output ((1 = 1) or (Mb[ n - 9 ] = 0));",
            regs="n: integer",
        )
        assert_parity(desc, {"n": 2})

    def test_undeclared_reference(self):
        desc = make("input (x); output (zz);")
        assert_parity(desc, {"x": 1})

    def test_undeclared_store_still_evaluates_value(self):
        # The interpreter evaluates the right-hand side (ticking the
        # step budget through the routine call) before the store
        # raises, so a vectorized run must do the same.
        desc = make(
            "input (x); zz <- bump();",
            sections="""
            ** R **
                bump() := begin
                    x <- x + 1;
                    bump <- x;
                end
            """,
        )
        assert_parity(desc, {"x": 1})

    def test_call_by_value_and_return_width(self):
        desc = parse_description(
            """
            t.op := begin
                ** S **
                    n: integer
                ** R **
                    twice(k)<3:0> := begin
                        k <- k + k;
                        twice <- k;
                    end
                ** P **
                    t.execute() := begin
                        input (n);
                        output (twice(n), n);
                    end
            end
            """
        )
        assert_parity(desc, {"n": 9})

    def test_exit_when_propagates_across_call(self):
        # exit_when inside a called routine exits the caller's repeat —
        # the interpreter's cross-routine loop-exit signal.
        desc = make(
            """
            input (x);
            repeat
                x <- step();
            end_repeat;
            output (x);
            """,
            sections="""
            ** R **
                step() := begin
                    exit_when (x = 3);
                    x <- x + 1;
                    step <- x;
                end
            """,
        )
        assert_parity(desc, {"x": 0})

    def test_wrong_arity_after_argument_evaluation(self):
        desc = parse_description(
            """
            t.op := begin
                ** S **
                    n: integer
                ** R **
                    f(a): integer := begin f <- a; end
                ** P **
                    t.execute() := begin
                        input (n);
                        output (f());
                    end
            end
            """
        )
        assert_parity(desc, {"n": 1})

    def test_entry_with_params_rejected(self):
        desc = parse_description(
            """
            t.op := begin
                ** S **
                    n: integer
                ** P **
                    t.execute(k) := begin
                        input (n);
                        n <- k;
                    end
            end
            """
        )
        assert_parity(desc, {"n": 1})

    def test_duplicate_register_raises_at_run_time(self):
        desc = make("input (x); output (x);", regs="x<7:0>, x<7:0>")
        # Construction succeeds for both engines; only run() raises.
        vector = VectorizedDescription(desc)
        with pytest.raises(SemanticError, match="duplicate register"):
            vector.run({"x": 1})
        assert_parity(desc, {"x": 1})

    @pytest.mark.parametrize("kind", sorted(LAZY_ERRORS))
    def test_error_off_the_taken_path_stays_lazy(self, kind, monkeypatch):
        # Resolving a description must not raise what only one path
        # reaches: the error belongs to runs that take the arm.
        if kind == "unknown-operator":
            # The grammar has no such operator, so neither has the
            # printer that keys the kernel cache: lend it one.
            monkeypatch.setitem(printer._PRECEDENCE, "<<", printer._PRECEDENCE["*"])
        desc = lazy_error(kind)
        taken, skipped = {"x": 1, "n": 2}, {"x": 0, "n": 2}
        assert assert_parity(desc, taken, max_steps=500)[0] == "raise"
        assert assert_parity(desc, skipped, max_steps=500)[0] == "ok"
        executor = ExecutionEngine("vectorized", gate="always").executor(
            desc, max_steps=500
        )
        lanes = [taken, skipped, skipped, taken]
        columns = {name: [lane[name] for lane in lanes] for name in taken}
        if kind == "loop-exit-leak":
            # The gate re-runs the first taking lane on the interpreter,
            # and the leaked signal is not an observed error: it escapes.
            with pytest.raises(_LoopExit):
                executor.run_batch(columns, None, n=len(lanes))
            return
        batch = executor.run_batch(columns, None, n=len(lanes))
        reference = Interpreter(desc, max_steps=500)
        for lane, inputs in enumerate(lanes):
            want = observe(lambda: reference.run(inputs))
            assert observe(lambda: batch.lane_raise_or_result(lane)) == want

    def test_duplicate_routine_rejected(self):
        desc = make(
            "input (x); output (f());",
            sections="""
            ** R **
                f() := begin f <- 1; end
                f() := begin f <- 2; end
            """,
        )
        with pytest.raises(SemanticError, match="duplicate routine"):
            VectorizedDescription(desc)


class TestGeneratedSource:
    def test_source_is_inspectable(self):
        desc = make("input (x); repeat exit_when (x = 0); x <- x - 1; end_repeat;")
        source = VectorizedDescription(desc).source
        assert "def __run_batch__" in source
        assert "while M.any(" in source

    def test_register_stores_mask_inline(self):
        desc = make("input (x); x <- x + 1; output (x);")
        assert "& 255" in VectorizedDescription(desc).source


class TestCompileCache:
    def test_structurally_identical_descriptions_share(self):
        clear_vector_cache()
        first = make("input (x); output (x);")
        second = make("input (x); output (x);")
        compile_vectorized(first)
        stats = vector_cache_stats()
        assert stats["misses"] == 1
        compile_vectorized(second)
        stats = vector_cache_stats()
        assert stats == {"hits": 1, "misses": 1, "entries": 1}
        clear_vector_cache()
        assert vector_cache_stats() == {"hits": 0, "misses": 0, "entries": 0}


class TestDifferentialGate:
    def test_gate_fires_on_planted_miscompile(self, planted_vector_bug):
        desc = make("input (x); x <- x - 1; output (x);")
        executor = ExecutionEngine().executor(desc)
        with pytest.raises(EngineMismatchError) as excinfo:
            executor.run({"x": 5})
        assert "t.op" in str(excinfo.value)

    def test_gate_off_lets_the_miscompile_through(self, planted_vector_bug):
        desc = make("input (x); x <- x - 1; output (x);")
        executor = ExecutionEngine(gate="off").executor(desc)
        assert executor.run({"x": 5}).outputs == (6,)

    def test_verify_binding_raises_before_any_verdict(self, planted_vector_bug):
        # End to end: a verification run on a real analysis must refuse
        # to return a report when the engines disagree.
        from repro.analyses import scasb_rigel
        from repro.analysis import verify_binding

        outcome = scasb_rigel.run(verify=False)
        assert outcome.succeeded
        with pytest.raises(EngineMismatchError):
            verify_binding(
                outcome.binding,
                scasb_rigel.SCENARIO,
                config=RunConfig(trials=20),
                gate="always",
            )

    def test_interp_engine_is_immune(self, planted_vector_bug):
        desc = make("input (x); x <- x - 1; output (x);")
        executor = ExecutionEngine(name="interp").executor(desc)
        assert executor.run({"x": 5}).outputs == (4,)
