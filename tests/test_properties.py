"""Cross-cutting property-based tests (hypothesis).

Random ISDL expression trees round-trip through the printer; the
interpreter is deterministic and state-isolated; generated descriptions
with random register widths truncate consistently.
"""

from hypothesis import given, settings, strategies as st

from repro.isdl import ast, format_expr, parse_expr
from repro.isdl.visitor import strip_comments, walk
from repro.semantics import run_description
from repro.isdl import parse_description

# ---------------------------------------------------------------------------
# expression strategies

_names = st.sampled_from(["a", "b", "Src.Base", "cx", "zf"])

_leaf = st.one_of(
    st.integers(min_value=0, max_value=999).map(ast.Const),
    _names.map(ast.Var),
)


def _exprs(children):
    binop = st.builds(
        ast.BinOp,
        st.sampled_from(["+", "-", "*", "=", "<>", "<", "<=", ">", ">=", "and", "or"]),
        children,
        children,
    )
    unop = st.builds(ast.UnOp, st.sampled_from(["not", "-"]), children)
    mem = st.builds(ast.MemRead, children)
    call = st.builds(
        ast.Call, st.sampled_from(["f", "g"]), st.tuples(children)
    )
    return st.one_of(binop, unop, mem, call)


expr_trees = st.recursive(_leaf, _exprs, max_leaves=12)


@given(expr_trees)
@settings(max_examples=300)
def test_printer_parser_roundtrip(expr):
    printed = format_expr(expr)
    assert parse_expr(printed) == expr


@given(expr_trees)
def test_walk_paths_unique(expr):
    paths = [path for path, _ in walk(expr)]
    assert len(paths) == len(set(paths))


@given(expr_trees)
def test_strip_comments_idempotent(expr):
    once = strip_comments(expr)
    assert strip_comments(once) == once


# ---------------------------------------------------------------------------
# interpreter properties

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


@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=1000),
)
def test_counter_loop_closed_form(n, acc):
    result = run_description(COUNTER, {"n": n, "acc": acc})
    assert result.outputs == ((acc + 3 * n) & 0xFFFF,)


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=255),
        max_size=8,
    )
)
def test_interpreter_does_not_mutate_input_memory(memory):
    desc = parse_description(
        """
        t.op := begin
            ** S **
                p<7:0>
            ** P **
                t.execute() := begin
                    input (p);
                    Mb[ p ] <- 123;
                end
        end
        """
    )
    snapshot = dict(memory)
    run_description(desc, {"p": 3}, memory)
    assert memory == snapshot


@given(st.integers(min_value=0, max_value=255))
def test_runs_are_isolated(char):
    """Two runs of the same interpreter share no state."""
    from repro.machines.i8086 import scasb
    from repro.semantics import Interpreter

    interp = Interpreter(scasb())
    memory = {100: char}
    inputs = {
        "rf": 1, "rfz": 0, "df": 0, "zf": 0, "di": 100, "cx": 1, "al": char
    }
    first = interp.run(inputs, memory)
    second = interp.run(inputs, memory)
    assert first == second


# ---------------------------------------------------------------------------
# three-way engine equivalence

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


def _observe_all_engines(description, inputs, memory):
    from repro.semantics import (
        Interpreter,
        StepLimitExceeded,
        VectorizedDescription,
    )

    def observe(run):
        try:
            result = run()
            return (
                "ok",
                result.outputs,
                result.memory,
                result.registers,
                result.steps,
            )
        except StepLimitExceeded as e:
            return ("raise", type(e).__name__, str(e))

    interp = Interpreter(description, max_steps=400)
    # The kernel runs only batches: one lane holds this trial.
    batch = VectorizedDescription(description, max_steps=400).run_batch(
        {name: [value] for name, value in inputs.items()}, [dict(memory)], n=1
    )
    return [
        observe(lambda: interp.run(dict(inputs), dict(memory))),
        observe(lambda: batch.lane_raise_or_result(0)),
    ]


@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=1000),
)
def test_engines_agree_on_counter_loop(n, acc):
    """Interp and vectorized observe the same counter loop."""
    interp, vectorized = _observe_all_engines(
        COUNTER, {"n": n, "acc": acc}, {}
    )
    assert vectorized == interp


@given(
    p=st.integers(min_value=0, max_value=40),
    c=st.integers(min_value=0, max_value=255),
    n=st.integers(min_value=0, max_value=60),
    cells=st.dictionaries(
        st.integers(min_value=0, max_value=48),
        st.integers(min_value=0, max_value=255),
        max_size=10,
    ),
)
def test_engines_agree_on_memory_scan(p, c, n, cells):
    """Both engines agree on a memory scan, including step limits."""
    interp, vectorized = _observe_all_engines(
        SCANNER, {"p": p, "c": c, "n": n}, cells
    )
    assert vectorized == interp
