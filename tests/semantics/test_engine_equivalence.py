"""Property-based engine equivalence: random ISDL vs. both engines.

Hypothesis builds arbitrary (well-formed) ISDL programs — nested
repeats with ``exit_when``, call-by-value routine calls, memory
traffic, asserts — and requires the vectorized engine to reproduce the
interpreter's observation exactly: same outputs,
memory, registers, and step count on success; same exception type and
message on failure.  The step budget is kept small so the limit itself
is a routinely exercised code path, not a rarity.
"""

from hypothesis import given, settings, strategies as st

from repro.isdl import parse_description
from repro.isdl.errors import SemanticError
from repro.semantics import (
    AssertionFailed,
    Interpreter,
    StepLimitExceeded,
    VectorizedDescription,
)
from repro.semantics.interpreter import _LoopExit

MAX_STEPS = 500

#: expression leaves: the three registers, the routine parameter is
#: only in scope inside the helper, so it is added there.
LEAVES = ("a", "b", "n", "0", "1", "2", "7", "250")

BINOPS = ("+", "-", "*", "=", "<", ">", "and", "or")


def exprs(leaves):
    leaf = st.sampled_from(leaves)

    def compound(children):
        binop = st.tuples(st.sampled_from(BINOPS), children, children).map(
            lambda t: f"({t[1]} {t[0]} {t[2]})"
        )
        unop = children.map(lambda e: f"(not {e})")
        memread = children.map(lambda e: f"Mb[ {e} ]")
        return st.one_of(binop, unop, memread)

    return st.recursive(leaf, compound, max_leaves=6)


def statements(leaves, depth=2, in_repeat=False, allow_calls=True):
    expr = exprs(leaves)
    targets = st.sampled_from(("a", "b", "n"))
    assign = st.tuples(targets, expr).map(lambda t: f"{t[0]} <- {t[1]};")
    memwrite = st.tuples(expr, expr).map(
        lambda t: f"Mb[ {t[0]} ] <- {t[1]};"
    )
    asserts = expr.map(lambda e: f"assert ({e} = {e});")
    options = [assign, assign, memwrite, asserts]
    if allow_calls:
        options.append(
            st.tuples(targets, expr).map(
                lambda t: f"{t[0]} <- helper({t[1]});"
            )
        )
    if in_repeat:
        options.append(expr.map(lambda e: f"exit_when ({e});"))
    if depth > 0:
        inner = statements(leaves, depth - 1, in_repeat, allow_calls)
        options.append(
            st.tuples(expr, inner, inner).map(
                lambda t: f"if {t[0]} then {t[1]} else {t[2]} end_if;"
            )
        )
        body = statements(leaves, depth - 1, in_repeat=True, allow_calls=allow_calls)
        # Every repeat gets a decrementing guard so most generated
        # loops terminate on their own; the step budget catches the
        # rest identically in both engines.
        options.append(
            body.map(
                lambda s: "repeat exit_when (n < 0); n <- n - 1; "
                f"{s} end_repeat;"
            )
        )
    blocks = st.lists(st.one_of(options), min_size=1, max_size=3)
    return blocks.map(" ".join)


@st.composite
def programs(draw):
    # The helper must not loop forever on its own: no repeats inside
    # (exit_when outside a lexical repeat still propagates to the
    # caller's loop — a behaviour the interpreter defines and the
    # vectorizer must copy, covered by including plain exit_when here).
    helper_body = draw(
        statements(LEAVES + ("p",), depth=1, in_repeat=True, allow_calls=False)
    )
    helper_ret = draw(exprs(LEAVES + ("p",)))
    main_body = draw(statements(LEAVES, depth=2))
    return f"""
    t.op := begin
        ** S **
            a<7:0>, b<15:0>, n: integer
        ** R **
            helper(p) := begin
                {helper_body}
                helper <- {helper_ret};
            end
        ** P **
            t.execute() := begin
                input (a, b, n);
                {main_body}
                output (a, b, n);
            end
    end
    """


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
    except (StepLimitExceeded, AssertionFailed, SemanticError, ValueError) as e:
        return ("raise", type(e).__name__, str(e))
    except _LoopExit:
        # An exit_when with no dynamically enclosing repeat leaks the
        # interpreter's internal signal; the vectorized engine mirrors
        # even that corner exactly.
        return ("raise", "_LoopExit", "")


@settings(max_examples=60, deadline=None)
@given(
    text=programs(),
    a=st.integers(min_value=0, max_value=255),
    b=st.integers(min_value=0, max_value=70000),
    n=st.integers(min_value=-3, max_value=40),
    cells=st.dictionaries(
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=0, max_value=255),
        max_size=8,
    ),
)
def test_fast_engines_match_interpreter(text, a, b, n, cells):
    description = parse_description(text)
    inputs = {"a": a, "b": b, "n": n}
    interp = Interpreter(description, max_steps=MAX_STEPS)
    want = observe(lambda: interp.run(inputs, dict(cells)))
    # The kernel runs only batches: a one-lane batch per example.
    batch = VectorizedDescription(description, max_steps=MAX_STEPS).run_batch(
        {name: [value] for name, value in inputs.items()}, [dict(cells)], n=1
    )
    assert observe(lambda: batch.lane_raise_or_result(0)) == want
