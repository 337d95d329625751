"""Library performance characteristics (not a paper artifact).

Times the hot paths a downstream user exercises: parsing a description,
interpreting one (per scasb search), applying a guarded transformation,
replaying a full analysis, compiling and simulating a program.  Useful
for catching performance regressions in the engine.
"""

import pytest

from repro.analyses import scasb_rigel
from repro.analysis import RunConfig
from repro.codegen import ir, target_for
from repro.isdl import parse_description
from repro.machines.i8086 import descriptions as i8086
from repro.semantics import Interpreter, VectorizedDescription
from repro.transform import Session


def test_parse_description(benchmark):
    desc = benchmark(parse_description, i8086.SCASB_TEXT)
    assert desc.name == "scasb.instruction"


def test_interpret_search(benchmark):
    interp = Interpreter(i8086.scasb())
    memory = {100 + i: (i * 7) % 251 for i in range(64)}
    inputs = {
        "rf": 1, "rfz": 0, "df": 0, "zf": 0,
        "di": 100, "cx": 64, "al": 250,
    }
    result = benchmark(interp.run, inputs, memory)
    assert result.outputs[0] in (0, 1)


def test_vectorized_single_lane_search(benchmark):
    # Same workload as test_interpret_search as a one-lane kernel batch:
    # the kernel's fixed cost per batch.  A scalar run on the default
    # engine takes test_interpret_search's path.
    vectorized = VectorizedDescription(i8086.scasb())
    memory = {100 + i: (i * 7) % 251 for i in range(64)}
    inputs = {
        "rf": 1, "rfz": 0, "df": 0, "zf": 0,
        "di": 100, "cx": 64, "al": 250,
    }
    columns = {name: [value] for name, value in inputs.items()}
    batch = benchmark(vectorized.run_batch, columns, [memory], n=1)
    result = batch.lane_raise_or_result(0)
    assert result.outputs[0] in (0, 1)
    reference = Interpreter(i8086.scasb()).run(inputs, memory)
    assert result.outputs == reference.outputs
    assert result.steps == reference.steps


def test_vectorized_lowering(benchmark):
    # The one-time cost the vectorized engine pays per distinct
    # description (cache-bypassing: lowers fresh every round).
    from repro.semantics.vectorized import _lower_vectorized

    desc = i8086.scasb()
    program = benchmark(_lower_vectorized, desc)
    assert program.description_name == desc.name


def test_apply_guarded_transformation(benchmark):
    def apply_once():
        session = Session(i8086.scasb())
        session.apply("fix_operand", operand="df", value=0)
        return session

    session = benchmark(apply_once)
    assert session.steps == 1


def test_full_analysis_replay(benchmark):
    outcome = benchmark(scasb_rigel.run, RunConfig(verify=False))
    assert outcome.succeeded


def test_compile_and_simulate(benchmark):
    target = target_for("i8086")
    prog = (
        ir.StringIndex(
            result="idx",
            base=ir.Param("s", 0, 60000),
            length=ir.Param("n", 0, 60000),
            char=ir.Param("c", 0, 255),
        ),
    )
    memory = {100 + i: (i * 3) % 256 for i in range(32)}

    def run():
        asm = target.compile(prog)
        return target.simulate(asm, {"s": 100, "n": 32, "c": 93}, memory)

    result = benchmark(run)
    assert "idx" in result.results
