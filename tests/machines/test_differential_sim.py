"""Differential fuzzing: ISDL ``Interpreter`` vs. the machine simulators.

Every modeled instruction exists twice in this repo: as an ISDL
description (what the analyses transform and verify) and as a mnemonic
in the target machine's simulator (what generated code runs on).  The
two must agree — an ISDL description that drifts from its simulator
would let an analysis "verify" an equivalence the emitted code does not
have.  Extending :mod:`tests.transform.test_fuzz_preservation`'s
pattern, this suite executes both on randomized machine states — at
least two instructions per machine — and requires identical results
and identical final memories.

Simulators expose condition codes only through branches, so where an
ISDL description outputs a flag (``scasb``'s ``zf``, ``cmpc3``/``clc``'s
``z``), the simulator side runs a small program that materializes the
flag into a register — which differentially tests the branch semantics
for free.
"""

import random

import pytest

from repro.asm import AsmProgram, Imm, Instr, Label, LabelRef, ParamRef, Reg
from repro.machines import load_description
from repro.machines.b4800 import B4800Simulator
from repro.machines.i8086 import I8086Simulator
from repro.machines.ibm370 import Ibm370Simulator
from repro.machines.vax11 import Vax11Simulator
from repro.semantics import ExecutionEngine, derive_seed

TRIALS = 25

#: vectorized execution with the always-on differential gate, so the
#: ISDL side of every sim comparison is itself cross-checked against
#: the reference interpreter.
ENGINE = ExecutionEngine()


def _rng(*labels):
    return random.Random(derive_seed(20260805, *labels))


def _run(machine, mnemonic, inputs, memory):
    """The ISDL side of one trial, as a one-lane kernel batch."""
    executor = ENGINE.executor(load_description(machine, mnemonic))
    batch = executor.run_batch(
        {name: [value] for name, value in inputs.items()}, [memory], n=1
    )
    return batch.lane_raise_or_result(0)


def _string_memory(rng, *bases, length=16):
    memory = {}
    for base in bases:
        for offset in range(length):
            memory[base + offset] = rng.randrange(256)
    return memory


def _program(machine, lines):
    return AsmProgram(machine, list(lines))


# ---------------------------------------------------------------- i8086


@pytest.mark.parametrize("trial", range(TRIALS))
def test_i8086_movsb(trial):
    rng = _rng("i8086", "movsb", trial)
    cx = rng.randint(0, 12)
    memory = _string_memory(rng, 16, 300)
    inputs = {"rf": 1, "df": 0, "si": 16, "di": 300, "cx": cx}
    run = _run("i8086", "movsb", inputs, memory)

    program = _program(
        "i8086",
        [
            Instr("mov", (Reg("si"), ParamRef("si"))),
            Instr("mov", (Reg("di"), ParamRef("di"))),
            Instr("mov", (Reg("cx"), ParamRef("cx"))),
            Instr("rep_movsb"),
        ],
    )
    sim = I8086Simulator().run(program, {"si": 16, "di": 300, "cx": cx}, memory)
    # ISDL output order: (si, di, cx).
    assert run.outputs == (
        sim.registers["si"],
        sim.registers["di"],
        sim.registers["cx"],
    )
    assert run.memory == sim.memory.snapshot()


@pytest.mark.parametrize("trial", range(TRIALS))
def test_i8086_scasb(trial):
    rng = _rng("i8086", "scasb", trial)
    cx = rng.randint(0, 12)
    memory = _string_memory(rng, 16)
    # Bias the sought byte toward one that occurs in the string.
    al = memory[16 + rng.randrange(16)] if rng.random() < 0.5 else rng.randrange(256)
    inputs = {"rf": 1, "rfz": 0, "df": 0, "zf": 0, "di": 16, "cx": cx, "al": al}
    run = _run("i8086", "scasb", inputs, memory)

    program = _program(
        "i8086",
        [
            Instr("mov", (Reg("di"), ParamRef("di"))),
            Instr("mov", (Reg("cx"), ParamRef("cx"))),
            Instr("mov", (Reg("al"), ParamRef("al"))),
            Instr("repne_scasb"),
            # Materialize the zero flag into ax.
            Instr("jz", (LabelRef("found"),)),
            Instr("mov", (Reg("ax"), Imm(0))),
            Instr("jmp", (LabelRef("end"),)),
            Label("found"),
            Instr("mov", (Reg("ax"), Imm(1))),
            Label("end"),
        ],
    )
    sim = I8086Simulator().run(program, {"di": 16, "cx": cx, "al": al}, memory)
    # ISDL output order: (zf, di, cx).
    assert run.outputs == (
        sim.registers["ax"],
        sim.registers["di"],
        sim.registers["cx"],
    )
    assert run.memory == sim.memory.snapshot()


@pytest.mark.parametrize("trial", range(TRIALS))
def test_i8086_stosb(trial):
    rng = _rng("i8086", "stosb", trial)
    cx = rng.randint(0, 12)
    al = rng.randrange(256)
    memory = _string_memory(rng, 40)
    inputs = {"rf": 1, "df": 0, "al": al, "cx": cx, "di": 40}
    run = _run("i8086", "stosb", inputs, memory)

    program = _program(
        "i8086",
        [
            Instr("mov", (Reg("di"), ParamRef("di"))),
            Instr("mov", (Reg("cx"), ParamRef("cx"))),
            Instr("mov", (Reg("al"), ParamRef("al"))),
            Instr("rep_stosb"),
        ],
    )
    sim = I8086Simulator().run(program, {"di": 40, "cx": cx, "al": al}, memory)
    # ISDL output order: (di, cx).
    assert run.outputs == (sim.registers["di"], sim.registers["cx"])
    assert run.memory == sim.memory.snapshot()


# ---------------------------------------------------------------- vax11


@pytest.mark.parametrize("trial", range(TRIALS))
def test_vax11_movc3(trial):
    rng = _rng("vax11", "movc3", trial)
    length = rng.randint(0, 12)
    # Sometimes overlapping: both sides must take the same direction.
    src = rng.choice((16, 20, 300))
    dst = rng.choice((16, 20, 24, 400))
    memory = _string_memory(rng, src, dst)
    run = _run(
        "vax11", "movc3", {"len": length, "srcaddr": src, "dstaddr": dst}, memory
    )

    program = _program(
        "vax11",
        [Instr("movc3", (ParamRef("len"), ParamRef("src"), ParamRef("dst")))],
    )
    sim = Vax11Simulator().run(
        program, {"len": length, "src": src, "dst": dst}, memory
    )
    # ISDL output order: (r0, r1, r3).
    assert run.outputs == (
        sim.registers["r0"],
        sim.registers["r1"],
        sim.registers["r3"],
    )
    assert run.memory == sim.memory.snapshot()


@pytest.mark.parametrize("trial", range(TRIALS))
def test_vax11_locc(trial):
    rng = _rng("vax11", "locc", trial)
    length = rng.randint(0, 12)
    memory = _string_memory(rng, 16)
    char = memory[16 + rng.randrange(16)] if rng.random() < 0.5 else rng.randrange(256)
    run = _run(
        "vax11", "locc", {"char": char, "len": length, "addr": 16}, memory
    )

    program = _program(
        "vax11",
        [Instr("locc", (ParamRef("char"), ParamRef("len"), ParamRef("addr")))],
    )
    sim = Vax11Simulator().run(
        program, {"char": char, "len": length, "addr": 16}, memory
    )
    # ISDL output order: (r0, r1).
    assert run.outputs == (sim.registers["r0"], sim.registers["r1"])
    assert run.memory == sim.memory.snapshot()


@pytest.mark.parametrize("trial", range(TRIALS))
def test_vax11_cmpc3(trial):
    rng = _rng("vax11", "cmpc3", trial)
    length = rng.randint(0, 12)
    memory = _string_memory(rng, 16, 300)
    if rng.random() < 0.5:  # force equal prefixes to exercise the z=1 exit
        for offset in range(16):
            memory[300 + offset] = memory[16 + offset]
    run = _run(
        "vax11", "cmpc3", {"len": length, "addr1": 16, "addr2": 300}, memory
    )

    program = _program(
        "vax11",
        [
            Instr("cmpc3", (ParamRef("len"), ParamRef("a1"), ParamRef("a2"))),
            # Materialize the Z condition code into r5.
            Instr("beql", (LabelRef("eq"),)),
            Instr("movl", (Reg("r5"), Imm(0))),
            Instr("brb", (LabelRef("end"),)),
            Label("eq"),
            Instr("movl", (Reg("r5"), Imm(1))),
            Label("end"),
        ],
    )
    sim = Vax11Simulator().run(program, {"len": length, "a1": 16, "a2": 300}, memory)
    # ISDL output order: (z, r0, r1, r3).
    assert run.outputs == (
        sim.registers["r5"],
        sim.registers["r0"],
        sim.registers["r1"],
        sim.registers["r3"],
    )
    assert run.memory == sim.memory.snapshot()


# --------------------------------------------------------------- ibm370


@pytest.mark.parametrize("trial", range(TRIALS))
def test_ibm370_mvc(trial):
    rng = _rng("ibm370", "mvc", trial)
    code = rng.randint(0, 12)  # encoded length: moves code + 1 bytes
    memory = _string_memory(rng, 16, 300)
    run = _run(
        "ibm370", "mvc", {"d1": 300, "d2": 16, "len": code}, memory
    )

    program = _program(
        "ibm370",
        [Instr("mvc", (ParamRef("dst"), ParamRef("src"), ParamRef("len")))],
    )
    sim = Ibm370Simulator().run(
        program, {"dst": 300, "src": 16, "len": code}, memory
    )
    assert run.outputs == ()
    assert run.memory == sim.memory.snapshot()


@pytest.mark.parametrize("trial", range(TRIALS))
def test_ibm370_clc(trial):
    rng = _rng("ibm370", "clc", trial)
    code = rng.randint(0, 12)
    memory = _string_memory(rng, 16, 300)
    if rng.random() < 0.5:
        for offset in range(16):
            memory[300 + offset] = memory[16 + offset]
    run = _run(
        "ibm370", "clc", {"c1": 16, "c2": 300, "len": code}, memory
    )

    program = _program(
        "ibm370",
        [
            Instr("clc", (ParamRef("c1"), ParamRef("c2"), ParamRef("len"))),
            # Materialize the Z condition code into r5.
            Instr("bz", (LabelRef("eq"),)),
            Instr("la", (Reg("r5"), Imm(0))),
            Instr("b", (LabelRef("end"),)),
            Label("eq"),
            Instr("la", (Reg("r5"), Imm(1))),
            Label("end"),
        ],
    )
    sim = Ibm370Simulator().run(program, {"c1": 16, "c2": 300, "len": code}, memory)
    # ISDL output order: (z,).
    assert run.outputs == (sim.registers["r5"],)
    assert run.memory == sim.memory.snapshot()


@pytest.mark.parametrize("trial", range(TRIALS))
def test_ibm370_tr(trial):
    rng = _rng("ibm370", "tr", trial)
    code = rng.randint(0, 12)
    # 256-byte translate table at 1024, string at 16.
    memory = _string_memory(rng, 16)
    for index in range(256):
        memory[1024 + index] = rng.randrange(256)
    run = _run(
        "ibm370", "tr", {"d1": 16, "d2": 1024, "len": code}, memory
    )

    program = _program(
        "ibm370",
        [Instr("tr", (ParamRef("d1"), ParamRef("d2"), ParamRef("len")))],
    )
    sim = Ibm370Simulator().run(program, {"d1": 16, "d2": 1024, "len": code}, memory)
    assert run.outputs == ()
    assert run.memory == sim.memory.snapshot()


# ---------------------------------------------------------------- b4800


def _linked_list(rng):
    """A random single-byte-cell linked list in the first 256 bytes."""
    offs = rng.randint(1, 6)
    node_count = rng.randint(0, 5)
    nodes = [16 + index * 8 for index in range(node_count)]
    memory = {}
    for index, node in enumerate(nodes):
        link = nodes[index + 1] if index + 1 < len(nodes) else 0
        memory[node] = link
        memory[node + offs] = rng.randrange(256)
    head = nodes[0] if nodes else 0
    if nodes and rng.random() < 0.5:
        key = memory[rng.choice(nodes) + offs]  # present in the list
    else:
        key = rng.randrange(256)
    return head, key, offs, memory


@pytest.mark.parametrize("trial", range(TRIALS))
def test_b4800_srl(trial):
    rng = _rng("b4800", "srl", trial)
    head, key, offs, memory = _linked_list(rng)
    run = _run(
        "b4800", "srl", {"ptr": head, "key": key, "offs": offs}, memory
    )

    program = _program(
        "b4800",
        [Instr("srl", (ParamRef("head"), ParamRef("key"), ParamRef("offs")))],
    )
    sim = B4800Simulator().run(
        program, {"head": head, "key": key, "offs": offs}, memory
    )
    # ISDL output order: (ptr,) — the found node, or 0.
    assert run.outputs == (sim.registers["ra"],)
    assert run.memory == sim.memory.snapshot()


@pytest.mark.parametrize("trial", range(TRIALS))
def test_b4800_mva(trial):
    rng = _rng("b4800", "mva", trial)
    code = rng.randint(0, 12)  # encoded length: moves code + 1 bytes
    memory = _string_memory(rng, 16, 300)
    run = _run(
        "b4800", "mva", {"a1": 300, "a2": 16, "len": code}, memory
    )

    program = _program(
        "b4800",
        [Instr("mva", (ParamRef("dst"), ParamRef("src"), ParamRef("len")))],
    )
    sim = B4800Simulator().run(
        program, {"dst": 300, "src": 16, "len": code}, memory
    )
    assert run.outputs == ()
    assert run.memory == sim.memory.snapshot()
