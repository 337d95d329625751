"""Spec-driven differential fuzzing: ISDL executors vs. spec simulators.

Every modeled-and-simulated instruction exists twice: as an ISDL
description (what the analyses transform and verify) and as a row in
the machine spec's operation table (what generated code runs on).
The spec's :class:`~repro.machines.spec.FuzzCase` records describe how
to exercise both on the same randomized state; this module is the
single driver that interprets those records — adding a machine to the
differential matrix means writing fuzz cases, not fuzz code.

A trial is deterministic in ``(machine, case, engine, trial)`` via
:func:`repro.semantics.derive_seed`, so a reported mismatch replays
exactly.  Disagreements raise :class:`FuzzMismatch` carrying the full
trial context (inputs, both sides' outputs, the memory delta).
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Dict, Optional, Tuple, Type

from ..asm import AsmProgram, Imm, Instr, MemRef, ParamRef, Reg
from ..semantics import ExecutionEngine, derive_seed
from .catalog import load_description
from .registry import ALL_KEYS, machine_spec
from .simbase import Simulator
from .spec import FuzzCase, MachineSpec
from .specsim import spec_simulator

#: seed namespace for the spec-driven matrix (distinct from the
#: hand-written differential suite's 20260805).
SEED_EPOCH = 20260807


class FuzzMismatch(AssertionError):
    """The ISDL executor and the spec simulator disagreed."""


@lru_cache(maxsize=None)
def simulator_class(key: str) -> Type[Simulator]:
    """The generated simulator class for a machine key (cached)."""
    return spec_simulator(machine_spec(key))


def fuzz_targets() -> Tuple[Tuple[str, str], ...]:
    """Every ``(machine key, case name)`` pair in the registry."""
    pairs = []
    for key in ALL_KEYS:
        for case in machine_spec(key).fuzz:
            pairs.append((key, case.name))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# Randomized state materialization


def _resolve(source, bindings: Dict[str, int]) -> int:
    if isinstance(source, int):
        return source
    if isinstance(source, tuple) and source[0] == "var":
        return bindings[source[1]]
    raise ValueError(f"unresolvable source {source!r}")


def _gen_var(generator, rng: random.Random, memory: Dict[int, int]) -> int:
    tag = generator[0]
    if tag == "int":
        return rng.randint(generator[1], generator[2])
    if tag == "byte":
        return rng.randrange(256)
    if tag == "byte_from":
        base, length = generator[1], generator[2]
        if rng.random() < 0.5:
            return memory[base + rng.randrange(length)]
        return rng.randrange(256)
    if tag == "choice":
        return rng.choice(generator[1])
    raise ValueError(f"unknown variable generator {generator!r}")


def _linked_list(rng: random.Random, memory: Dict[int, int]):
    """A random single-byte-cell linked list; returns (head, key, offs)."""
    offs = rng.randint(1, 6)
    node_count = rng.randint(0, 5)
    nodes = [16 + index * 8 for index in range(node_count)]
    for index, node in enumerate(nodes):
        link = nodes[index + 1] if index + 1 < len(nodes) else 0
        memory[node] = link
        memory[node + offs] = rng.randrange(256)
    head = nodes[0] if nodes else 0
    if nodes and rng.random() < 0.5:
        key = memory[rng.choice(nodes) + offs]  # present in the list
    else:
        key = rng.randrange(256)
    return head, key, offs


def _apply_memory(directive, rng, memory, bindings) -> None:
    # Address and length arguments are sources: int literals or
    # ("var", name) references to already-evaluated plain variables.
    tag = directive[0]
    if tag == "string":
        base, length = (_resolve(arg, bindings) for arg in directive[1:])
        for offset in range(length):
            memory[base + offset] = rng.randrange(256)
    elif tag == "mirror_maybe":
        dst, src, length = (_resolve(arg, bindings) for arg in directive[1:])
        if rng.random() < 0.5:
            for offset in range(length):
                memory[dst + offset] = memory[src + offset]
    elif tag == "table":
        base = _resolve(directive[1], bindings)
        for index in range(256):
            memory[base + index] = rng.randrange(256)
    elif tag == "linked_list":
        head, key, offs = _linked_list(rng, memory)
        bindings.update(head=head, key=key, offs=offs)
    elif tag == "cell":
        _, addr_source, value_source = directive
        addr = _resolve(addr_source, bindings)
        memory[addr] = _resolve(value_source, bindings) & 0xFF
    else:
        raise ValueError(f"unknown memory directive {directive!r}")


def materialize(
    case: FuzzCase, rng: random.Random
) -> Tuple[Dict[str, int], Dict[int, int]]:
    """Evaluate a case's generators: returns (bindings, memory).

    Order: plain variables, then memory directives (``linked_list``
    injects bindings), then ``byte_from`` variables — which may sample
    bytes the directives just wrote.
    """
    bindings: Dict[str, int] = {}
    memory: Dict[int, int] = {}
    deferred = []
    for name, generator in case.vars:
        if generator[0] == "byte_from":
            deferred.append((name, generator))
        else:
            bindings[name] = _gen_var(generator, rng, memory)
    for directive in case.memory:
        _apply_memory(directive, rng, memory, bindings)
    for name, generator in deferred:
        bindings[name] = _gen_var(generator, rng, memory)
    return bindings, memory


# ---------------------------------------------------------------------------
# One differential trial


def _operand(shape, bindings):
    kind, value = shape
    if kind == "reg":
        return Reg(value)
    if kind == "param":
        return ParamRef(value)
    if kind == "imm":
        return Imm(_resolve(value, bindings))
    if kind == "mem":
        return MemRef(Reg(value), 0)
    raise ValueError(f"unknown operand shape {shape!r}")


def _build_program(
    spec: MachineSpec, case: FuzzCase, bindings: Dict[str, int]
) -> AsmProgram:
    lines = []
    for register, source in case.setup:
        if isinstance(source, tuple) and source[0] == "param":
            operand = ParamRef(source[1])
        else:
            operand = Imm(_resolve(source, bindings))
        lines.append(Instr(spec.load_op, (Reg(register), operand)))
    lines.append(
        Instr(
            case.sim_op,
            tuple(_operand(shape, bindings) for shape in case.operands),
        )
    )
    return AsmProgram(spec.key, lines)


#: Most lanes one campaign batch runs: the largest fuzz address is
#: 1,279, so one batch's per-lane memory image is about 5.5 MB.
CAMPAIGN_LANES = 4096


def _draw(machine: str, case: FuzzCase, engine: str, trial: int):
    """Trial ``trial``'s ``(bindings, ISDL inputs, initial memory)``."""
    rng = random.Random(derive_seed(SEED_EPOCH, machine, case.name, engine, trial))
    bindings, memory = materialize(case, rng)
    inputs = {name: _resolve(source, bindings) for name, source in case.isdl_inputs}
    return bindings, inputs, memory


def _compare(
    machine: str, case: FuzzCase, engine: str, trial: int, draw, run
) -> None:
    """Run the simulator on a drawn trial and compare it with the ISDL
    side's result ``run``; raises :class:`FuzzMismatch` on drift."""
    bindings, inputs, memory = draw
    spec = machine_spec(machine)
    params = {name: _resolve(source, bindings) for name, source in case.params}
    program = _build_program(spec, case, bindings)
    sim = simulator_class(machine)().run(program, params, memory)

    expected = tuple(
        sim.registers[name] if kind == "reg" else sim.flags[name]
        for kind, name in case.outputs
    )
    context = (
        f"{machine}/{case.name} engine={engine} trial={trial} "
        f"inputs={inputs} params={params}"
    )
    if run.outputs != expected:
        raise FuzzMismatch(
            f"{context}: isdl outputs {run.outputs} != sim {expected}"
        )
    sim_memory = sim.memory.snapshot()
    if run.memory != sim_memory:
        delta = {
            addr: (run.memory.get(addr), sim_memory.get(addr))
            for addr in sorted(set(run.memory) | set(sim_memory))
            if run.memory.get(addr) != sim_memory.get(addr)
        }
        raise FuzzMismatch(f"{context}: memory drift {delta}")


def _fuzz_case(machine: str, case_name: str) -> FuzzCase:
    return next(c for c in machine_spec(machine).fuzz if c.name == case_name)


def run_trial(
    machine: str,
    case_name: str,
    trial: int,
    engine: Optional[ExecutionEngine] = None,
) -> None:
    """Replay one differential trial from its coordinates; raises
    :class:`FuzzMismatch` on drift.

    The ISDL side is a single trial, so it runs on an interpreter
    whichever engine names the trial's seed and its messages.
    """
    case = _fuzz_case(machine, case_name)
    name = (engine or ExecutionEngine()).name
    draw = _draw(machine, case, name, trial)
    executor = ExecutionEngine("interp").executor(load_description(machine, case.name))
    run = executor.run(draw[1], draw[2])
    _compare(machine, case, name, trial, draw, run)


def run_campaign(
    machine: str,
    case_name: str,
    trials: int,
    engine: Optional[ExecutionEngine] = None,
) -> int:
    """Run trials ``0 .. trials - 1`` of one case; returns the count run.

    Each trial draws the state :func:`run_trial` draws.  The ISDL side
    runs on one executor in batches of at most :data:`CAMPAIGN_LANES`
    lanes, one memory per lane, so the vectorized engine runs them on
    its kernel and its gate numbers lanes by campaign trial; the
    simulator runs each trial on its own.
    """
    case = _fuzz_case(machine, case_name)
    engine = engine or ExecutionEngine()
    executor = engine.executor(load_description(machine, case.name))
    for first in range(0, trials, CAMPAIGN_LANES):
        numbers = range(first, min(trials, first + CAMPAIGN_LANES))
        draws = [_draw(machine, case, engine.name, trial) for trial in numbers]
        batch = executor.run_batch(
            {name: [draw[1][name] for draw in draws] for name, _ in case.isdl_inputs},
            [draw[2] for draw in draws],
            n=len(draws),
        )
        for trial, draw, outcome in zip(
            numbers, draws, batch.lane_outcomes(range(batch.n))
        ):
            if outcome[0] == "raise":
                raise outcome[3]
            _compare(machine, case, engine.name, trial, draw, outcome[1])
    return trials
