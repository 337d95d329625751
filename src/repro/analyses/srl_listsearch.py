"""Burroughs B4800 ``srl`` vs. a generic list search — the §1 example.

"The instruction assumes that the link field of the list is the first
field in the record.  Thus, the B4800 instruction can only be used to
implement a general list search operation if a specific constraint is
satisfied, namely, that the link field is the first field of the
record."

The analysis fixes the operator's ``LinkOff`` operand to 0 — a
:class:`~repro.constraints.ValueConstraint` the code generator must
check against the program's record layout (the "restrictions that would
be handled by a storage allocator").  This row is not in Table 2; it
reproduces the introduction's motivating example.

Differential verification uses purpose-built linked-list scenarios
(nodes in the one-byte-link region of memory) rather than the string
scenario generator.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Tuple

from ..analysis import AnalysisInfo, AnalysisSession
from ..languages import listops
from ..machines.b4800 import descriptions as b4800
from .common import bind

if TYPE_CHECKING:
    from ..analysis import RunConfig
    from ..analysis.verify import VerificationReport

INFO = AnalysisInfo(
    machine="Burroughs B4800",
    instruction="srl",
    language="generic",
    operation="list search",
    operator="list.search",
)

#: input-description factories — the single source the runner,
#: provenance cache, and replay gate all build the originals from.
OPERATOR = listops.lsearch
INSTRUCTION = b4800.srl


def script(session: AnalysisSession) -> None:
    operator = session.operator
    # The link field must be first in the record.
    operator.apply("fix_operand", operand="LinkOff", value=0)
    operator.apply("propagate_constant", at=operator.expr("LinkOff"))
    operator.apply("add_zero", at=operator.expr("Head + 0"))
    operator.apply(
        "eliminate_dead_assignment", at=operator.stmt("LinkOff <- 0;")
    )
    operator.apply("eliminate_dead_variable", at=operator.decl("LinkOff"))


def _random_list_scenario(rng: random.Random) -> Tuple[Dict[str, int], Dict[int, int]]:
    """A random linked list: link at offset 0, key at a fixed offset."""
    key_offset = rng.randint(1, 3)
    node_size = key_offset + 1
    count = rng.randint(0, 8)
    addresses = rng.sample(range(8, 250, node_size + 1), count) if count else []
    memory: Dict[int, int] = {}
    for position, addr in enumerate(addresses):
        nxt = addresses[position + 1] if position + 1 < len(addresses) else 0
        memory[addr] = nxt
        memory[addr + key_offset] = rng.randrange(256)
    head = addresses[0] if addresses else 0
    if addresses and rng.random() < 0.5:
        key = memory[rng.choice(addresses) + key_offset]
    else:
        key = rng.randrange(256)
    inputs = {"Head": head, "Key": key, "KeyOff": key_offset}
    return inputs, memory


def verify_list_binding(binding, config: RunConfig) -> VerificationReport:
    """Differential testing on randomized linked lists.

    ``config.trials`` lists are drawn from ``config.seed``.  Each is a
    single trial, so both descriptions run on the interpreter on
    either engine, on two executors built once; the report names the
    plan's engine, as every verification report does.
    """
    from ..analysis.verify import VerificationFailure, VerificationReport
    from ..semantics.engine import ExecutionEngine

    interp = ExecutionEngine("interp")
    operator_interp = interp.executor(binding.final_operator)
    instruction_interp = interp.executor(binding.augmented_instruction)
    rng = random.Random(config.seed)
    for _ in range(config.trials):
        inputs, memory = _random_list_scenario(rng)
        mapped = {
            binding.operand_map.get(name, name): value
            for name, value in inputs.items()
        }
        result_op = operator_interp.run(inputs, memory)
        result_in = instruction_interp.run(mapped, memory)
        if result_op.outputs != result_in.outputs:
            raise VerificationFailure(
                f"outputs differ on {inputs}: {result_op.outputs} vs "
                f"{result_in.outputs}"
            )
    return VerificationReport(
        trials=config.trials,
        operator_name=binding.final_operator.name,
        instruction_name=binding.augmented_instruction.name,
        seed=config.seed,
        engine=config.resolve_engine().name,
    )


run = bind(__name__)
