"""Analysis results: the operator/instruction binding.

"EXTRA produces a binding between exotic instructions and high-level
language operators, as well as constraints on when the binding is valid"
(paper §6).  A :class:`Binding` is exactly that artifact: it names the
intermediate-language operator, carries the augmented instruction
description, the operand map, and every constraint — and it is what the
retargetable code generator in :mod:`repro.codegen` consumes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..constraints import (
    Constraint,
    OffsetConstraint,
    RangeConstraint,
    ValueConstraint,
)
from ..isdl import ast, description_digest


@dataclass(frozen=True)
class Binding:
    """A proven operator ↔ (augmented) instruction equivalence."""

    #: intermediate-language operator this instruction implements,
    #: e.g. "string.index" — the compiler's internal-form opcode.
    operator: str
    #: source language whose operator was analyzed (Pascal, Rigel, ...).
    language: str
    #: target machine ("i8086", "vax11", "ibm370").
    machine: str
    #: mnemonics of the exotic instruction ("scasb", "mvc", ...).
    instruction: str
    #: human description of the operation (Table 2's "Operation" column).
    operation: str
    #: total transformation steps the analysis took (Table 2's "Steps").
    steps: int
    #: operator operand name -> instruction register name.
    operand_map: Dict[str, str]
    #: every constraint the code generator must discharge.
    constraints: Tuple[Constraint, ...]
    #: the final augmented instruction description (common form).
    augmented_instruction: ast.Description
    #: the final operator description (common form).
    final_operator: ast.Description
    #: True when prologue/epilogue code was added to the instruction.
    augmented: bool
    #: registers the instruction leaves its results in, in output order.
    result_registers: Tuple[str, ...] = ()
    #: IR field name -> operator operand name (e.g. "src" -> "Src.Base"),
    #: attached by the binding database so the code generator can route
    #: IR operands to instruction registers via ``operand_map``.
    field_map: Optional[Dict[str, str]] = None
    #: ``digest()`` of the analysis trace that derived this binding,
    #: which is also the trace object's name in the provenance store —
    #: the stamp linking a compiler's instruction repertoire back to a
    #: replayable derivation.
    trace_digest: Optional[str] = None

    def register_for(self, field: str) -> str:
        """Instruction register receiving the IR operand ``field``."""
        if self.field_map is None:
            raise ValueError(f"binding for {self.operator} has no field map")
        operand = self.field_map[field]
        return self.operand_map[operand]

    def field_for_operand(self, operand: str) -> Optional[str]:
        """IR field bound to an operator or instruction operand name."""
        if self.field_map is None:
            return None
        for field, op_name in self.field_map.items():
            if op_name == operand:
                return field
            if self.operand_map.get(op_name) == operand:
                return field
        return None

    # -- constraint accessors -------------------------------------------

    def value_constraints(self) -> Tuple[ValueConstraint, ...]:
        return tuple(
            c for c in self.constraints if isinstance(c, ValueConstraint)
        )

    def range_constraints(self) -> Tuple[RangeConstraint, ...]:
        return tuple(
            c for c in self.constraints if isinstance(c, RangeConstraint)
        )

    def offset_constraints(self) -> Tuple[OffsetConstraint, ...]:
        return tuple(
            c for c in self.constraints if isinstance(c, OffsetConstraint)
        )

    def operand_range(self, operand: str) -> Optional[RangeConstraint]:
        """The tightest range constraint on an operator operand, if any."""
        best: Optional[RangeConstraint] = None
        for constraint in self.range_constraints():
            if constraint.operand != operand or not constraint.is_operand:
                continue
            if best is None or (constraint.hi - constraint.lo) < (best.hi - best.lo):
                best = constraint
        return best

    def operand_offset(self, operand: str) -> int:
        """Net coding-constraint offset the compiler must apply."""
        return sum(
            c.offset for c in self.offset_constraints() if c.operand == operand
        )

    def describe(self) -> str:
        lines = [
            f"binding: {self.language} {self.operation} -> "
            f"{self.machine} {self.instruction}"
            + (" (augmented)" if self.augmented else ""),
            f"  operator: {self.operator}",
            f"  steps: {self.steps}",
        ]
        for operand, register in self.operand_map.items():
            lines.append(f"  operand {operand} -> {register}")
        for constraint in self.constraints:
            lines.append(f"  constraint: {constraint.describe()}")
        return "\n".join(lines)


def binding_digest(binding: Binding) -> str:
    """A stable content digest of everything a verdict depends on.

    Covers both final descriptions (via their AST digests), the operand
    map, every constraint, and the result-register order — the exact
    inputs of :func:`repro.lint.lint_binding` and
    :func:`repro.symbolic.prove_binding`.  Two structurally identical
    bindings digest equal regardless of how they were derived, which is
    what lets pooled batch shards share one lint/prove result per
    binding content instead of one per object per shard.
    """
    digest = hashlib.sha256()
    digest.update(b"op:" + description_digest(binding.final_operator).encode())
    digest.update(
        b"in:" + description_digest(binding.augmented_instruction).encode()
    )
    for operand, register in sorted(binding.operand_map.items()):
        digest.update(f"map:{operand}->{register};".encode())
    for text in sorted(
        f"{type(constraint).__name__}:{constraint.describe()}"
        for constraint in binding.constraints
    ):
        digest.update(b"c:" + text.encode() + b";")
    for register in binding.result_registers:
        digest.update(f"r:{register};".encode())
    return digest.hexdigest()


@dataclass
class BindingLibrary:
    """All bindings known for one target machine.

    The code generator queries this by intermediate-language operator
    name; several instructions may implement the same operator (with
    different constraints), in which case registration order is
    preference order.
    """

    machine: str
    _bindings: Dict[str, list] = field(default_factory=dict)

    def add(self, binding: Binding) -> None:
        if binding.machine != self.machine:
            raise ValueError(
                f"binding targets {binding.machine!r}, library is "
                f"{self.machine!r}"
            )
        self._bindings.setdefault(binding.operator, []).append(binding)

    def candidates(self, operator: str) -> Tuple[Binding, ...]:
        return tuple(self._bindings.get(operator, ()))

    def operators(self) -> Tuple[str, ...]:
        return tuple(sorted(self._bindings))

    def __len__(self) -> int:
        return sum(len(items) for items in self._bindings.values())
