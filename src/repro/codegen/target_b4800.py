"""Burroughs B4800 back end — the paper's §1 example, executable.

Only ``list.search`` is implemented: the point of this back end is the
introduction's constraint story.  The srl binding carries
``ValueConstraint(LinkOff, 0)`` — the instruction hard-wires the link
field to offset zero — so the selector emits ``srl`` only when the IR
operation's ``link_offset`` is *provably* zero (the record layout the
storage allocator chose); any other layout decomposes into the generic
pointer-chasing loop.
"""

from __future__ import annotations

from ..analysis import Binding
from ..machines.b4800 import B4800Simulator
from . import ir
from ..asm import AsmProgram, Imm, LabelRef, MemRef, ParamRef, Reg
from .emitter import Target
from .errors import ConstraintNotSatisfied


class B4800Target(Target):
    """Code generation for the Burroughs B4800 (list search only)."""

    name = "b4800"
    SCRATCH = ("rb", "rc", "rd", "re")
    simulator_class = B4800Simulator

    EXOTIC = {
        "list.search": "emit_search_exotic",
    }
    DECOMPOSED = {
        "list.search": "emit_search_decomposed",
    }

    # -- machine hooks ---------------------------------------------------

    def emit_load(self, asm, reg, operand):
        asm.emit("ld", Reg(reg), operand)

    def emit_move(self, asm, dst, src):
        asm.emit("ld", Reg(dst), Reg(src))

    def emit_add(self, asm, reg, operand):
        asm.emit("add", Reg(reg), operand)

    def emit_sub(self, asm, reg, operand):
        asm.emit("sub", Reg(reg), operand)

    # -- selection hook ----------------------------------------------------

    def _check_link_offset(self, op: ir.ListSearch, binding: Binding) -> None:
        """The §1 constraint: the link field must be first in the record."""
        for constraint in binding.value_constraints():
            if constraint.operand != "LinkOff":
                continue
            value = ir.const_value(op.link_offset)
            if value != constraint.value:
                raise ConstraintNotSatisfied(
                    f"srl requires the link field at offset "
                    f"{constraint.value}; this record layout has it at "
                    f"{value if value is not None else 'an unknown offset'}"
                )

    def emit_search_exotic(self, asm: AsmProgram, op: ir.ListSearch, binding: Binding):
        self._check_link_offset(op, binding)
        head_reg = self.materialize_any(asm, op.head)
        key_reg = self.materialize_any(asm, op.key, avoid=(head_reg,))
        offset_reg = self.materialize_any(
            asm, op.key_offset, avoid=(head_reg, key_reg)
        )
        asm.emit(
            "srl",
            Reg(head_reg),
            Reg(key_reg),
            Reg(offset_reg),
            comment="search linked list (link field first)",
        )
        self.regs.clobber("ra")
        asm.emit("setres", ParamRef(op.result), Reg("ra"))

    def emit_search_decomposed(self, asm: AsmProgram, op: ir.ListSearch):
        self.materialize_into(asm, op.head, "ra")
        self.materialize_into(asm, op.key, "rb")
        self.materialize_into(asm, op.key_offset, "rc")
        link_reg = "rd"
        self.materialize_into(asm, op.link_offset, link_reg)
        top = self.new_label("chase")
        done = self.new_label("done")
        asm.label(top)
        asm.emit("cmp", Reg("ra"), Imm(0))
        asm.emit("brz", LabelRef(done))
        # key byte: load Mb[node + key_offset]
        asm.emit("ld", Reg("re"), Reg("ra"))
        asm.emit("add", Reg("re"), Reg("rc"))
        asm.emit("ld", Reg("rf"), MemRef(Reg("re")))
        asm.emit("cmp", Reg("rf"), Reg("rb"))
        asm.emit("brz", LabelRef(done))
        # follow the link at the configured offset
        asm.emit("ld", Reg("re"), Reg("ra"))
        asm.emit("add", Reg("re"), Reg(link_reg))
        asm.emit("ld", Reg("ra"), MemRef(Reg("re")))
        asm.emit("br", LabelRef(top))
        asm.label(done)
        asm.emit("setres", ParamRef(op.result), Reg("ra"))
        self.regs.clobber("ra", "rb", "rc", "rd", "re", "rf")
