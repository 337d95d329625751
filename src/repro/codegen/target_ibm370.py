"""IBM 370 back end.

``mvc``'s length lives in the instruction encoding, so it is only
emittable for compile-time-constant lengths within the binding's
[1, 256] range; the coding constraint's ``-1`` offset is applied when
the field is encoded (constant-folded by necessity — there is no
runtime length register to adjust).  Longer constant moves arrive here
already chunked by the rewriting rule; runtime lengths decompose into a
``bct`` byte loop.
"""

from __future__ import annotations

from ..analysis import Binding
from ..machines.ibm370 import Ibm370Simulator
from . import ir
from ..asm import AsmProgram, Imm, LabelRef, MemRef, ParamRef, Reg
from .emitter import Target
from .errors import CodegenError


class Ibm370Target(Target):
    """Code generation for the IBM 370."""

    name = "ibm370"
    SCRATCH = ("r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9")
    simulator_class = Ibm370Simulator

    EXOTIC = {
        "string.move": "emit_move_exotic",
        "string.equal": "emit_equal_exotic",
        "string.translate": "emit_translate_exotic",
    }
    DECOMPOSED = {
        "string.move": "emit_move_decomposed",
        "block.clear": "emit_clear_decomposed",
        "string.index": "emit_index_decomposed",
        "string.equal": "emit_equal_decomposed",
        "string.translate": "emit_translate_decomposed",
    }

    # -- machine hooks ---------------------------------------------------

    def emit_load(self, asm, reg, operand):
        asm.emit("la", Reg(reg), operand)

    def emit_move(self, asm, dst, src):
        asm.emit("lr", Reg(dst), Reg(src))

    def emit_add(self, asm, reg, operand):
        if isinstance(operand, Reg):
            asm.emit("ar", Reg(reg), operand)
            return
        scratch = self._pick_scratch(avoid=(reg,))
        self.regs.clobber(scratch)
        asm.emit("la", Reg(scratch), operand)
        asm.emit("ar", Reg(reg), Reg(scratch))

    def emit_sub(self, asm, reg, operand):
        if isinstance(operand, Reg):
            asm.emit("sr", Reg(reg), operand)
            return
        scratch = self._pick_scratch(avoid=(reg,))
        self.regs.clobber(scratch)
        asm.emit("la", Reg(scratch), operand)
        asm.emit("sr", Reg(reg), Reg(scratch))

    # -- exotic emitter ----------------------------------------------------

    def emit_move_exotic(self, asm: AsmProgram, op: ir.StringMove, binding: Binding):
        length = ir.const_value(op.length)
        if length is None:
            raise CodegenError(
                "mvc needs a compile-time-constant length (the length is "
                "an instruction field)"
            )
        # The coding constraint: the field encodes length - 1 (§4.2).
        offset = binding.operand_offset("len")
        field_value = length + offset
        if not 0 <= field_value <= 255:
            raise CodegenError(
                f"mvc length field {field_value} out of range; the "
                f"rewriting rule should have chunked this move"
            )
        dst_reg = self.materialize_any(asm, op.dst)
        src_reg = self.materialize_any(asm, op.src, avoid=(dst_reg,))
        asm.emit(
            "mvc",
            Reg(dst_reg),
            Reg(src_reg),
            Imm(field_value),
            comment=f"move {length} bytes (field encodes count - 1)",
        )

    # -- decomposed loops -------------------------------------------------

    def emit_move_decomposed(self, asm: AsmProgram, op: ir.StringMove):
        self.materialize_into(asm, op.src, "r2")
        self.materialize_into(asm, op.dst, "r3")
        self.materialize_into(asm, op.length, "r4")
        top = self.new_label("move")
        done = self.new_label("done")
        asm.emit("ltr", Reg("r4"), Reg("r4"))
        asm.emit("bz", LabelRef(done))
        asm.emit("la", Reg("r5"), Imm(1))
        asm.label(top)
        asm.emit("ic", Reg("r6"), MemRef(Reg("r2")))
        asm.emit("stc", Reg("r6"), MemRef(Reg("r3")))
        asm.emit("ar", Reg("r2"), Reg("r5"))
        asm.emit("ar", Reg("r3"), Reg("r5"))
        asm.emit("bct", Reg("r4"), LabelRef(top))
        asm.label(done)
        self.regs.clobber("r2", "r3", "r4", "r5", "r6")

    def emit_clear_decomposed(self, asm: AsmProgram, op: ir.BlockClear):
        self.materialize_into(asm, op.dst, "r3")
        self.materialize_into(asm, op.length, "r4")
        top = self.new_label("clear")
        done = self.new_label("done")
        asm.emit("ltr", Reg("r4"), Reg("r4"))
        asm.emit("bz", LabelRef(done))
        asm.emit("la", Reg("r5"), Imm(1))
        asm.emit("la", Reg("r6"), Imm(0))
        asm.label(top)
        asm.emit("stc", Reg("r6"), MemRef(Reg("r3")))
        asm.emit("ar", Reg("r3"), Reg("r5"))
        asm.emit("bct", Reg("r4"), LabelRef(top))
        asm.label(done)
        self.regs.clobber("r3", "r4", "r5", "r6")

    def emit_index_decomposed(self, asm: AsmProgram, op: ir.StringIndex):
        self.materialize_into(asm, op.base, "r2")
        self.materialize_into(asm, op.length, "r4")
        self.materialize_into(asm, op.char, "r7")
        asm.emit("lr", Reg("r8"), Reg("r2"), comment="save start address")
        asm.emit("la", Reg("r5"), Imm(1))
        top = self.new_label("scan")
        found = self.new_label("found")
        not_found = self.new_label("notfound")
        done = self.new_label("done")
        asm.emit("ltr", Reg("r4"), Reg("r4"))
        asm.emit("bz", LabelRef(not_found))
        asm.label(top)
        asm.emit("ic", Reg("r6"), MemRef(Reg("r2")))
        asm.emit("cr", Reg("r6"), Reg("r7"))
        asm.emit("bz", LabelRef(found))
        asm.emit("ar", Reg("r2"), Reg("r5"))
        asm.emit("bct", Reg("r4"), LabelRef(top))
        asm.emit("b", LabelRef(not_found))
        asm.label(found)
        asm.emit("sr", Reg("r2"), Reg("r8"))
        asm.emit("ar", Reg("r2"), Reg("r5"), comment="1-based index")
        asm.emit("b", LabelRef(done))
        asm.label(not_found)
        asm.emit("la", Reg("r2"), Imm(0))
        asm.label(done)
        asm.emit("setres", ParamRef(op.result), Reg("r2"))
        self.regs.clobber("r2", "r4", "r5", "r6", "r7", "r8")

    def emit_equal_decomposed(self, asm: AsmProgram, op: ir.StringEqual):
        self.materialize_into(asm, op.a, "r2")
        self.materialize_into(asm, op.b, "r3")
        self.materialize_into(asm, op.length, "r4")
        asm.emit("la", Reg("r5"), Imm(1))
        top = self.new_label("cmp")
        equal = self.new_label("equal")
        not_equal = self.new_label("ne")
        done = self.new_label("done")
        asm.emit("ltr", Reg("r4"), Reg("r4"))
        asm.emit("bz", LabelRef(equal))
        asm.label(top)
        asm.emit("ic", Reg("r6"), MemRef(Reg("r2")))
        asm.emit("ic", Reg("r7"), MemRef(Reg("r3")))
        asm.emit("cr", Reg("r6"), Reg("r7"))
        asm.emit("bnz", LabelRef(not_equal))
        asm.emit("ar", Reg("r2"), Reg("r5"))
        asm.emit("ar", Reg("r3"), Reg("r5"))
        asm.emit("bct", Reg("r4"), LabelRef(top))
        asm.label(equal)
        asm.emit("la", Reg("r6"), Imm(1))
        asm.emit("b", LabelRef(done))
        asm.label(not_equal)
        asm.emit("la", Reg("r6"), Imm(0))
        asm.label(done)
        asm.emit("setres", ParamRef(op.result), Reg("r6"))
        self.regs.clobber("r2", "r3", "r4", "r5", "r6", "r7")

    def emit_equal_exotic(self, asm: AsmProgram, op: ir.StringEqual, binding: Binding):
        length = ir.const_value(op.length)
        if length is None:
            raise CodegenError(
                "clc needs a compile-time-constant length (the length is "
                "an instruction field)"
            )
        offset = binding.operand_offset("len")
        field_value = length + offset
        if not 0 <= field_value <= 255:
            raise CodegenError(f"clc length field {field_value} out of range")
        a_reg = self.materialize_any(asm, op.a)
        b_reg = self.materialize_any(asm, op.b, avoid=(a_reg,))
        asm.emit(
            "clc",
            Reg(a_reg),
            Reg(b_reg),
            Imm(field_value),
            comment=f"compare {length} bytes (field encodes count - 1)",
        )
        equal = self.new_label("equal")
        done = self.new_label("done")
        result = self._pick_scratch(avoid=(a_reg, b_reg))
        self.regs.clobber(result)
        asm.emit("bz", LabelRef(equal))
        asm.emit("la", Reg(result), Imm(0))
        asm.emit("b", LabelRef(done))
        asm.label(equal)
        asm.emit("la", Reg(result), Imm(1))
        asm.label(done)
        asm.emit("setres", ParamRef(op.result), Reg(result))

    def emit_translate_exotic(self, asm: AsmProgram, op: ir.StringTranslate, binding: Binding):
        length = ir.const_value(op.length)
        if length is None:
            raise CodegenError(
                "tr needs a compile-time-constant length (the length is "
                "an instruction field)"
            )
        offset = binding.operand_offset("len")
        field_value = length + offset
        if not 0 <= field_value <= 255:
            raise CodegenError(
                f"tr length field {field_value} out of range; the "
                f"rewriting rule should have chunked this translate"
            )
        base_reg = self.materialize_any(asm, op.base)
        table_reg = self.materialize_any(asm, op.table, avoid=(base_reg,))
        asm.emit(
            "tr",
            Reg(base_reg),
            Reg(table_reg),
            Imm(field_value),
            comment=f"translate {length} bytes (field encodes count - 1)",
        )

    def emit_translate_decomposed(self, asm: AsmProgram, op: ir.StringTranslate):
        self.materialize_into(asm, op.base, "r2")
        self.materialize_into(asm, op.table, "r3")
        self.materialize_into(asm, op.length, "r4")
        top = self.new_label("translate")
        done = self.new_label("done")
        asm.emit("ltr", Reg("r4"), Reg("r4"))
        asm.emit("bz", LabelRef(done))
        asm.emit("la", Reg("r5"), Imm(1))
        asm.label(top)
        asm.emit("ic", Reg("r6"), MemRef(Reg("r2")))
        asm.emit("lr", Reg("r7"), Reg("r3"))
        asm.emit("ar", Reg("r7"), Reg("r6"))
        asm.emit("ic", Reg("r6"), MemRef(Reg("r7")))
        asm.emit("stc", Reg("r6"), MemRef(Reg("r2")))
        asm.emit("ar", Reg("r2"), Reg("r5"))
        asm.emit("bct", Reg("r4"), LabelRef(top))
        asm.label(done)
        self.regs.clobber("r2", "r3", "r4", "r5", "r6", "r7")
