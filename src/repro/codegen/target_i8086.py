"""Intel 8086 back end: binding-driven emission plus decomposed loops.

The exotic emitters lower the analyses' augment code to real 8086
instructions, following the paper's §4.1 listing for scasb/index:
save the initial pointer in BX, preset the zero flag, ``cld`` (the
``df = 0`` value constraint), the repeat-prefixed string instruction,
then the epilogue branch computing the operator's result.
"""

from __future__ import annotations

from ..analysis import Binding
from ..machines.i8086 import I8086Simulator
from . import ir
from ..asm import AsmProgram, Imm, LabelRef, MemRef, ParamRef, Reg
from .emitter import Target
from .optimize import vn_add, vn_of


class I8086Target(Target):
    """Code generation for the Intel 8086."""

    name = "i8086"
    SCRATCH = ("dx", "bp")
    simulator_class = I8086Simulator

    EXOTIC = {
        "string.move": "emit_move_exotic",
        "string.index": "emit_index_exotic",
        "string.equal": "emit_equal_exotic",
        "block.clear": "emit_clear_exotic",
    }
    DECOMPOSED = {
        "string.move": "emit_move_decomposed",
        "string.index": "emit_index_decomposed",
        "string.equal": "emit_equal_decomposed",
        "block.clear": "emit_clear_decomposed",
    }

    # -- machine hooks ---------------------------------------------------

    def emit_load(self, asm, reg, operand):
        asm.emit("mov", Reg(reg), operand)

    def emit_move(self, asm, dst, src):
        asm.emit("mov", Reg(dst), Reg(src))

    def emit_add(self, asm, reg, operand):
        asm.emit("add", Reg(reg), operand)

    def emit_sub(self, asm, reg, operand):
        asm.emit("sub", Reg(reg), operand)

    # -- exotic emitters ---------------------------------------------------

    def emit_move_exotic(self, asm: AsmProgram, op: ir.StringMove, binding: Binding):
        src_vn = vn_of(op.src)
        dst_vn = vn_of(op.dst)
        len_vn = vn_of(op.length)
        self.materialize_into(asm, op.src, binding.register_for("src"))
        self.materialize_into(asm, op.dst, binding.register_for("dst"))
        self.materialize_into(asm, op.length, binding.register_for("length"))
        self.check_fixed(binding, "df", 0)
        asm.emit("cld", comment="df = 0: low addresses to high")
        self.check_fixed(binding, "rf", 1)
        asm.emit("rep_movsb", comment="string move")
        # Architected finals: SI = src + len, DI = dst + len, CX = 0.
        self.regs.set("si", vn_add(src_vn, len_vn))
        self.regs.set("di", vn_add(dst_vn, len_vn))
        self.regs.set("cx", ("const", 0))
        self.regs.clobber("al")

    def emit_index_exotic(self, asm: AsmProgram, op: ir.StringIndex, binding: Binding):
        base_vn = vn_of(op.base)
        self.materialize_into(asm, op.base, binding.register_for("base"))
        self.materialize_into(asm, op.length, binding.register_for("length"))
        self.materialize_into(asm, op.char, binding.register_for("char"))
        # prologue augment: save the initial address, preset zf to 0.
        asm.emit("mov", Reg("bx"), Reg("di"), comment="save initial address")
        self.regs.set("bx", base_vn)
        asm.emit("mov", Reg("dx"), Imm(0))
        asm.emit("cmp", Reg("dx"), Imm(1), comment="reset zero flag zf")
        self.regs.set("dx", ("const", 0))
        self.check_fixed(binding, "df", 0)
        asm.emit("cld", comment="reset direction flag df")
        self.check_fixed(binding, "rf", 1)
        self.check_fixed(binding, "rfz", 0)
        asm.emit("repne_scasb", comment="search string")
        # epilogue augment: index from address, or zero.
        not_found = self.new_label("notfound")
        done = self.new_label("done")
        asm.emit("jnz", LabelRef(not_found), comment="jump if not found")
        asm.emit("sub", Reg("di"), Reg("bx"), comment="compute index of char")
        asm.emit("jmp", LabelRef(done))
        asm.label(not_found)
        asm.emit("mov", Reg("di"), Imm(0), comment="return zero if not found")
        asm.label(done)
        asm.emit("setres", ParamRef(op.result), Reg("di"), comment="final result in di")
        self.regs.clobber("di", "cx", "al")

    def emit_equal_exotic(self, asm: AsmProgram, op: ir.StringEqual, binding: Binding):
        self.materialize_into(asm, op.a, binding.register_for("a"))
        self.materialize_into(asm, op.b, binding.register_for("b"))
        self.materialize_into(asm, op.length, binding.register_for("length"))
        # prologue augment: empty strings compare equal (zf preset to 1).
        asm.emit("cmp", Reg("dx"), Reg("dx"), comment="preset zf = 1")
        self.check_fixed(binding, "df", 0)
        asm.emit("cld")
        self.check_fixed(binding, "rf", 1)
        self.check_fixed(binding, "rfz", 1)
        asm.emit("repe_cmpsb", comment="compare while equal")
        not_equal = self.new_label("ne")
        done = self.new_label("done")
        asm.emit("jnz", LabelRef(not_equal))
        asm.emit("mov", Reg("ax"), Imm(1))
        asm.emit("jmp", LabelRef(done))
        asm.label(not_equal)
        asm.emit("mov", Reg("ax"), Imm(0))
        asm.label(done)
        asm.emit("setres", ParamRef(op.result), Reg("ax"))
        self.regs.clobber("si", "di", "cx", "ax")

    # -- decomposed loops -------------------------------------------------

    def emit_move_decomposed(self, asm: AsmProgram, op: ir.StringMove):
        self.materialize_into(asm, op.src, "si")
        self.materialize_into(asm, op.dst, "di")
        self.materialize_into(asm, op.length, "cx")
        top = self.new_label("move")
        done = self.new_label("done")
        asm.label(top)
        asm.emit("cmp", Reg("cx"), Imm(0))
        asm.emit("jz", LabelRef(done))
        asm.emit("mov", Reg("al"), MemRef(Reg("si")))
        asm.emit("mov", MemRef(Reg("di")), Reg("al"))
        asm.emit("inc", Reg("si"))
        asm.emit("inc", Reg("di"))
        asm.emit("dec", Reg("cx"))
        asm.emit("jmp", LabelRef(top))
        asm.label(done)
        self.regs.clobber("si", "di", "cx", "al")

    def emit_index_decomposed(self, asm: AsmProgram, op: ir.StringIndex):
        self.materialize_into(asm, op.base, "di")
        self.materialize_into(asm, op.length, "cx")
        self.materialize_into(asm, op.char, "ax")
        asm.emit("mov", Reg("bx"), Reg("di"), comment="save initial address")
        top = self.new_label("scan")
        found = self.new_label("found")
        not_found = self.new_label("notfound")
        done = self.new_label("done")
        asm.label(top)
        asm.emit("cmp", Reg("cx"), Imm(0))
        asm.emit("jz", LabelRef(not_found))
        asm.emit("mov", Reg("dx"), MemRef(Reg("di")))
        asm.emit("cmp", Reg("dx"), Reg("ax"))
        asm.emit("jz", LabelRef(found))
        asm.emit("inc", Reg("di"))
        asm.emit("dec", Reg("cx"))
        asm.emit("jmp", LabelRef(top))
        asm.label(found)
        asm.emit("sub", Reg("di"), Reg("bx"))
        asm.emit("inc", Reg("di"), comment="1-based index")
        asm.emit("jmp", LabelRef(done))
        asm.label(not_found)
        asm.emit("mov", Reg("di"), Imm(0))
        asm.label(done)
        asm.emit("setres", ParamRef(op.result), Reg("di"))
        self.regs.clobber("di", "cx", "ax", "bx", "dx")

    def emit_equal_decomposed(self, asm: AsmProgram, op: ir.StringEqual):
        self.materialize_into(asm, op.a, "si")
        self.materialize_into(asm, op.b, "di")
        self.materialize_into(asm, op.length, "cx")
        top = self.new_label("cmp")
        equal = self.new_label("equal")
        not_equal = self.new_label("ne")
        done = self.new_label("done")
        asm.label(top)
        asm.emit("cmp", Reg("cx"), Imm(0))
        asm.emit("jz", LabelRef(equal))
        asm.emit("mov", Reg("dx"), MemRef(Reg("si")))
        asm.emit("mov", Reg("bx"), MemRef(Reg("di")))
        asm.emit("cmp", Reg("dx"), Reg("bx"))
        asm.emit("jnz", LabelRef(not_equal))
        asm.emit("inc", Reg("si"))
        asm.emit("inc", Reg("di"))
        asm.emit("dec", Reg("cx"))
        asm.emit("jmp", LabelRef(top))
        asm.label(equal)
        asm.emit("mov", Reg("ax"), Imm(1))
        asm.emit("jmp", LabelRef(done))
        asm.label(not_equal)
        asm.emit("mov", Reg("ax"), Imm(0))
        asm.label(done)
        asm.emit("setres", ParamRef(op.result), Reg("ax"))
        self.regs.clobber("si", "di", "cx", "ax", "bx", "dx")

    def emit_clear_exotic(self, asm: AsmProgram, op: ir.BlockClear, binding: Binding):
        dst_vn = vn_of(op.dst)
        len_vn = vn_of(op.length)
        self.materialize_into(asm, op.dst, binding.register_for("dst"))
        self.materialize_into(asm, op.length, binding.register_for("length"))
        self.check_fixed(binding, "al", 0)
        asm.emit("mov", Reg("al"), Imm(0), comment="al = 0: clear fill")
        self.regs.set("al", ("const", 0))
        self.check_fixed(binding, "df", 0)
        asm.emit("cld")
        self.check_fixed(binding, "rf", 1)
        asm.emit("rep_stosb", comment="block clear")
        self.regs.set("di", vn_add(dst_vn, len_vn))
        self.regs.set("cx", ("const", 0))

    def emit_clear_decomposed(self, asm: AsmProgram, op: ir.BlockClear):
        self.materialize_into(asm, op.dst, "di")
        self.materialize_into(asm, op.length, "cx")
        asm.emit("mov", Reg("al"), Imm(0))
        top = self.new_label("clear")
        done = self.new_label("done")
        asm.label(top)
        asm.emit("cmp", Reg("cx"), Imm(0))
        asm.emit("jz", LabelRef(done))
        asm.emit("mov", MemRef(Reg("di")), Reg("al"))
        asm.emit("inc", Reg("di"))
        asm.emit("dec", Reg("cx"))
        asm.emit("jmp", LabelRef(top))
        asm.label(done)
        self.regs.clobber("di", "cx", "al")
