"""VAX-11 back end.

The VAX string instructions take general operands and leave their final
state in dedicated registers (movc3: R0 = 0, R1 = src + len,
R3 = dst + len), so this back end leans on ``materialize_any`` — an
operand already sitting in *any* register, including a previous string
instruction's result register, is used in place.  That is §6's
"intelligent register allocation" for cascaded string operations.

``string.move`` is only emittable when the binding library carries the
§7 extension binding (movc3 under the no-overlap language fact);
otherwise plain moves decompose — the stock-EXTRA situation of §4.3.
"""

from __future__ import annotations

from ..analysis import Binding
from ..machines.vax11 import Vax11Simulator
from . import ir
from ..asm import AsmProgram, Imm, LabelRef, MemRef, ParamRef, Reg
from .emitter import Target
from .optimize import vn_add, vn_of


class Vax11Target(Target):
    """Code generation for the VAX-11."""

    name = "vax11"
    SCRATCH = ("r5", "r6", "r7", "r8", "r9")
    simulator_class = Vax11Simulator

    EXOTIC = {
        "block.copy": "emit_copy_exotic",
        "string.move": "emit_copy_exotic",  # via the §7 extension binding
        "block.clear": "emit_clear_exotic",
        "string.index": "emit_index_exotic",
        "string.equal": "emit_equal_exotic",
    }
    DECOMPOSED = {
        "block.copy": "emit_copy_decomposed",
        "string.move": "emit_move_decomposed",
        "block.clear": "emit_clear_decomposed",
        "string.index": "emit_index_decomposed",
        "string.equal": "emit_equal_decomposed",
    }

    # -- machine hooks ---------------------------------------------------

    def emit_load(self, asm, reg, operand):
        asm.emit("movl", Reg(reg), operand)

    def emit_move(self, asm, dst, src):
        asm.emit("movl", Reg(dst), Reg(src))

    def emit_add(self, asm, reg, operand):
        asm.emit("addl3", Reg(reg), Reg(reg), operand)

    def emit_sub(self, asm, reg, operand):
        asm.emit("subl3", Reg(reg), Reg(reg), operand)

    # -- exotic emitters ---------------------------------------------------

    def emit_copy_exotic(self, asm: AsmProgram, op, binding: Binding):
        src_vn = vn_of(op.src)
        dst_vn = vn_of(op.dst)
        len_vn = vn_of(op.length)
        length_reg = self.materialize_any(asm, op.length)
        src_reg = self.materialize_any(asm, op.src, avoid=(length_reg,))
        dst_reg = self.materialize_any(asm, op.dst, avoid=(length_reg, src_reg))
        asm.emit(
            "movc3",
            Reg(length_reg),
            Reg(src_reg),
            Reg(dst_reg),
            comment=f"block copy via movc3 ({binding.language} binding)",
        )
        # Architected finals (the dedicated-register protocol).
        self.regs.clobber("r0", "r1", "r2", "r3")
        self.regs.set("r0", ("const", 0))
        self.regs.set("r1", vn_add(src_vn, len_vn))
        self.regs.set("r2", ("const", 0))
        self.regs.set("r3", vn_add(dst_vn, len_vn))

    def emit_clear_exotic(self, asm: AsmProgram, op: ir.BlockClear, binding: Binding):
        dst_vn = vn_of(op.dst)
        len_vn = vn_of(op.length)
        length_reg = self.materialize_any(asm, op.length)
        dst_reg = self.materialize_any(asm, op.dst, avoid=(length_reg,))
        self.check_fixed(binding, "srclen", 0)
        self.check_fixed(binding, "fill", 0)
        asm.emit(
            "movc5",
            Imm(0),
            Imm(0),
            Imm(0),
            Reg(length_reg),
            Reg(dst_reg),
            comment="block clear via movc5 (srclen = 0, fill = 0)",
        )
        self.regs.clobber("r0", "r1", "r2", "r3")
        self.regs.set("r0", ("const", 0))
        self.regs.set("r1", ("const", 0))
        self.regs.set("r2", ("const", 0))
        self.regs.set("r3", vn_add(dst_vn, len_vn))

    def emit_index_exotic(self, asm: AsmProgram, op: ir.StringIndex, binding: Binding):
        base_reg = self.materialize_any(asm, op.base)
        length_reg = self.materialize_any(asm, op.length, avoid=(base_reg,))
        char_reg = self.materialize_any(asm, op.char, avoid=(base_reg, length_reg))
        # prologue augment: save the start address.
        temp = self._pick_scratch(avoid=(base_reg, length_reg, char_reg))
        asm.emit("movl", Reg(temp), Reg(base_reg), comment="save start address")
        self.regs.set(temp, self.regs.known(base_reg))
        asm.emit("locc", Reg(char_reg), Reg(length_reg), Reg(base_reg))
        self.regs.clobber("r0", "r1")
        # epilogue augment: 1-based index from the located address.
        not_found = self.new_label("notfound")
        done = self.new_label("done")
        result = self._pick_scratch(
            avoid=(base_reg, length_reg, char_reg, temp)
        )
        asm.emit("beql", LabelRef(not_found), comment="Z set: not found")
        asm.emit("subl3", Reg(result), Reg("r1"), Reg(temp))
        asm.emit("incl", Reg(result), comment="index = address - start + 1")
        asm.emit("brb", LabelRef(done))
        asm.label(not_found)
        asm.emit("movl", Reg(result), Imm(0))
        asm.label(done)
        asm.emit("setres", ParamRef(op.result), Reg(result))
        self.regs.clobber(result)

    def emit_equal_exotic(self, asm: AsmProgram, op: ir.StringEqual, binding: Binding):
        length_reg = self.materialize_any(asm, op.length)
        a_reg = self.materialize_any(asm, op.a, avoid=(length_reg,))
        b_reg = self.materialize_any(asm, op.b, avoid=(length_reg, a_reg))
        asm.emit("cmpc3", Reg(length_reg), Reg(a_reg), Reg(b_reg))
        self.regs.clobber("r0", "r1", "r3")
        equal = self.new_label("equal")
        done = self.new_label("done")
        result = self._pick_scratch(avoid=(length_reg, a_reg, b_reg))
        asm.emit("beql", LabelRef(equal))
        asm.emit("movl", Reg(result), Imm(0))
        asm.emit("brb", LabelRef(done))
        asm.label(equal)
        asm.emit("movl", Reg(result), Imm(1))
        asm.label(done)
        asm.emit("setres", ParamRef(op.result), Reg(result))
        self.regs.clobber(result)

    # -- decomposed loops -------------------------------------------------

    def emit_move_decomposed(self, asm: AsmProgram, op: ir.StringMove):
        """Forward-only byte loop (strings never overlap)."""
        self.materialize_into(asm, op.src, "r5")
        self.materialize_into(asm, op.dst, "r6")
        self.materialize_into(asm, op.length, "r7")
        top = self.new_label("move")
        done = self.new_label("done")
        asm.label(top)
        asm.emit("tstl", Reg("r7"))
        asm.emit("beql", LabelRef(done))
        asm.emit("movb", Reg("r8"), MemRef(Reg("r5")))
        asm.emit("movb", MemRef(Reg("r6")), Reg("r8"))
        asm.emit("incl", Reg("r5"))
        asm.emit("incl", Reg("r6"))
        asm.emit("decl", Reg("r7"))
        asm.emit("brb", LabelRef(top))
        asm.label(done)
        self.regs.clobber("r5", "r6", "r7", "r8")

    def emit_copy_decomposed(self, asm: AsmProgram, op: ir.BlockCopy):
        """Overlap-aware copy: direction chosen at run time (like PC2)."""
        self.materialize_into(asm, op.src, "r5")
        self.materialize_into(asm, op.dst, "r6")
        self.materialize_into(asm, op.length, "r7")
        backward = self.new_label("bwd")
        fwd_top = self.new_label("fwd")
        bwd_top = self.new_label("bwdloop")
        done = self.new_label("done")
        asm.emit("cmpl", Reg("r5"), Reg("r6"))
        asm.emit("blss", LabelRef(backward), comment="src < dst: copy high-to-low")
        asm.label(fwd_top)
        asm.emit("tstl", Reg("r7"))
        asm.emit("beql", LabelRef(done))
        asm.emit("movb", Reg("r8"), MemRef(Reg("r5")))
        asm.emit("movb", MemRef(Reg("r6")), Reg("r8"))
        asm.emit("incl", Reg("r5"))
        asm.emit("incl", Reg("r6"))
        asm.emit("decl", Reg("r7"))
        asm.emit("brb", LabelRef(fwd_top))
        asm.label(backward)
        asm.emit("addl3", Reg("r5"), Reg("r5"), Reg("r7"))
        asm.emit("addl3", Reg("r6"), Reg("r6"), Reg("r7"))
        asm.label(bwd_top)
        asm.emit("tstl", Reg("r7"))
        asm.emit("beql", LabelRef(done))
        asm.emit("decl", Reg("r5"))
        asm.emit("decl", Reg("r6"))
        asm.emit("movb", Reg("r8"), MemRef(Reg("r5")))
        asm.emit("movb", MemRef(Reg("r6")), Reg("r8"))
        asm.emit("decl", Reg("r7"))
        asm.emit("brb", LabelRef(bwd_top))
        asm.label(done)
        self.regs.clobber("r5", "r6", "r7", "r8")

    def emit_clear_decomposed(self, asm: AsmProgram, op: ir.BlockClear):
        self.materialize_into(asm, op.dst, "r6")
        self.materialize_into(asm, op.length, "r7")
        asm.emit("movl", Reg("r8"), Imm(0))
        top = self.new_label("clear")
        done = self.new_label("done")
        asm.label(top)
        asm.emit("tstl", Reg("r7"))
        asm.emit("beql", LabelRef(done))
        asm.emit("movb", MemRef(Reg("r6")), Reg("r8"))
        asm.emit("incl", Reg("r6"))
        asm.emit("decl", Reg("r7"))
        asm.emit("brb", LabelRef(top))
        asm.label(done)
        self.regs.clobber("r6", "r7", "r8")

    def emit_index_decomposed(self, asm: AsmProgram, op: ir.StringIndex):
        self.materialize_into(asm, op.base, "r5")
        self.materialize_into(asm, op.length, "r6")
        self.materialize_into(asm, op.char, "r7")
        asm.emit("movl", Reg("r8"), Reg("r5"), comment="save start address")
        top = self.new_label("scan")
        found = self.new_label("found")
        not_found = self.new_label("notfound")
        done = self.new_label("done")
        asm.label(top)
        asm.emit("tstl", Reg("r6"))
        asm.emit("beql", LabelRef(not_found))
        asm.emit("movb", Reg("r9"), MemRef(Reg("r5")))
        asm.emit("cmpl", Reg("r9"), Reg("r7"))
        asm.emit("beql", LabelRef(found))
        asm.emit("incl", Reg("r5"))
        asm.emit("decl", Reg("r6"))
        asm.emit("brb", LabelRef(top))
        asm.label(found)
        asm.emit("subl3", Reg("r9"), Reg("r5"), Reg("r8"))
        asm.emit("incl", Reg("r9"))
        asm.emit("brb", LabelRef(done))
        asm.label(not_found)
        asm.emit("movl", Reg("r9"), Imm(0))
        asm.label(done)
        asm.emit("setres", ParamRef(op.result), Reg("r9"))
        self.regs.clobber("r5", "r6", "r7", "r8", "r9")

    def emit_equal_decomposed(self, asm: AsmProgram, op: ir.StringEqual):
        self.materialize_into(asm, op.a, "r5")
        self.materialize_into(asm, op.b, "r6")
        self.materialize_into(asm, op.length, "r7")
        top = self.new_label("cmp")
        equal = self.new_label("equal")
        not_equal = self.new_label("ne")
        done = self.new_label("done")
        asm.label(top)
        asm.emit("tstl", Reg("r7"))
        asm.emit("beql", LabelRef(equal))
        asm.emit("movb", Reg("r8"), MemRef(Reg("r5")))
        asm.emit("movb", Reg("r9"), MemRef(Reg("r6")))
        asm.emit("cmpl", Reg("r8"), Reg("r9"))
        asm.emit("bneq", LabelRef(not_equal))
        asm.emit("incl", Reg("r5"))
        asm.emit("incl", Reg("r6"))
        asm.emit("decl", Reg("r7"))
        asm.emit("brb", LabelRef(top))
        asm.label(equal)
        asm.emit("movl", Reg("r8"), Imm(1))
        asm.emit("brb", LabelRef(done))
        asm.label(not_equal)
        asm.emit("movl", Reg("r8"), Imm(0))
        asm.label(done)
        asm.emit("setres", ParamRef(op.result), Reg("r8"))
        self.regs.clobber("r5", "r6", "r7", "r8", "r9")
