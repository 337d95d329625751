"""Target simulator tests: instruction semantics and cycle accounting."""

import pytest

from repro.asm import AsmProgram, Imm, LabelRef, MemRef, ParamRef, Reg
from repro.machines import SimulationError
from repro.machines.i8086 import I8086Simulator
from repro.machines.ibm370 import Ibm370Simulator
from repro.machines.vax11 import Vax11Simulator


def program(machine, build):
    asm = AsmProgram(machine=machine)
    build(asm)
    return asm


class TestI8086:
    def run(self, build, params=None, memory=None):
        return I8086Simulator().run(program("i8086", build), params, memory)

    def test_mov_and_params(self):
        result = self.run(
            lambda a: (
                a.emit("mov", Reg("ax"), ParamRef("x")),
                a.emit("mov", Reg("bx"), Reg("ax")),
            ),
            {"x": 42},
        )
        assert result.registers["bx"] == 42

    def test_sixteen_bit_wraparound(self):
        result = self.run(
            lambda a: (
                a.emit("mov", Reg("ax"), Imm(0)),
                a.emit("dec", Reg("ax")),
            )
        )
        assert result.registers["ax"] == 0xFFFF

    def test_memory_load_store(self):
        result = self.run(
            lambda a: (
                a.emit("mov", Reg("si"), Imm(10)),
                a.emit("mov", Reg("al"), MemRef(Reg("si"))),
                a.emit("mov", Reg("di"), Imm(20)),
                a.emit("mov", MemRef(Reg("di")), Reg("al")),
            ),
            memory={10: 77},
        )
        assert result.memory.read(20) == 77

    def test_branching(self):
        def build(a):
            a.emit("mov", Reg("ax"), Imm(0))
            a.emit("mov", Reg("cx"), Imm(5))
            a.label("top")
            a.emit("add", Reg("ax"), Imm(3))
            a.emit("dec", Reg("cx"))
            a.emit("jnz", LabelRef("top"))
            a.emit("setres", ParamRef("out"), Reg("ax"))

        result = self.run(build)
        assert result.results["out"] == 15

    def test_rep_movsb(self):
        def build(a):
            a.emit("mov", Reg("si"), Imm(100))
            a.emit("mov", Reg("di"), Imm(200))
            a.emit("mov", Reg("cx"), Imm(4))
            a.emit("cld")
            a.emit("rep_movsb")

        memory = {100 + i: i + 1 for i in range(4)}
        result = self.run(build, memory=memory)
        assert [result.memory.read(200 + i) for i in range(4)] == [1, 2, 3, 4]
        assert result.registers["cx"] == 0
        assert result.registers["si"] == 104

    def test_repne_scasb_found_and_cost(self):
        def build(a):
            a.emit("mov", Reg("di"), Imm(100))
            a.emit("mov", Reg("cx"), Imm(10))
            a.emit("mov", Reg("al"), Imm(5))
            a.emit("repne_scasb")

        memory = {100 + i: i for i in range(10)}
        result = self.run(build, memory=memory)
        assert result.registers["di"] == 106  # one past the match at 105
        assert result.registers["cx"] == 4
        # cost: 3 movs (4 each) + 9 + 6 iterations * 15
        assert result.cycles == 12 + 9 + 6 * 15

    def test_repe_cmpsb_mismatch_stops(self):
        def build(a):
            a.emit("mov", Reg("si"), Imm(100))
            a.emit("mov", Reg("di"), Imm(200))
            a.emit("mov", Reg("cx"), Imm(5))
            a.emit("repe_cmpsb")

        memory = {100: 1, 101: 2, 102: 9, 200: 1, 201: 2, 202: 3}
        result = self.run(build, memory=memory)
        assert result.registers["cx"] == 2

    def test_unknown_mnemonic(self):
        with pytest.raises(SimulationError):
            self.run(lambda a: a.emit("frobnicate"))

    def test_unknown_register(self):
        with pytest.raises(SimulationError):
            self.run(lambda a: a.emit("mov", Reg("r99"), Imm(1)))

    def test_unbound_parameter(self):
        with pytest.raises(SimulationError):
            self.run(lambda a: a.emit("mov", Reg("ax"), ParamRef("missing")))

    def test_runaway_loop_stopped(self):
        def build(a):
            a.label("spin")
            a.emit("jmp", LabelRef("spin"))

        with pytest.raises(SimulationError):
            I8086Simulator().run(
                program("i8086", build), max_instructions=1000
            )

    def test_duplicate_label_rejected(self):
        def build(a):
            a.label("x")
            a.label("x")

        with pytest.raises(SimulationError):
            self.run(build)


class TestVax11:
    def run(self, build, params=None, memory=None):
        return Vax11Simulator().run(program("vax11", build), params, memory)

    def test_movc3_protocol(self):
        def build(a):
            a.emit("movl", Reg("r5"), Imm(4))
            a.emit("movl", Reg("r6"), Imm(100))
            a.emit("movl", Reg("r7"), Imm(200))
            a.emit("movc3", Reg("r5"), Reg("r6"), Reg("r7"))

        memory = {100 + i: i + 1 for i in range(4)}
        result = self.run(build, memory=memory)
        assert [result.memory.read(200 + i) for i in range(4)] == [1, 2, 3, 4]
        assert result.registers["r0"] == 0
        assert result.registers["r1"] == 104
        assert result.registers["r3"] == 204

    def test_movc3_overlap_protection(self):
        def build(a):
            a.emit("movl", Reg("r5"), Imm(4))
            a.emit("movl", Reg("r6"), Imm(100))
            a.emit("movl", Reg("r7"), Imm(102))
            a.emit("movc3", Reg("r5"), Reg("r6"), Reg("r7"))

        memory = {100: 1, 101: 2, 102: 3, 103: 4}
        result = self.run(build, memory=memory)
        assert [result.memory.read(102 + i) for i in range(4)] == [1, 2, 3, 4]

    def test_movc5_fill(self):
        def build(a):
            a.emit("movl", Reg("r8"), Imm(5))
            a.emit("movl", Reg("r9"), Imm(300))
            a.emit(
                "movc5", Imm(0), Imm(0), Imm(7), Reg("r8"), Reg("r9")
            )

        result = self.run(build)
        assert [result.memory.read(300 + i) for i in range(5)] == [7] * 5

    def test_locc(self):
        def build(a):
            a.emit("movl", Reg("r5"), Imm(ord("k"))),
            a.emit("movl", Reg("r6"), Imm(6))
            a.emit("movl", Reg("r7"), Imm(400))
            a.emit("locc", Reg("r5"), Reg("r6"), Reg("r7"))

        memory = {400 + i: b for i, b in enumerate(b"monkey")}
        result = self.run(build, memory=memory)
        assert result.registers["r1"] == 403  # address OF 'k'
        assert result.registers["r0"] == 3

    def test_locc_not_found_sets_z(self):
        def build(a):
            a.emit("movl", Reg("r5"), Imm(ord("z")))
            a.emit("movl", Reg("r6"), Imm(3))
            a.emit("movl", Reg("r7"), Imm(400))
            a.emit("locc", Reg("r5"), Reg("r6"), Reg("r7"))
            a.emit("beql", LabelRef("nf"))
            a.emit("movl", Reg("r9"), Imm(1))
            a.label("nf")
            a.emit("setres", ParamRef("found"), Reg("r9"))

        memory = {400 + i: b for i, b in enumerate(b"abc")}
        result = self.run(build, memory=memory)
        assert result.results["found"] == 0

    def test_cmpc3_equal(self):
        def build(a):
            a.emit("movl", Reg("r5"), Imm(3))
            a.emit("movl", Reg("r6"), Imm(100))
            a.emit("movl", Reg("r7"), Imm(200))
            a.emit("cmpc3", Reg("r5"), Reg("r6"), Reg("r7"))
            a.emit("beql", LabelRef("eq"))
            a.emit("movl", Reg("r9"), Imm(9))
            a.label("eq")
            a.emit("setres", ParamRef("r"), Reg("r9"))

        memory = {100: 1, 101: 2, 102: 3, 200: 1, 201: 2, 202: 3}
        result = self.run(build, memory=memory)
        assert result.results["r"] == 0

    def test_blss_branch(self):
        def build(a):
            a.emit("movl", Reg("r5"), Imm(1))
            a.emit("movl", Reg("r6"), Imm(2))
            a.emit("cmpl", Reg("r5"), Reg("r6"))
            a.emit("blss", LabelRef("less"))
            a.emit("movl", Reg("r9"), Imm(5))
            a.label("less")
            a.emit("setres", ParamRef("r"), Reg("r9"))

        assert self.run(build).results["r"] == 0


class TestIbm370:
    def run(self, build, params=None, memory=None):
        return Ibm370Simulator().run(program("ibm370", build), params, memory)

    def test_mvc_moves_field_plus_one(self):
        def build(a):
            a.emit("la", Reg("r2"), Imm(500))
            a.emit("la", Reg("r3"), Imm(100))
            a.emit("mvc", Reg("r2"), Reg("r3"), Imm(0))  # field 0: 1 byte

        memory = {100: 9, 101: 8}
        result = self.run(build, memory=memory)
        assert result.memory.read(500) == 9
        assert result.memory.read(501) == 0

    def test_mvc_field_255_moves_256(self):
        def build(a):
            a.emit("la", Reg("r2"), Imm(2000))
            a.emit("la", Reg("r3"), Imm(100))
            a.emit("mvc", Reg("r2"), Reg("r3"), Imm(255))

        memory = {100 + i: (i % 251) for i in range(256)}
        result = self.run(build, memory=memory)
        assert result.memory.read(2000 + 255) == 255 % 251

    def test_bct_loop(self):
        def build(a):
            a.emit("la", Reg("r4"), Imm(5))
            a.emit("la", Reg("r5"), Imm(0))
            a.emit("la", Reg("r6"), Imm(2))
            a.label("top")
            a.emit("ar", Reg("r5"), Reg("r6"))
            a.emit("bct", Reg("r4"), LabelRef("top"))
            a.emit("setres", ParamRef("sum"), Reg("r5"))

        assert self.run(build).results["sum"] == 10

    def test_ic_stc(self):
        def build(a):
            a.emit("la", Reg("r2"), Imm(50))
            a.emit("ic", Reg("r6"), MemRef(Reg("r2"))),
            a.emit("la", Reg("r3"), Imm(60))
            a.emit("stc", Reg("r6"), MemRef(Reg("r3")))

        result = self.run(build, memory={50: 33})
        assert result.memory.read(60) == 33

    def test_ltr_sets_z(self):
        def build(a):
            a.emit("la", Reg("r4"), Imm(0))
            a.emit("ltr", Reg("r4"), Reg("r4"))
            a.emit("bz", LabelRef("zero"))
            a.emit("la", Reg("r5"), Imm(1))
            a.label("zero")
            a.emit("setres", ParamRef("r"), Reg("r5"))

        assert self.run(build).results["r"] == 0
