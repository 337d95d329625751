"""Extension analyses beyond Table 2: stosb/blkclr and footnote 5's mva."""

import pytest

from repro.analyses import EXTENSIONS, clc_pascal, mva_pascal, skpc_pl1, stosb_pc2, tr_pascal
from repro.analysis import RunConfig
from repro.codegen import ir, target_for


class TestStosb:
    def test_analysis_succeeds_and_verifies(self):
        outcome = stosb_pc2.run(RunConfig(trials=80))
        assert outcome.succeeded, outcome.failure
        fixed = {c.operand: c.value for c in outcome.binding.value_constraints()}
        assert fixed == {"df": 0, "rf": 1, "al": 0}

    def test_codegen_uses_rep_stosb(self):
        target = target_for("i8086")
        prog = (
            ir.BlockClear(
                dst=ir.Param("d", 0, 60000), length=ir.Param("n", 0, 60000)
            ),
        )
        asm = target.compile(prog)
        assert any(i.mnemonic == "rep_stosb" for i in asm.instructions())
        memory = {300 + i: 0xEE for i in range(9)}
        result = target.simulate(asm, {"d": 300, "n": 9}, memory)
        assert all(result.memory.read(300 + i) == 0 for i in range(9))

    def test_exotic_clear_cheaper(self):
        target = target_for("i8086")
        prog = (
            ir.BlockClear(
                dst=ir.Param("d", 0, 60000), length=ir.Const(64)
            ),
        )
        memory = {300 + i: 1 for i in range(64)}
        exotic = target.simulate(
            target.compile(prog, use_exotic=True), {"d": 300}, memory
        )
        decomposed = target.simulate(
            target.compile(prog, use_exotic=False), {"d": 300}, memory
        )
        assert exotic.cycles < decomposed.cycles
        assert all(decomposed.memory.read(300 + i) == 0 for i in range(64))


class TestMvaFootnote5:
    def test_same_coding_constraint_as_mvc(self):
        outcome = mva_pascal.run(RunConfig(trials=80))
        assert outcome.succeeded, outcome.failure
        offsets = outcome.binding.offset_constraints()
        assert len(offsets) == 1 and offsets[0].offset == -1
        length = outcome.binding.operand_range("Len")
        assert (length.lo, length.hi) == (1, 256)

    def test_step_count_matches_mvc_script(self):
        from repro.analyses import mvc_pascal

        mva = mva_pascal.run(RunConfig(verify=False))
        mvc = mvc_pascal.run(RunConfig(verify=False))
        # The footnote-5 point: the *same* analysis discharges both
        # machines' encodings (one reorder step differs: mvc's operand
        # order needed rearranging, mva's matches as authored).
        assert abs(mva.steps - mvc.steps) <= 1


def test_all_extensions_run():
    for module in EXTENSIONS:
        outcome = module.run(RunConfig(verify=False))
        assert outcome.succeeded, f"{module.__name__}: {outcome.failure}"


class TestClc:
    def test_same_coding_constraint_family(self):
        outcome = clc_pascal.run(RunConfig(trials=80))
        assert outcome.succeeded, outcome.failure
        offsets = outcome.binding.offset_constraints()
        assert len(offsets) == 1 and offsets[0].offset == -1

    def test_codegen_uses_clc_for_const_lengths(self):
        from repro.codegen import ir, target_for

        target = target_for("ibm370")
        prog = (
            ir.StringEqual(
                result="eq",
                a=ir.Param("a", 0, 30000),
                b=ir.Param("b", 0, 30000),
                length=ir.Const(8),
            ),
        )
        asm = target.compile(prog)
        assert any(i.mnemonic == "clc" for i in asm.instructions())

    def test_runtime_length_decomposes(self):
        from repro.codegen import ir, target_for

        target = target_for("ibm370")
        prog = (
            ir.StringEqual(
                result="eq",
                a=ir.Param("a", 0, 30000),
                b=ir.Param("b", 0, 30000),
                length=ir.Param("n", 0, 30000),
            ),
        )
        asm = target.compile(prog)
        assert not any(i.mnemonic == "clc" for i in asm.instructions())
        memory = {100: 5, 500: 5}
        result = target.simulate(asm, {"a": 100, "b": 500, "n": 1}, memory)
        assert result.results["eq"] == 1


class TestSkpc:
    def test_span_analysis(self):
        outcome = skpc_pl1.run(RunConfig(trials=80))
        assert outcome.succeeded, outcome.failure
        assert outcome.binding.operand_map == {
            "C": "char", "Max": "len", "S": "addr"
        }


class TestTranslate:
    def test_analysis_with_nested_index_pattern(self):
        outcome = tr_pascal.run(RunConfig(trials=80))
        assert outcome.succeeded, outcome.failure
        offsets = outcome.binding.offset_constraints()
        assert len(offsets) == 1 and offsets[0].offset == -1

    def test_uppercase_end_to_end(self):
        from repro.codegen import ir, target_for

        target = target_for("ibm370")
        table = {2000 + i: i for i in range(256)}
        for c in range(ord("a"), ord("z") + 1):
            table[2000 + c] = c - 32
        memory = dict(table)
        text = b"exotic"
        memory.update({100 + i: b for i, b in enumerate(text)})
        prog = (
            ir.StringTranslate(
                base=ir.Param("s", 0, 30000),
                table=ir.Param("t", 0, 30000),
                length=ir.Const(len(text)),
            ),
        )
        for use_exotic in (True, False):
            asm = target.compile(prog, use_exotic=use_exotic)
            result = target.simulate(asm, {"s": 100, "t": 2000}, memory)
            out = bytes(result.memory.read(100 + i) for i in range(len(text)))
            assert out == b"EXOTIC"

    def test_long_translate_chunks(self):
        from repro.codegen import ir, target_for

        target = target_for("ibm370")
        prog = (
            ir.StringTranslate(
                base=ir.Param("s", 0, 30000),
                table=ir.Param("t", 0, 30000),
                length=ir.Const(520),
            ),
        )
        asm = target.compile(prog)
        trs = [i for i in asm.instructions() if i.mnemonic == "tr"]
        assert len(trs) == 3
        # identity table: translation is a no-op, easy oracle
        memory = {2000 + i: i for i in range(256)}
        memory.update({100 + i: (i * 5) % 256 for i in range(520)})
        result = target.simulate(asm, {"s": 100, "t": 2000}, memory)
        assert all(
            result.memory.read(100 + i) == (i * 5) % 256 for i in range(520)
        )
