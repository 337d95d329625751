"""Table 2: all eleven analyses succeed and verify differentially."""

import statistics

import pytest

from repro.analyses import TABLE2
from repro.analysis import RunConfig
from repro.constraints import OffsetConstraint, RangeConstraint, ValueConstraint

TRIALS = 60


def _ranks(values):
    """1-based ranks; tied values share their average rank."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and values[order[end + 1]] == values[order[start]]:
            end += 1
        for position in range(start, end + 1):
            ranks[order[position]] = (start + end) / 2 + 1
        start = end + 1
    return ranks


def spearman_rho(xs, ys):
    """Spearman's rank correlation: Pearson's r over average ranks."""
    rx, ry = _ranks(xs), _ranks(ys)
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    spread = sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
    return cov / spread ** 0.5


@pytest.fixture(scope="module")
def outcomes():
    return {
        module.__name__.rsplit(".", 1)[-1]: module.run(RunConfig(trials=TRIALS))
        for module in TABLE2
    }


def test_all_eleven_rows_succeed(outcomes):
    assert len(outcomes) == 11
    for name, outcome in outcomes.items():
        assert outcome.succeeded, f"{name}: {outcome.failure}"
        assert outcome.verification is not None
        assert outcome.verification.trials == TRIALS


def test_every_analysis_takes_multiple_steps(outcomes):
    for name, outcome in outcomes.items():
        assert outcome.steps >= 5, name


def test_step_counts_correlate_with_paper(outcomes):
    """Relative difficulty tracks the paper's Table 2 (rank correlation)."""
    paper = {
        "movsb_pascal": 52,
        "movsb_pl1": 66,
        "scasb_rigel": 73,
        "scasb_clu": 86,
        "cmpsb_pascal": 79,
        "movc3_pc2": 21,
        "movc5_pc2": 26,
        "locc_rigel": 33,
        "locc_clu": 32,
        "cmpc3_pascal": 47,
        "mvc_pascal": 105,
    }
    ours = [outcomes[name].steps for name in paper]
    theirs = [paper[name] for name in paper]
    rho = spearman_rho(ours, theirs)
    assert rho > 0.5, f"step-count ranks diverged from the paper: rho={rho:.2f}"


def test_per_family_orderings_match_paper(outcomes):
    """Within each instruction family the harder pairing costs more."""
    # movsb: PL/1's guarded move needs more steps than Pascal's.
    assert outcomes["movsb_pl1"].steps > outcomes["movsb_pascal"].steps
    # scasb: CLU's peeking count-up loop is harder than Rigel (86 vs 73).
    assert outcomes["scasb_clu"].steps > outcomes["scasb_rigel"].steps
    # locc: CLU matches locc's access style directly (32 vs 33).
    assert outcomes["locc_clu"].steps < outcomes["locc_rigel"].steps
    # movc3/PC2 is the smallest analysis overall, as in the paper.
    assert outcomes["movc3_pc2"].steps == min(o.steps for o in outcomes.values())


class TestConstraints:
    def test_scasb_emits_16bit_length_constraint(self, outcomes):
        binding = outcomes["scasb_rigel"].binding
        length = binding.operand_range("Src.Length")
        assert length is not None and length.hi == 65535
        assert binding.operand_map["Src.Length"] == "cx"

    def test_scasb_simplifications_recorded(self, outcomes):
        binding = outcomes["scasb_rigel"].binding
        fixed = {c.operand: c.value for c in binding.value_constraints()}
        assert fixed == {"df": 0, "rf": 1, "rfz": 0}

    def test_cmpsb_repeats_while_equal(self, outcomes):
        binding = outcomes["cmpsb_pascal"].binding
        fixed = {c.operand: c.value for c in binding.value_constraints()}
        assert fixed["rfz"] == 1

    def test_mvc_coding_constraint(self, outcomes):
        binding = outcomes["mvc_pascal"].binding
        offsets = binding.offset_constraints()
        assert len(offsets) == 1
        assert offsets[0].encode(256) == 255
        length = binding.operand_range("Len")
        assert (length.lo, length.hi) == (1, 256)

    def test_vax_16bit_length_constraint(self, outcomes):
        binding = outcomes["movc3_pc2"].binding
        length = binding.operand_range("count")
        assert length.hi == 65535

    def test_movc5_fixes_source_and_fill(self, outcomes):
        binding = outcomes["movc5_pc2"].binding
        fixed = {c.operand: c.value for c in binding.value_constraints()}
        assert fixed["srclen"] == 0
        assert fixed["fill"] == 0

    def test_augmented_flags(self, outcomes):
        # Searches and compares need augments; the PC2 block ops only
        # drop outputs (still a variant); mvc needs no augment at all —
        # its change is the coding constraint.
        assert outcomes["scasb_rigel"].binding.augmented
        assert outcomes["locc_rigel"].binding.augmented
        assert not outcomes["mvc_pascal"].binding.augmented


class TestBindingShape:
    def test_operand_maps_complete(self, outcomes):
        for name, outcome in outcomes.items():
            binding = outcome.binding
            entry = binding.final_operator.entry_routine()
            input_names = entry.body[0].names
            assert set(binding.operand_map) == set(input_names), name

    def test_augmented_instruction_descriptions_parseable(self, outcomes):
        from repro.isdl import format_description, parse_description

        for name, outcome in outcomes.items():
            printed = format_description(outcome.binding.augmented_instruction)
            parse_description(printed)
