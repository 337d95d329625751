"""Every shipped description round-trips through the printer/parser
and replays deterministically through its analysis session."""

import pytest

from repro.isdl import format_description, parse_description, structurally_equal
from repro.languages import clu, listops, pascal, pc2, pl1, rigel
from repro.machines.b4800 import descriptions as b4800
from repro.machines.eclipse import descriptions as eclipse
from repro.machines.i8086 import descriptions as i8086
from repro.machines.ibm370 import descriptions as ibm370
from repro.machines.vax11 import descriptions as vax11

ALL_DESCRIPTIONS = {
    "i8086.scasb": i8086.scasb,
    "i8086.movsb": i8086.movsb,
    "i8086.cmpsb": i8086.cmpsb,
    "i8086.stosb": i8086.descriptions.stosb
    if hasattr(i8086, "descriptions")
    else None,
    "vax11.movc3": vax11.movc3,
    "vax11.movc5": vax11.movc5,
    "vax11.locc": vax11.locc,
    "vax11.cmpc3": vax11.cmpc3,
    "ibm370.mvc": ibm370.mvc,
    "eclipse.cmv": eclipse.cmv,
    "b4800.srl": b4800.srl,
    "b4800.mva": b4800.mva,
    "rigel.index": rigel.index,
    "clu.indexc": clu.indexc,
    "pascal.sassign": pascal.sassign,
    "pascal.sequal": pascal.sequal,
    "pl1.strmove": pl1.strmove,
    "pc2.blkcpy": pc2.blkcpy,
    "pc2.blkclr": pc2.blkclr,
    "listops.lsearch": listops.lsearch,
}
# Fix the stosb loader (module attribute access above is awkward).
from repro.machines.i8086.descriptions import stosb as _stosb

ALL_DESCRIPTIONS["i8086.stosb"] = _stosb


@pytest.mark.parametrize("name", sorted(ALL_DESCRIPTIONS), ids=str)
def test_roundtrip(name):
    description = ALL_DESCRIPTIONS[name]()
    printed = format_description(description)
    again = parse_description(printed)
    assert structurally_equal(description, again), name


@pytest.mark.parametrize("name", sorted(ALL_DESCRIPTIONS), ids=str)
def test_has_unique_entry_routine(name):
    description = ALL_DESCRIPTIONS[name]()
    entry = description.entry_routine()
    assert entry.body, name


def test_analysis_replay_is_deterministic():
    """Replaying a script twice produces structurally identical results."""
    from repro.analyses import scasb_rigel
    from repro.analysis import RunConfig

    first = scasb_rigel.run(RunConfig(verify=False))
    second = scasb_rigel.run(RunConfig(verify=False))
    assert structurally_equal(
        first.binding.augmented_instruction,
        second.binding.augmented_instruction,
    )
    assert structurally_equal(
        first.binding.final_operator, second.binding.final_operator
    )
    assert first.binding.constraints == second.binding.constraints
    assert first.steps == second.steps
