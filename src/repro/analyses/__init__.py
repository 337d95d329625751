"""Recorded analysis scripts — one per Table 2 row, plus the failures.

Each module plays the role of the paper's interactive user: a recorded
sequence of transformation steps driving an
:class:`~repro.analysis.AnalysisSession` to a common form.  The engine
validates every step's guards, the matcher proves the final forms
identical modulo renaming, and the differential verifier executes both
descriptions on randomized machine states.

A module is data and a script — its row, its input descriptions and
the script — and its ``run(config=None)`` is
:func:`~repro.analyses.common.run_analysis` bound to it: one function
runs every analysis, and every caller passes its whole
:class:`~repro.analysis.RunConfig`.

The per-row *metadata* — the paper's step count for Table 2, the
IR-field routing map the code generator needs, and which machine
library a binding belongs to — lives here, in one declarative
:data:`REGISTRY` of :class:`AnalysisSpec` entries.  The batch runner's
catalog, the code generator's binding database, and the ``table2``
report all read the registry.

``TABLE2`` lists the eleven successful analyses in the paper's Table 2
order; ``FAILURES`` the two documented failures (§4.3 movc3/sassign and
§5 Eclipse); ``EXTENSIONS`` the §7 language-fact extension and the §1
B4800 list-search example.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType
from typing import Mapping, Optional, Tuple

from . import (
    clc_pascal,
    cmpc3_pascal,
    cmpsb_pascal,
    eclipse_failure,
    mva_pascal,
    locc_clu,
    locc_rigel,
    movc3_pc2,
    movc3_sassign_extension,
    movc3_sassign_failure,
    movc5_pc2,
    movsb_pascal,
    movsb_pl1,
    mvc_pascal,
    scasb_clu,
    scasb_rigel,
    skpc_pl1,
    srl_listsearch,
    stosb_pc2,
    tr_pascal,
)


@dataclass(frozen=True)
class AnalysisSpec:
    """One analysis module's declarative metadata.

    ``paper_steps`` is the step count the 1982 implementation reported
    in Table 2 (None off-table); ``field_map`` routes IR operand fields
    to operator operand names for the code generator; ``codegen``
    names the machine library the binding joins (None keeps it out of
    every compiler repertoire — failures, and rows the paper analyzed
    without shipping).  ``codegen_extension`` marks the §7 extension
    binding that only enters its library on request.
    """

    name: str
    group: str  # "table2" | "failures" | "extensions"
    module: ModuleType
    paper_steps: Optional[int] = None
    field_map: Optional[Mapping[str, str]] = None
    codegen: Optional[str] = None
    codegen_extension: bool = False

    @property
    def expect_failure(self) -> bool:
        return self.group == "failures"


#: Every analysis, in catalog order: the eleven Table 2 rows in the
#: paper's order, then the documented failures, then the extensions.
REGISTRY: Tuple[AnalysisSpec, ...] = (
    AnalysisSpec(
        name="movsb_pascal", group="table2", module=movsb_pascal,
        paper_steps=52, codegen="i8086",
        field_map=dict({"src": "Src.Base", "dst": "Dst.Base", "length": "Len"}),
    ),
    AnalysisSpec(
        name="movsb_pl1", group="table2", module=movsb_pl1,
        paper_steps=66,
        field_map=dict({"src": "Src.Base", "dst": "Dst.Base", "length": "Len"}),
    ),
    AnalysisSpec(
        name="scasb_rigel", group="table2", module=scasb_rigel,
        paper_steps=73, codegen="i8086",
        field_map=dict({"base": "Src.Base", "length": "Src.Length", "char": "ch"}),
    ),
    AnalysisSpec(
        name="scasb_clu", group="table2", module=scasb_clu,
        paper_steps=86,
        field_map=dict({"base": "S.Base", "length": "S.Limit", "char": "c"}),
    ),
    AnalysisSpec(
        name="cmpsb_pascal", group="table2", module=cmpsb_pascal,
        paper_steps=79, codegen="i8086",
        field_map=dict({"a": "A.Base", "b": "B.Base", "length": "Len"}),
    ),
    AnalysisSpec(
        name="movc3_pc2", group="table2", module=movc3_pc2,
        paper_steps=21, codegen="vax11",
        field_map=dict({"src": "from", "dst": "to", "length": "count"}),
    ),
    AnalysisSpec(
        name="movc5_pc2", group="table2", module=movc5_pc2,
        paper_steps=26, codegen="vax11",
        field_map=dict({"dst": "addr", "length": "count"}),
    ),
    AnalysisSpec(
        name="locc_rigel", group="table2", module=locc_rigel,
        paper_steps=33, codegen="vax11",
        field_map=dict({"base": "Src.Base", "length": "Src.Length", "char": "ch"}),
    ),
    AnalysisSpec(
        name="locc_clu", group="table2", module=locc_clu,
        paper_steps=32,
        field_map=dict({"base": "S.Base", "length": "S.Limit", "char": "c"}),
    ),
    AnalysisSpec(
        name="cmpc3_pascal", group="table2", module=cmpc3_pascal,
        paper_steps=47, codegen="vax11",
        field_map=dict({"a": "A.Base", "b": "B.Base", "length": "Len"}),
    ),
    AnalysisSpec(
        name="mvc_pascal", group="table2", module=mvc_pascal,
        paper_steps=105, codegen="ibm370",
        field_map=dict({"src": "Src.Base", "dst": "Dst.Base", "length": "Len"}),
    ),
    AnalysisSpec(
        name="movc3_sassign_failure", group="failures",
        module=movc3_sassign_failure,
        field_map=dict({"src": "Src.Base", "dst": "Dst.Base", "length": "Len"}),
    ),
    AnalysisSpec(
        name="eclipse_failure", group="failures", module=eclipse_failure,
    ),
    AnalysisSpec(
        name="movc3_sassign_extension", group="extensions",
        module=movc3_sassign_extension,
        codegen="vax11", codegen_extension=True,
        field_map=dict({"src": "Src.Base", "dst": "Dst.Base", "length": "Len"}),
    ),
    AnalysisSpec(
        name="srl_listsearch", group="extensions", module=srl_listsearch,
        codegen="b4800",
        field_map=dict({
            "head": "Head", "key": "Key",
            "key_offset": "KeyOff", "link_offset": "LinkOff",
        }),
    ),
    AnalysisSpec(
        name="stosb_pc2", group="extensions", module=stosb_pc2,
        codegen="i8086",
        field_map=dict({"dst": "addr", "length": "count"}),
    ),
    AnalysisSpec(
        name="mva_pascal", group="extensions", module=mva_pascal,
        codegen="b4800",
        field_map=dict({"src": "Src.Base", "dst": "Dst.Base", "length": "Len"}),
    ),
    AnalysisSpec(
        name="clc_pascal", group="extensions", module=clc_pascal,
        codegen="ibm370",
        field_map=dict({"a": "A.Base", "b": "B.Base", "length": "Len"}),
    ),
    AnalysisSpec(
        name="skpc_pl1", group="extensions", module=skpc_pl1,
        field_map=dict({"char": "C", "length": "Max", "base": "S"}),
    ),
    AnalysisSpec(
        name="tr_pascal", group="extensions", module=tr_pascal,
        codegen="ibm370",
        field_map=dict({"src": "Src.Base", "dst": "Dst.Base", "length": "Len"}),
    ),
)

def codegen_specs(machine: str, extensions: bool = False) -> Tuple[AnalysisSpec, ...]:
    """Registry entries whose bindings join ``machine``'s library."""
    return tuple(
        spec
        for spec in REGISTRY
        if spec.codegen == machine
        and (extensions or not spec.codegen_extension)
    )


def _group(name: str) -> Tuple[ModuleType, ...]:
    return tuple(spec.module for spec in REGISTRY if spec.group == name)


#: the eleven Table 2 rows, in the paper's order.
TABLE2 = _group("table2")

#: the paper's documented failures.
FAILURES = _group("failures")

#: beyond Table 2: the §7 extension and the §1 B4800 example.
EXTENSIONS = _group("extensions")


def run_failures():
    """Run the two documented failure attempts."""
    return [module.run() for module in FAILURES]
