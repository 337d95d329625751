"""The §7 future-work extension: language facts discharge overlap.

"EXTRA should be extended to understand source language characteristics
such as overlap that result in complex constraints.  … The no-overlap
condition is a property of Pascal and can never be violated by any
Pascal program.  Thus, the analysis system is the appropriate place to
deal with it" (paper §4.3/§7).

This module is the movc3/sassign analysis — the same inputs and the
same script — with the ``no-overlap``
:class:`~repro.constraints.LanguageFact` declared.  The fact discharges
the complex constraint, ``select_forward_copy`` resolves movc3's
direction branch, and the analysis completes — verified differentially
on (non-overlapping, as Pascal guarantees) randomized states.
"""

from __future__ import annotations

from ..constraints import LanguageFact
from . import movc3_sassign_failure
from .common import bind

INFO = movc3_sassign_failure.INFO
OPERATOR = movc3_sassign_failure.OPERATOR
INSTRUCTION = movc3_sassign_failure.INSTRUCTION
SCENARIO = movc3_sassign_failure.SCENARIO
script = movc3_sassign_failure.script

#: Pascal strings can never overlap — a property of the source
#: language, declared rather than proven.
NO_OVERLAP = LanguageFact(
    name="no-overlap",
    description="Pascal string variables never overlap in storage",
)

#: the facts the session holds: ``require_no_overlap`` is discharged.
LANGUAGE_FACTS = (NO_OVERLAP,)

run = bind(__name__)
