"""Intel 8086: string-instruction descriptions and the spec-generated
simulator (timings, registers and the rep counter are data in
:mod:`repro.machines.i8086.spec`)."""

from ..specsim import spec_simulator
from .descriptions import cmpsb, movsb, scasb
from .spec import SPEC

#: Executes the 8086 subset, generated from the spec.
I8086Simulator = spec_simulator(SPEC)

__all__ = ["cmpsb", "movsb", "scasb", "I8086Simulator"]
