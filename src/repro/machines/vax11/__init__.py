"""VAX-11: character-string instruction descriptions and the
spec-generated simulator, which keeps the architected register protocol
(movc3 leaves R0 = 0, R1 = src + len, R3 = dst + len) the §6
dedicated-register optimization exploits."""

from ..specsim import spec_simulator
from .descriptions import cmpc3, locc, movc3, movc5
from .spec import SPEC

#: Executes the VAX-11 subset, generated from the spec.
Vax11Simulator = spec_simulator(SPEC)

__all__ = ["cmpc3", "locc", "movc3", "movc5", "Vax11Simulator"]
