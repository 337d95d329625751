"""Burroughs B4800: the linked-list search of the paper's introduction
(``srl``), its description and the spec-generated simulator."""

from ..specsim import spec_simulator
from .descriptions import mva, srl
from .spec import SPEC

#: Executes the B4800 subset, generated from the spec.
B4800Simulator = spec_simulator(SPEC)

__all__ = ["mva", "srl", "B4800Simulator"]
