"""IBM 370: the mvc description and the spec-generated simulator, which
moves ``field + 1`` bytes for an encoded length field (the quirk behind
the §4.2 coding constraint)."""

from ..specsim import spec_simulator
from .descriptions import mvc
from .spec import SPEC

#: Executes the IBM 370 subset, generated from the spec.
Ibm370Simulator = spec_simulator(SPEC)

__all__ = ["mvc", "Ibm370Simulator"]
