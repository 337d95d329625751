"""Byte memory ``Mb`` for machine simulators.

Memory is a sparse mapping from address to byte; unwritten cells read as
zero.  Addresses are exact integers — the descriptions themselves decide
how wide their address registers are, and wrapping happens when a value
is stored back into such a register, not when memory is indexed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..isdl.errors import SemanticError
from .values import BYTE_MASK


@dataclass
class Memory:
    """Sparse byte-addressed memory."""

    cells: Dict[int, int] = field(default_factory=dict)

    def read(self, addr: int) -> int:
        if addr < 0:
            raise SemanticError(f"memory read at negative address {addr}")
        return self.cells.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        if addr < 0:
            raise SemanticError(f"memory write at negative address {addr}")
        self.cells[addr] = value & BYTE_MASK

    def read_bytes(self, addr: int, count: int) -> Tuple[int, ...]:
        return tuple(self.read(addr + offset) for offset in range(count))

    def snapshot(self) -> Dict[int, int]:
        """Copy of all nonzero cells (zero cells are indistinguishable)."""
        return {addr: value for addr, value in self.cells.items() if value != 0}

    def copy(self) -> "Memory":
        return Memory(dict(self.cells))
