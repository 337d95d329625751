"""Value model for ISDL execution.

Registers hold unsigned fixed-width bit vectors: assigning a value to a
register declared ``<hi:lo>`` truncates it modulo ``2**bits`` (so
``di <- di - 1`` with ``di = 0`` wraps to 65535 in a 16-bit register,
exactly as on the modelled machines).  Variables declared ``: integer``
in language-operator descriptions hold unbounded mathematical integers —
binding such a variable to a finite register is what creates the paper's
range constraints, and the interpreter keeps the distinction visible.

Expression evaluation itself is exact (Python integers); truncation only
happens when a value is *stored*.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Optional, Union

from ..isdl import ast

#: Number of bits in one memory cell (``Mb`` is byte-addressed).
BYTE_BITS = 8
BYTE_MASK = (1 << BYTE_BITS) - 1


def width_bits(width: Optional[ast.Width]) -> Optional[int]:
    """Number of bits a width can hold, or ``None`` for unbounded integers."""
    if width is None:
        return None
    if isinstance(width, ast.BitWidth):
        return width.bits
    return width.bits  # TypeWidth: 8 for character, None for integer


def truncate(value: int, width: Optional[ast.Width]) -> int:
    """Truncate ``value`` to fit ``width`` (no-op for unbounded integers)."""
    bits = width_bits(width)
    if bits is None:
        return value
    return value & ((1 << bits) - 1)


def fits(value: int, width: Optional[ast.Width]) -> bool:
    """True when ``value`` is representable in ``width`` without change."""
    bits = width_bits(width)
    if bits is None:
        return True
    return 0 <= value < (1 << bits)


def truth(value: int) -> bool:
    """ISDL truthiness: any nonzero value is true."""
    return value != 0


def as_flag(value: Union[int, bool]) -> int:
    """Canonical 0/1 encoding of a boolean result."""
    return 1 if value else 0


#: Binary operators on exact integers.  Logical operators do **not**
#: short-circuit: both operands are always evaluated before one of
#: these is called.  Descriptions are expected to keep conditions
#: side-effect free; the transformation guards check purity before
#: rewriting conditions.
BINARY_OPS: Dict[str, Callable[[int, int], int]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "=": lambda left, right: 1 if left == right else 0,
    "<>": lambda left, right: 1 if left != right else 0,
    "<": lambda left, right: 1 if left < right else 0,
    "<=": lambda left, right: 1 if left <= right else 0,
    ">": lambda left, right: 1 if left > right else 0,
    ">=": lambda left, right: 1 if left >= right else 0,
    "and": lambda left, right: 1 if left != 0 and right != 0 else 0,
    "or": lambda left, right: 1 if left != 0 or right != 0 else 0,
}

#: Unary operators on exact integers.
UNARY_OPS: Dict[str, Callable[[int], int]] = {
    "not": lambda operand: 1 if operand == 0 else 0,
    "-": operator.neg,
}


def apply_binop(op: str, left: int, right: int) -> int:
    """Evaluate a binary operator (see :data:`BINARY_OPS`)."""
    fn = BINARY_OPS.get(op)
    if fn is None:
        raise ValueError(f"unknown binary operator {op!r}")
    return fn(left, right)


def apply_unop(op: str, operand: int) -> int:
    """Evaluate a unary operator (see :data:`UNARY_OPS`)."""
    fn = UNARY_OPS.get(op)
    if fn is None:
        raise ValueError(f"unknown unary operator {op!r}")
    return fn(operand)


#: Operators whose result is always 0 or 1.
BOOLEAN_OPS = frozenset({"=", "<>", "<", "<=", ">", ">=", "and", "or"})
