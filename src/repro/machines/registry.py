"""The machine-spec registry: one place that knows every machine.

``catalog.py``, the lint engine, the fuzz matrix, and the ``repro
machines`` surface all iterate this registry rather than keeping their
own machine lists — adding a machine means adding one spec module and
one row here.

Loading a spec re-validates it (structure at import of the spec
module, ISDL description resolution here), so a spec whose modeled
instruction lost its loader fails at first use with the instruction's
exact field path, not at some later lint run.
"""

from __future__ import annotations

import importlib
from functools import lru_cache
from typing import Dict, Tuple

from .spec import MachineSpec, validate_descriptions

#: machine key -> module holding its ``SPEC``.
SPEC_MODULES: Dict[str, str] = {
    "i8086": "repro.machines.i8086.spec",
    "eclipse": "repro.machines.eclipse.spec",
    "univac1100": "repro.machines.univac1100.spec",
    "ibm370": "repro.machines.ibm370.spec",
    "b4800": "repro.machines.b4800.spec",
    "vax11": "repro.machines.vax11.spec",
    "z80": "repro.machines.z80.spec",
    "m68000": "repro.machines.m68000.spec",
}

#: the paper's Table 1 sample, in Table 1 row order.
PAPER_KEYS: Tuple[str, ...] = (
    "i8086",
    "eclipse",
    "univac1100",
    "ibm370",
    "b4800",
    "vax11",
)

#: machines added beyond the paper's sample, as pure spec data.
EXTENSION_KEYS: Tuple[str, ...] = ("z80", "m68000")

#: every machine key, paper sample first.
ALL_KEYS: Tuple[str, ...] = PAPER_KEYS + EXTENSION_KEYS


@lru_cache(maxsize=None)
def machine_spec(key: str) -> MachineSpec:
    """Load, validate, and cache the spec for ``key``."""
    try:
        module_name = SPEC_MODULES[key]
    except KeyError:
        raise KeyError(f"no machine spec for {key!r}") from None
    module = importlib.import_module(module_name)
    spec: MachineSpec = module.SPEC
    if spec.key != key:
        raise KeyError(
            f"machines.{key}: spec module {module_name!r} declares "
            f"key {spec.key!r}"
        )
    validate_descriptions(spec)
    return spec


def all_specs() -> Tuple[MachineSpec, ...]:
    """Every registered spec, paper sample first."""
    return tuple(machine_spec(key) for key in ALL_KEYS)

