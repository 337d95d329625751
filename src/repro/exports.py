"""Package re-exports resolved on first access (PEP 562).

A package ``__init__`` that imports what it re-exports makes every
entry point pay for the whole package before it reads its arguments:
``python -m repro --help`` would load the batch stack, the vectorized
engine and numpy.  :func:`lazy_exports` gives a package a module
``__getattr__`` that imports a re-exported name's module the first
time the name is read, and a ``__dir__`` listing every such name, so
the public names stay the same and ``dir()`` still finds them.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Mapping, Tuple


def lazy_exports(
    namespace: Dict[str, object], exports: Mapping[str, Tuple[str, ...]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """A package's ``__getattr__``, ``__dir__`` and ``__all__``.

    ``exports`` maps a module, relative to the package whose globals
    are ``namespace``, to the names the package re-exports from it; the
    module ``"."`` lists submodules exported as themselves.  A name is
    imported once and then kept in ``namespace``.
    """
    package = namespace["__name__"]
    # name -> (absolute module, attribute; None for the module itself)
    origin = {
        name: (f"{package}.{name}", None) if module == "." else (package + module, name)
        for module, names in exports.items()
        for name in names
    }

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module, attribute = origin[name]
        # The import statement's path: ``python -X importtime`` logs it,
        # and not importlib.import_module.
        __import__(module)
        value = sys.modules[module]
        if attribute is not None:
            value = getattr(value, attribute)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, list(origin)
