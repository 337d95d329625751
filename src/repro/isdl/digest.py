"""Content digests for ISDL descriptions.

The provenance layer identifies descriptions by the SHA-256 of their
canonical printed form: the pretty-printer is deterministic and its
output round-trips through the parser, so two structurally different
trees can never share a digest and two structurally equal trees always
do.  Comments are included — they are part of the printed figure and
deterministic under every transformation.

Descriptions are frozen dataclasses, so the printed text of one
*object* never changes.  Text and digest are therefore memoized per
object, and every consumer reads the same memo: verdict keys, the
transform engine's step digests, and the vectorized kernel cache.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Dict, Tuple

from . import ast
from .printer import format_description

#: ``id(description) -> (weakref, text, digest)``.  Printing dominates
#: both a verdict key and a warm kernel-cache hit, so it runs once per
#: object.  The weak reference guards against id reuse and evicts the
#: entry when the AST is collected.
_MEMO: Dict[int, Tuple["weakref.ref", str, str]] = {}


def _printed(description: ast.Description) -> Tuple[str, str]:
    """The description's printed text and its digest, memoized."""
    key = id(description)
    cached = _MEMO.get(key)
    if cached is not None and cached[0]() is description:
        return cached[1], cached[2]
    text = format_description(description)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    try:
        ref = weakref.ref(
            description, lambda _ref, _key=key: _MEMO.pop(_key, None)
        )
    except TypeError:
        return text, digest
    _MEMO[key] = (ref, text, digest)
    return text, digest


def description_text(description: ast.Description) -> str:
    """``format_description`` memoized per description object."""
    return _printed(description)[0]


def description_digest(description: ast.Description) -> str:
    """Hex SHA-256 of the description's canonical printed form."""
    return _printed(description)[1]
