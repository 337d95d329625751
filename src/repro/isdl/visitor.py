"""Generic traversal and functional-update infrastructure for ISDL trees.

Because every AST node is a frozen dataclass, transformations rebuild trees
instead of mutating them.  This module provides the shared machinery:

* :func:`children` — enumerate the AST children of a node,
* :func:`walk` — preorder traversal yielding ``(path, node)`` pairs,
* :func:`node_at` / :func:`replace_at` — path-based lookup and functional
  replacement (the backbone of the cursor / structure-editor API),
* :func:`find_all` — pattern search used by analysis scripts to locate
  the node a transformation should apply to.

A *path* is a tuple of steps; each step is ``(field_name, index)`` where
``index`` is ``None`` for a plain node field and an integer for an element
of a tuple-valued field.  The empty path denotes the root.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator, List, Optional, Tuple

from . import ast

#: One step of a path: (dataclass field name, tuple index or None).
PathStep = Tuple[str, Optional[int]]
Path = Tuple[PathStep, ...]

#: Every class that counts as an AST node for traversal purposes.
NODE_TYPES = (
    ast.Description,
    ast.Section,
    ast.RegDecl,
    ast.RoutineDecl,
    ast.Assign,
    ast.If,
    ast.Repeat,
    ast.ExitWhen,
    ast.Input,
    ast.Output,
    ast.Assert,
    ast.Const,
    ast.Var,
    ast.MemRead,
    ast.Call,
    ast.BinOp,
    ast.UnOp,
    ast.BitWidth,
    ast.TypeWidth,
)


#: Each node class's field names, read once instead of calling
#: ``dataclasses.fields`` on every node visited.  ``location`` is source
#: metadata, never a node, and is left out.
_FIELDS = {
    cls: tuple(
        field.name
        for field in dataclasses.fields(cls)
        if field.name != "location"
    )
    for cls in NODE_TYPES
}


def children(node: object) -> List[Tuple[PathStep, object]]:
    """Enumerate direct AST children of ``node`` with their path steps."""
    result: List[Tuple[PathStep, object]] = []
    for name in _FIELDS.get(type(node), ()):
        value = getattr(node, name)
        if type(value) in _FIELDS:
            result.append(((name, None), value))
        elif isinstance(value, tuple):
            for index, item in enumerate(value):
                if type(item) in _FIELDS:
                    result.append(((name, index), item))
    return result


def walk(node: object, path: Path = ()) -> Iterator[Tuple[Path, object]]:
    """Preorder traversal of the tree rooted at ``node``."""
    stack = [(path, node)]
    while stack:
        path, node = stack.pop()
        yield path, node
        # Pushed last to first, so the first child is yielded next.
        for step, child in reversed(children(node)):
            stack.append((path + (step,), child))


def node_at(root: object, path: Path) -> object:
    """Return the node reached by following ``path`` from ``root``."""
    node = root
    for field_name, index in path:
        value = getattr(node, field_name)
        node = value if index is None else value[index]
    return node


def replace_at(root: object, path: Path, new_node: object) -> object:
    """Return a copy of ``root`` with the node at ``path`` replaced.

    Shares every subtree not on the path.  An empty path returns
    ``new_node`` itself.
    """
    if not path:
        return new_node
    (field_name, index), rest = path[0], path[1:]
    value = getattr(root, field_name)
    if index is None:
        updated = replace_at(value, rest, new_node)
    else:
        updated_item = replace_at(value[index], rest, new_node)
        updated = value[:index] + (updated_item,) + value[index + 1:]
    return dataclasses.replace(root, **{field_name: updated})


def remove_at(root: object, path: Path) -> object:
    """Return a copy of ``root`` with the tuple element at ``path`` removed.

    The final path step must index into a tuple-valued field (you can only
    remove statements/declarations, not mandatory single-node fields).
    """
    if not path:
        raise ValueError("cannot remove the root node")
    *prefix, (field_name, index) = path
    if index is None:
        raise ValueError(f"cannot remove non-tuple field {field_name!r}")
    parent = node_at(root, tuple(prefix))
    value = getattr(parent, field_name)
    updated = value[:index] + value[index + 1:]
    new_parent = dataclasses.replace(parent, **{field_name: updated})
    return replace_at(root, tuple(prefix), new_parent)


def insert_at(root: object, path: Path, new_node: object) -> object:
    """Insert ``new_node`` so it ends up at ``path`` (shifting later items).

    As with :func:`remove_at`, the final step must address a tuple field;
    the index may equal the tuple length (append).
    """
    if not path:
        raise ValueError("cannot insert at the root")
    *prefix, (field_name, index) = path
    if index is None:
        raise ValueError(f"cannot insert into non-tuple field {field_name!r}")
    parent = node_at(root, tuple(prefix))
    value = getattr(parent, field_name)
    if not 0 <= index <= len(value):
        raise IndexError(f"insert index {index} out of range for {field_name}")
    updated = value[:index] + (new_node,) + value[index:]
    new_parent = dataclasses.replace(parent, **{field_name: updated})
    return replace_at(root, tuple(prefix), new_parent)


def splice_at(root: object, path: Path, replacements) -> object:
    """Replace the tuple element at ``path`` with zero or more elements.

    Used when a transformation dissolves a compound statement (e.g.
    ``if 1 then A B end_if`` becomes the sequence ``A B`` in the parent
    block).
    """
    if not path:
        raise ValueError("cannot splice at the root")
    *prefix, (field_name, index) = path
    if index is None:
        raise ValueError(f"cannot splice into non-tuple field {field_name!r}")
    parent = node_at(root, tuple(prefix))
    value = getattr(parent, field_name)
    updated = value[:index] + tuple(replacements) + value[index + 1:]
    new_parent = dataclasses.replace(parent, **{field_name: updated})
    return replace_at(root, tuple(prefix), new_parent)


def find_all(
    root: object, predicate: Callable[[object], bool]
) -> List[Tuple[Path, object]]:
    """All ``(path, node)`` pairs whose node satisfies ``predicate``."""
    return [(path, node) for path, node in walk(root) if predicate(node)]


def strip_comments(node: object) -> object:
    """Return a copy of the tree with every ``comment`` field cleared.

    Used before structural comparison: comments are documentation, not
    semantics, so two descriptions differing only in comments are equal.
    A subtree with no comment to drop is returned as it is.
    """
    updates = {}
    for name in _FIELDS.get(type(node), ()):
        value = getattr(node, name)
        if name == "comment":
            if value is not None:
                updates[name] = None
        elif type(value) in _FIELDS:
            stripped = strip_comments(value)
            if stripped is not value:
                updates[name] = stripped
        elif isinstance(value, tuple):
            items = tuple(strip_comments(item) for item in value)
            if any(new is not old for new, old in zip(items, value)):
                updates[name] = items
    if not updates:
        return node
    return dataclasses.replace(node, **updates)


def structurally_equal(a: object, b: object) -> bool:
    """Structural equality ignoring comments."""
    return strip_comments(a) == strip_comments(b)
