"""Tests for the traversal / functional-update infrastructure."""

import dataclasses
import re
import typing

import pytest

from repro.analyses import REGISTRY
from repro.isdl import (
    ast,
    find_all,
    insert_at,
    node_at,
    parse_expr,
    parse_stmts,
    remove_at,
    replace_at,
    strip_comments,
    structurally_equal,
    walk,
)
from repro.isdl.errors import SourceLocation
from repro.isdl.visitor import _NODE_FIELDS, NODE_TYPES, children, splice_at
from repro.lint import lint_targets

from tests.transform.test_catalog_digests import replayed_forms
from tests.transform.test_fuzz_preservation import CORPUS, _load, fuzz_variants


def _reference_walk(node, path=()):
    """The recursive generator ``walk`` replaced, kept as the reference."""
    yield path, node
    if not dataclasses.is_dataclass(node):
        return
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if isinstance(value, NODE_TYPES):
            yield from _reference_walk(value, path + ((field.name, None),))
        elif isinstance(value, tuple):
            for index, item in enumerate(value):
                if isinstance(item, NODE_TYPES):
                    yield from _reference_walk(item, path + ((field.name, index),))


def _reference_strip(node):
    """Comment stripping over ``dataclasses.fields``: the reference the
    field-table ``strip_comments`` must equal."""
    if not isinstance(node, NODE_TYPES):
        return node
    updates = {}
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if field.name == "comment":
            updates["comment"] = None
        elif isinstance(value, NODE_TYPES):
            updates[field.name] = _reference_strip(value)
        elif isinstance(value, tuple):
            updates[field.name] = tuple(_reference_strip(item) for item in value)
    return dataclasses.replace(node, **updates)


def _same_walk(root, where=""):
    """``walk`` and the reference yield the same (path, node) sequence."""
    ours = list(walk(root))
    reference = list(_reference_walk(root))
    assert [path for path, _ in ours] == [path for path, _ in reference], where
    assert all(a is b for (_, a), (_, b) in zip(ours, reference)), where


def _names_node_class(annotation):
    """True when an annotation's text names an AST node class, directly
    or through an alias such as ``Expr`` or ``Width``."""
    for word in re.findall(r"[A-Za-z_]\w*", annotation):
        named = getattr(ast, word, None)
        if named in NODE_TYPES or any(
            arg in NODE_TYPES for arg in typing.get_args(named)
        ):
            return True
    return False


class TestFieldTable:
    @pytest.mark.parametrize("cls", NODE_TYPES, ids=lambda cls: cls.__name__)
    def test_table_holds_exactly_the_node_annotated_fields(self, cls):
        expected = [
            (field.name, field.type.startswith("Tuple["), (field.name, None))
            for field in dataclasses.fields(cls)
            if _names_node_class(field.type)
        ]
        assert list(reversed(_NODE_FIELDS[cls])) == expected


class TestWalkMatchesReference:
    def test_every_catalog_replay_step(self):
        forms = 0
        for name, side, step, description in replayed_forms():
            where = f"{name} {side} step {step}"
            _same_walk(description, where)
            stripped = strip_comments(description)
            assert stripped == _reference_strip(description), where
            assert strip_comments(stripped) is stripped, where
            forms += 1
        # Two input descriptions per analysis, then one form per step.
        assert forms > 2 * len(REGISTRY)

    @pytest.mark.parametrize("target", sorted(lint_targets()))
    def test_catalog_description(self, target):
        description, _suppressions = lint_targets()[target]()
        _same_walk(description)

    @pytest.mark.parametrize("name", [entry[0] for entry in CORPUS])
    def test_fuzz_corpus_variants(self, name):
        text = next(entry[1] for entry in CORPUS if entry[0] == name)
        description = _load(name, text)
        _same_walk(description)
        variants = 0
        for _transformation, _path, result in fuzz_variants(description):
            _same_walk(result.description)
            variants += 1
        assert variants >= 10

    def test_children_of_a_non_node_is_empty(self):
        for value in (None, 3, "x", (ast.Const(1),), SourceLocation(1, 2)):
            assert children(value) == []


class TestWalk:
    def test_walk_yields_root_first(self, search_desc):
        nodes = list(walk(search_desc))
        assert nodes[0] == ((), search_desc)

    def test_walk_paths_resolve(self, search_desc):
        for path, node in walk(search_desc):
            assert node_at(search_desc, path) is node

    def test_find_all_vars(self, search_desc):
        uses = find_all(
            search_desc, lambda n: isinstance(n, ast.Var) and n.name == "cx"
        )
        assert len(uses) >= 3


class TestReplace:
    def test_replace_deep_node(self, search_desc):
        target = next(
            path
            for path, node in walk(search_desc)
            if node == ast.Const(0) and len(path) > 3
        )
        updated = replace_at(search_desc, target, ast.Const(99))
        assert node_at(updated, target) == ast.Const(99)
        # original untouched
        assert node_at(search_desc, target) == ast.Const(0)

    def test_replace_root(self, search_desc, copy_desc):
        assert replace_at(search_desc, (), copy_desc) is copy_desc

    def test_shares_untouched_subtrees(self, search_desc):
        path = (("sections", 0),)
        updated = replace_at(
            search_desc, path, search_desc.sections[0]
        )
        assert updated.sections[1] is search_desc.sections[1]


class TestListEdits:
    def setup_method(self):
        self.stmts = parse_stmts("a <- 1; b <- 2; c <- 3;")
        self.block = ast.Repeat(body=self.stmts)

    def test_remove_middle(self):
        updated = remove_at(self.block, (("body", 1),))
        assert [s.target.name for s in updated.body] == ["a", "c"]

    def test_remove_requires_tuple_field(self):
        with pytest.raises(ValueError):
            remove_at(ast.Assign(ast.Var("x"), ast.Const(1)), (("expr", None),))

    def test_remove_root_rejected(self):
        with pytest.raises(ValueError):
            remove_at(self.block, ())

    def test_insert_front(self):
        new = parse_stmts("z <- 0;")[0]
        updated = insert_at(self.block, (("body", 0),), new)
        assert updated.body[0] is new
        assert len(updated.body) == 4

    def test_insert_append(self):
        new = parse_stmts("z <- 0;")[0]
        updated = insert_at(self.block, (("body", 3),), new)
        assert updated.body[-1] is new

    def test_insert_out_of_range(self):
        new = parse_stmts("z <- 0;")[0]
        with pytest.raises(IndexError):
            insert_at(self.block, (("body", 9),), new)

    def test_splice_expands(self):
        replacement = parse_stmts("x <- 1; y <- 2;")
        updated = splice_at(self.block, (("body", 1),), replacement)
        assert [s.target.name for s in updated.body] == ["a", "x", "y", "c"]

    def test_splice_empty_removes(self):
        updated = splice_at(self.block, (("body", 1),), ())
        assert len(updated.body) == 2


class TestComments:
    def test_strip_comments(self):
        (stmt,) = parse_stmts("x <- 1; ! note")
        assert stmt.comment == "note"
        assert strip_comments(stmt).comment is None

    def test_structural_equality_ignores_comments(self):
        (a,) = parse_stmts("x <- 1; ! note")
        (b,) = parse_stmts("x <- 1;")
        assert a != b
        assert structurally_equal(a, b)

    def test_structural_inequality(self):
        assert not structurally_equal(parse_expr("a + b"), parse_expr("a - b"))
