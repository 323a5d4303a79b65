"""The input boundary: exact JSON types, named files and lines, and one
module that decodes every input file."""

import ast
import pathlib

import pytest

from ddilstm.inputs import check_fields, json_document, json_lines, text_lines

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ddilstm"

SCHEMA = {"name": str, "count": int, "scale": float, "flag": bool, "words": list[str]}
GOOD = {"name": "a", "count": 2, "scale": 0.5, "flag": True, "words": ["x", "y"]}


class TestCheckFields:
    def test_exact_types_pass(self):
        check_fields(GOOD, SCHEMA, "here")
        check_fields({**GOOD, "scale": 1, "words": []}, SCHEMA, "here")  # an int is a float
        check_fields({**GOOD, "extra": None}, SCHEMA, "here")

    @pytest.mark.parametrize("key,value", [
        ("count", True), ("count", 2.0), ("count", "2"), ("scale", "0.5"),
        ("flag", 1), ("name", None), ("words", "xy"), ("words", ["x", 5]),
        ("words", {"x": 0})])
    def test_wrong_type_names_where_and_key(self, key, value):
        with pytest.raises(ValueError, match=rf"^here: {key}: must be "):
            check_fields({**GOOD, key: value}, SCHEMA, "here")

    def test_missing_key(self):
        rec = dict(GOOD)
        del rec["count"]
        with pytest.raises(ValueError, match="^here: count: missing$"):
            check_fields(rec, SCHEMA, "here")

    @pytest.mark.parametrize("obj", [[], "x", 3, None])
    def test_not_an_object(self, obj):
        with pytest.raises(ValueError, match="^here: not a JSON object$"):
            check_fields(obj, SCHEMA, "here")

    def test_closed_refuses_unknown_keys(self):
        check_fields(GOOD, SCHEMA, "here", closed=True)
        with pytest.raises(ValueError, match="^here: extra: unknown key$"):
            check_fields({**GOOD, "extra": 1}, SCHEMA, "here", closed=True)


class TestFiles:
    def test_text_lines_skip_blank_lines(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a\n\n  \t\nb")
        assert list(text_lines(path)) == [(1, "a\n"), (4, "b")]

    def test_json_lines_as_json_loads(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"name": "a"}\n\n  {"name": "b"}  \r\n')
        assert list(json_lines(path, "row", {"name": str})) == [
            (f"{path}:1: bad row", {"name": "a"}), (f"{path}:3: bad row", {"name": "b"})]

    @pytest.mark.parametrize("line", ['{"name": "a"} x', "{bad", '{"name": 1}', "[1]"])
    def test_json_lines_name_the_line(self, tmp_path, line):
        path = tmp_path / "r.jsonl"
        path.write_text('{"name": "a"}\n' + line + "\n")
        with pytest.raises(ValueError, match=rf"^{path}:2: bad row: "):
            list(json_lines(path, "row", {"name": str}))

    def test_non_utf8_file_is_named(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b"\xff\n")
        with pytest.raises(ValueError, match=rf"^{path}: not UTF-8 text \("):
            list(json_lines(path, "row", {}))
        with pytest.raises(ValueError, match=rf"^{path}: malformed JSON \("):
            json_document(path, {})

    def test_nesting_past_the_recursion_limit_is_malformed(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text("[" * 100_000)
        with pytest.raises(ValueError, match=rf"^{path}:1: bad row: malformed JSON \("):
            list(json_lines(path, "row", {}))
        with pytest.raises(ValueError, match=rf"^{path}: malformed JSON \("):
            json_document(path, {})

    def test_json_document_checks_its_schema(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"name": "a", "more": 1}')
        assert json_document(path, {"name": str}) == {"name": "a", "more": 1}
        with pytest.raises(ValueError, match=rf"^{path}: name: must be int, got 'a'$"):
            json_document(path, {"name": int})


FORBIDDEN = {"json.load", "json.loads", "UnicodeDecodeError", "JSONDecodeError"}


def _boundary_uses(tree):
    """The JSON decoders and decode errors that a module names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr, f"{getattr(node.value, 'id', '')}.{node.attr}"}
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            names = {f"json.{alias.name}" for alias in node.names}
        else:
            continue
        yield from names & FORBIDDEN


def test_only_the_input_module_decodes_files():
    """No module but inputs.py calls json.load or json.loads, or catches a
    decode error, so every reader goes through the one boundary."""
    found = {path.name: sorted(set(uses)) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "inputs.py"
             and (uses := list(_boundary_uses(ast.parse(path.read_text(encoding="utf-8")))))}
    assert not found, f"decodes input outside inputs.py: {found}"
