"""The file boundary: exact JSON types, named files and lines, the exact
bytes of the line writer and the two JSON writers, and one module that
decodes every input file and encodes every output file but the checkpoint."""

import ast
import pathlib

import pytest

from ddilstm.files import (
    check_fields,
    json_document,
    json_lines,
    text_lines,
    write_json,
    write_json_lines,
    write_lines,
)

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
            (f"{path}:1: bad row", '{"name": "a"}', {"name": "a"}),
            (f"{path}:3: bad row", '{"name": "b"}', {"name": "b"})]

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

    def test_int_past_the_digit_limit_is_malformed(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"n": ' + "7" * 5000 + "}\n")
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


# each writer's exact bytes: non-ASCII escaped, key order kept, one
# compact line per record, or one space of indent and a final newline
WRITTEN = {
    "json-lines": (write_json_lines, [{"b": "é", "a": [1, 2.5]}, {"z": None, "y": True}],
                   b'{"b": "\\u00e9", "a": [1, 2.5]}\n{"z": null, "y": true}\n'),
    "json-lines-empty": (write_json_lines, [], b""),
    "lines": (write_lines, ['{"b": "é"}', "", " x "], b'{"b": "\xc3\xa9"}\n\n x \n'),
    "json": (write_json, {"b": "é", "a": [1, {"c": 2.5}], "e": {}},
             b'{\n "b": "\\u00e9",\n "a": [\n  1,\n  {\n   "c": 2.5\n  }\n ],\n "e": {}\n}\n'),
}


@pytest.mark.parametrize("case", sorted(WRITTEN))
def test_writer_bytes(tmp_path, case):
    write, value, expected = WRITTEN[case]
    path = tmp_path / "out"
    write(path, value if write is write_json else iter(value))  # lines stream
    assert path.read_bytes() == expected


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
    """No module but files.py calls json.load or json.loads, or catches a
    decode error, so every reader goes through the one boundary."""
    found = {path.name: sorted(set(uses)) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "files.py"
             and (uses := list(_boundary_uses(ast.parse(path.read_text(encoding="utf-8")))))}
    assert not found, f"decodes input outside files.py: {found}"


# the checkpoint is staged through temp files and renamed as one unit
WRITERS_ALLOWED = {("model", "save_checkpoint")}


def _writer_use(node):
    """The JSON encode or open-for-writing that `node` is, else None."""
    if isinstance(node, ast.ImportFrom) and node.module == "json":
        return next((f"json.{a.name}" for a in node.names if a.name in ("dump", "dumps")),
                    None)
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    if name in ("dump", "dumps") and getattr(func.value, "id", "") == "json":
        return f"json.{name}"
    if name in ("write_text", "write_bytes"):
        return name
    if name in ("open", "fdopen"):
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
        # a mode that is no literal counts as writing
        if not isinstance(mode, ast.Constant) or set(mode.value) - set("rbt"):
            return f"{name}({ast.unparse(mode)})"
    return None


def _writer_uses(tree):
    """(top-level definition, use) for each JSON encode and each file
    opened for writing in a module."""
    for top in tree.body:
        for node in ast.walk(top):
            if use := _writer_use(node):
                yield getattr(top, "name", "<module>"), use


def test_only_the_file_module_encodes_outputs():
    """No module but files.py encodes JSON or opens a file for writing,
    except model.save_checkpoint, so every output goes through its two
    writers."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "files.py":
            for owner, use in _writer_uses(ast.parse(path.read_text(encoding="utf-8"))):
                if (path.stem, owner) not in WRITERS_ALLOWED:
                    found.setdefault(f"{path.stem}.{owner}", set()).add(use)
    assert not found, f"writes output outside files.py: {found}"
