"""The file boundary: exact JSON types, named files and lines, the exact
bytes of the line writer and the two JSON writers, outputs written whole
or not at all, and one module that decodes every input file and writes
every output file."""

import ast
import os
import pathlib

import pytest

from ddilstm.files import (
    check_fields,
    json_document,
    json_lines,
    text_lines,
    write_file,
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


def _failing(items, exc):
    """The items, then `exc` raised in place of the last."""
    yield from items[:-1]
    raise exc


# each streaming writer and three items for it
STREAMED = {"lines": (write_lines, ["a", "b", "c"]),
            "json-lines": (write_json_lines, [{"a": 1}, {"b": 2}, {"c": 3}]),
            "bytes": (write_file, [b"a\n", b"b\n", b"c\n"])}


@pytest.mark.parametrize("exc", [ValueError("bad record"), KeyboardInterrupt()],
                         ids=["error", "interrupt"])
@pytest.mark.parametrize("before", [None, b"old\n"], ids=["new", "existing"])
@pytest.mark.parametrize("case", sorted(STREAMED))
def test_failing_source_leaves_the_output_as_it_was(tmp_path, case, before, exc):
    """A source that raises part-way leaves no file under the output name,
    or the one there byte for byte, and no staging file."""
    write, items = STREAMED[case]
    path = tmp_path / "out"
    if before is not None:
        path.write_bytes(before)
    with pytest.raises(type(exc)):
        write(path, _failing(items, exc))
    assert (path.read_bytes() if path.exists() else None) == before
    assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["out"])


def test_a_taken_staging_name_is_refused_untouched(tmp_path):
    """The staging file is created exclusively: a file already under its
    name is neither truncated nor renamed into place."""
    path, taken = tmp_path / "out", tmp_path / f"out.{os.getpid()}.tmp"
    taken.write_bytes(b"not ours\n")
    with pytest.raises(FileExistsError):
        write_lines(path, ["x"])
    assert taken.read_bytes() == b"not ours\n" and not path.exists()


def test_a_symlinked_output_is_written_through(tmp_path):
    """The link stays a link; its target gets the bytes, staged beside it."""
    (tmp_path / "real").mkdir()
    target, link = tmp_path / "real" / "out.json", tmp_path / "link.json"
    link.symlink_to(target)
    write_json(link, {"a": 1})
    assert link.is_symlink() and target.read_bytes() == b'{\n "a": 1\n}\n'
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["link.json", "out.json", "real"]


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


# the checkpoint's vocabulary and manifest digests are of the bytes it
# encodes
ENCODERS_ALLOWED = {"model.save_checkpoint"}


def _writer_use(node):
    """The JSON encode, open-for-writing or rename that `node` is, else None."""
    if isinstance(node, ast.ImportFrom) and node.module == "json":
        return next((f"json.{a.name}" for a in node.names if a.name in ("dump", "dumps")),
                    None)
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    owner = getattr(getattr(func, "value", None), "id", "")
    if (owner, name) in {("json", "dump"), ("json", "dumps"), ("os", "replace"),
                         ("os", "rename")}:
        return f"{owner}.{name}"
    if name in ("write_text", "write_bytes"):
        return name
    if name in ("open", "fdopen"):
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
        # a mode that is no literal counts as writing
        if not isinstance(mode, ast.Constant) or set(mode.value) - set("rbt"):
            return f"{name}({ast.unparse(mode)})"
    return None


def _writer_uses_outside_files_py():
    """{"module.definition": uses}: each JSON encode, file opened for
    writing and rename in a top-level definition of a module but files.py."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "files.py":
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                for node in ast.walk(top):
                    if use := _writer_use(node):
                        owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
                        found.setdefault(owner, set()).add(use)
    return found


def test_only_the_file_module_encodes_outputs():
    """No module but files.py encodes JSON, except model.save_checkpoint,
    so every JSON output goes through its two writers."""
    found = {owner: encodes for owner, uses in _writer_uses_outside_files_py().items()
             if owner not in ENCODERS_ALLOWED
             and (encodes := {use for use in uses if use.startswith("json.")})}
    assert not found, f"encodes output outside files.py: {found}"


def test_only_the_file_module_writes_files():
    """No module but files.py opens a file for writing or renames one, so
    every output is written whole or not at all (write_file)."""
    found = {owner: writes for owner, uses in _writer_uses_outside_files_py().items()
             if (writes := {use for use in uses if not use.startswith("json.")})}
    assert not found, f"writes or renames a file outside files.py: {found}"
