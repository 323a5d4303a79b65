"""The file boundary. Every text and JSON file the pipeline reads is decoded
and type-checked here, and each error is one ValueError naming the file;
every file it writes is written here, whole or not at all (`write_file`):
JSON through the two JSON writers, and the kept records of `filter` as the
text of their already checked input lines (`write_lines`)."""

import hashlib
import json
import os
import reprlib
from types import GenericAlias

# json.loads without its two whitespace scans, for text already stripped
_decode = json.JSONDecoder().raw_decode


def text_lines(path):
    """(line number, line) for each non-blank line of a UTF-8 text file: each
    line holding more than JSON whitespace (space, tab, CR, LF)."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.strip(" \t\n\r"):
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def json_lines(path, what: str, schema: dict, closed: bool = False):
    """(where, text, record) for each non-blank line of a JSON-lines file,
    each record an object of `schema` (check_fields), where `where` is
    "path:line: bad <what>", the start of that line's errors, and `text` is
    the line stripped of surrounding whitespace: one JSON document."""
    for lineno, line in text_lines(path):
        where, text = f"{path}:{lineno}: bad {what}", line.strip(" \t\n\r")
        try:
            value, end = _decode(text)
            if end < len(text):
                raise json.JSONDecodeError("Extra data", text, end)
        except (ValueError, RecursionError) as exc:  # not JSON, an int too long
            raise ValueError(f"{where}: malformed JSON ({exc})") from None
        check_fields(value, schema, where, closed)
        yield where, text, value


def json_document(path, schema: dict) -> dict:
    """The JSON object a UTF-8 file holds, of `schema` (check_fields)."""
    try:
        with open(path, encoding="utf-8") as fh:
            value = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, an int too long
        raise ValueError(f"{path}: malformed JSON ({exc})") from None
    check_fields(value, schema, str(path))
    return value


def check_fields(obj, schema: dict, where: str, closed: bool = False) -> None:
    """Raise ValueError("where: key: problem") unless `obj` is a JSON object
    holding each key of `schema` with a value of exactly that key's type:
    a JSON type, or list[t] for a list whose values all have type t. A bool
    is no int and 2.0 is no index, but an int passes for a float. `closed`
    also refuses keys that `schema` does not name."""
    if type(obj) is not dict:
        raise ValueError(f"{where}: not a JSON object")
    try:
        for key, kind in schema.items():
            value = obj[key]
            if type(value) is kind or kind is float and type(value) is int:
                continue
            if (type(kind) is GenericAlias and type(value) is list  # list[t]
                    and set(map(type, value)) <= set(kind.__args__)):
                continue
            name = kind if type(kind) is GenericAlias else kind.__name__
            raise ValueError(f"{where}: {key}: must be {name}, got {reprlib.repr(value)}")
    except KeyError:
        raise ValueError(f"{where}: {key}: missing") from None
    if closed and len(obj) > len(schema):  # every key of schema is in obj
        raise ValueError(f"{where}: {next(k for k in obj if k not in schema)}: unknown key")


def write_file(path, chunks) -> None:
    """Write byte chunks to `path` whole or not at all: to a new file named
    for this process beside its real path (so through a symlink), renamed
    into place at the end and removed on any exception. No fsync."""
    real = os.path.realpath(path)
    fh = open(f"{real}.{os.getpid()}.tmp", "xb")  # never truncates a file; under the umask
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(fh.name, real)
    except BaseException:
        os.remove(fh.name)
        raise


def write_lines(path, lines) -> None:
    """Each string as one line, ending in a newline."""
    write_file(path, ((line + "\n").encode() for line in lines))


def write_json_lines(path, records) -> None:
    """One compact JSON line per record, each ending in a newline."""
    write_lines(path, map(json.dumps, records))


def json_sha256(value) -> str:
    """The sha256 of `json.dumps(value)`, however a file lays `value` out."""
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()


def write_json(path, value) -> None:
    """One JSON document indented by one space, and a final newline."""
    write_lines(path, [json.dumps(value, indent=1)])
