"""The benchmark's tracer wraps ddilstm functions by name; they must exist.

`perfbench/tracing.py` lists each (module, attribute) it times or counts.
A name that does not resolve is only reported as `missing` by a traced
run, and its per-layer metric then reads 0. This test reads that list
without importing the benchmark and fails when a renamed or deleted
entry point leaves a target dangling.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# gone already; CHANGES.md has a FOUND line for each (the tracer still
# names training.cross_entropy and recurrent.lstm_step). Changing the
# tracer is a benchmark change.
KNOWN_MISSING = {
    ("ddilstm.training", "cross_entropy"),
    ("ddilstm.recurrent", "lstm_step"),
}


def tracer_targets() -> set[tuple[str, str]]:
    targets = set()
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in ("SPANS", "COUNTED")):
            targets |= set(ast.literal_eval(node.value).values())
    return targets


def resolves(module: str, attr: str) -> bool:
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return callable(obj)


def test_tracer_lists_targets():
    targets = tracer_targets()
    assert ("ddilstm.recurrent", "bilstm_forward") in targets
    assert ("ddilstm.autodiff", "Tape.backward") in targets


def test_every_tracer_target_resolves():
    missing = {t for t in tracer_targets() if not resolves(*t)}
    assert missing == KNOWN_MISSING
