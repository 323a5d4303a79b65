"""Spans and call counts recorded from outside the program.

A Tracer wraps public functions of the ddilstm modules. The modules bind
each other's functions with `from ... import`, so a wrapper replaces the
function under every name that holds it: in its defining module and in
each loaded ddilstm module that imported it. A name that no longer
exists is listed in `missing` instead of failing the run.

Spans stay in memory while the run goes on and are written out when it
ends. A layer's self time is its spans' duration minus the part covered
by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict

# span name -> (defining module, attribute); "Class.method" names a method
SPANS = {
    "autodiff.backward": ("ddilstm.autodiff", "Tape.backward"),
    "recurrent.bilstm_forward": ("ddilstm.recurrent", "bilstm_forward"),
    "features.embed": ("ddilstm.features", "embed"),
    "features.featurize": ("ddilstm.features", "featurize"),
    "features.build_vocab": ("ddilstm.features", "build_vocab"),
    "pooling.max_pool": ("ddilstm.pooling", "max_pool"),
    "pooling.attentive_pool": ("ddilstm.pooling", "attentive_pool"),
    "model.forward": ("ddilstm.model", "forward"),
    "model.load_checkpoint": ("ddilstm.model", "load_checkpoint"),
    "model.save_checkpoint": ("ddilstm.model", "save_checkpoint"),
    "training.train": ("ddilstm.training", "train"),
    "training.cross_entropy": ("ddilstm.training", "cross_entropy"),
    "training.adam_step": ("ddilstm.training", "adam_step"),
    "corpus.parse_corpus": ("ddilstm.corpus", "parse_corpus"),
    "corpus.generate_instances": ("ddilstm.corpus", "generate_instances"),
    "corpus.write_instances": ("ddilstm.corpus", "write_instances"),
    "corpus.read_instances": ("ddilstm.corpus", "read_instances"),
    "filtering.apply_filters": ("ddilstm.filtering", "apply_filters"),
    "evaluation.evaluate": ("ddilstm.evaluation", "evaluate"),
    "evaluation.length_stats": ("ddilstm.evaluation", "length_stats"),
    "evaluation.write_attention_records": (
        "ddilstm.evaluation", "write_attention_records"),
}
# called tens of thousands of times per batch: counted, not timed
COUNTED = {
    "recurrent.lstm_step": ("ddilstm.recurrent", "lstm_step"),
}


class NullTracer:
    """The untraced run: a span is a shared no-op context manager."""

    _NOTHING = contextlib.nullcontext()

    def span(self, name: str):
        return self._NOTHING


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        stack = tracer._stack
        self.record = [len(tracer.spans), name, 0.0, 0.0,
                       stack[-1] if stack else None]

    def __enter__(self):
        t = self.tracer
        t.spans.append(self.record)
        t._stack.append(self.record[0])
        t.counts[self.record[1]] += 1
        self.record[2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[3] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Spans [id, name, start, end, parent id] and counts of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.losses: list[float] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for name, (module, attr) in SPANS.items():
            if attr == "Tape.backward":
                self._patch_method(module, attr, self._wrap_backward)
            else:
                self._patch_function(module, attr,
                                     functools.partial(self._wrap_span, name))
        for name, (module, attr) in COUNTED.items():
            self._patch_function(module, attr,
                                 functools.partial(self._wrap_count, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch_function(self, module: str, attr: str, make_wrapper) -> None:
        original = getattr(sys.modules.get(module), attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "ddilstm" and not mod_name.startswith("ddilstm."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, module: str, attr: str, make_wrapper) -> None:
        cls_name, meth = attr.split(".")
        owner = getattr(sys.modules.get(module), cls_name, None)
        original = getattr(owner, meth, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        self._undo.append((owner, meth, original))
        setattr(owner, meth, make_wrapper(original))

    def _wrap_span(self, name: str, fn):
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_backward(self, fn):
        @functools.wraps(fn)
        def backward(tape, loss, *args, **kwargs):
            self.counts["autodiff.tape_records"] += len(tape)
            self.losses.append(loss.item())
            with self.span("autodiff.backward"):
                return fn(tape, loss, *args, **kwargs)

        return backward

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            out[name] += (end - start) - covered[sid]
        return out

    def losses_finite(self) -> bool:
        return all(math.isfinite(v) for v in self.losses)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")
            fh.write(json.dumps({"run": self.run_id,
                                 "counts": dict(self.counts),
                                 "missing": self.missing}) + "\n")

