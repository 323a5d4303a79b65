"""Shared oracles: central finite differences against the tape gradients,
the float64 switch they run under, the names of the tape ops, and a
synthetic corpus to train on, and the instances the filter keeps. Every
Hypothesis test draws the same examples on every run."""

from __future__ import annotations

import ast
import contextlib
import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from ddilstm import autodiff as ad
from ddilstm.corpus import DRUG_A, DRUG_B, RawInstance
from ddilstm.features import Batch, InstanceFeatures, collate, featurize
from ddilstm.filtering import apply_filters
from ddilstm.labels import LABELS, label_id
from ddilstm.model import output_layer
from ddilstm.rng import named_stream
from ddilstm.training import softmax_cross_entropy

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

EPS = 1e-4


def kept_instances(instances):
    """The instances `filter` keeps, in input order."""
    return [inst for inst, hit in zip(instances, apply_filters(instances)) if hit is None]


def finite_difference(loss_fn, tensors, eps=EPS):
    """Central-difference gradients of loss_fn w.r.t. each tensor's entries.

    loss_fn is re-evaluated with entries nudged in place, so it must read
    the tensors' current data and must not be taped.
    """
    grads = []
    for t in tensors:
        flat = t.data.reshape(-1)
        g = np.zeros(flat.size, dtype=np.float64)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn()
            flat[i] = orig - eps
            down = loss_fn()
            flat[i] = orig
            g[i] = (up - down) / (2.0 * eps)
        grads.append(g.reshape(t.data.shape))
    return grads


def max_rel_error(analytic, numeric, floor=1e-4):
    """max |a-n| / max(|a|, |n|, floor); the floor guards near-zero entries."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def check_grads(build_loss, tensors, tol=1e-3, eps=EPS):
    """Tape-backward vs finite differences for one scalar-valued graph.

    `build_loss()` must construct the graph from scratch and return the
    scalar loss tensor; gradients are compared per input tensor.
    """
    for t in tensors:
        t.grad = None
    with ad.Tape() as tape:
        loss = build_loss()
    tape.backward(loss)
    analytic = [np.zeros_like(t.data, dtype=np.float64) if t.grad is None
                else t.grad.astype(np.float64) for t in tensors]

    def loss_value():
        return build_loss().item()

    numeric = finite_difference(loss_value, tensors, eps=eps)
    worst = max(max_rel_error(a, n) for a, n in zip(analytic, numeric))
    assert worst < tol, f"gradient mismatch: max relative error {worst:.3e}"
    return worst


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ddilstm"


@functools.cache
def op_names() -> tuple[str, ...]:
    """The name of each tape op, in call order per module: the string
    literal that every `record_op(...)` call in the package passes first.
    It is the name a NaN or Inf in the op's output is reported under."""
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "record_op":
                name = node.args[0] if node.args else None
                assert isinstance(name, ast.Constant) and isinstance(name.value, str), (
                    f"{path.name}:{node.lineno}: record_op's first argument is no string literal")
                names.append(name.value)
    return tuple(names)


def weighted_sum(t, weights):
    """sum(t * weights) as one tape op: a smooth read-out of every entry."""
    out = ad.Tensor(np.asarray((t.data * weights).sum()))
    return ad.record_op("weighted_sum", out, (t,), lambda g: (g * weights,))


def head(x, labels):
    """Scalar head for finite-difference checks: softmax cross-entropy of
    the output layer, with fixed weights to five classes, over the (B, k)
    rows of x, or of a tuple of such tensors joined end to end."""
    pooled = x if isinstance(x, tuple) else (x,)
    width = sum(p.data.shape[1] for p in pooled)
    w = ad.Tensor(np.random.default_rng(99).normal(size=(width, 5)))
    return softmax_cross_entropy(output_layer(pooled, None, w, ad.Tensor(np.zeros(5))),
                                 labels)


def batch_of(lengths) -> Batch:
    """The batch that `collate` lays out for instances of these lengths,
    every id 0: what an op that reads a packed (T, k) array is given."""
    return collate([InstanceFeatures([0] * m, [0] * m, [0] * m, 0) for m in lengths])


def attention_vector(width, rng):
    """A scoring vector for attentive pooling, drawn as build_model draws it."""
    bound = 1.0 / np.sqrt(width)
    return ad.Parameter(rng.uniform(-bound, bound, size=width), name="attention.w_a")


def raw_instance(tokens, drug_a, drug_b, label=0, pair_id="t.s0.p0"):
    """An instance of `tokens` with placeholder document and entity ids."""
    return RawInstance(tokens=list(tokens), drug_a=drug_a, drug_b=drug_b,
                       label=label, doc_id="t", sent_id="t.s0", pair_id=pair_id,
                       e1="t.s0.e0", e2="t.s0.e1", a_text="a", b_text="b",
                       swapped=False)


def featurize_one(tokens, drug_a, drug_b, label, vocab, pv):
    """The features of one instance of `tokens`."""
    [f] = featurize([raw_instance(tokens, drug_a, drug_b, label)], vocab, pv)
    return f


@contextlib.contextmanager
def use_dtype(dtype):
    """Temporarily switch the default storage dtype of tensors (e.g. to
    float64)."""
    previous = ad._DTYPE
    ad._DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        ad._DTYPE = previous


@pytest.fixture
def float64_mode():
    with use_dtype(np.float64):
        yield


# each class's cue words, so that any variant can fit the corpus quickly
_CUES = {
    "advice": ["avoid", "combining"],
    "effect": ["enhances", "response"],
    "mechanism": ["slows", "clearance"],
    "int": ["interacts", "reportedly"],
    "negative": ["mentioned", "alongside"],
}

_FILLER = ["the", "patients", "dose", "study", "plasma", "observed",
           "treatment", "clinical", "reported", "serum"]


def make_synthetic_instances(n: int = 40, seed: int = 7) -> list[RawInstance]:
    """`n` keyword-separable instances cycling through the five classes.

    Each class carries an unambiguous cue word, and sentences vary in
    length and filler, so the corpus still exercises packing and the
    position features.
    """
    rng = named_stream(seed, "synthetic")

    def filler(max_count):
        count = int(rng.integers(0, max_count + 1))
        return [_FILLER[int(i)] for i in rng.integers(0, len(_FILLER), size=count)]

    out = []
    for k in range(n):
        name = LABELS[k % len(LABELS)]
        cue = _CUES[name]
        lead = filler(2)
        mid = [cue[0]] + filler(1) + [cue[1]]
        tail = filler(2)
        tokens = lead + [DRUG_A] + mid + [DRUG_B] + tail
        out.append(RawInstance(
            tokens=tokens,
            drug_a=len(lead),
            drug_b=len(lead) + 1 + len(mid),
            label=label_id(name),
            doc_id="synthetic",
            sent_id=f"synthetic.s{k}",
            pair_id=f"synthetic.s{k}.p0",
            e1=f"synthetic.s{k}.e0",
            e2=f"synthetic.s{k}.e1",
            a_text=f"alpha{k}",
            b_text=f"beta{k}",
            swapped=False,
        ))
    return out


def corpus_xml(doc_id, sentences) -> str:
    """Small DDI-style XML builder for fixtures.

    Each sentence is (sid, text, entities, pairs); an entity is
    (eid, surface, occurrence, type) with offsets computed from the
    occurrence index; a pair is (pid, e1, e2, ddi, type_or_None).
    """
    from xml.sax.saxutils import quoteattr

    lines = [f"<document id={quoteattr(doc_id)}>"]
    for sid, text, entities, pairs in sentences:
        lines.append(f"  <sentence id={quoteattr(sid)} text={quoteattr(text)}>")
        for eid, surface, occurrence, etype in entities:
            start = -1
            for _ in range(occurrence + 1):
                start = text.find(surface, start + 1)
                if start < 0:
                    raise AssertionError(f"{surface!r} x{occurrence} not in {text!r}")
            end = start + len(surface) - 1
            lines.append(
                f"    <entity id={quoteattr(eid)} charOffset=\"{start}-{end}\""
                f" type={quoteattr(etype)} text={quoteattr(surface)}/>"
            )
        for pid, e1, e2, ddi, ptype in pairs:
            attr = f" type={quoteattr(ptype)}" if ptype else ""
            lines.append(
                f"    <pair id={quoteattr(pid)} e1={quoteattr(e1)}"
                f" e2={quoteattr(e2)} ddi=\"{str(ddi).lower()}\"{attr}/>"
            )
        lines.append("  </sentence>")
    lines.append("</document>")
    return "\n".join(lines) + "\n"
