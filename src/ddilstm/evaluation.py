"""Scoring and analysis: challenge-style P/R/F1, McNemar, length stats.

The headline metric is micro-averaged detection+classification F1 over
the four interaction classes pooled together: a positive prediction with
the wrong class counts against both the predicted class (FP) and the
gold class (FN). Instances removed by the negative filter count as
predicted Negative: `evaluate` builds one confusion matrix whose rows are
the scored gold labels then the filtered-out ones, and whose columns are
the predictions then one Negative per filtered-out instance. Every score,
support and count of the report it returns, which the `evaluate` command
writes, comes from that matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .files import write_json_lines
from .labels import LABELS, NEGATIVE_ID, NUM_CLASSES, POSITIVE_IDS


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def evaluate(gold: Sequence[int], predictions: Sequence[int],
             filtered_out: Sequence[int] = ()) -> dict:
    """The JSON-ready scoring report of `predictions` against `gold`.

    `filtered_out` carries the gold labels of instances the negative
    filter removed; each enters the confusion matrix as one more
    predicted Negative.
    """
    if len(gold) != len(predictions):
        raise ValueError(f"{len(predictions)} predictions for {len(gold)} gold instances")
    # row 0 the gold labels, row 1 the predictions, one column per instance
    ids = np.array([[*gold, *filtered_out],
                     [*predictions, *[NEGATIVE_ID] * len(filtered_out)]], dtype=int)
    if ((ids < 0) | (ids >= NUM_CLASSES)).any():
        raise ValueError(f"label id outside [0, {NUM_CLASSES})")
    cm = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=int)
    np.add.at(cm, tuple(ids), 1)

    tp, support = cm.diagonal(), cm.sum(axis=1)
    fp, fn = cm.sum(axis=0) - tp, support - tp
    per_class = {}
    for c in POSITIVE_IDS:
        p, r, f1 = _prf(int(tp[c]), int(fp[c]), int(fn[c]))
        per_class[LABELS[c]] = {"p": p, "r": r, "f1": f1, "support": int(support[c])}
    positive = list(POSITIVE_IDS)
    micro_p, micro_r, micro_f1 = _prf(*(int(v[positive].sum()) for v in (tp, fp, fn)))
    return {
        "confusion": cm.tolist(),
        "per_class": per_class,
        "micro_p": micro_p,
        "micro_r": micro_r,
        "micro_f1": micro_f1,
        "mavg": float(np.mean([v["f1"] for v in per_class.values()])),
        "n_scored": len(gold),
        "n_filtered": len(filtered_out),
        "n_filtered_positive": int((ids[0, len(gold):] != NEGATIVE_ID).sum()),
        "counts": {name: int(n) for name, n in zip(LABELS, support)},
    }


_CHI2_CRITICAL = ((10.828, "p<0.001"), (6.635, "p<0.01"), (3.841, "p<0.05"))


def mcnemar(b: int, c: int) -> tuple[float, str]:
    """Continuity-corrected McNemar chi-square on discordant counts, and
    its significance verdict.

    `b` and `c` count the instances exactly one of the two classifiers
    got right.
    """
    if b < 0 or c < 0:
        raise ValueError("discordant counts must be non-negative")
    if b + c == 0:
        raise ValueError("no discordant predictions: test undefined")
    stat = (abs(b - c) - 1) ** 2 / (b + c)
    for critical, verdict in _CHI2_CRITICAL:
        if stat > critical:
            return stat, verdict
    return stat, "not significant at 0.05"


def compare(gold: Sequence[int], first: Sequence[int],
            second: Sequence[int]) -> dict:
    """McNemar's test between two classifiers' predictions of the same
    gold labels, as a JSON-ready dict.

    `b` counts the instances only `first` got right, `c` those only
    `second` got right. With no discordant instance the test is
    undefined, and `statistic` and `significance` are None.
    """
    pairs = list(zip(correctness(gold, first), correctness(gold, second)))
    b = sum(x and not y for x, y in pairs)
    c = sum(y and not x for x, y in pairs)
    statistic, significance = mcnemar(b, c) if b + c else (None, None)
    return {"b": b, "c": c, "statistic": statistic, "significance": significance}


def _moments(values: Sequence[int]) -> dict[str, float]:
    arr = np.asarray(values, dtype=float)
    q = np.percentile(arr, [0, 25, 50, 75, 100])
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std()),  # population stddev
        "quartiles": [float(v) for v in q],
    }


def length_stats(instances: Sequence, correct: Sequence[bool]) -> dict:
    """Sentence-length and entity-separation statistics per outcome group.

    Emits both groupings of interest: all correct vs incorrect, and the
    same restricted to gold-positive instances. Empty groups are omitted
    rather than reported as NaN.
    """
    if len(instances) != len(correct):
        raise ValueError("correctness flags must align with instances")
    groups = {
        "correct": [], "incorrect": [],
        "positive_correct": [], "positive_incorrect": [],
    }
    for inst, ok in zip(instances, correct):
        groups["correct" if ok else "incorrect"].append(inst)
        if inst.label != NEGATIVE_ID:
            groups["positive_correct" if ok else "positive_incorrect"].append(inst)

    out = {}
    for name, members in groups.items():
        if not members:
            continue
        out[name] = {
            "n": len(members),
            "sentence_length": _moments([len(i.tokens) for i in members]),
            "entity_separation": _moments([i.drug_b - i.drug_a for i in members]),
        }
    return out


def correctness(gold: Sequence[int], predictions: Sequence[int]) -> list[bool]:
    if len(gold) != len(predictions):
        raise ValueError("predictions do not align with gold")
    return [g == p for g, p in zip(gold, predictions)]


def write_attention_records(path, records) -> None:
    """Per-instance attention rows for external heatmap rendering.

    Each record is (instance, weights), the weights a list of floats
    aligned to tokens, as `model.predict` returns them.
    """
    def rows():
        for inst, weights in records:
            if len(weights) != len(inst.tokens):
                raise ValueError(
                    f"pair {inst.pair_id}: {len(weights)} weights for "
                    f"{len(inst.tokens)} tokens"
                )
            yield {
                "doc_id": inst.doc_id,
                "sent_id": inst.sent_id,
                "pair_id": inst.pair_id,
                "tokens": inst.tokens,
                "weights": weights,
            }

    write_json_lines(path, rows())
