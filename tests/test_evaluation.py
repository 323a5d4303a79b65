"""Challenge-style scoring, McNemar, and length statistics."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddilstm.corpus import RawInstance
from ddilstm.evaluation import (
    compare,
    correctness,
    evaluate,
    length_stats,
    mcnemar,
    write_attention_records,
)
from ddilstm.labels import LABELS, NEGATIVE_ID, NUM_CLASSES, POSITIVE_IDS, label_id

A, E, M, I, NEG = (label_id(x) for x in LABELS)


def _prf(tp, fp, fn):
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r, 2 * p * r / (p + r) if p + r else 0.0


def reference_report(gold, predictions, filtered_out):
    """The scoring report built pair by pair: each scored pair enters the
    confusion matrix, then each filtered-out pair as predicted Negative."""
    cm = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=int)
    for g, p in zip(gold, predictions):
        cm[g, p] += 1
    for g in filtered_out:
        cm[g, NEGATIVE_ID] += 1
    per_class, f1s, micro = {}, [], [0, 0, 0]
    for c in POSITIVE_IDS:
        tp = int(cm[c, c])
        fp = int(cm[:, c].sum() - cm[c, c])
        fn = int(cm[c, :].sum() - cm[c, c])
        p, r, f1 = _prf(tp, fp, fn)
        per_class[LABELS[c]] = {"p": p, "r": r, "f1": f1, "support": int(cm[c, :].sum())}
        f1s.append(f1)
        micro = [micro[0] + tp, micro[1] + fp, micro[2] + fn]
    micro_p, micro_r, micro_f1 = _prf(*micro)
    return {
        "confusion": cm.tolist(), "per_class": per_class,
        "micro_p": micro_p, "micro_r": micro_r, "micro_f1": micro_f1,
        "mavg": float(np.mean(f1s)), "n_scored": len(gold),
        "n_filtered": len(filtered_out),
        "n_filtered_positive": sum(g != NEGATIVE_ID for g in filtered_out),
        "counts": {LABELS[c]: int(cm[c, :].sum()) for c in range(NUM_CLASSES)},
    }


class TestEvaluate:
    def test_perfect_predictions(self):
        gold = [A, E, M, I, NEG]
        report = evaluate(gold, gold)
        assert report["micro_f1"] == 1.0
        assert report["mavg"] == 1.0
        assert all(v["f1"] == 1.0 for v in report["per_class"].values())

    def test_all_negative_predictions(self):
        gold = [A, E, NEG]
        report = evaluate(gold, [NEG, NEG, NEG])
        assert report["micro_r"] == 0.0 and report["micro_f1"] == 0.0

    def test_hand_confusion_example(self):
        gold = [A, A, E, NEG]
        pred = [A, E, E, NEG]
        report = evaluate(gold, pred)
        advice = report["per_class"]["advice"]
        effect = report["per_class"]["effect"]
        assert advice["p"] == 1.0 and advice["r"] == 0.5
        assert advice["f1"] == pytest.approx(2 / 3)
        assert effect["p"] == 0.5 and effect["r"] == 1.0
        assert effect["f1"] == pytest.approx(2 / 3)
        assert report["micro_p"] == report["micro_r"] == report["micro_f1"] == 2 / 3

    def test_wrong_positive_class_counts_twice(self):
        # one instance, gold advice predicted effect: FP for effect, FN
        # for advice, zero TP anywhere
        report = evaluate([A], [E])
        assert report["micro_p"] == 0.0 and report["micro_r"] == 0.0

    def test_filtered_out_scored_as_negative(self):
        gold = [A]
        report = evaluate(gold, [A], filtered_out=[NEG, NEG, E])
        assert report["n_filtered"] == 3
        assert report["n_filtered_positive"] == 1
        # the filtered-out effect instance is a miss
        assert report["per_class"]["effect"]["r"] == 0.0
        assert report["confusion"][NEG][NEG] == 2

    def test_reinserting_gold_negatives_never_hurts_precision(self):
        gold = [A, E, NEG]
        pred = [A, A, NEG]
        base = evaluate(gold, pred)
        more = evaluate(gold, pred, filtered_out=[NEG] * 50)
        assert more["micro_p"] >= base["micro_p"]

    def test_alignment_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([A, E], [A])

    def test_mavg_is_mean_of_class_f1s(self):
        gold = [A, A, E, M, I, NEG, NEG]
        pred = [A, E, E, M, NEG, NEG, A]
        report = evaluate(gold, pred)
        f1s = [report["per_class"][LABELS[c]]["f1"] for c in (A, E, M, I)]
        assert report["mavg"] == pytest.approx(float(np.mean(f1s)), abs=1e-12)

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=40),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant(self, pairs, rnd):
        gold = [g for g, _ in pairs]
        pred = [p for _, p in pairs]
        base = evaluate(gold, pred)
        shuffled = pairs[:]
        rnd.shuffle(shuffled)
        again = evaluate([g for g, _ in shuffled], [p for _, p in shuffled])
        assert base["micro_f1"] == again["micro_f1"]
        assert base["confusion"] == again["confusion"]


    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=60),
           st.lists(st.integers(0, 4), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_report_is_the_pairwise_reference(self, pairs, filtered_out):
        """The whole report, key order and float digits included, is the one
        built pair by pair, for any labels, empty lists included."""
        gold = [g for g, _ in pairs]
        pred = [p for _, p in pairs]
        # default=vars also serializes a report held as a dataclass
        assert (json.dumps(evaluate(gold, pred, filtered_out), indent=1, default=vars)
                == json.dumps(reference_report(gold, pred, filtered_out), indent=1))

    @pytest.mark.parametrize("gold,pred,filtered_out", [
        ([A, 5], [A, A], []), ([A], [-1], []), ([A], [A], [NEG, 5])],
        ids=["gold", "prediction", "filtered-out"])
    def test_label_out_of_range_rejected(self, gold, pred, filtered_out):
        with pytest.raises(ValueError, match="out"):
            evaluate(gold, pred, filtered_out)


class TestMcNemar:
    def test_symmetric_counts_not_significant(self):
        statistic, significance = mcnemar(10, 10)
        assert statistic == pytest.approx(1 / 20)
        assert significance == "not significant at 0.05"

    def test_fifteen_five(self):
        statistic, significance = mcnemar(15, 5)
        assert statistic == 81 / 20
        assert significance == "p<0.05"

    def test_single_discordance_absorbed(self):
        assert mcnemar(1, 0)[0] == 0.0

    def test_no_discordance_rejected(self):
        with pytest.raises(ValueError):
            mcnemar(0, 0)

    def test_strong_asymmetry_highly_significant(self):
        assert mcnemar(60, 5)[1] == "p<0.001"


class TestCompare:
    def test_discordant_counts(self):
        gold = [A, E, NEG, NEG, M]
        first = [A, E, A, NEG, NEG]   # right on 0, 1, 3
        second = [A, A, NEG, NEG, NEG]  # right on 0, 2, 3
        assert compare(gold, first, second) == {
            "b": 1, "c": 1, "statistic": 0.5, "significance": "not significant at 0.05"}

    def test_identical_predictions_leave_the_test_undefined(self):
        gold, pred = [A, E, NEG], [A, NEG, NEG]
        assert compare(gold, pred, list(pred)) == {
            "b": 0, "c": 0, "statistic": None, "significance": None}

    def test_misaligned_predictions_rejected(self):
        with pytest.raises(ValueError):
            compare([A, E], [A, E], [A])


def _inst(n_tokens, sep, label=NEG, pair="p0"):
    tokens = ["w"] * n_tokens
    a = 0
    tokens[a] = "DRUG-A"
    tokens[a + sep] = "DRUG-B"
    return RawInstance(tokens=tokens, drug_a=a, drug_b=a + sep, label=label,
                       doc_id="d", sent_id="s", pair_id=pair, e1="e0", e2="e1",
                       a_text="x", b_text="y", swapped=False)


class TestLengthStats:
    def test_single_correct_instance(self):
        stats = length_stats([_inst(10, 2)], [True])
        assert stats["correct"]["n"] == 1
        assert stats["correct"]["sentence_length"]["mean"] == 10.0
        assert stats["correct"]["sentence_length"]["std"] == 0.0
        assert "incorrect" not in stats

    def test_population_stddev(self):
        stats = length_stats([_inst(2, 1), _inst(4, 1)], [False, False])
        assert stats["incorrect"]["sentence_length"]["mean"] == 3.0
        assert stats["incorrect"]["sentence_length"]["std"] == 1.0

    def test_entity_separation_in_tokens(self):
        stats = length_stats([_inst(3, 2)], [True])
        assert stats["correct"]["entity_separation"]["mean"] == 2.0

    def test_positive_groups_reported_separately(self):
        instances = [_inst(5, 2, label=A), _inst(7, 3, label=NEG)]
        stats = length_stats(instances, [True, True])
        assert stats["correct"]["n"] == 2
        assert stats["positive_correct"]["n"] == 1

    def test_flag_alignment_enforced(self):
        with pytest.raises(ValueError):
            length_stats([_inst(3, 1)], [True, False])


class TestHelpers:
    def test_correctness_flags(self):
        assert correctness([A, E], [A, NEG]) == [True, False]

    def test_attention_export_schema(self, tmp_path):
        inst = _inst(4, 2)
        path = tmp_path / "attention.jsonl"
        write_attention_records(path, [(inst, [0.1, 0.2, 0.3, 0.4])])
        rec = json.loads(path.read_text().strip())
        assert rec["tokens"] == inst.tokens
        assert rec["weights"] == [0.1, 0.2, 0.3, 0.4]
        assert rec["pair_id"] == inst.pair_id

    def test_attention_export_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_attention_records(tmp_path / "a.jsonl",
                                    [(_inst(4, 2), [0.5, 0.5])])
