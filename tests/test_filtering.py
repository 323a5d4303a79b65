"""Negative-instance filtering rules, toggles, and report bookkeeping."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddilstm.cli import main
from ddilstm.corpus import RawInstance, generate_instances, parse_corpus, write_instances
from ddilstm.files import write_json
from ddilstm.filtering import apply_filters, build_report, match_rule, read_removed_labels
from ddilstm.labels import label_id

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "filter_fixture.xml")

# hand-labeled expectation for the bundled 20-sentence fixture
EXPECTED_REMOVALS = {
    "s0.p0": ("rule1", "same_name"),
    "s1.p0": ("rule2", "apposition_paren"),
    "s2.p0": ("rule2", "such_as"),
    "s3.p0": ("rule3", "coord_list"),
    "s4.p0": ("rule3", "coord_list_conj"),
    "s8.p0": ("rule2", "such_as_list"),
    "s9.p0": ("rule1", "same_name"),
    "s12.p0": ("rule3", "coord_list"),
    "s16.p0": ("rule2", "apposition_paren"),
    "s18.p1": ("rule3", "coord_list_conj"),
}


def fixture_instances():
    return generate_instances(parse_corpus(FIXTURE))


def instance(tokens, a, b, label="negative", a_text="aspirin", b_text="warfarin"):
    return RawInstance(tokens=list(tokens), drug_a=a, drug_b=b,
                       label=label_id(label), doc_id="d", sent_id="d.s0",
                       pair_id="d.s0.p0", e1="e0", e2="e1",
                       a_text=a_text, b_text=b_text, swapped=False)


class TestRules:
    def test_same_name_whitespace_case_insensitive(self):
        inst = instance(["DRUG-A", "vs", "DRUG-B"], 0, 2,
                        a_text="Folic  Acid", b_text="folic acid")
        assert match_rule(inst) == ("rule1", "same_name")

    def test_different_names_pass(self):
        inst = instance(["DRUG-A", "vs", "DRUG-B"], 0, 2)
        assert match_rule(inst) is None

    def test_parenthesis_apposition(self):
        inst = instance(["DRUG-A", "(", "DRUG-B", ")"], 0, 2)
        assert match_rule(inst) == ("rule2", "apposition_paren")

    def test_such_as(self):
        inst = instance(["DRUG-A", "such", "as", "DRUG-B"], 0, 3)
        assert match_rule(inst) == ("rule2", "such_as")

    def test_such_as_list(self):
        inst = instance(
            ["DRUG-A", "such", "as", "DRUG-N", ",", "DRUG-N", ",", "DRUG-B"],
            0, 7)
        assert match_rule(inst) == ("rule2", "such_as_list")

    def test_coordinate_list(self):
        inst = instance(
            ["DRUG-A", ",", "DRUG-N", ",", "DRUG-N", ",", "DRUG-B"], 0, 6)
        assert match_rule(inst) == ("rule3", "coord_list")

    def test_coordinate_list_with_conjunction(self):
        inst = instance(["DRUG-A", ",", "DRUG-N", "and", "DRUG-B"], 0, 4)
        assert match_rule(inst) == ("rule3", "coord_list_conj")

    def test_plain_and_pair_survives(self):
        # the bare coordination carries real interactions; never filtered
        inst = instance(["both", "DRUG-A", "and", "DRUG-B", "interact"], 1, 3)
        assert match_rule(inst) is None

    def test_list_interrupted_by_words_survives(self):
        inst = instance(
            ["DRUG-A", ",", "unlike", "DRUG-N", ",", "affects", "DRUG-B"], 0, 6)
        assert match_rule(inst) is None

    def test_first_match_attribution(self):
        # same name and parenthesized: rule 1 wins
        inst = instance(["DRUG-A", "(", "DRUG-B", ")"], 0, 2,
                        a_text="aspirin", b_text="aspirin")
        assert match_rule(inst) == ("rule1", "same_name")

    @pytest.mark.parametrize("pattern,tokens,a,b", [
        ("same_name", ["DRUG-A", "x", "DRUG-B"], 0, 2),
        ("apposition_paren", ["DRUG-A", "(", "DRUG-B", ")"], 0, 2),
        ("such_as", ["DRUG-A", "such", "as", "DRUG-B"], 0, 3),
        ("such_as_list",
         ["DRUG-A", "such", "as", "DRUG-N", ",", "DRUG-B"], 0, 5),
        ("coord_list", ["DRUG-A", ",", "DRUG-N", ",", "DRUG-B"], 0, 4),
        ("coord_list_conj", ["DRUG-A", ",", "DRUG-N", "or", "DRUG-B"], 0, 4),
    ])
    def test_each_pattern_toggleable(self, pattern, tokens, a, b):
        kwargs = {"a_text": "x", "b_text": "x"} if pattern == "same_name" else {}
        inst = instance(tokens, a, b, **kwargs)
        assert match_rule(inst) is not None
        hit = match_rule(inst, {pattern})
        assert hit is None or hit[1] != pattern

    @pytest.mark.parametrize("span", [
        "( x", "such", "as such", "such as , and", "such as DRUG-N foo",
        ", DRUG-N", ", DRUG-N , , and", ", and",
        # literal tokens that collide with the one-character token codes
        ", N ,", "s a", "such as N", ", DRUG-N &"])
    def test_pattern_edges_match_nothing(self, span):
        tokens = ["DRUG-A", *span.split(), "DRUG-B"]
        assert match_rule(instance(tokens, 0, len(tokens) - 1)) is None

    def test_unknown_toggle_rejected(self):
        with pytest.raises(ValueError):
            apply_filters([], disabled={"rule99"})


class TestApplyFilters:
    def test_fixture_matches_hand_labels(self):
        instances = fixture_instances()
        decisions = apply_filters(instances)
        got = {inst.pair_id.split(".", 2)[-1]: hit
               for inst, hit in zip(instances, decisions) if hit is not None}
        assert got == EXPECTED_REMOVALS
        report = build_report("test", instances, decisions)
        assert report["n_removed_positive"] == 0
        assert report["n_input"] == 22 and report["n_kept"] == 12

    def test_counts_are_consistent(self):
        instances = fixture_instances()
        report = build_report("train", instances, apply_filters(instances))
        assert report["n_kept"] + report["n_removed"] == report["n_input"]
        assert len(report["removed"]) == report["n_removed"]
        assert sum(report["by_rule"].values()) == report["n_removed"]
        assert sum(report["by_label"].values()) == report["n_removed"]

    def test_bad_mode_rejected(self, tmp_path):
        """--mode only labels the report; the parser refuses any other."""
        raw, kept, report = (tmp_path / name for name in ("raw.jsonl", "kept.jsonl",
                                                          "report.json"))
        write_instances(raw, fixture_instances())
        with pytest.raises(SystemExit) as exc:
            main(["filter", "--instances", str(raw), "--out", str(kept),
                  "--report", str(report), "--mode", "dev"])
        assert exc.value.code == 2
        assert not kept.exists() and not report.exists()

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=20, deadline=None)
    def test_order_independent(self, rnd):
        instances = fixture_instances()
        shuffled = instances[:]
        rnd.shuffle(shuffled)
        a = dict(zip((i.pair_id for i in instances), apply_filters(instances)))
        b = dict(zip((i.pair_id for i in shuffled), apply_filters(shuffled)))
        assert a == b

    def test_report_roundtrip(self, tmp_path):
        instances = fixture_instances()
        decisions = apply_filters(instances)
        path = tmp_path / "report.json"
        write_json(path, build_report("test", instances, decisions))
        labels = read_removed_labels(path, decisions.count(None))
        assert len(labels) == len(EXPECTED_REMOVALS)
        assert labels == [inst.label for inst, hit in zip(instances, decisions)
                          if hit is not None]
