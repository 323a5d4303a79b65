"""Rule-based removal of drug pairs that trivially cannot interact.

Three rule families, applied in order with first-match attribution:

  1. same surface name for both targets;
  2. one target is an aside/special case of the other
     ("DRUG-A ( DRUG-B ...", "DRUG-A such as DRUG-B");
  3. both targets sit in one coordinate list
     ("DRUG-A , DRUG-N , DRUG-B", optionally with and/or before the last
     conjunct).

Every pattern can be switched off individually, so the exact pattern set
in use is always auditable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .corpus import DRUG_N, RawInstance
from .labels import NEGATIVE_ID, label_id, label_name


@dataclass
class FilterConfig:
    same_name: bool = True
    apposition_paren: bool = True
    such_as: bool = True
    such_as_list: bool = True
    coord_list: bool = True
    coord_list_conj: bool = True

    def disable(self, name: str) -> "FilterConfig":
        if not hasattr(self, name):
            raise ValueError(f"unknown filter pattern {name!r}")
        setattr(self, name, False)
        return self


def _normalized_name(text: str) -> str:
    return " ".join(text.split()).lower()


def _match_same_name(inst: RawInstance) -> bool:
    return _normalized_name(inst.a_text) == _normalized_name(inst.b_text)


def _match_apposition_paren(tokens: Sequence[str], a: int, b: int) -> bool:
    # DRUG-A ( DRUG-B: immediately parenthesized, closing anywhere
    return b == a + 2 and tokens[a + 1] == "("


def _match_such_as(tokens: Sequence[str], a: int, b: int) -> bool:
    return b == a + 3 and tokens[a + 1] == "such" and tokens[a + 2] == "as"


def _match_such_as_list(tokens: Sequence[str], a: int, b: int) -> bool:
    # DRUG-A such as DRUG-N , ... DRUG-B
    if not (b > a + 3 and tokens[a + 1] == "such" and tokens[a + 2] == "as"):
        return False
    between = tokens[a + 3:b]
    if DRUG_N not in between:
        return False
    return all(t in (DRUG_N, ",", "and", "or") for t in between)


def _match_coord_list(tokens: Sequence[str], a: int, b: int) -> bool:
    # DRUG-A , (DRUG-N ,)+ DRUG-B
    j = a + 1
    if j >= b or tokens[j] != ",":
        return False
    j += 1
    reps = 0
    while j + 1 < b and tokens[j] == DRUG_N and tokens[j + 1] == ",":
        reps += 1
        j += 2
    return reps >= 1 and j == b


def _match_coord_list_conj(tokens: Sequence[str], a: int, b: int) -> bool:
    # DRUG-A , DRUG-N (, DRUG-N)* ,? (and|or) DRUG-B
    if b <= a + 3 or tokens[a + 1] != ",":
        return False
    if tokens[b - 1] not in ("and", "or"):
        return False
    between = tokens[a + 2:b - 1]
    if between and between[-1] == ",":
        between = between[:-1]
    if not between:
        return False
    expect_drug = True
    for t in between:
        if expect_drug and t != DRUG_N:
            return False
        if not expect_drug and t != ",":
            return False
        expect_drug = not expect_drug
    return expect_drug is False  # must end on a DRUG-N


@dataclass
class Removal:
    doc_id: str
    sent_id: str
    pair_id: str
    label: str
    rule: str
    pattern: str


@dataclass
class FilterReport:
    mode: str
    n_input: int
    kept: list[RawInstance]
    removed: list[Removal]
    by_rule: dict[str, int] = field(default_factory=dict)
    by_label: dict[str, int] = field(default_factory=dict)

    @property
    def n_removed(self) -> int:
        return len(self.removed)

    @property
    def n_removed_positive(self) -> int:
        return sum(1 for r in self.removed if r.label != label_name(NEGATIVE_ID))

    def summary_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n_input": self.n_input,
            "n_kept": len(self.kept),
            "n_removed": self.n_removed,
            "n_removed_positive": self.n_removed_positive,
            "by_rule": self.by_rule,
            "by_label": self.by_label,
            "removed": [dict(vars(r)) for r in self.removed],
        }


_RULE1 = [("same_name", _match_same_name)]
_RULE2 = [
    ("apposition_paren", _match_apposition_paren),
    ("such_as", _match_such_as),
    ("such_as_list", _match_such_as_list),
]
_RULE3 = [
    ("coord_list", _match_coord_list),
    ("coord_list_conj", _match_coord_list_conj),
]


def match_rule(inst: RawInstance,
               config: Optional[FilterConfig] = None) -> Optional[tuple[str, str]]:
    """(rule name, pattern name) of the first matching rule, else None."""
    cfg = config or FilterConfig()
    if cfg.same_name and _match_same_name(inst):
        return "rule1", "same_name"
    a, b = inst.drug_a, inst.drug_b
    for name, fn in _RULE2:
        if getattr(cfg, name) and fn(inst.tokens, a, b):
            return "rule2", name
    for name, fn in _RULE3:
        if getattr(cfg, name) and fn(inst.tokens, a, b):
            return "rule3", name
    return None


def apply_filters(instances: Sequence[RawInstance], mode: str = "train",
                  config: Optional[FilterConfig] = None) -> FilterReport:
    """Partition instances into kept and removed, with rule attribution."""
    if mode not in ("train", "test"):
        raise ValueError(f"mode must be 'train' or 'test', got {mode!r}")
    kept: list[RawInstance] = []
    removed: list[Removal] = []
    by_rule: dict[str, int] = {}
    by_label: dict[str, int] = {}
    for inst in instances:
        hit = match_rule(inst, config)
        if hit is None:
            kept.append(inst)
            continue
        rule, pattern = hit
        name = label_name(inst.label)
        removed.append(Removal(inst.doc_id, inst.sent_id, inst.pair_id,
                               name, rule, pattern))
        by_rule[rule] = by_rule.get(rule, 0) + 1
        by_label[name] = by_label.get(name, 0) + 1
    return FilterReport(mode, len(instances), kept, removed, by_rule, by_label)


def write_report(path, report: FilterReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.summary_dict(), fh, indent=1)
        fh.write("\n")


def read_removed_labels(path) -> list[int]:
    """Label ids of the filtered-out instances, for evaluation reinsertion."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON ({exc})") from None
    removed = data.get("removed", []) if isinstance(data, dict) else None
    if not isinstance(removed, list):
        raise ValueError(f"{path}: filter report needs a 'removed' list")
    ids = []
    for k, r in enumerate(removed):
        if not isinstance(r, dict) or type(r.get("label")) is not str:
            raise ValueError(f"{path}: removed[{k}] needs a string label")
        try:
            ids.append(label_id(r["label"]))
        except ValueError as exc:
            raise ValueError(f"{path}: removed[{k}]: {exc}") from None
    return ids
