"""Rule-based removal of drug pairs that trivially cannot interact.

Three rule families, applied in order with first-match attribution:

  1. same surface name for both targets;
  2. one target is an aside/special case of the other
     ("DRUG-A ( DRUG-B ...", "DRUG-A such as DRUG-B");
  3. both targets sit in one coordinate list
     ("DRUG-A , DRUG-N , DRUG-B", optionally with and/or before the last
     conjunct).

Rules 2 and 3 read only the tokens strictly between the targets, each
coded as one character: `DRUG-N` as `N`, `and`/`or` as `&`, `such` as
`s`, `as` as `a`, `,` and `(` as themselves. Each of their patterns is
a regular expression (`_PATTERNS`) that must match the whole coded span;
none matches a span holding any other token, so coding stops there.

Every pattern can be switched off individually, so the exact pattern set
in use is always auditable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

from .corpus import DRUG_N, RawInstance
from .files import check_fields, json_document
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
        names = [f.name for f in fields(self)]
        if name not in names:
            raise ValueError(f"unknown filter pattern {name!r}; pick one of {names}")
        setattr(self, name, False)
        return self


def _normalized_name(text: str) -> str:
    return " ".join(text.split()).lower()


_TOKEN_CLASS = {DRUG_N: "N", ",": ",", "and": "&", "or": "&", "(": "(",
                "such": "s", "as": "a"}

# pattern name -> (rule, regex over the coded span), in attribution order
_PATTERNS = {
    # DRUG-A ( DRUG-B: immediately parenthesized, closing anywhere
    "apposition_paren": ("rule2", re.compile(r"\(")),
    # DRUG-A such as DRUG-B
    "such_as": ("rule2", re.compile("sa")),
    # DRUG-A such as DRUG-N , ... DRUG-B
    "such_as_list": ("rule2", re.compile("sa[N,&]*N[N,&]*")),
    # DRUG-A , (DRUG-N ,)+ DRUG-B
    "coord_list": ("rule3", re.compile(",(?:N,)+")),
    # DRUG-A , DRUG-N (, DRUG-N)* ,? (and|or) DRUG-B
    "coord_list_conj": ("rule3", re.compile(",N(?:,N)*,?&")),
}


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


def match_rule(inst: RawInstance,
               config: Optional[FilterConfig] = None) -> Optional[tuple[str, str]]:
    """(rule name, pattern name) of the first matching rule, else None."""
    cfg = config or FilterConfig()
    if cfg.same_name and _normalized_name(inst.a_text) == _normalized_name(inst.b_text):
        return "rule1", "same_name"
    coded = []
    for token in inst.tokens[inst.drug_a + 1:inst.drug_b]:
        if token not in _TOKEN_CLASS:
            return None
        coded.append(_TOKEN_CLASS[token])
    span = "".join(coded)
    for name, (rule, regex) in _PATTERNS.items():
        if getattr(cfg, name) and regex.fullmatch(span):
            return rule, name
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


def read_removed_labels(path) -> list[int]:
    """Label ids of the filtered-out instances, for evaluation reinsertion."""
    report = json_document(path, {"removed": list})
    ids = []
    for k, entry in enumerate(report["removed"]):
        where = f"{path}: removed[{k}]"
        check_fields(entry, {"label": str}, where)
        ids.append(label_id(entry["label"], where))
    return ids
