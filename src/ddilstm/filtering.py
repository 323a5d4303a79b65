"""Rule-based removal of drug pairs that trivially cannot interact.

Three rule families, applied in order with first-match attribution:

  1. same surface name for both targets;
  2. one target is an aside/special case of the other
     ("DRUG-A ( DRUG-B ...", "DRUG-A such as DRUG-B");
  3. both targets sit in one coordinate list
     ("DRUG-A , DRUG-N , DRUG-B", optionally with and/or before the last
     conjunct).

`PATTERNS` is the one list of the six patterns, in attribution order, each
name with its rule and, for rules 2 and 3, a regular expression over the
tokens strictly between the targets, each coded as one character: `DRUG-N`
as `N`, `and`/`or` as `&`, `such` as `s`, `as` as `a`, `,` and `(` as
themselves. A regex must match the whole coded span; none matches a span
holding any other token, so coding stops there. Any pattern can be
switched off by its name, and each removal is attributed to one rule and
pattern, so the exact pattern set in use is always auditable.

`apply_filters` gives one decision per instance, in input order: the
(rule, pattern) that removes it, or None when it is kept. The `filter`
command writes the line each kept instance was read from
(`corpus.read_instance_lines`), so a kept record's bytes pass through as
given, and then the report that `build_report` makes of the decisions.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Collection, Optional, Sequence

from .corpus import DRUG_N, RawInstance
from .files import check_fields, json_document
from .labels import NEGATIVE_ID, label_id, label_name


_TOKEN_CLASS = {DRUG_N: "N", ",": ",", "and": "&", "or": "&", "(": "(",
                "such": "s", "as": "a"}

# pattern name -> (rule, regex over the coded span, or None for rule 1)
PATTERNS = {
    "same_name": ("rule1", None),
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


def _coded_span(tokens: Sequence[str]) -> Optional[str]:
    """The tokens coded one character each, or None at a token with no code."""
    coded = []
    for token in tokens:
        if token not in _TOKEN_CLASS:
            return None
        coded.append(_TOKEN_CLASS[token])
    return "".join(coded)


def match_rule(inst: RawInstance,
               disabled: Collection[str] = frozenset()) -> Optional[tuple[str, str]]:
    """(rule name, pattern name) of the first matching pattern not in
    `disabled`, else None."""
    span = _coded_span(inst.tokens[inst.drug_a + 1:inst.drug_b])
    for name, (rule, regex) in PATTERNS.items():
        if name in disabled:
            continue
        if regex is None:  # rule 1: the same name, up to case and whitespace
            hit = inst.a_text.lower().split() == inst.b_text.lower().split()
        else:
            hit = span is not None and regex.fullmatch(span)
        if hit:
            return rule, name
    return None


def apply_filters(instances: Sequence[RawInstance],
                  disabled: Collection[str] = frozenset()) -> list[Optional[tuple[str, str]]]:
    """Each instance's `match_rule` decision, in input order; the patterns
    named in `disabled` are switched off."""
    for name in disabled:
        if name not in PATTERNS:
            raise ValueError(f"unknown filter pattern {name!r}; "
                             f"pick one of {list(PATTERNS)}")
    return [match_rule(inst, disabled) for inst in instances]


def build_report(mode: str, instances: Sequence[RawInstance],
                 decisions: Sequence[Optional[tuple[str, str]]]) -> dict:
    """The report `filter` writes: the counts, and each removed instance
    with its label's name and the (rule, pattern) that removed it."""
    removed = [{"doc_id": inst.doc_id, "sent_id": inst.sent_id, "pair_id": inst.pair_id,
                "label": label_name(inst.label), "rule": hit[0], "pattern": hit[1]}
               for inst, hit in zip(instances, decisions) if hit is not None]
    return {
        "mode": mode,
        "n_input": len(instances),
        "n_kept": len(instances) - len(removed),
        "n_removed": len(removed),
        "n_removed_positive": sum(r["label"] != label_name(NEGATIVE_ID) for r in removed),
        "by_rule": Counter(r["rule"] for r in removed),
        "by_label": Counter(r["label"] for r in removed),
        "removed": removed,
    }


def read_removed_labels(path, n_kept: int) -> list[int]:
    """Label ids of the removed instances of a report that kept `n_kept`."""
    report = json_document(path, {"removed": list})
    ids = []
    for k, entry in enumerate(report["removed"]):
        where = f"{path}: removed[{k}]"
        check_fields(entry, {"label": str}, where)
        ids.append(label_id(entry["label"], where))
    check_fields(report, {"n_kept": int}, str(path))
    if report["n_kept"] != n_kept:
        raise ValueError(f"{path}: reports {report['n_kept']} kept instances, "
                         f"but the gold file holds {n_kept}")
    return ids
