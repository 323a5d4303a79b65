"""A tiny keyword-separable corpus for smoke tests and demos.

Each interaction class carries an unambiguous cue word, so any of the
model variants can drive training accuracy to 100% quickly. Sentences
vary in length and filler so the corpus still exercises packing and
position features.
"""

from __future__ import annotations

from .corpus import DRUG_A, DRUG_B, RawInstance
from .labels import LABELS, label_id
from .rng import named_stream

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
    """`n` instances cycling through the five classes, keyword-separable."""
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
