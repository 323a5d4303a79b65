"""The five interaction classes and their fixed integer ids."""

from __future__ import annotations

LABELS = ("advice", "effect", "mechanism", "int", "negative")
LABEL_TO_ID = {name: i for i, name in enumerate(LABELS)}
NEGATIVE_ID = LABEL_TO_ID["negative"]
POSITIVE_IDS = tuple(i for i in range(len(LABELS)) if i != NEGATIVE_ID)
NUM_CLASSES = len(LABELS)

# corpus XML spells the recommendation class "advise"
_ALIASES = {"advise": "advice"}


def label_id(name: str, where: str = "") -> int:
    """The id of a label name. `where` names the record whose `label` field
    held the name, in the error of an unknown one."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in LABEL_TO_ID:
        field = f"{where}: label: " if where else ""
        raise ValueError(f"{field}unknown interaction label {name!r}")
    return LABEL_TO_ID[key]


def label_name(i: int) -> str:
    if not 0 <= i < len(LABELS):
        raise ValueError(f"label id {i} out of range")
    return LABELS[i]
