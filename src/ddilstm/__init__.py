"""LSTM-based drug-drug interaction classification, self-contained.

Three classifier variants (max pooling, attentive pooling, and the joint
combination) over a from-scratch autodiff core, plus the full corpus
pipeline: XML parsing, entity blinding, negative-instance filtering,
training and challenge-style evaluation.
"""

__version__ = "0.1.0"

from .autodiff import Parameter, Tape, Tensor  # noqa: F401
from .labels import LABELS, label_id, label_name  # noqa: F401
from .model import ModelConfig, default_config, forward  # noqa: F401
from .training import TrainConfig, train  # noqa: F401
