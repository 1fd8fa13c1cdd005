"""Audio-visual person verification: recursive joint cross-attention fusion,
temporal pooling, angular-margin training, and trial-based evaluation."""

from avfuse.autodiff import Tape, Tensor
from avfuse.config import TrainConfig
from avfuse.fusion import JcaStepParams, fuse
from avfuse.metrics import DcfParams, ScoreSet, compute_report
from avfuse.model import VerificationModel

__all__ = [
    "DcfParams",
    "JcaStepParams",
    "ScoreSet",
    "Tape",
    "Tensor",
    "TrainConfig",
    "VerificationModel",
    "compute_report",
    "fuse",
]

__version__ = "0.1.0"
