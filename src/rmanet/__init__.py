"""Recurrent-attention multi-label classifier with hand-derived gradients.

A constrained spatial transformer and an LSTM alternately locate and score
attentional regions on conv feature maps; per-class scores fuse by maximum
over regions.  Everything differentiable is backed by the explicit-graph
autodiff in :mod:`rmanet.tensor` and verified against finite differences.
"""

from .attention import AttentionWeights, EpisodeTrace, LstmState, fuse_scores, heads, lstm_step, run_episode
from .backbone import BackboneWeights, encode
from .checkpoint import load_tensors, save_tensors
from .data import SyntheticSample, generate, generate_split, load, load_boxes
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    NonFiniteLossError,
    ProtocolError,
    ShapeError,
)
from .evaluation import (
    MetricsReport,
    PredictionSet,
    aggregate_metrics,
    assign_labels,
    average_precision,
    multi_view_eval,
    per_class_ap,
)
from .losses import (
    LossWeights,
    anchor_loss,
    cls_loss,
    ground_truth_prob,
    loc_loss,
    make_anchors,
    positive_loss,
    scale_loss,
    total_loss,
)
from .model import Model, ModelConfig, load_model, save_model
from .optim import Adam
from .tensor import Tensor, grad_check
from .train import TrainConfig
from .transformer import TransformParams, affine_grid, bilinear_sample, build_matrix, region_box, st

__version__ = "0.1.0"
