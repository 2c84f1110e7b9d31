"""Training objective: classification loss plus three region constraints.

The classification term is the squared distance between the softmax of the
fused scores and the normalized label vector.  The localization term sums a
scale hinge (regions must not grow past a threshold), an anchor pull
(regions 2..K are drawn toward fixed points spread on a circle; region 1 is
left free to find the most discriminative area), and a positivity hinge
(scales should stay above a small positive threshold so regions are not
mirrored).

Each loss sums over the samples of a batch: fused scores and labels are
(C, N) columns, and the K regions' transforms one (K, 4, N) stack of rows
(sx, sy, tx, ty).  A constraint gathers its rows as a (rows, regions, N)
tensor and ``sum_all`` adds each region's rows, then the regions, then the
samples: the regions one by one, except one sample's K >= 8 regions, which
numpy sums pairwise.  The gradients do not depend on this order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .tensor import Tensor, relu, softmax, take

CONSTRAINT_NAMES = ("anchor", "scale", "positive")


@dataclass(frozen=True)
class LossWeights:
    scale_threshold: float = 0.5     # hinge point for |sx|, |sy|
    positive_threshold: float = 0.1  # minimum preferred scale
    anchor_weight: float = 0.01      # anchor term inside the localization sum
    positive_weight: float = 0.1     # positivity term inside the localization sum
    loc_weight: float = 0.1          # localization share of the total objective


def ground_truth_prob(labels):
    """Normalize each column of binary labels, or a single (C,) label vector, to a probability target."""
    y = np.asarray(labels, dtype=np.float64)
    total = y.sum(axis=0)
    if np.any(total < 1):
        raise DataError("sample has no positive labels; cannot normalize its target")
    return y / total


def cls_loss(fused, labels):
    """Squared error between the softmax of each (C, N) fused score column and its normalized (C, N) labels."""
    target = ground_truth_prob(labels)
    p = softmax(fused)
    if target.shape != fused.shape:
        raise ConfigError(f"scores have shape {fused.shape}, labels have shape {target.shape}")
    d = p - Tensor(target, dtype=p.dtype)
    return (d * d).sum()


def make_anchors(k_regions):
    """K-1 anchor points, evenly spaced on the radius sqrt(2)/2 circle.

    The first point sits at 45 degrees, so for K=5 the anchors are the four
    diagonal points (+-0.5, +-0.5); for K=9 the eight points step by 45
    degrees around the circle.  Coordinates are rounded to 12 decimals so the
    diagonal anchors come out exactly at +-0.5.
    """
    if k_regions < 2:
        raise ConfigError(f"anchors need at least 2 regions, got k={k_regions}")
    n = k_regions - 1
    radius = math.sqrt(2.0) / 2.0
    anchors = []
    for j in range(n):
        theta = math.pi / 4.0 + 2.0 * math.pi * j / n
        anchors.append((round(radius * math.cos(theta), 12), round(radius * math.sin(theta), 12)))
    return anchors


def _rows(params, rows, first=0):
    """Rows ``rows`` of regions first+1..K of a (K, 4, N) transform stack, as a (rows, regions, N) tensor."""
    if params.data.ndim != 3 or params.shape[1] != 4:
        raise ShapeError(f"transform parameters must be a (K, 4, N) stack, got shape {params.shape}")
    flat = np.arange(params.size).reshape(params.shape)
    return take(params, flat[first:, rows].transpose(1, 0, 2))


def anchor_loss(params, anchors):
    """Half squared distance of each constrained region center to its anchor.

    Region k (for k = 2..K) is matched to anchor k-1 by position; the first
    region carries no anchor term.
    """
    centers = _rows(params, [2, 3], first=1)
    if len(anchors) != centers.shape[1]:
        raise ConfigError(f"{params.shape[0]} regions need {centers.shape[1]} anchors, got {len(anchors)}")
    targets = np.broadcast_to(np.reshape(anchors, (-1, 2)).T[:, :, None], centers.shape)
    d = centers - Tensor(targets, dtype=params.dtype)
    return (d * d).sum() * 0.5


def scale_loss(params, threshold=0.5):
    """Squared hinge on |scale| exceeding the threshold, over all regions."""
    over = relu(_rows(params, [0, 1]).abs() - threshold)
    return (over * over).sum()


def positive_loss(params, threshold=0.1):
    """Hinge pushing scales to stay above the positive threshold."""
    return relu(threshold - _rows(params, [0, 1])).sum()


def loc_loss(params, anchors, weights=LossWeights(), disabled=frozenset()):
    """Weighted sum of the three region constraints; terms in ``disabled`` are dropped."""
    unknown = set(disabled) - set(CONSTRAINT_NAMES)
    if unknown:
        raise ConfigError(f"unknown constraint names: {sorted(unknown)}")
    total = Tensor(np.zeros(()), dtype=params.dtype)
    if "scale" not in disabled:
        total = total + scale_loss(params, weights.scale_threshold)
    if "anchor" not in disabled:
        total = total + anchor_loss(params, anchors) * weights.anchor_weight
    if "positive" not in disabled:
        total = total + positive_loss(params, weights.positive_threshold) * weights.positive_weight
    return total


def total_loss(cls, loc, loc_weight=0.1):
    """Classification term plus the weighted localization term."""
    return cls + loc * loc_weight
