"""Training objective: classification loss plus three region constraints.

The classification term is the squared distance between the softmax of the
fused scores and the normalized label vector.  The localization term sums a
scale hinge (regions must not grow past a threshold), an anchor pull
(regions 2..K are drawn toward fixed points spread on a circle; region 1 is
left free to find the most discriminative area), and a positivity hinge
(scales should stay above a small positive threshold so regions are not
mirrored).  The losses score one sample: its fused scores are a (C, 1)
column and each region's transform a (4, 1) column (sx, sy, tx, ty).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .tensor import Tensor, relu, reshape, softmax, take

CONSTRAINT_NAMES = ("anchor", "scale", "positive")


@dataclass(frozen=True)
class LossWeights:
    scale_threshold: float = 0.5     # hinge point for |sx|, |sy|
    positive_threshold: float = 0.1  # minimum preferred scale
    anchor_weight: float = 0.01      # anchor term inside the localization sum
    positive_weight: float = 0.1     # positivity term inside the localization sum
    loc_weight: float = 0.1          # localization share of the total objective


def ground_truth_prob(labels):
    """Normalize a binary label vector to a probability target."""
    y = np.asarray(labels, dtype=np.float64)
    total = y.sum()
    if total < 1:
        raise DataError("sample has no positive labels; cannot normalize its target")
    return y / total


def _one_column(t, what):
    """Raise ShapeError unless ``t`` is a single sample's column."""
    if t.data.ndim != 2 or t.shape[1] != 1:
        raise ShapeError(f"{what} must be one sample's column, got shape {t.shape}")


def cls_loss(fused, labels):
    """Squared error between softmax(fused scores) and the normalized target."""
    target = ground_truth_prob(labels)
    _one_column(fused, "fused scores")
    if fused.size != target.size:
        raise ConfigError(f"score vector has {fused.size} classes, labels have {target.size}")
    p = softmax(reshape(fused, (target.size,)))
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


def _regions(params):
    """The regions' transforms, each checked to be one sample's (4, 1) column."""
    for p in params:
        if p.shape != (4, 1):
            raise ShapeError(f"transform parameters must be one sample's (4, 1) column, got shape {p.shape}")
    return params


def _zero(dtype):
    return Tensor(np.zeros(()), dtype=dtype)


def anchor_loss(params, anchors):
    """Half squared distance of each constrained region center to its anchor.

    Region k (for k = 2..K) is matched to anchor k-1 by position; the first
    region carries no anchor term.
    """
    params = _regions(params)
    if len(anchors) != len(params) - 1:
        raise ConfigError(f"{len(params)} regions need {len(params) - 1} anchors, got {len(anchors)}")
    total = None
    for p, (cx, cy) in zip(params[1:], anchors):
        t = take(p, (2, 3))
        d = t - Tensor(np.array([cx, cy]), dtype=p.dtype)
        term = (d * d).sum() * 0.5
        total = term if total is None else total + term
    return total if total is not None else _zero(params[0].dtype)


def scale_loss(params, threshold=0.5):
    """Squared hinge on |scale| exceeding the threshold, over all regions."""
    params = _regions(params)
    total = None
    for p in params:
        s = take(p, (0, 1))
        over = relu(s.abs() - threshold)
        term = (over * over).sum()
        total = term if total is None else total + term
    return total


def positive_loss(params, threshold=0.1):
    """Hinge pushing scales to stay above the positive threshold."""
    params = _regions(params)
    total = None
    for p in params:
        s = take(p, (0, 1))
        term = relu(threshold - s).sum()
        total = term if total is None else total + term
    return total


def loc_loss(params, anchors, weights=LossWeights(), disabled=frozenset()):
    """Weighted sum of the three region constraints; terms in ``disabled`` are dropped."""
    unknown = set(disabled) - set(CONSTRAINT_NAMES)
    if unknown:
        raise ConfigError(f"unknown constraint names: {sorted(unknown)}")
    params = _regions(params)
    total = _zero(params[0].dtype)
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
