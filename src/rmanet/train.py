"""Training loop: seeded shuffles, batched episodes, Adam, checkpoints.

Determinism contract: with a fixed seed and config, parameter trajectories
and the loss log are bit-identical across runs.  Gradients accumulate per
sample in batch order, and every random draw comes from generators derived
from the single seed.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import atomic_write
from .errors import ConfigError, DataError, NonFiniteLossError
from .losses import LossWeights, cls_loss, loc_loss, make_anchors, total_loss
from .model import Model, ModelConfig, save_model
from .optim import Adam
from .tensor import Tensor, fuse_max

LOG_HEADER = "epoch,total_loss,cls_loss,loc_loss"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    batch_size: int = 16
    lr: float = 1e-3
    lr_decay_epoch: int = 30
    seed: int = 1
    k_regions: int = ModelConfig.k_regions
    n_hidden: int = ModelConfig.n_hidden
    channels: tuple = ModelConfig.channels
    region: tuple = ModelConfig.region
    cell_tanh: bool = ModelConfig.cell_tanh
    # toy-scale default: a from-scratch backbone needs a stronger anchor pull
    # than LossWeights' 0.01 or the classification gradients drown it out
    loss_weights: LossWeights = field(default_factory=lambda: LossWeights(anchor_weight=0.2))
    disabled_constraints: frozenset = frozenset()

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class EpochStats:
    epoch: int
    total: float
    cls: float
    loc: float


def format_log(stats):
    lines = [LOG_HEADER]
    for s in stats:
        lines.append(f"{s.epoch},{s.total:.6f},{s.cls:.6f},{s.loc:.6f}")
    return "\n".join(lines) + "\n"


def train(samples, config: TrainConfig, out_dir=None, progress=None):
    """Train a fresh model on loaded samples; returns (model, stats, adam).

    Writes ``checkpoint.rma`` (refreshed every epoch) and ``log.csv`` into
    ``out_dir`` when given.  ``progress`` is an optional callable receiving
    each EpochStats as it completes.
    """
    if not samples:
        raise DataError("training set is empty")
    n_classes = len(samples[0].labels)
    for i, s in enumerate(samples):
        if len(s.labels) != n_classes:
            raise DataError(f"sample {i} has {len(s.labels)} classes, expected {n_classes}")
        if int(s.labels.sum()) < 1:
            raise DataError(f"sample {i} ({s.name}) has no positive labels")

    model_cfg = ModelConfig(
        n_classes=n_classes,
        channels=config.channels,
        n_hidden=config.n_hidden,
        region=config.region,
        k_regions=config.k_regions,
        cell_tanh=config.cell_tanh,
    )
    model = Model.init(model_cfg, seed=config.seed)
    adam = Adam(model.parameters(), lr=config.lr)
    anchors = make_anchors(config.k_regions) if config.k_regions >= 2 else []
    weights = config.loss_weights
    disabled = config.disabled_constraints

    images = [Tensor(s.image[None]) for s in samples]  # one-sample batches
    stats = []
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    for epoch in range(1, config.epochs + 1):
        adam.lr = config.lr / 10.0 if epoch > config.lr_decay_epoch else config.lr
        order = np.random.default_rng([config.seed, 1, epoch]).permutation(len(samples))
        epoch_total, epoch_cls, epoch_loc = [], [], []
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            adam.zero_grad()
            batch_vals = []
            inv = 1.0 / len(batch)
            for idx in batch:
                trace = model.episode(images[idx])
                cls = cls_loss(fuse_max(trace.scores), samples[idx].labels[:, None])
                loc = loc_loss(trace.params, anchors, weights, disabled)
                tot = total_loss(cls, loc, weights.loc_weight)
                (tot * inv).backward()
                batch_vals.append((float(tot.item()), float(cls.item()), float(loc.item())))
            totals = [v[0] for v in batch_vals]
            if not all(np.isfinite(totals)):
                raise NonFiniteLossError(
                    f"non-finite loss in epoch {epoch}", batch_indices=[int(i) for i in batch], losses=totals
                )
            adam.step()
            for t, c, l in batch_vals:
                epoch_total.append(t)
                epoch_cls.append(c)
                epoch_loc.append(l)
        s = EpochStats(epoch, float(np.mean(epoch_total)), float(np.mean(epoch_cls)), float(np.mean(epoch_loc)))
        stats.append(s)
        if progress:
            progress(s)
        if out_dir:
            save_model(os.path.join(out_dir, "checkpoint.rma"), model, adam)
            with atomic_write(os.path.join(out_dir, "log.csv"), "w", encoding="ascii") as fh:
                fh.write(format_log(stats))
    return model, stats, adam
