"""Label assignment, precision/recall/F1 aggregates, AP/mAP, multi-view scoring.

Label assignment keeps the top-k classes by probability and then drops any
below a threshold, so an image can end up with fewer than k labels or none.
Overall metrics pool correct/predicted/ground-truth counts across classes;
per-class metrics average the per-class ratios, with 0/0 ratios defined as 0.
AP uses the all-points interpolation over the full descending-score ranking.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolError, ShapeError
from .tensor import Tensor, fuse_max, softmax


@dataclass
class PredictionSet:
    scores: np.ndarray      # (C,) fused scores used for ranking
    probs: np.ndarray       # (C,) probabilities used for label assignment
    predicted: frozenset    # assigned label set
    actual: frozenset       # ground-truth label set


@dataclass
class MetricsReport:
    overall_precision: float
    overall_recall: float
    overall_f1: float
    class_precision: float
    class_recall: float
    class_f1: float
    ap: list                # per-class AP; None for classes with no positives
    mean_ap: float
    skipped_classes: tuple  # classes excluded from mAP for lack of positives


# label assignment keeps the TOP_K most probable classes that reach THRESHOLD
TOP_K = 3
THRESHOLD = 0.5


def assign_labels(probs, top_k=TOP_K, threshold=THRESHOLD):
    """Top-k classes by probability, ties to the lower index, then thresholded."""
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    p = np.asarray(probs, dtype=np.float64)
    order = np.argsort(-p, kind="stable")[:top_k]
    return frozenset(int(i) for i in order if p[i] >= threshold)


def aggregate_metrics(pairs, n_classes):
    """(OP, OR, OF1, CP, CR, CF1) from (predicted set, actual set) pairs."""
    if not pairs:
        raise ProtocolError("aggregate_metrics needs at least one prediction")
    correct = np.zeros(n_classes)
    predicted = np.zeros(n_classes)
    actual = np.zeros(n_classes)
    for pred, act in pairs:
        for c in pred:
            predicted[c] += 1
            if c in act:
                correct[c] += 1
        for c in act:
            actual[c] += 1

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    op = ratio(correct.sum(), predicted.sum())
    orec = ratio(correct.sum(), actual.sum())
    of1 = ratio(2.0 * op * orec, op + orec)
    cp = float(np.mean([ratio(correct[c], predicted[c]) for c in range(n_classes)]))
    cr = float(np.mean([ratio(correct[c], actual[c]) for c in range(n_classes)]))
    cf1 = ratio(2.0 * cp * cr, cp + cr)
    return op, orec, of1, cp, cr, cf1


def average_precision(scores, positives):
    """All-points AP of one class's score ranking over images.

    Images sort by descending score with ties broken toward the lower index;
    AP averages the precision at each positive's rank.
    """
    s = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(positives, dtype=bool)
    if s.shape != pos.shape or s.ndim != 1:
        raise ProtocolError(f"scores {s.shape} and positives {pos.shape} must be equal-length vectors")
    n_pos = int(pos.sum())
    if n_pos == 0:
        raise ProtocolError("average_precision needs at least one positive image")
    order = np.argsort(-s, kind="stable")
    hits = 0
    total = 0.0
    for rank, idx in enumerate(order, start=1):
        if pos[idx]:
            hits += 1
            total += hits / rank
    return total / n_pos


def per_class_ap(score_matrix, gt_matrix):
    """Per-class AP list (None where a class has no positives), mAP, skipped classes."""
    scores = np.asarray(score_matrix, dtype=np.float64)
    gt = np.asarray(gt_matrix, dtype=bool)
    if scores.shape != gt.shape or scores.ndim != 2:
        raise ProtocolError(f"score matrix {scores.shape} and labels {gt.shape} must match as (N, C)")
    ap = []
    skipped = []
    for c in range(scores.shape[1]):
        if gt[:, c].any():
            ap.append(average_precision(scores[:, c], gt[:, c]))
        else:
            ap.append(None)
            skipped.append(c)
    valid = [a for a in ap if a is not None]
    if not valid:
        raise ProtocolError("no class has a positive image; mAP undefined")
    return ap, float(np.mean(valid)), tuple(skipped)


# multi-view scoring ----------------------------------------------------------

TEN_VIEWS = tuple((pos, flip) for pos in ("center", "tl", "tr", "bl", "br") for flip in (False, True))
SINGLE_VIEW = (("center", False),)


def _view_offsets(pos, fh, fw, ch, cw):
    table = {
        "tl": (0, 0),
        "tr": (0, fw - cw),
        "bl": (fh - ch, 0),
        "br": (fh - ch, fw - cw),
        "center": ((fh - ch) // 2, (fw - cw) // 2),
    }
    if pos not in table:
        raise ConfigError(f"unknown view position {pos!r}")
    return table[pos]


# Images per encode and episode batch when scoring a list of samples.  Past
# 16 a batch gains no time while peak memory grows by about 0.3 MB per image
# (README "Batching and determinism" has the measurement).
EPISODE_IMAGES = 16


def score_images(model, images, views=None, crop=None):
    """(probs, fused scores) of each image from one episode over all their views.

    The images, which must share a shape, are encoded in one batch on the
    model's constant weights.  Then every distinct (offset, flip) view of
    every image runs in one episode batch, and each image averages the
    outputs of its listed views.  ``views`` None is the single whole-map view.
    """
    shapes = sorted({np.shape(image) for image in images})
    if len(shapes) != 1:
        raise ShapeError(f"one batch needs images of one shape, got {shapes}")
    inference = model.constants()
    fmaps = inference.encode(np.stack(images)).data
    _, _, fh, fw = fmaps.shape
    if views is None:
        views, crop = SINGLE_VIEW, (fh, fw)
    ch, cw = (max(1, fh - 1), max(1, fw - 1)) if crop is None else crop
    if ch > fh or cw > fw or ch < 1 or cw < 1:
        raise ConfigError(f"view crop ({ch}, {cw}) invalid for feature map ({fh}, {fw})")

    keys = [(_view_offsets(pos, fh, fw, ch, cw), flip) for pos, flip in views]
    distinct = list(dict.fromkeys(keys))
    batch = []  # image-major: image i's distinct views are rows i*V .. i*V + V-1
    for fmap in fmaps:
        for (oy, ox), flip in distinct:
            patch = fmap[:, oy:oy + ch, ox:ox + cw]
            batch.append(patch[:, :, ::-1] if flip else patch)
    fused = fuse_max(inference.attend(Tensor(np.stack(batch))).scores)
    probs, fused = softmax(fused).data.T, fused.data.T
    slots = [distinct.index(key) for key in keys]
    out = []
    for i in range(len(images)):
        rows = [i * len(distinct) + j for j in slots]
        out.append((probs[rows].mean(axis=0), fused[rows].mean(axis=0)))
    return out


def multi_view_eval(model, image, views=TEN_VIEWS, crop=None):
    """Average episode probabilities over feature-map crops and flips.

    Crops are taken on the encoded feature map (center plus four corners),
    optionally mirrored horizontally; each view's scores fuse per class, and
    the per-view probability vectors are averaged.  Views that land on the
    same (offset, flip), such as "center" and "tl" when the crop is one cell
    smaller than the map, are scored once and count once per listed view.
    Returns (probs, mean fused scores).
    """
    return score_images(model, [image], views, crop)[0]


def _episode_batches(samples):
    """Runs of at most EPISODE_IMAGES consecutive samples whose images share a shape."""
    for _, run in itertools.groupby(samples, key=lambda s: s.image.shape):
        run = list(run)
        for start in range(0, len(run), EPISODE_IMAGES):
            yield run[start:start + EPISODE_IMAGES]


def score_samples(model, samples, top_k=TOP_K, threshold=THRESHOLD, views=None):
    """Build PredictionSets for every sample, single-view or multi-view.

    Consecutive images of one size are scored in batches of up to
    EPISODE_IMAGES, one episode per batch.
    """
    out = []
    for batch in _episode_batches(samples):
        for s, (probs, scores) in zip(batch, score_images(model, [s.image for s in batch], views)):
            out.append(
                PredictionSet(
                    scores=scores,
                    probs=probs,
                    predicted=assign_labels(probs, top_k=top_k, threshold=threshold),
                    actual=frozenset(int(i) for i in np.flatnonzero(s.labels)),
                )
            )
    return out


def report_from_predictions(predictions, n_classes):
    if not predictions:
        raise ProtocolError("cannot build a report from zero predictions")
    op, orec, of1, cp, cr, cf1 = aggregate_metrics(
        [(p.predicted, p.actual) for p in predictions], n_classes
    )
    score_matrix = np.stack([p.scores for p in predictions])
    gt_matrix = np.stack([[c in p.actual for c in range(n_classes)] for p in predictions])
    ap, mean_ap, skipped = per_class_ap(score_matrix, gt_matrix)
    return MetricsReport(op, orec, of1, cp, cr, cf1, ap, mean_ap, skipped)


def report_csv(report: MetricsReport):
    rows = [
        "metric,value",
        f"op,{report.overall_precision:.6f}",
        f"or,{report.overall_recall:.6f}",
        f"of1,{report.overall_f1:.6f}",
        f"cp,{report.class_precision:.6f}",
        f"cr,{report.class_recall:.6f}",
        f"cf1,{report.class_f1:.6f}",
        f"map,{report.mean_ap:.6f}",
    ]
    for c, a in enumerate(report.ap):
        rows.append(f"ap_{c}," + ("" if a is None else f"{a:.6f}"))
    return "\n".join(rows) + "\n"


def report_table(report: MetricsReport):
    lines = [
        f"  OP  {report.overall_precision:7.4f}   CP  {report.class_precision:7.4f}",
        f"  OR  {report.overall_recall:7.4f}   CR  {report.class_recall:7.4f}",
        f"  OF1 {report.overall_f1:7.4f}   CF1 {report.class_f1:7.4f}",
        f"  mAP {report.mean_ap:7.4f}",
    ]
    for c, a in enumerate(report.ap):
        lines.append(f"  AP[{c}] " + ("n/a (no positives)" if a is None else f"{a:7.4f}"))
    if report.skipped_classes:
        lines.append(f"  classes without positives excluded from mAP: {list(report.skipped_classes)}")
    return "\n".join(lines)
