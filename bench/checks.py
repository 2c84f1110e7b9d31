"""Correctness checks: the program's outputs against the independent reference.

Every check returns a list of failure messages (empty when it passes), so the
benchmark can report all of them and its tests can corrupt one output at a
time.  No check compares the program with a stored copy of its own output.
"""

import math

import numpy as np

import reference as ref

# float32 program against the float64 reference.  The worst cases measured on
# seeded inputs sit 20x or more inside each tolerance (see README).
SCORE_TOL = 2e-4       # |fused score difference| per (1 + |reference score|)
PROB_TOL = 5e-5        # |probability difference|
PROB_SUM_TOL = 1e-5    # |sum of probabilities - 1|
GRAD_ATOL = 1e-4       # share of the tensor's largest program gradient entry
GRAD_RTOL = 1e-3       # share of the finite-difference value
LOSS_FALL = 0.05       # last epoch's mean loss must be <= (1 - LOSS_FALL) x the first's
METRIC_TOL = 1e-12     # report fields against the recount of the same scores


def eval_outputs(scores, probs, ref_scores, ref_probs):
    """Fused scores and probabilities of each image against the reference forward."""
    fails = []
    for i, (s, p, rs, rp) in enumerate(zip(scores, probs, ref_scores, ref_probs)):
        err = np.max(np.abs(np.asarray(s, dtype=np.float64) - rs) / (1.0 + np.abs(rs)))
        if not err <= SCORE_TOL:
            fails.append(f"image {i}: fused scores off the reference by {err:.3g} (tolerance {SCORE_TOL})")
        perr = np.max(np.abs(np.asarray(p, dtype=np.float64) - rp))
        if not perr <= PROB_TOL:
            fails.append(f"image {i}: probabilities off the reference by {perr:.3g} (tolerance {PROB_TOL})")
        total = float(np.sum(p, dtype=np.float64))
        if not abs(total - 1.0) <= PROB_SUM_TOL:
            fails.append(f"image {i}: probabilities sum to {total!r}")
    return fails


def labels_and_report(predictions, report, truth):
    """Assigned labels, ground truth and the metrics report against a recount.

    ``predictions`` holds the program's PredictionSets, ``report`` its
    MetricsReport, and ``truth`` the (N, C) label matrix read from the manifest.
    """
    fails = []
    probs = np.array([p.probs for p in predictions], dtype=np.float64)
    scores = np.array([p.scores for p in predictions], dtype=np.float64)
    for i, p in enumerate(predictions):
        if set(p.actual) != set(np.flatnonzero(truth[i]).tolist()):
            fails.append(f"image {i}: ground truth {sorted(p.actual)} differs from the manifest")
        if set(p.predicted) != ref.assign(probs[i]):
            fails.append(f"image {i}: assigned {sorted(p.predicted)}, recount gives {sorted(ref.assign(probs[i]))}")
    want = ref.recount(probs, scores, truth)
    got = {
        "op": report.overall_precision, "or": report.overall_recall, "of1": report.overall_f1,
        "cp": report.class_precision, "cr": report.class_recall, "cf1": report.class_f1,
        "map": report.mean_ap,
    }
    for key, value in got.items():
        if not abs(value - want[key]) <= METRIC_TOL:
            fails.append(f"report {key} = {value!r}, recount gives {want[key]!r}")
    for c, (a, b) in enumerate(zip(report.ap, want["ap"])):
        if (a is None) != (b is None) or (a is not None and not abs(a - b) <= METRIC_TOL):
            fails.append(f"report AP[{c}] = {a!r}, recount gives {b!r}")
    if len(report.ap) != len(want["ap"]):
        fails.append(f"report has {len(report.ap)} per-class APs, expected {len(want['ap'])}")
    return fails


def gradients(program, numeric, scale):
    """Program gradient entries against float64 finite differences.

    ``program`` maps (tensor name, flat index) to a value, ``numeric`` maps it
    to the (left, central, right) differences, and ``scale`` maps a tensor name
    to its largest program gradient magnitude.  The program must match the
    central difference.  Where a relu, max-pool or bilinear switch lies within
    eps of the entry, the left and right differences disagree and the central
    one is their mean, which no correct backward returns; there the program
    must match one of the two sides.
    """
    fails = []
    for key, (left, central, right) in numeric.items():
        g = program[key]
        allowed = GRAD_ATOL * scale[key[0]] + GRAD_RTOL * abs(central)
        sides = (left, right) if abs(right - left) > allowed else (central,)
        if not any(abs(g - fd) <= allowed for fd in sides):
            fails.append(f"gradient {key[0]}[{key[1]}] = {g:.6g}, finite differences "
                         f"left {left:.6g}, central {central:.6g}, right {right:.6g}")
    return fails


def training_losses(epoch_totals, log_rows):
    """Per-epoch mean losses: finite, logged as returned, and falling by LOSS_FALL."""
    fails = []
    if len(log_rows) != len(epoch_totals):
        fails.append(f"log.csv has {len(log_rows)} epochs, training returned {len(epoch_totals)}")
    for epoch, row in enumerate(log_rows, start=1):
        if not all(math.isfinite(v) for v in row):
            fails.append(f"log.csv epoch {epoch} has a non-finite loss: {row}")
    for epoch, (total, row) in enumerate(zip(epoch_totals, log_rows), start=1):
        if row and not abs(row[0] - total) <= 1e-6:  # log keeps 6 decimals
            fails.append(f"log.csv epoch {epoch} total {row[0]} differs from the returned {total}")
    if not epoch_totals[-1] <= (1.0 - LOSS_FALL) * epoch_totals[0]:
        fails.append(f"loss did not fall by {LOSS_FALL:.0%}: first epoch {epoch_totals[0]:.6f}, "
                     f"last {epoch_totals[-1]:.6f}")
    return fails
