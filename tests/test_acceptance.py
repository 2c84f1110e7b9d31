"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The two full-scale training runs (region constraints on and off) are shared
session fixtures; everything else is cheap.  Run with ``pytest -v -s
tests/test_acceptance.py`` to watch the per-criterion lines.
"""

import time

import numpy as np
import pytest

from rmanet.checkpoint import load_tensors
from rmanet.data import generate_split, load
from rmanet.evaluation import report_from_predictions, score_samples
from rmanet.gradchecks import run_checks
from rmanet.losses import (
    anchor_loss,
    ground_truth_prob,
    loc_loss,
    make_anchors,
    positive_loss,
    scale_loss,
    total_loss,
)
from rmanet.model import load_model, save_model
from rmanet.tensor import Tensor, stack
from rmanet.train import TrainConfig, format_log, train
from rmanet.transformer import TransformParams, identity_params, region_box, st
from rmanet.viz import render_overlay, transforms_csv

from oracles import random_baseline_map

DEFAULT_K = 5
N_CLASSES = 4


def _report(criterion, ok, detail=""):
    line = f"{criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def acceptance_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_data")
    generate_split(1, 600, 200, str(root), image_size=32, n_classes=N_CLASSES)
    return {
        "root": str(root),
        "train": load(str(root / "train"), n_classes=N_CLASSES),
        "test": load(str(root / "test"), n_classes=N_CLASSES),
    }


def _full_run(samples, out_dir, disabled):
    cfg = TrainConfig(seed=1, disabled_constraints=disabled)  # defaults: 40 epochs, K=5, lr 1e-3
    start = time.time()
    model, stats, adam = train(samples, cfg, out_dir=out_dir)
    return {"model": model, "stats": stats, "adam": adam, "minutes": (time.time() - start) / 60.0}


@pytest.fixture(scope="session")
def constrained_run(acceptance_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("run_constrained")
    return _full_run(acceptance_data["train"], str(out), frozenset())


@pytest.fixture(scope="session")
def unconstrained_run(acceptance_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("run_unconstrained")
    return _full_run(acceptance_data["train"], str(out), frozenset(("anchor", "scale", "positive")))


def _test_map(run, samples):
    preds = score_samples(run["model"], samples)
    return report_from_predictions(preds, N_CLASSES).mean_ap


def _mean_anchor_distance(model, samples):
    anchors = make_anchors(DEFAULT_K)
    dists = []
    for s in samples:
        trace = model.episode(s.image[None])
        for k in range(2, DEFAULT_K + 1):
            cx, cy = anchors[k - 2]
            p = trace.transforms[k]
            dists.append(float(np.hypot(p.tx - cx, p.ty - cy)))
    return float(np.mean(dists))


def test_a1_gradient_integrity():
    start = time.time()
    results = run_checks()
    elapsed = time.time() - start
    failing = [r.name for r in results if not r.passed]
    worst = max(r.max_error for r in results)
    _report(
        "A1 gradient integrity",
        not failing and elapsed <= 120.0,
        f"{len(results)} checks, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_a2_transformer_identity():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 5)), int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        fmap = rng.standard_normal(shape).astype(np.float32)
        out = st(Tensor(fmap[None]), identity_params(1)).data[0]
        worst = max(worst, float(np.abs(out - fmap).max()))
    _report("A2 transformer identity", worst <= 1e-6, f"max abs dev {worst:.2e} over 50 maps")


def test_a3_loss_closed_forms():
    def p(sx, sy, tx, ty):
        return Tensor(np.array([[sx], [sy], [tx], [ty]], dtype=np.float32))

    checks = [
        abs(scale_loss(stack([p(0.6, 0.4, 0, 0)])).item() - 0.01) <= 1e-6,
        abs(positive_loss(stack([p(0.05, 0.2, 0, 0)])).item() - 0.05) <= 1e-6,
        abs(anchor_loss(stack([p(1, 1, 0.4, 0.4), p(1, 1, 0, 0)]), [(0.5, 0.5)]).item() - 0.25) <= 1e-6,
        np.allclose(ground_truth_prob([1, 0, 1]), [0.5, 0, 0.5], atol=1e-6),
        abs(total_loss(0.0, 2.0) - 0.2) <= 1e-6,
    ]
    transforms = stack([p(0.7, 0.05, 0.2, -0.1), p(0.3, 0.8, 0.1, 0.4)])
    expected = (
        scale_loss(transforms).item()
        + 0.01 * anchor_loss(transforms, [(0.5, 0.5)]).item()
        + 0.1 * positive_loss(transforms).item()
    )
    checks.append(abs(loc_loss(transforms, [(0.5, 0.5)]).item() - expected) <= 1e-6)

    k5 = set(make_anchors(5))
    checks.append(k5 == {(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)})
    k9 = make_anchors(9)
    r = np.sqrt(2) / 2
    checks.append(len(k9) == 8 and all(abs(np.hypot(x, y) - r) <= 1e-6 for x, y in k9))
    for pt in ((0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5)):
        checks.append(pt in k9)
    axis = sorted((x, y) for x, y in k9 if min(abs(x), abs(y)) < 1e-9)
    checks.append(len(axis) == 4 and all(abs(max(abs(x), abs(y)) - r) <= 1e-6 for x, y in axis))
    _report("A3 loss closed forms", all(checks), f"{sum(checks)}/{len(checks)} identities")


def test_a4_metrics_oracle_equivalence():
    from oracles import ap_rank, metrics_count
    from rmanet.evaluation import aggregate_metrics, average_precision

    rng = np.random.default_rng(10)
    agree = True
    for _ in range(120):
        c = int(rng.integers(2, 9))
        n = int(rng.integers(1, 21))
        pairs = [
            (set(np.flatnonzero(rng.uniform(size=c) < 0.4)), set(np.flatnonzero(rng.uniform(size=c) < 0.4)))
            for _ in range(n)
        ]
        if not np.allclose(aggregate_metrics(pairs, c), metrics_count(pairs, c), atol=1e-9):
            agree = False
        scores = rng.standard_normal(n)
        pos = rng.uniform(size=n) < 0.5
        if not pos.any():
            pos[0] = True
        if abs(average_precision(scores, pos) - ap_rank(scores.tolist(), pos.tolist())) > 1e-9:
            agree = False

    op, orec, of1, cp, cr, cf1 = aggregate_metrics([({0}, {0}), ({0}, {1})], 2)
    worked = (
        abs(op - 0.5) <= 1e-9
        and abs(orec - 0.5) <= 1e-9
        and abs(of1 - 0.5) <= 1e-9
        and abs(cp - 0.25) <= 1e-9
        and abs(cr - 0.5) <= 1e-9
        and abs(cf1 - 1 / 3) <= 1e-9
    )
    _report("A4 metrics oracle equivalence", agree and worked, "120 random instances + worked example")


def test_a5_toy_learning(acceptance_data, constrained_run):
    stats = constrained_run["stats"]
    ratio = stats[-1].total / stats[0].total
    gt = np.stack([s.labels.astype(bool) for s in acceptance_data["test"]])
    baseline = random_baseline_map(gt, n_draws=100, seed=0)
    map_on = _test_map(constrained_run, acceptance_data["test"])
    ok = ratio < 0.5 and (map_on - baseline) >= 0.25 and constrained_run["minutes"] <= 15.0
    _report(
        "A5 toy learning",
        ok,
        f"loss ratio {ratio:.3f}, mAP {map_on:.3f} vs baseline {baseline:.3f}, "
        f"{constrained_run['minutes']:.1f} min",
    )


def test_a6_constraint_ablation(acceptance_data, constrained_run, unconstrained_run):
    map_on = _test_map(constrained_run, acceptance_data["test"])
    map_off = _test_map(unconstrained_run, acceptance_data["test"])
    dist_on = _mean_anchor_distance(constrained_run["model"], acceptance_data["test"])
    dist_off = _mean_anchor_distance(unconstrained_run["model"], acceptance_data["test"])
    ok = (map_on >= map_off - 0.01) and (dist_on <= 0.5 * dist_off)
    _report(
        "A6 constraint ablation",
        ok,
        f"mAP on/off {map_on:.3f}/{map_off:.3f}, anchor dist on/off {dist_on:.3f}/{dist_off:.3f}",
    )


def test_a7_determinism_and_persistence(tmp_path):
    root = tmp_path / "det_data"
    generate_split(3, 32, 8, str(root), image_size=32, n_classes=3)
    samples = load(str(root / "train"))
    cfg = dict(epochs=2, batch_size=8, k_regions=2, n_hidden=8, channels=(4, 8, 8), seed=5)

    logs = []
    models = []
    for _ in range(2):
        model, stats, adam = train(samples, TrainConfig(**cfg))
        logs.append(format_log(stats))
        models.append((model, adam))
    same_logs = logs[0] == logs[1]

    path_a = tmp_path / "a.rma"
    save_model(str(path_a), models[0][0], models[0][1])
    reloaded, _ = load_model(str(path_a))
    round_trip = all(
        np.array_equal(orig.data, back.data)
        for (_, orig), (_, back) in zip(models[0][0].parameters(), reloaded.parameters())
    )
    path_b = tmp_path / "b.rma"
    save_model(str(path_b), reloaded, None)
    arrays_a = {k: v for k, v in load_tensors(str(path_a)).items() if not k.startswith("adam/")}
    arrays_b = load_tensors(str(path_b))
    bit_exact = set(arrays_a) == set(arrays_b) and all(
        np.array_equal(arrays_a[k], arrays_b[k]) for k in arrays_a
    )

    test_samples = load(str(root / "test"))
    svgs = []
    for _ in range(2):
        trace = reloaded.episode(test_samples[0].image[None])
        boxes = [region_box(p, 32, 32) for p in trace.transforms[1:]]
        svgs.append(render_overlay(test_samples[0].image, boxes) + transforms_csv(trace.transforms[1:]))
    same_viz = svgs[0] == svgs[1]

    _report(
        "A7 determinism & persistence",
        same_logs and round_trip and bit_exact and same_viz,
        f"logs={same_logs} round_trip={round_trip} bytes={bit_exact} viz={same_viz}",
    )


def test_a8_episode_protocol():
    from rmanet.attention import init_weights, run_episode

    rng = np.random.default_rng(0)
    fmap = Tensor(rng.standard_normal((1, 2, 3, 3)).astype(np.float32))
    weights = init_weights(rng, 2 * 2 * 2, 3, 2)
    ok = True
    for k in range(1, 7):
        trace = run_episode(fmap, weights, k, out_size=(2, 2))
        ok &= trace.scores.shape[0] == k
        ok &= len(trace.transforms) == k + 1
        ok &= len(trace.states) == k + 1
        ok &= trace.transforms[0] == TransformParams.identity()
        ok &= trace.final_transform is not None
    _report("A8 episode protocol", ok, "K in 1..6")
