"""Each correctness check of the benchmark must fail on a corrupted output.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import copy
import dataclasses
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402

PROG = run.import_program()


@pytest.fixture(scope="module")
def split(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("bench"))
    root = run.make_data(PROG, 3, work)
    return work, root


@pytest.fixture(scope="module")
def eval_outputs(split):
    """Single-view predictions and report of the seeded eval checkpoint on 12 images."""
    work, root = split
    test_root = os.path.join(root, "test")
    samples = PROG.data.load(test_root)[:12]
    model = run.eval_checkpoint(PROG, 3, os.path.join(work, "eval.rma"))
    predictions = PROG.evaluation.score_samples(model, samples)
    report = PROG.evaluation.report_from_predictions(predictions, run.N_CLASSES)
    params = {name: t.data.astype(np.float64) for name, t in model.parameters()}
    ref_scores = [ref.fused_scores(params, s.image, run.K_REGIONS, run.REGION) for s in samples]
    truth = ref.read_manifest(test_root, run.N_CLASSES)[:12]
    return predictions, report, ref_scores, truth


def _eval_fails(predictions, ref_scores):
    return checks.eval_outputs([p.scores for p in predictions], [p.probs for p in predictions],
                               ref_scores, [ref.softmax(s) for s in ref_scores])


def test_eval_outputs_pass_then_fail_on_perturbed_score(eval_outputs):
    predictions, _, ref_scores, _ = eval_outputs
    assert _eval_fails(predictions, ref_scores) == []
    bad = copy.deepcopy(predictions)
    bad[5].scores[2] += 1e-2 * (1.0 + abs(bad[5].scores[2]))
    fails = _eval_fails(bad, ref_scores)
    assert len(fails) == 1 and "image 5: fused scores" in fails[0]


def test_eval_outputs_fail_on_probabilities(eval_outputs):
    predictions, _, ref_scores, _ = eval_outputs
    bad = copy.deepcopy(predictions)
    bad[0].probs[1] += 1e-3  # off the reference and no longer summing to 1
    fails = _eval_fails(bad, ref_scores)
    assert any("probabilities off" in f for f in fails) and any("sum to" in f for f in fails)


def test_ten_view_probs_must_match_mean_of_softmaxes(split):
    work, root = split
    sample = PROG.data.load(os.path.join(root, "test"))[0]
    model = run.eval_checkpoint(PROG, 3, os.path.join(work, "ten.rma"))
    probs, scores = PROG.evaluation.multi_view_eval(model, sample.image)
    params = {name: t.data.astype(np.float64) for name, t in model.parameters()}
    ref_scores, ref_probs = ref.ten_view(params, sample.image, run.K_REGIONS, run.REGION)
    assert checks.eval_outputs([scores], [probs], [ref_scores], [ref_probs]) == []
    # the softmax of the mean score is not the mean of the softmaxes
    assert checks.eval_outputs([scores], [ref.softmax(scores)], [ref_scores], [ref_probs])


@pytest.mark.parametrize("field", ["overall_precision", "class_recall", "class_f1", "mean_ap"])
def test_report_fails_on_wrong_metric(eval_outputs, field):
    predictions, report, _, truth = eval_outputs
    assert checks.labels_and_report(predictions, report, truth) == []
    bad = dataclasses.replace(report, **{field: getattr(report, field) + 0.01})
    assert len(checks.labels_and_report(predictions, bad, truth)) == 1


def test_report_fails_on_wrong_ap_and_labels(eval_outputs):
    predictions, report, _, truth = eval_outputs
    bad = dataclasses.replace(report, ap=[None if a is None else a * 0.9 for a in report.ap])
    assert checks.labels_and_report(predictions, bad, truth)
    flipped = truth.copy()
    flipped[0] = ~flipped[0]
    assert any("ground truth" in f for f in checks.labels_and_report(predictions, report, flipped))
    bad_preds = copy.deepcopy(predictions)
    bad_preds[1].predicted = frozenset(set(range(run.N_CLASSES)) - set(bad_preds[1].predicted))
    assert any("image 1: assigned" in f for f in checks.labels_and_report(bad_preds, report, truth))


def test_gradient_check_fails_on_sign_flipped_entry(split, monkeypatch):
    work, root = split
    samples = PROG.data.load(os.path.join(root, "train"))[:run.GRAD_BATCH]
    seen = {}
    original = checks.gradients

    def spy(program, numeric, scale):
        seen.update(program=program, numeric=numeric, scale=scale)
        return original(program, numeric, scale)

    monkeypatch.setattr(checks, "gradients", spy)
    assert run.gradient_check(PROG, samples, PROG.train.TrainConfig(), 3, work) == []
    groups = {name.rsplit("/", 1)[0] for name, _ in seen["numeric"]}
    assert {"backbone/conv0", "backbone/conv2", "attn"} <= groups
    program = dict(seen["program"])
    key = max(program, key=lambda k: abs(program[k]) / seen["scale"][k[0]])
    program[key] = -program[key]
    fails = original(program, seen["numeric"], seen["scale"])
    assert len(fails) == 1 and key[0] in fails[0]


def test_gradient_check_takes_a_side_only_at_a_kink():
    scale = {"w": 1.0}
    smooth = {("w", 0): (0.3, 0.3, 0.3)}
    assert checks.gradients({("w", 0): 0.3}, smooth, scale) == []
    assert len(checks.gradients({("w", 0): -0.3}, smooth, scale)) == 1
    kink = {("w", 0): (1.0, 0.5, 0.0)}  # relu-like: slope 1 on the left, 0 on the right
    assert checks.gradients({("w", 0): 1.0}, kink, scale) == []
    assert checks.gradients({("w", 0): 0.0}, kink, scale) == []
    assert len(checks.gradients({("w", 0): 0.5}, kink, scale)) == 1


def test_training_losses_fail_when_loss_does_not_fall():
    assert checks.training_losses([0.61, 0.43], [[0.61, 0.6, 0.1], [0.43, 0.42, 0.1]]) == []
    fails = checks.training_losses([0.61, 0.60], [[0.61, 0.6, 0.1], [0.60, 0.59, 0.1]])
    assert len(fails) == 1 and "did not fall" in fails[0]


def test_training_losses_fail_on_non_finite_or_mislogged_loss():
    assert checks.training_losses([0.61, 0.43], [[0.61, 0.6, 0.1], [0.43, float("nan"), 0.1]])
    assert checks.training_losses([0.61, 0.43], [[0.61, 0.6, 0.1], [0.45, 0.42, 0.1]])
    assert checks.training_losses([0.61, 0.43], [[0.61, 0.6, 0.1]])


def test_reference_ap_and_recount_on_a_hand_example():
    # ranking 0.9 (pos), 0.8 (neg), 0.7 (pos): AP = (1/1 + 2/3) / 2
    assert ref.rank_walk_ap([0.9, 0.8, 0.7], [True, False, True]) == pytest.approx(5 / 6)
    probs = np.array([[0.7, 0.2, 0.1], [0.3, 0.6, 0.1]])
    truth = np.array([[True, False, False], [True, False, True]])
    got = ref.recount(probs, probs, truth)
    # predicted {0} and {1}: one hit in two predictions, three labels
    assert (got["op"], got["or"]) == (0.5, pytest.approx(1 / 3))
    assert got["cp"] == pytest.approx(1 / 3) and got["cr"] == pytest.approx(1 / 6)
    assert got["ap"][1] is None
