import time

from rmanet.gradchecks import TOLERANCE, default_checks, format_results, run_checks


def test_every_item_passes_within_budget():
    start = time.time()
    results = run_checks()
    elapsed = time.time() - start
    assert elapsed <= 120.0
    assert len(results) >= 12
    failing = [r.name for r in results if not r.passed]
    assert not failing, f"failed: {failing}"


def test_suite_covers_the_whole_stack():
    assert [name for name, _ in default_checks()] == [
        "matmul", "add", "sub", "mul", "relu", "sigmoid", "tanh", "abs", "softmax",
        "conv2d", "maxpool2d", "reshape", "sum", "take", "bias_add", "fuse_max",
        "build_matrix", "affine_grid", "bilinear_sample/features", "bilinear_sample/grid",
        "st/params", "st/features", "lstm_step/h", "lstm_step/c", "heads/scores", "heads/transform",
        "cls_loss", "anchor_loss", "scale_loss", "positive_loss", "loc_loss",
        "backbone_encode", "episode_k2",
    ]


def test_format_marks_failures():
    results = run_checks([("fine", lambda: 0.0), ("broken", lambda: 1.0)], tolerance=TOLERANCE)
    text = format_results(results)
    assert "PASS  fine" in text
    assert "FAIL  broken" in text
