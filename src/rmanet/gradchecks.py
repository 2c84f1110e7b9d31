"""Named finite-difference checks covering every differentiable piece.

Each item compares analytic gradients against 64-bit central differences via
``tensor.grad_check``.  Fixtures use fixed seeds and keep sample points away
from the known kinks: relu/abs zeros, hinge thresholds, pooling ties, and
integer bilinear sample coordinates.  The batched backbone, transformer and
attention ops run on two samples with different inputs, so a gradient that
leaks from one sample into the other shows up as an error.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import _TENSOR_FIELDS, AttentionWeights, fuse_scores, heads, lstm_step, run_episode
from .attention import LstmState, weight_shapes
from .backbone import BackboneWeights, encode
from .losses import anchor_loss, cls_loss, loc_loss, make_anchors, positive_loss, scale_loss, total_loss
from .transformer import affine_grid, bilinear_sample, build_matrix, st

TOLERANCE = 1e-4


@dataclass
class CheckResult:
    name: str
    max_error: float
    passed: bool


def _away_from_zero(rng, shape, margin=0.05):
    x = rng.standard_normal(shape)
    return x + np.sign(x) * margin


N_SAMPLES = 2  # batch size of the batched checks


def _safe_grid(rng, map_h, map_w, h, w):
    # (N, 2, h, w) pixel coordinates with fractional parts in [0.2, 0.8]
    shape = (N_SAMPLES, h, w)
    u = rng.integers(0, map_w - 1, size=shape) + rng.uniform(0.2, 0.8, size=shape)
    v = rng.integers(0, map_h - 1, size=shape) + rng.uniform(0.2, 0.8, size=shape)
    xs = 2.0 * u / (map_w - 1) - 1.0
    ys = 2.0 * v / (map_h - 1) - 1.0
    return np.stack([xs, ys], axis=1)


# (4, N) transform columns giving non-integer sample coordinates on a 5x5 map
_SAFE_PARAMS = np.array([[0.53, 0.61], [0.47, 0.38], [0.12, -0.21], [-0.09, 0.17]])
# (4, 1) columns with scale entries clear of the |s| = 0.5 hinge, the s = 0.1 hinge, and s = 0
_SAFE_TRANSFORMS = [
    np.array([[0.32], [0.74], [0.10], [-0.20]]),
    np.array([[-0.81], [0.21], [0.55], [0.30]]),
    np.array([[0.68], [-0.27], [-0.40], [0.64]]),
]


def _tiny_weights(rng, feat_len=8, n_hidden=3, n_classes=2):
    arrays = {}
    for name, shape in weight_shapes(feat_len, n_hidden, n_classes):
        if name == "b_zm":
            arrays[name] = _SAFE_PARAMS[:, :1].copy()
        elif name == "w_zm":
            arrays[name] = rng.standard_normal(shape) * 0.05
        elif name.startswith("w_"):
            arrays[name] = rng.standard_normal(shape) * 0.4
        else:
            arrays[name] = rng.standard_normal(shape) * 0.1
    return arrays


def _weights_from(leaves):
    return AttentionWeights(**dict(zip(_TENSOR_FIELDS, leaves)))


def _check_matmul():
    rng = np.random.default_rng(1)
    return T.grad_check(T.matmul, [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))])


def _check_add():
    rng = np.random.default_rng(2)
    return T.grad_check(T.add, [rng.standard_normal((3, 5)), rng.standard_normal((3, 5))])


def _check_sub():
    rng = np.random.default_rng(3)
    return T.grad_check(T.sub, [rng.standard_normal((4,)), rng.standard_normal((4,))])


def _check_mul():
    rng = np.random.default_rng(4)
    return T.grad_check(T.mul, [rng.standard_normal((2, 3)), rng.standard_normal((2, 3))])


def _check_relu():
    rng = np.random.default_rng(5)
    return T.grad_check(T.relu, [_away_from_zero(rng, (3, 4))])


def _check_sigmoid():
    rng = np.random.default_rng(6)
    return T.grad_check(T.sigmoid, [rng.standard_normal((3, 4))])


def _check_tanh():
    rng = np.random.default_rng(7)
    return T.grad_check(T.tanh, [rng.standard_normal((3, 4))])


def _check_abs():
    rng = np.random.default_rng(8)
    return T.grad_check(T.absolute, [_away_from_zero(rng, (6,))])


def _check_softmax():
    rng = np.random.default_rng(9)
    return T.grad_check(T.softmax, [rng.standard_normal(5)])


def _check_conv2d():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((N_SAMPLES, 2, 5, 5))
    k = rng.standard_normal((3, 2, 3, 3))
    return T.grad_check(lambda a, b, c: T.conv2d(a, b, c, padding=1), [x, k, rng.standard_normal(3)])


def _check_maxpool2d():
    rng = np.random.default_rng(11)
    return T.grad_check(lambda a: T.maxpool2d(a, 2), [rng.standard_normal((N_SAMPLES, 1, 4, 4))])


def _check_reshape():
    rng = np.random.default_rng(12)
    return max(T.grad_check(lambda a: T.reshape(a, (6, 2)), [rng.standard_normal((3, 4))]),
               T.grad_check(T.columns, [rng.standard_normal((N_SAMPLES, 2, 3))]))


def _check_sum():
    rng = np.random.default_rng(13)
    return T.grad_check(T.sum_all, [rng.standard_normal((3, 3))])


def _check_take():
    rng = np.random.default_rng(14)
    return T.grad_check(lambda a: T.take(a, (0, 2, 5, 2)), [rng.standard_normal((2, 3))])


def _check_bias_add():
    rng = np.random.default_rng(15)
    return T.grad_check(T.bias_add, [rng.standard_normal((3, N_SAMPLES)), rng.standard_normal((3, 1))])


def _check_fuse_max():
    rng = np.random.default_rng(16)
    columns = [rng.standard_normal((4, N_SAMPLES)) for _ in range(3)]
    return T.grad_check(lambda *ts: fuse_scores(list(ts)), columns)


def _check_build_matrix():
    rng = np.random.default_rng(17)
    return T.grad_check(build_matrix, [rng.standard_normal((4, N_SAMPLES))])


def _check_affine_grid():
    rng = np.random.default_rng(18)
    return T.grad_check(lambda m: affine_grid(m, 3, 3), [rng.standard_normal((N_SAMPLES, 2, 3))])


def _check_bilinear_features():
    rng = np.random.default_rng(19)
    f = rng.standard_normal((N_SAMPLES, 2, 4, 4))
    grid = _safe_grid(rng, 4, 4, 3, 3)
    return T.grad_check(lambda a: bilinear_sample(a, T.Tensor(grid, dtype=np.float64)), [f])


def _check_bilinear_grid():
    rng = np.random.default_rng(20)
    f = rng.standard_normal((N_SAMPLES, 2, 4, 4))
    grid = _safe_grid(rng, 4, 4, 3, 3)
    return T.grad_check(lambda g: bilinear_sample(T.Tensor(f, dtype=np.float64), g), [grid])


def _check_st_params():
    rng = np.random.default_rng(21)
    f = rng.standard_normal((N_SAMPLES, 2, 5, 5))
    return T.grad_check(lambda p: st(T.Tensor(f, dtype=np.float64), p, (3, 3)), [_SAFE_PARAMS])


def _check_st_features():
    rng = np.random.default_rng(22)
    f = rng.standard_normal((N_SAMPLES, 2, 5, 5))
    return T.grad_check(
        lambda a: st(a, T.Tensor(_SAFE_PARAMS, dtype=np.float64), (3, 3)), [f]
    )


def _check_lstm_step(part):
    rng = np.random.default_rng(23)
    arrays = _tiny_weights(rng)
    f_k = rng.standard_normal((N_SAMPLES, 2, 2, 2))
    h0 = rng.standard_normal((3, N_SAMPLES)) * 0.5
    c0 = rng.standard_normal((3, N_SAMPLES)) * 0.5

    def fn(*leaves):
        w = _weights_from(leaves[:20])
        state = lstm_step(leaves[20], LstmState(leaves[21], leaves[22]), w)
        return state.h if part == "h" else state.c

    inputs = [arrays[n] for n in _TENSOR_FIELDS] + [f_k, h0, c0]
    return T.grad_check(fn, inputs)


def _check_heads(part):
    rng = np.random.default_rng(24)
    arrays = _tiny_weights(rng)
    h = rng.standard_normal((3, N_SAMPLES)) * 0.5

    def fn(*leaves):
        w = _weights_from(leaves[:20])
        s, p = heads(leaves[20], w, emit_score=True)
        return s if part == "scores" else p

    inputs = [arrays[n] for n in _TENSOR_FIELDS] + [h]
    return T.grad_check(fn, inputs)


def _check_cls_loss():
    rng = np.random.default_rng(25)
    return T.grad_check(lambda s: cls_loss(s, [1, 0, 1]), [rng.standard_normal((3, 1))])


def _check_anchor_loss():
    anchors = make_anchors(3)
    return T.grad_check(lambda *ps: anchor_loss(list(ps), anchors), _SAFE_TRANSFORMS)


def _check_scale_loss():
    return T.grad_check(lambda *ps: scale_loss(list(ps)), _SAFE_TRANSFORMS)


def _check_positive_loss():
    return T.grad_check(lambda *ps: positive_loss(list(ps)), _SAFE_TRANSFORMS)


def _check_loc_loss():
    anchors = make_anchors(3)
    return T.grad_check(lambda *ps: loc_loss(list(ps), anchors), _SAFE_TRANSFORMS)


def _check_encode():
    rng = np.random.default_rng(26)
    bb = BackboneWeights.init(rng, channels=(4, 4, 4))
    images = rng.standard_normal((N_SAMPLES, 3, 16, 16)) * 0.5

    def fn(*leaves):
        kernels = list(leaves[0:6:2])
        biases = list(leaves[1:6:2])
        w = BackboneWeights(kernels, biases, channels=(4, 4, 4))
        return encode(leaves[6], w)

    inputs = [t.data for _, t in bb.named()] + [images]
    return T.grad_check(fn, inputs)


def _check_episode():
    rng = np.random.default_rng(27)
    arrays = _tiny_weights(rng)
    f_maps = rng.standard_normal((N_SAMPLES, 2, 3, 3))
    labels = [[1, 0], [0, 1]]
    anchors = make_anchors(2)
    picks = [T.Tensor(np.eye(N_SAMPLES)[:, [j]], dtype=np.float64) for j in range(N_SAMPLES)]

    def fn(*leaves):
        # the sum of each sample's loss; matmul with a one-hot column picks the sample's column
        w = _weights_from(leaves[:20])
        trace = run_episode(leaves[20], w, 2, out_size=(2, 2))
        fused = fuse_scores(trace.score_tensors)
        total = None
        for pick, y in zip(picks, labels):
            loss = total_loss(cls_loss(T.matmul(fused, pick), y),
                              loc_loss([T.matmul(p, pick) for p in trace.param_tensors], anchors))
            total = loss if total is None else total + loss
        return total

    inputs = [arrays[n] for n in _TENSOR_FIELDS] + [f_maps]
    return T.grad_check(fn, inputs)


def default_checks():
    """Ordered (name, callable) list; each callable returns a max relative error."""
    return [
        ("matmul", _check_matmul),
        ("add", _check_add),
        ("sub", _check_sub),
        ("mul", _check_mul),
        ("relu", _check_relu),
        ("sigmoid", _check_sigmoid),
        ("tanh", _check_tanh),
        ("abs", _check_abs),
        ("softmax", _check_softmax),
        ("conv2d", _check_conv2d),
        ("maxpool2d", _check_maxpool2d),
        ("reshape", _check_reshape),
        ("sum", _check_sum),
        ("take", _check_take),
        ("bias_add", _check_bias_add),
        ("fuse_max", _check_fuse_max),
        ("build_matrix", _check_build_matrix),
        ("affine_grid", _check_affine_grid),
        ("bilinear_sample/features", _check_bilinear_features),
        ("bilinear_sample/grid", _check_bilinear_grid),
        ("st/params", _check_st_params),
        ("st/features", _check_st_features),
        ("lstm_step/h", lambda: _check_lstm_step("h")),
        ("lstm_step/c", lambda: _check_lstm_step("c")),
        ("heads/scores", lambda: _check_heads("scores")),
        ("heads/transform", lambda: _check_heads("transform")),
        ("cls_loss", _check_cls_loss),
        ("anchor_loss", _check_anchor_loss),
        ("scale_loss", _check_scale_loss),
        ("positive_loss", _check_positive_loss),
        ("loc_loss", _check_loc_loss),
        ("backbone_encode", _check_encode),
        ("episode_k2", _check_episode),
    ]


def run_checks(checks=None, tolerance=TOLERANCE):
    results = []
    for name, fn in checks if checks is not None else default_checks():
        err = float(fn())
        results.append(CheckResult(name, err, err <= tolerance))
    return results


def format_results(results):
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<26} max_rel_err={r.max_error:.3e}")
    return "\n".join(lines)
