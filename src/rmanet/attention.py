"""Recurrent attention episode: LSTM scoring over transformer-sampled regions.

One episode runs K+1 iterations over a feature map.  Iteration 0 samples with
the identity transform and only proposes the next transform; iterations
1..K each sample with the previously proposed transform, emit a class-score
vector, and propose the next transform.  The transform proposed on the last
iteration is computed but never consumed.  Per-class scores are fused by a
maximum over the K regions.
"""

from dataclasses import dataclass

import numpy as np

from .backbone import xavier_uniform
from .errors import ConfigError
from .tensor import Tensor, fuse_max, matmul, relu, reshape, sigmoid, tanh
from .transformer import IDENTITY, TransformParams, identity_params, st

# Every attention weight in checkpoint order, with its shape over the region
# feature length F, the hidden size n and the class count C.
_SHAPES = (
    ("w_fx", ("n", "F")), ("b_x", ("n", 1)),
    ("w_xi", ("n", "n")), ("w_hi", ("n", "n")), ("b_i", ("n", 1)),
    ("w_xg", ("n", "n")), ("w_hg", ("n", "n")), ("b_g", ("n", 1)),
    ("w_xo", ("n", "n")), ("w_ho", ("n", "n")), ("b_o", ("n", 1)),
    ("w_xm", ("n", "n")), ("w_hm", ("n", "n")), ("b_m", ("n", 1)),
    ("w_hz", ("n", "n")), ("b_z", ("n", 1)),
    ("w_zs", ("C", "n")), ("b_s", ("C", 1)),
    ("w_zm", (4, "n")), ("b_zm", (4, 1)),
)
_TENSOR_FIELDS = tuple(name for name, _ in _SHAPES)


def weight_shapes(feature_len, n_hidden, n_classes):
    """Ordered (name, shape) list of the attention weights, in checkpoint order."""
    dims = {"F": feature_len, "n": n_hidden, "C": n_classes}
    return [(name, tuple(dims.get(d, d) for d in shape)) for name, shape in _SHAPES]


@dataclass
class LstmState:
    h: Tensor
    c: Tensor

    @classmethod
    def zeros(cls, n_hidden, dtype=np.float32):
        return cls(Tensor(np.zeros((n_hidden, 1)), dtype=dtype), Tensor(np.zeros((n_hidden, 1)), dtype=dtype))


class AttentionWeights:
    """All weight tensors of the recurrent module, as (n, 1)-column algebra.

    ``w_fx`` embeds the flattened region features; ``w_x*``/``w_h*``/``b_*``
    drive the input, forget-style, output, and input-modulation gates;
    ``w_hz``/``b_z`` form the shared head trunk; ``w_zs``/``b_s`` score the C
    classes and ``w_zm``/``b_zm`` propose the next 4 transform parameters in
    the order (sx, sy, tx, ty).
    """

    def __init__(self, **tensors):
        missing = [f for f in _TENSOR_FIELDS if f not in tensors]
        if missing:
            raise ConfigError(f"attention weights missing tensors: {missing}")
        self.n_hidden, self.feature_len = tensors["w_fx"].shape
        self.n_classes = tensors["w_zs"].shape[0]
        for f, shape in weight_shapes(self.feature_len, self.n_hidden, self.n_classes):
            if tensors[f].shape != shape:
                raise ConfigError(f"attention weight {f} has shape {tensors[f].shape}, expected {shape}")
            setattr(self, f, tensors[f])

    @classmethod
    def init(cls, rng, feature_len, n_hidden, n_classes, dtype=np.float32):
        """Xavier-uniform matrices, drawn in checkpoint order, and zero biases.

        The transform head starts at zero weight and identity bias, so the
        first proposals cover the whole image instead of sampling noise.
        """
        t = {}
        for f, shape in weight_shapes(feature_len, n_hidden, n_classes):
            if f.startswith("w_") and f != "w_zm":
                t[f] = xavier_uniform(rng, shape, shape[1], shape[0], dtype=dtype)
            else:
                data = np.reshape(IDENTITY, shape) if f == "b_zm" else np.zeros(shape)
                t[f] = Tensor(data, requires_grad=True, dtype=dtype)
        return cls(**t)

    def named(self):
        return [(f"attn/{f}", getattr(self, f)) for f in _TENSOR_FIELDS]


def lstm_step(f_k, prev: LstmState, w: AttentionWeights, cell_tanh=False):
    """One recurrence step on sampled region features.

    The region map is flattened row-major, embedded through relu, and run
    through the four sigmoid/tanh gates.  By default the new hidden state is
    ``o * c`` (no squashing of the cell); ``cell_tanh=True`` switches to the
    common ``o * tanh(c)`` variant.
    """
    if f_k.size != w.feature_len:
        raise ConfigError(f"region features have {f_k.size} values, weights expect {w.feature_len}")
    vec = reshape(f_k, (w.feature_len, 1))
    x = relu(matmul(w.w_fx, vec) + w.b_x)
    i = sigmoid(matmul(w.w_xi, x) + matmul(w.w_hi, prev.h) + w.b_i)
    g = sigmoid(matmul(w.w_xg, x) + matmul(w.w_hg, prev.h) + w.b_g)
    o = sigmoid(matmul(w.w_xo, x) + matmul(w.w_ho, prev.h) + w.b_o)
    m = tanh(matmul(w.w_xm, x) + matmul(w.w_hm, prev.h) + w.b_m)
    c = g * prev.c + i * m
    h = o * tanh(c) if cell_tanh else o * c
    return LstmState(h, c)


def heads(h, w: AttentionWeights, emit_score=True):
    """Score head and transform head on a hidden state.

    Returns ``(scores, next_params)`` where ``scores`` is None when
    ``emit_score`` is false (the very first iteration, which has seen no
    attended region yet).
    """
    z = relu(matmul(w.w_hz, h) + w.b_z)
    p = reshape(matmul(w.w_zm, z) + w.b_zm, (4,))
    if not emit_score:
        return None, p
    s = reshape(matmul(w.w_zs, z) + w.b_s, (w.n_classes,))
    return s, p


@dataclass
class EpisodeTrace:
    """Everything one episode produced, with live graph nodes for training."""

    score_tensors: list         # K tensors of shape (C,)
    param_tensors: list         # K consumed (4,) transform tensors, for regions 1..K
    final_params: Tensor        # (4,) proposed on the last iteration, never consumed
    states: list                # K+1 LstmState

    @property
    def scores(self):
        return [t.data.copy() for t in self.score_tensors]

    @property
    def transforms(self):
        """The K+1 consumed transforms as TransformParams; index 0 is the identity."""
        return [TransformParams.identity()] + [TransformParams.from_tensor(p) for p in self.param_tensors]

    @property
    def final_transform(self):
        return TransformParams.from_tensor(self.final_params)


def run_episode(f_I, w: AttentionWeights, k_regions, out_size=None, cell_tanh=False):
    """Run K+1 iterations over feature map ``f_I`` and record the trace."""
    if k_regions < 1:
        raise ConfigError(f"an episode needs at least one scored region, got k={k_regions}")
    state = LstmState.zeros(w.n_hidden, dtype=f_I.data.dtype)
    params = identity_params(f_I.data.dtype)
    score_tensors, param_tensors, states = [], [], []
    for k in range(k_regions + 1):
        state = lstm_step(st(f_I, params, out_size), state, w, cell_tanh=cell_tanh)
        states.append(state)
        s, params = heads(state.h, w, emit_score=(k != 0))
        if s is not None:
            score_tensors.append(s)
        if k < k_regions:
            param_tensors.append(params)
    return EpisodeTrace(score_tensors, param_tensors, params, states)


def fuse_scores(score_tensors):
    """Per-class maximum over the K regional score vectors."""
    return fuse_max(score_tensors)
