"""Recurrent attention episode: LSTM scoring over transformer-sampled regions.

One episode runs K+1 iterations over a batch of N feature maps, one sample
per map.  Iteration 0 samples with the identity transform and only proposes
the next transform; iterations 1..K each sample with the previously proposed
transform, emit class scores, and propose the next transform.  The transform
proposed on the last iteration is computed but never consumed.  Per-class
scores are fused by a maximum over the K regions.

Everything per sample is a column: region features (F, N), LSTM state
(n, N), class scores (C, N) and transform parameters (4, N), so every weight
product is one matmul for the whole batch.
"""

from dataclasses import dataclass

import numpy as np

from .backbone import xavier_uniform
from .errors import ConfigError
from .tensor import Tensor, bias_add, columns, fuse_max, matmul, relu, sigmoid, tanh
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
    def zeros(cls, n_hidden, n, dtype=np.float32):
        """The initial state of n samples: (n_hidden, n) zero columns."""
        return cls(Tensor(np.zeros((n_hidden, n)), dtype=dtype), Tensor(np.zeros((n_hidden, n)), dtype=dtype))


class AttentionWeights:
    """All weight tensors of the recurrent module; biases are (n, 1) columns.

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

    def constants(self):
        """The same weights as constant tensors sharing their arrays: an episode on them records no graph."""
        return AttentionWeights(**{f: Tensor(getattr(self, f).data) for f in _TENSOR_FIELDS})


def lstm_step(f_k, prev: LstmState, w: AttentionWeights, cell_tanh=False):
    """One recurrence step on sampled region features (N, D, h, w).

    Each sample's region map is flattened row-major into a column, embedded
    through relu, and run through the four sigmoid/tanh gates.  By default
    the new hidden state is ``o * c`` (no squashing of the cell);
    ``cell_tanh=True`` switches to the common ``o * tanh(c)`` variant.
    """
    per_sample = f_k.data[0].size
    if per_sample != w.feature_len:
        raise ConfigError(f"region features have {per_sample} values per sample, weights expect {w.feature_len}")
    x = relu(bias_add(matmul(w.w_fx, columns(f_k)), w.b_x))
    i = sigmoid(bias_add(matmul(w.w_xi, x) + matmul(w.w_hi, prev.h), w.b_i))
    g = sigmoid(bias_add(matmul(w.w_xg, x) + matmul(w.w_hg, prev.h), w.b_g))
    o = sigmoid(bias_add(matmul(w.w_xo, x) + matmul(w.w_ho, prev.h), w.b_o))
    m = tanh(bias_add(matmul(w.w_xm, x) + matmul(w.w_hm, prev.h), w.b_m))
    c = g * prev.c + i * m
    h = o * tanh(c) if cell_tanh else o * c
    return LstmState(h, c)


def heads(h, w: AttentionWeights, emit_score=True):
    """Score head and transform head on (n, N) hidden-state columns.

    Returns ``(scores, next_params)``: (C, N) class scores and the (4, N)
    transform columns.  ``scores`` is None when ``emit_score`` is false (the
    very first iteration, which has seen no attended region yet).
    """
    z = relu(bias_add(matmul(w.w_hz, h), w.b_z))
    p = bias_add(matmul(w.w_zm, z), w.b_zm)
    if not emit_score:
        return None, p
    return bias_add(matmul(w.w_zs, z), w.b_s), p


@dataclass
class EpisodeTrace:
    """Everything one episode produced, with live graph nodes for training."""

    score_tensors: list         # K tensors of shape (C, N)
    param_tensors: list         # K consumed (4, N) transform tensors, for regions 1..K
    final_params: Tensor        # (4, N) proposed on the last iteration, never consumed
    states: list                # K+1 LstmState

    @property
    def transforms(self):
        """The K+1 consumed transforms of a one-sample episode; index 0 is the identity."""
        return [TransformParams.identity()] + [TransformParams.from_tensor(p) for p in self.param_tensors]

    @property
    def final_transform(self):
        return TransformParams.from_tensor(self.final_params)


def run_episode(f_I, w: AttentionWeights, k_regions, out_size=None, cell_tanh=False):
    """Run K+1 iterations over the (N, D, H, W) feature maps ``f_I`` and record the trace."""
    if k_regions < 1:
        raise ConfigError(f"an episode needs at least one scored region, got k={k_regions}")
    n, dtype = f_I.shape[0], f_I.data.dtype
    state = LstmState.zeros(w.n_hidden, n, dtype=dtype)
    params = identity_params(n, dtype)
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
    """Per-class maximum over the K regional (C, N) score columns."""
    return fuse_max(score_tensors)
