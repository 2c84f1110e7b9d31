"""Recurrent attention episode: LSTM scoring over transformer-sampled regions.

One episode runs K+1 iterations over a batch of N feature maps, one sample
per map.  Iteration 0 samples with the identity transform and only proposes
the next transform; iterations 1..K each sample with the previously proposed
transform, emit class scores, and propose the next transform.  The transform
proposed on the last iteration is computed but never consumed.

Everything per sample is a column: region features (F, N), LSTM state
(n, N), class scores (C, N) and transform parameters (4, N), so every weight
product is one matmul for the whole batch.  The trace stacks the K scored
regions on one more axis: (K, C, N) scores and (K, 4, N) consumed transforms.
The weights ``w`` map the ``weight_shapes`` names to tensors; the hidden size
and the region feature length are read from ``w["w_fx"]``.
"""

from dataclasses import dataclass

import numpy as np

from .backbone import xavier_uniform
from .errors import ConfigError
from .tensor import Tensor, bias_add, columns, matmul, relu, sigmoid, stack, take, tanh
from .transformer import IDENTITY, TransformParams, identity_params, st

# Every attention weight in checkpoint order, with its shape over the region
# feature length F, the hidden size n and the class count C.  ``w_fx``/``b_x``
# embed the region features; ``w_x*``/``w_h*``/``b_*`` drive the input,
# forget-style, output and input-modulation gates; ``w_hz``/``b_z`` form the
# head trunk, ``w_zs``/``b_s`` score the classes and ``w_zm``/``b_zm`` propose
# the next transform (sx, sy, tx, ty).  Biases are (rows, 1) columns.
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


def weight_shapes(feature_len, n_hidden, n_classes):
    """Ordered (name, shape) list of the attention weights, in checkpoint order."""
    dims = {"F": feature_len, "n": n_hidden, "C": n_classes}
    return [(name, tuple(dims.get(d, d) for d in shape)) for name, shape in _SHAPES]


def init_weights(rng, feature_len, n_hidden, n_classes):
    """Xavier-uniform matrices and zero biases, keyed by the ``weight_shapes`` names and drawn in that order.

    The transform head starts at zero weight and identity bias, so the
    first proposals cover the whole image instead of sampling noise.
    """
    weights = {}
    for name, shape in weight_shapes(feature_len, n_hidden, n_classes):
        if name.startswith("w_") and name != "w_zm":
            weights[name] = xavier_uniform(rng, shape, shape[1], shape[0])
        else:
            data = np.reshape(IDENTITY, shape) if name == "b_zm" else np.zeros(shape)
            weights[name] = Tensor(data, requires_grad=True, dtype=np.float32)
    return weights


@dataclass
class LstmState:
    h: Tensor
    c: Tensor

    @classmethod
    def zeros(cls, n_hidden, n, dtype=np.float32):
        """The initial state of n samples: (n_hidden, n) zero columns."""
        return cls(Tensor(np.zeros((n_hidden, n)), dtype=dtype), Tensor(np.zeros((n_hidden, n)), dtype=dtype))


def lstm_step(f_k, prev: LstmState, w, cell_tanh=False):
    """One recurrence step on sampled region features (N, D, h, w).

    Each sample's region map is flattened row-major into a column, embedded
    through relu, and run through the four sigmoid/tanh gates.  By default
    the new hidden state is ``o * c`` (no squashing of the cell);
    ``cell_tanh=True`` switches to the common ``o * tanh(c)`` variant.
    """
    per_sample, feature_len = f_k.data[0].size, w["w_fx"].shape[1]
    if per_sample != feature_len:
        raise ConfigError(f"region features have {per_sample} values per sample, weights expect {feature_len}")
    x = relu(bias_add(matmul(w["w_fx"], columns(f_k)), w["b_x"]))
    i = sigmoid(bias_add(matmul(w["w_xi"], x) + matmul(w["w_hi"], prev.h), w["b_i"]))
    g = sigmoid(bias_add(matmul(w["w_xg"], x) + matmul(w["w_hg"], prev.h), w["b_g"]))
    o = sigmoid(bias_add(matmul(w["w_xo"], x) + matmul(w["w_ho"], prev.h), w["b_o"]))
    m = tanh(bias_add(matmul(w["w_xm"], x) + matmul(w["w_hm"], prev.h), w["b_m"]))
    c = g * prev.c + i * m
    h = o * tanh(c) if cell_tanh else o * c
    return LstmState(h, c)


def heads(h, w, emit_score=True):
    """Score head and transform head on (n, N) hidden-state columns.

    Returns ``(scores, next_params)``: (C, N) class scores and the (4, N)
    transform columns.  ``scores`` is None when ``emit_score`` is false (the
    very first iteration, which has seen no attended region yet).
    """
    z = relu(bias_add(matmul(w["w_hz"], h), w["b_z"]))
    p = bias_add(matmul(w["w_zm"], z), w["b_zm"])
    if not emit_score:
        return None, p
    return bias_add(matmul(w["w_zs"], z), w["b_s"]), p


@dataclass
class EpisodeTrace:
    """Everything one episode produced, with live graph nodes for training."""

    scores: Tensor              # (K, C, N) class scores of regions 1..K
    params: Tensor              # (K, 4, N) consumed transforms of regions 1..K
    final_params: Tensor        # (4, N) proposed on the last iteration, never consumed
    states: list                # K+1 LstmState

    @property
    def transforms(self):
        """The K+1 consumed transforms of a one-sample episode; index 0 is the identity."""
        return [TransformParams.identity()] + [TransformParams.from_tensor(Tensor(p)) for p in self.params.data]

    @property
    def final_transform(self):
        return TransformParams.from_tensor(self.final_params)


def run_episode(f_I, w, k_regions, out_size=None, cell_tanh=False):
    """Run K+1 iterations over the (N, D, H, W) feature maps ``f_I`` and record the trace."""
    if k_regions < 1:
        raise ConfigError(f"an episode needs at least one scored region, got k={k_regions}")
    n, dtype = f_I.shape[0], f_I.data.dtype
    state = LstmState.zeros(w["w_fx"].shape[0], n, dtype=dtype)
    params = [identity_params(n, dtype)]  # every proposal; the last one is never consumed
    scores, states = [], []  # scores[0] is None: iteration 0 scores nothing
    for k in range(k_regions + 1):
        if k == k_regions:
            # Region K samples through its row of the stack, so its transform gradient adds the
            # sampling term before the constraint terms, the float order of one tensor per region.
            consumed = stack(params[1:])
            params[-1] = take(consumed, np.arange(consumed.size).reshape(consumed.shape)[-1])
        state = lstm_step(st(f_I, params[-1], out_size), state, w, cell_tanh=cell_tanh)
        states.append(state)
        s, p = heads(state.h, w, emit_score=(k != 0))
        scores.append(s)
        params.append(p)
    return EpisodeTrace(stack(scores[1:]), consumed, params[-1], states)
