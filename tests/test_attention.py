import numpy as np
import pytest

from rmanet.attention import (
    _TENSOR_FIELDS,
    AttentionWeights,
    LstmState,
    fuse_scores,
    heads,
    lstm_step,
    run_episode,
)
from rmanet.errors import ConfigError
from rmanet.tensor import Tensor, softmax
from rmanet.transformer import TransformParams

N_HIDDEN, N_CLASSES, FEAT = 3, 2, 8


def zero_weights(**overrides):
    shapes = {
        "w_fx": (N_HIDDEN, FEAT), "b_x": (N_HIDDEN, 1),
        "w_xi": (N_HIDDEN, N_HIDDEN), "w_hi": (N_HIDDEN, N_HIDDEN), "b_i": (N_HIDDEN, 1),
        "w_xg": (N_HIDDEN, N_HIDDEN), "w_hg": (N_HIDDEN, N_HIDDEN), "b_g": (N_HIDDEN, 1),
        "w_xo": (N_HIDDEN, N_HIDDEN), "w_ho": (N_HIDDEN, N_HIDDEN), "b_o": (N_HIDDEN, 1),
        "w_xm": (N_HIDDEN, N_HIDDEN), "w_hm": (N_HIDDEN, N_HIDDEN), "b_m": (N_HIDDEN, 1),
        "w_hz": (N_HIDDEN, N_HIDDEN), "b_z": (N_HIDDEN, 1),
        "w_zs": (N_CLASSES, N_HIDDEN), "b_s": (N_CLASSES, 1),
        "w_zm": (4, N_HIDDEN), "b_zm": (4, 1),
    }
    tensors = {}
    for name, shape in shapes.items():
        data = overrides.get(name, np.zeros(shape))
        tensors[name] = Tensor(np.asarray(data, dtype=np.float32).reshape(shape), requires_grad=True)
    return AttentionWeights(**tensors)


def region_features(value=0.0):
    return Tensor(np.full((1, 2, 2, 2), value, dtype=np.float32))


class TestLstmStep:
    def test_zero_everything_gives_zero_state(self):
        state = lstm_step(region_features(), LstmState.zeros(N_HIDDEN, 1), zero_weights())
        np.testing.assert_allclose(state.c.data, 0.0)
        np.testing.assert_allclose(state.h.data, 0.0)

    def test_pure_decay_with_zero_weights(self):
        # tanh gate output is 0, so the cell just decays through the sigmoid(0) = 0.5 gate
        prev = LstmState(Tensor(np.zeros((N_HIDDEN, 1), dtype=np.float32)),
                         Tensor(np.full((N_HIDDEN, 1), 2.0, dtype=np.float32)))
        state = lstm_step(region_features(), prev, zero_weights())
        np.testing.assert_allclose(state.c.data, 1.0, atol=1e-6)

    def test_saturated_gates(self):
        prev = LstmState(Tensor(np.zeros((N_HIDDEN, 1), dtype=np.float32)),
                         Tensor(np.full((N_HIDDEN, 1), 2.0, dtype=np.float32)))
        # saturate the keep gate high and the input gate low: cell passes through
        w = zero_weights(b_g=np.full((N_HIDDEN, 1), 50.0), b_i=np.full((N_HIDDEN, 1), -50.0))
        state = lstm_step(region_features(), prev, w)
        np.testing.assert_allclose(state.c.data, 2.0, atol=1e-5)

    def test_cell_tanh_variant(self):
        prev = LstmState(Tensor(np.zeros((N_HIDDEN, 1), dtype=np.float32)),
                         Tensor(np.full((N_HIDDEN, 1), 2.0, dtype=np.float32)))
        w = zero_weights(b_g=np.full((N_HIDDEN, 1), 50.0), b_i=np.full((N_HIDDEN, 1), -50.0),
                         b_o=np.full((N_HIDDEN, 1), 50.0))
        plain = lstm_step(region_features(), prev, w, cell_tanh=False)
        squashed = lstm_step(region_features(), prev, w, cell_tanh=True)
        np.testing.assert_allclose(plain.h.data, 2.0, atol=1e-4)
        np.testing.assert_allclose(squashed.h.data, np.tanh(2.0), atol=1e-4)

    def test_feature_size_mismatch(self):
        with pytest.raises(ConfigError):
            lstm_step(Tensor(np.zeros((1, 3, 2, 2), dtype=np.float32)), LstmState.zeros(N_HIDDEN, 1), zero_weights())


class TestHeads:
    def test_bias_only_identity_transform(self):
        w = zero_weights(b_zm=np.array([1.0, 1.0, 0.0, 0.0]).reshape(4, 1))
        s, p = heads(Tensor(np.zeros((N_HIDDEN, 1), dtype=np.float32)), w, emit_score=True)
        assert TransformParams.from_tensor(p) == TransformParams.identity()
        assert s.shape == (N_CLASSES, 1)

    def test_first_iteration_skips_score(self):
        s, p = heads(Tensor(np.zeros((N_HIDDEN, 1), dtype=np.float32)), zero_weights(), emit_score=False)
        assert s is None and p.shape == (4, 1)


class TestEpisode:
    def feature_map(self, seed=0):
        return Tensor(np.random.default_rng(seed).standard_normal((1, 2, 2, 2)).astype(np.float32))

    def random_weights(self, seed=1):
        return AttentionWeights.init(np.random.default_rng(seed), FEAT, N_HIDDEN, N_CLASSES)

    def test_k1_structure(self):
        trace = run_episode(self.feature_map(), self.random_weights(), 1)
        assert len(trace.score_tensors) == 1
        assert len(trace.transforms) == 2
        assert trace.transforms[0] == TransformParams.identity()

    def test_k5_structure(self):
        trace = run_episode(self.feature_map(), self.random_weights(), 5)
        assert len(trace.score_tensors) == 5
        assert len(trace.transforms) == 6
        assert len(trace.states) == 6
        assert trace.final_transform is not None

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_protocol_for_any_k(self, k):
        trace = run_episode(self.feature_map(), self.random_weights(), k)
        assert len(trace.score_tensors) == k
        assert len(trace.transforms) == k + 1
        assert len(trace.param_tensors) == k
        assert trace.transforms[0] == TransformParams.identity()

    def test_zero_head_weights_repeat_whole_image(self):
        w = zero_weights(b_zm=np.array([1.0, 1.0, 0.0, 0.0]).reshape(4, 1),
                         b_s=np.array([0.3, -0.7]).reshape(2, 1))
        trace = run_episode(self.feature_map(), w, 4)
        for p in trace.transforms:
            assert p == TransformParams.identity()
        for s in trace.score_tensors:
            np.testing.assert_allclose(s.data, [[0.3], [-0.7]], atol=1e-6)

    def test_k_zero_rejected(self):
        with pytest.raises(ConfigError):
            run_episode(self.feature_map(), self.random_weights(), 0)

    def test_transforms_are_read_from_the_param_tensors(self):
        trace = run_episode(self.feature_map(), self.random_weights(), 4)
        assert trace.transforms[1:] == [TransformParams.from_tensor(p) for p in trace.param_tensors]
        assert all(p.shape == (4, 1) for p in trace.param_tensors + [trace.final_params])
        assert trace.final_transform == TransformParams.from_tensor(trace.final_params)


class TestBatch:
    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("cell_tanh", [False, True])
    def test_each_sample_matches_its_own_episode(self, n, cell_tanh):
        rng = np.random.default_rng(n)
        w = AttentionWeights.init(rng, FEAT, N_HIDDEN, N_CLASSES)
        w.w_zm.data[...] = rng.normal(0.0, 1.0, w.w_zm.shape)  # regions move, some past the map edge
        maps = rng.standard_normal((n, 2, 3, 3)).astype(np.float32)
        batch = run_episode(Tensor(maps), w, 3, out_size=(2, 2), cell_tanh=cell_tanh)
        fused = fuse_scores(batch.score_tensors).data
        assert fused.shape == (N_CLASSES, n)
        for j in range(n):
            alone = run_episode(Tensor(maps[j:j + 1]), w, 3, out_size=(2, 2), cell_tanh=cell_tanh)
            own = fuse_scores(alone.score_tensors).data
            np.testing.assert_allclose(fused[:, j:j + 1], own, rtol=0, atol=1e-5)
            np.testing.assert_allclose(softmax(Tensor(fused[:, j])).data, softmax(Tensor(own[:, 0])).data,
                                       rtol=0, atol=1e-5)
            for p, q in zip(batch.param_tensors + [batch.final_params], alone.param_tensors + [alone.final_params]):
                np.testing.assert_allclose(p.data[:, j:j + 1], q.data, rtol=0, atol=1e-5)


class TestFuseScores:
    def test_definition(self):
        out = fuse_scores([Tensor(np.array([[0.1], [0.9]], dtype=np.float32)),
                           Tensor(np.array([[0.4], [0.2]], dtype=np.float32))])
        np.testing.assert_allclose(out.data, [[0.4], [0.9]], atol=1e-7)

    def test_single_region_is_identity(self):
        v = np.array([[1.0], [-2.0], [3.0]], dtype=np.float32)
        np.testing.assert_allclose(fuse_scores([Tensor(v)]).data, v)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        vecs = [Tensor(rng.standard_normal((4, 1)).astype(np.float32)) for _ in range(5)]
        base = fuse_scores(vecs).data
        perm = fuse_scores([vecs[i] for i in (3, 0, 4, 1, 2)]).data
        assert np.array_equal(base, perm)

    def test_monotone_per_class(self):
        rng = np.random.default_rng(3)
        vecs = [rng.standard_normal((4, 1)).astype(np.float32) for _ in range(3)]
        base = fuse_scores([Tensor(v) for v in vecs]).data
        bumped = [v.copy() for v in vecs]
        bumped[1][2] += 1.0
        higher = fuse_scores([Tensor(v) for v in bumped]).data
        assert higher[2] >= base[2]
        np.testing.assert_allclose(np.delete(higher, 2), np.delete(base, 2))


def test_weight_shape_validation():
    rng = np.random.default_rng(0)
    w = AttentionWeights.init(rng, FEAT, N_HIDDEN, N_CLASSES)
    bad = {name: getattr(w, name) for name in _TENSOR_FIELDS}
    bad["w_hi"] = Tensor(np.zeros((N_HIDDEN, N_HIDDEN + 1), dtype=np.float32))
    with pytest.raises(ConfigError):
        AttentionWeights(**bad)


@pytest.mark.parametrize("missing", ["w_fx", "b_zm"])
def test_missing_weight_rejected(missing):
    w = AttentionWeights.init(np.random.default_rng(0), FEAT, N_HIDDEN, N_CLASSES)
    tensors = {name: getattr(w, name) for name in _TENSOR_FIELDS if name != missing}
    with pytest.raises(ConfigError, match=missing):
        AttentionWeights(**tensors)
