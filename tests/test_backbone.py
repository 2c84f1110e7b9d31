import numpy as np
import pytest

from rmanet.backbone import BackboneWeights, encode
from rmanet.errors import ConfigError
from rmanet.tensor import Tensor, grad_check


def make_weights(channels=(4, 4, 4), seed=0):
    return BackboneWeights.init(np.random.default_rng(seed), channels=channels)


def test_output_shape_from_architecture():
    w = make_weights(channels=(16, 32, 32))
    out = encode(Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)), w)
    assert out.shape == (1, 32, 4, 4)


def test_zero_image_zero_bias_gives_zero_features():
    w = make_weights()
    out = encode(Tensor(np.zeros((1, 3, 16, 16), dtype=np.float32)), w)
    np.testing.assert_allclose(out.data, 0.0)


def test_indivisible_size_rejected_with_valid_sizes():
    w = make_weights()
    with pytest.raises(ConfigError) as e:
        encode(Tensor(np.zeros((1, 3, 20, 20), dtype=np.float32)), w)
    assert "multiples of 8" in str(e.value)
    with pytest.raises(ConfigError):
        encode(Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32)), w)  # below minimum


def test_deterministic_given_image_and_weights():
    w = make_weights()
    img = np.random.default_rng(1).uniform(size=(1, 3, 16, 16)).astype(np.float32)
    a = encode(Tensor(img), w).data
    b = encode(Tensor(img), w).data
    assert np.array_equal(a, b)


def test_end_to_end_gradient_vs_finite_differences():
    bb = make_weights(seed=2)
    image = np.random.default_rng(3).standard_normal((1, 3, 16, 16)) * 0.5

    def fn(*leaves):
        w = BackboneWeights(list(leaves[0:6:2]), list(leaves[1:6:2]), channels=(4, 4, 4))
        return encode(leaves[6], w)

    inputs = [t.data for _, t in bb.named()] + [image]
    assert grad_check(fn, inputs) <= 1e-4


def test_descriptor_validation():
    rng = np.random.default_rng(0)
    good = BackboneWeights.init(rng, channels=(4, 8))
    with pytest.raises(ConfigError):
        BackboneWeights(good.kernels, good.biases, channels=(4, 4))
