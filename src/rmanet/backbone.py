"""Small trainable convolutional encoder producing the whole-image feature map.

One block of (3x3 conv, relu, 2x2 max-pool) per configured channel count
(three by default, downsampling the input by 8).  The weights map the
``weight_shapes`` names to tensors: Xavier-uniform kernels and zero biases.
"""

import numpy as np

from .errors import ConfigError
from .tensor import Tensor, conv2d, maxpool2d, relu

IN_CHANNELS = 3  # RGB input
KERNEL_SIZE = 3


def xavier_uniform(rng, shape, fan_in, fan_out, dtype=np.float32):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True, dtype=dtype)


def weight_shapes(channels):
    """Ordered (name, shape) list of the conv kernels and biases, in checkpoint order."""
    shapes = []
    for i, (cin, cout) in enumerate(zip((IN_CHANNELS,) + tuple(channels[:-1]), channels)):
        shapes.append((f"conv{i}/kernel", (cout, cin, KERNEL_SIZE, KERNEL_SIZE)))
        shapes.append((f"conv{i}/bias", (cout,)))
    return shapes


def init_weights(rng, channels):
    """Xavier-uniform kernels and zero biases, keyed by the ``weight_shapes`` names and drawn in that order."""
    weights = {}
    for name, shape in weight_shapes(channels):
        if name.endswith("kernel"):
            cout, cin, kh, kw = shape
            weights[name] = xavier_uniform(rng, shape, cin * kh * kw, cout * kh * kw)
        else:
            weights[name] = Tensor(np.zeros(shape), requires_grad=True, dtype=np.float32)
    return weights


def encode(images, weights):
    """Run the conv blocks over an (N, 3, H, W) batch of images; each sample's map is bit-equal to encoding it alone."""
    if images.data.ndim != 4 or images.shape[1] != IN_CHANNELS:
        raise ConfigError(f"encode expects (N, {IN_CHANNELS}, H, W) input, got shape {images.shape}")
    _, _, h, w = images.shape
    blocks = len(weights) // 2  # a kernel and a bias per block
    factor = 2 ** blocks
    if h < 16 or w < 16 or h % factor or w % factor:
        raise ConfigError(
            f"encode: input {h}x{w} unsupported; valid sizes are multiples of {factor} "
            f"with both sides >= 16"
        )
    pad = KERNEL_SIZE // 2
    x = images
    for i in range(blocks):
        x = maxpool2d(relu(conv2d(x, weights[f"conv{i}/kernel"], weights[f"conv{i}/bias"], padding=pad)), 2)
    return x
