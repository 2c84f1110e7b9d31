"""Small trainable convolutional encoder producing the whole-image feature map.

Three blocks of (3x3 conv, relu, 2x2 max-pool) downsample the input by 8 and
widen it to the configured channel count.  Weights start from Xavier-uniform
draws; biases start at zero.
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


class BackboneWeights:
    """Per-layer conv kernels and biases plus the channel descriptor."""

    def __init__(self, kernels, biases, channels):
        if len(kernels) != len(channels) or len(biases) != len(channels):
            raise ConfigError("backbone layer lists do not match the channel descriptor")
        self.kernels = list(kernels)
        self.biases = list(biases)
        self.channels = tuple(channels)
        for (name, shape), (_, t) in zip(weight_shapes(channels), self.named()):
            if t.shape != shape:
                raise ConfigError(f"backbone {name} has shape {t.shape}, expected {shape}")

    @classmethod
    def init(cls, rng, channels):
        tensors = []
        for name, shape in weight_shapes(channels):
            if name.endswith("kernel"):
                cout, cin, kh, kw = shape
                tensors.append(xavier_uniform(rng, shape, cin * kh * kw, cout * kh * kw))
            else:
                tensors.append(Tensor(np.zeros(shape), requires_grad=True, dtype=np.float32))
        return cls(tensors[0::2], tensors[1::2], channels)

    @property
    def downsampling(self):
        return 2 ** len(self.channels)

    @property
    def out_channels(self):
        return self.channels[-1]

    def constants(self):
        """The same weights as constant tensors sharing their arrays: an encode on them records no graph."""
        return BackboneWeights([Tensor(k.data) for k in self.kernels], [Tensor(b.data) for b in self.biases],
                               self.channels)

    def named(self):
        tensors = [t for pair in zip(self.kernels, self.biases) for t in pair]
        return [(f"backbone/{name}", t) for (name, _), t in zip(weight_shapes(self.channels), tensors)]


def encode(images, weights: BackboneWeights):
    """Run the conv blocks over an (N, 3, H, W) batch of images; each sample's map is bit-equal to encoding it alone."""
    if images.data.ndim != 4 or images.shape[1] != IN_CHANNELS:
        raise ConfigError(f"encode expects (N, {IN_CHANNELS}, H, W) input, got shape {images.shape}")
    _, _, h, w = images.shape
    factor = weights.downsampling
    if h < 16 or w < 16 or h % factor or w % factor:
        raise ConfigError(
            f"encode: input {h}x{w} unsupported; valid sizes are multiples of {factor} "
            f"with both sides >= 16"
        )
    pad = KERNEL_SIZE // 2
    x = images
    for k, b in zip(weights.kernels, weights.biases):
        x = maxpool2d(relu(conv2d(x, k, b, padding=pad)), 2)
    return x
