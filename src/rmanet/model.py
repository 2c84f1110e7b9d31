"""Full model: conv encoder plus the recurrent attention module.

The weights are one ordered map from checkpoint name to tensor, laid out by
``param_shapes``; init, the forward pass, ``constants()``, Adam and the
checkpoint all read it.  Also owns packing/unpacking the model (and optionally
Adam state) into the named-tensor checkpoint container; the architecture
descriptor rides along as ``meta/*`` tensors so a checkpoint is self-describing.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import attention, backbone
from .checkpoint import load_tensors, save_tensors
from .errors import ConfigError, FormatError
from .evaluation import score_images
from .optim import Adam
from .tensor import Tensor

MAX_REGIONS = 64  # cap on K: an episode runs K + 1 LSTM steps per image, so a corrupt K would stall eval


@dataclass
class ModelConfig:
    n_classes: int
    channels: tuple = (16, 32, 32)
    n_hidden: int = 64
    region: tuple = (4, 4)
    k_regions: int = 5
    cell_tanh: bool = False

    def __post_init__(self):
        self.channels = tuple(int(c) for c in self.channels)
        self.region = tuple(int(r) for r in self.region)
        if self.n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.n_classes}")
        if not 1 <= self.k_regions <= MAX_REGIONS:
            raise ConfigError(f"need 1 to {MAX_REGIONS} regions, got k={self.k_regions}")

    @property
    def feature_len(self):
        return self.channels[-1] * self.region[0] * self.region[1]


class Model:
    """Conv encoder plus attention module, with one forward path over a leading sample axis.

    ``encode`` maps (N, 3, H, W) images to (N, D, h, w) feature maps and
    ``attend`` runs one episode over them; ``episode`` is the two in a row.
    Training runs them on the trainable weights at N = 1; inference runs them
    on ``constants()``, which records no graph.
    Each module reads its own entries of ``params`` through a view sharing the tensors.
    """

    def __init__(self, config: ModelConfig, params):
        expected = param_shapes(config)
        found = [(name, t.shape) for name, t in params.items()]
        if found != expected:
            want, got = next((e, f) for e, f in itertools.zip_longest(expected, found) if e != f)
            raise ConfigError(f"model parameters do not match the config: expected {want}, got {got}")
        self.config = config
        self.params = dict(params)
        self.backbone = _view(self.params, "backbone/")
        self.attn = _view(self.params, "attn/")

    @classmethod
    def init(cls, config: ModelConfig, seed=0):
        rng = np.random.default_rng([seed, 0])
        modules = {"backbone/": backbone.init_weights(rng, config.channels),
                   "attn/": attention.init_weights(rng, config.feature_len, config.n_hidden, config.n_classes)}
        return cls(config, {prefix + name: t for prefix, w in modules.items() for name, t in w.items()})

    def parameters(self):
        return list(self.params.items())

    def constants(self):
        """The same model on constant copies of its weights, for inference."""
        return Model(self.config, {name: Tensor(t.data) for name, t in self.params.items()})

    def encode(self, images):
        """Feature maps of an (N, 3, H, W) image batch."""
        return backbone.encode(images if isinstance(images, Tensor) else Tensor(images), self.backbone)

    def attend(self, fmaps):
        """One episode of the configured K regions over (N, D, H, W) feature maps."""
        return attention.run_episode(fmaps, self.attn, self.config.k_regions,
                                     out_size=self.config.region, cell_tanh=self.config.cell_tanh)

    def episode(self, images):
        """The episode of an (N, 3, H, W) image batch; on trainable weights it records the graph from pixels to losses."""
        return self.attend(self.encode(images))

    def predict(self, image):
        """Fused per-class scores and softmax probabilities of one (3, H, W) image's whole map, as plain arrays."""
        probs, scores = score_images(self, [image])[0]
        return scores, probs


def _meta_arrays(config: ModelConfig):
    return [
        ("meta/channels", np.array(config.channels, dtype=np.float32)),
        ("meta/hidden", np.array([config.n_hidden], dtype=np.float32)),
        ("meta/classes", np.array([config.n_classes], dtype=np.float32)),
        ("meta/region", np.array(config.region, dtype=np.float32)),
        ("meta/k", np.array([config.k_regions], dtype=np.float32)),
        ("meta/cell_tanh", np.array([1.0 if config.cell_tanh else 0.0], dtype=np.float32)),
    ]


def param_shapes(config: ModelConfig):
    """Ordered (checkpoint name, shape) list of every model parameter."""
    attn = attention.weight_shapes(config.feature_len, config.n_hidden, config.n_classes)
    return ([(f"backbone/{n}", s) for n, s in backbone.weight_shapes(config.channels)]
            + [(f"attn/{n}", s) for n, s in attn])


def _view(params, prefix):
    """The entries of ``params`` under ``prefix``, keyed without it; the tensors are shared."""
    return {name.removeprefix(prefix): t for name, t in params.items() if name.startswith(prefix)}


def save_model(path, model: Model, adam: Adam = None):
    named = _meta_arrays(model.config)
    named += [(name, t.data) for name, t in model.parameters()]
    if adam is not None:
        named += adam.state_arrays()
    save_tensors(named, path)


def _meta_ints(arrays, key, length=None, low=1):
    """A ``meta/*`` entry as a tuple of integers >= ``low``; ``length`` None means one or more."""
    if key not in arrays:
        raise FormatError(f"checkpoint missing {key}")
    arr = arrays[key]
    if arr.ndim != 1 or arr.size == 0 or (length is not None and arr.size != length):
        raise FormatError(f"checkpoint {key} has shape {arr.shape}, expected ({length or 'n >= 1'},)")
    if not (np.isfinite(arr).all() and (arr == np.round(arr)).all() and (arr >= low).all()):
        raise FormatError(f"checkpoint {key} = {arr.tolist()} is not a vector of integers >= {low}")
    return tuple(int(v) for v in arr)


def load_model(path):
    """Rebuild (model, optimizer-state arrays or None) from a checkpoint."""
    arrays = load_tensors(path)
    try:
        config = ModelConfig(
            n_classes=_meta_ints(arrays, "meta/classes", 1)[0],
            channels=_meta_ints(arrays, "meta/channels"),
            n_hidden=_meta_ints(arrays, "meta/hidden", 1)[0],
            region=_meta_ints(arrays, "meta/region", 2),
            k_regions=_meta_ints(arrays, "meta/k", 1)[0],
            cell_tanh=bool(_meta_ints(arrays, "meta/cell_tanh", 1, low=0)[0]),
        )
    except ConfigError as exc:
        raise FormatError(f"checkpoint metadata: {exc}") from exc
    shapes = param_shapes(config)
    for name, shape in shapes:  # every check comes before any tensor is built
        if name not in arrays:
            raise FormatError(f"checkpoint missing tensor {name!r}")
        if arrays[name].shape != shape:
            raise FormatError(f"checkpoint tensor {name!r} has shape {arrays[name].shape}, expected {shape}")
        if not np.isfinite(arrays[name]).all():
            raise FormatError(f"checkpoint tensor {name!r} has non-finite values")
    params = {name: Tensor(arrays[name], requires_grad=True) for name, _ in shapes}
    adam_state = {k: v for k, v in arrays.items() if k.startswith("adam/")} or None
    return Model(config, params), adam_state
