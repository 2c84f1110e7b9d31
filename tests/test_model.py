import importlib

import numpy as np
import pytest

import rmanet
from rmanet.checkpoint import load_tensors, save_tensors
from rmanet.errors import FormatError
from rmanet.model import Model, ModelConfig, load_model, param_shapes, save_model


@pytest.fixture
def checkpoint(tmp_path):
    model = Model.init(ModelConfig(n_classes=3, channels=(4, 8, 8), n_hidden=8, k_regions=2), seed=2)
    path = tmp_path / "model.rma"
    save_model(str(path), model)
    return model, path


def _set(key, value):
    def edit(arrays):
        arrays[key] = np.asarray(value, dtype=np.float32)
    return edit


def _poke(key, value):
    def edit(arrays):
        arrays[key].reshape(-1)[0] = value
    return edit


MALFORMED = {
    "missing meta/k": lambda arrays: arrays.pop("meta/k"),
    "empty meta/classes": _set("meta/classes", []),
    "one-entry meta/region": _set("meta/region", [4]),
    "rank-2 meta/hidden": _set("meta/hidden", [[8]]),
    "NaN meta/k": _set("meta/k", [np.nan]),
    "infinite meta/channels": _set("meta/channels", [4, np.inf, 8]),
    "negative channel": _set("meta/channels", [4, -8, 8]),
    "zero meta/hidden": _set("meta/hidden", [0]),
    "fractional meta/hidden": _set("meta/hidden", [8.5]),
    "one class": _set("meta/classes", [1]),
    "negative meta/cell_tanh": _set("meta/cell_tanh", [-1]),
    "huge meta/hidden": _set("meta/hidden", [1e9]),
    "huge meta/k": _set("meta/k", [1e6]),
    "NaN weight": _poke("attn/w_fx", np.nan),
    "infinite bias": _poke("backbone/conv0/bias", np.inf),
    "missing weight": lambda arrays: arrays.pop("attn/w_hz"),
    "wrong weight shape": _set("attn/b_s", np.zeros((4, 1))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_checkpoint_raises_format_error(checkpoint, case):
    _, path = checkpoint
    arrays = load_tensors(str(path))
    MALFORMED[case](arrays)
    save_tensors(list(arrays.items()), str(path))
    with pytest.raises(FormatError):
        load_model(str(path))


def test_load_builds_weights_from_the_arrays_without_a_random_init(checkpoint, monkeypatch):
    model, path = checkpoint

    def no_init(*args, **kwargs):
        raise AssertionError("load_model must not draw a random init")

    monkeypatch.setattr(Model, "init", no_init)
    loaded, adam_state = load_model(str(path))
    assert adam_state is None
    assert [name for name, _ in loaded.parameters()] == [name for name, _ in param_shapes(loaded.config)]
    for (_, a), (_, b) in zip(model.parameters(), loaded.parameters()):
        assert b.requires_grad and b.data.dtype == np.float32
        assert np.array_equal(a.data, b.data)


def test_parameters_follow_the_shape_table():
    model = Model.init(ModelConfig(n_classes=3, channels=(4, 8), n_hidden=5, region=(2, 3), k_regions=2))
    assert [(name, t.shape) for name, t in model.parameters()] == param_shapes(model.config)


def test_package_attribute_train_is_the_module():
    assert importlib.import_module("rmanet.train") is rmanet.train
    assert rmanet.train.TrainConfig is rmanet.TrainConfig
