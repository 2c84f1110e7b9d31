import numpy as np
import pytest

from rmanet.data import SyntheticSample
from rmanet.errors import DataError, FormatError, NonFiniteLossError
from rmanet.model import ModelConfig, load_model, save_model
from rmanet.train import TrainConfig, format_log, train

TINY = dict(epochs=2, batch_size=8, k_regions=2, n_hidden=8, channels=(4, 8, 8), seed=3)


def test_zero_learning_rate_freezes_parameters(tiny_dataset):
    model, _, _ = train(tiny_dataset["train"], TrainConfig(lr=0.0, **TINY))
    fresh, _, _ = train(tiny_dataset["train"], TrainConfig(lr=0.0, epochs=1, batch_size=8,
                                                           k_regions=2, n_hidden=8, channels=(4, 8, 8), seed=3))
    for (name_a, a), (name_b, b) in zip(model.parameters(), fresh.parameters()):
        assert name_a == name_b
        assert np.array_equal(a.data, b.data)


def test_same_seed_reproduces_losses_and_parameters(tiny_dataset):
    run1 = train(tiny_dataset["train"], TrainConfig(**TINY))
    run2 = train(tiny_dataset["train"], TrainConfig(**TINY))
    assert format_log(run1[1]) == format_log(run2[1])
    for (_, a), (_, b) in zip(run1[0].parameters(), run2[0].parameters()):
        assert np.array_equal(a.data, b.data)


def test_different_seed_changes_trajectory(tiny_dataset):
    run1 = train(tiny_dataset["train"], TrainConfig(**TINY))
    cfg2 = dict(TINY)
    cfg2["seed"] = 4
    run2 = train(tiny_dataset["train"], TrainConfig(**cfg2))
    assert format_log(run1[1]) != format_log(run2[1])


def test_checkpoint_written_and_loadable(tiny_dataset, tmp_path):
    out = tmp_path / "run"
    model, stats, adam = train(tiny_dataset["train"], TrainConfig(**TINY), out_dir=str(out))
    assert (out / "log.csv").read_text().startswith("epoch,total_loss,cls_loss,loc_loss\n")
    loaded, adam_state = load_model(str(out / "checkpoint.rma"))
    assert loaded.config.k_regions == 2
    assert loaded.config.channels == (4, 8, 8)
    for (_, a), (_, b) in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(a.data, b.data)
    assert adam_state is not None and "adam/step" in adam_state


def test_checkpoint_round_trip_bit_exact(tiny_dataset, tmp_path):
    model, _, adam = train(tiny_dataset["train"], TrainConfig(**TINY))
    p1 = tmp_path / "a.rma"
    p2 = tmp_path / "b.rma"
    save_model(str(p1), model, adam)
    reloaded, _ = load_model(str(p1))
    save_model(str(p2), reloaded)
    again, _ = load_model(str(p2))
    for (_, a), (_, b) in zip(reloaded.parameters(), again.parameters()):
        assert np.array_equal(a.data, b.data)


def test_missing_model_tensor_rejected(tiny_dataset, tmp_path):
    from rmanet.checkpoint import load_tensors, save_tensors

    model, _, _ = train(tiny_dataset["train"], TrainConfig(epochs=1, batch_size=8, k_regions=2,
                                                           n_hidden=8, channels=(4, 8, 8), seed=3))
    path = tmp_path / "c.rma"
    save_model(str(path), model)
    arrays = load_tensors(str(path))
    arrays.pop("attn/w_fx")
    save_tensors(list(arrays.items()), str(path))
    with pytest.raises(FormatError):
        load_model(str(path))


def test_learning_rate_decays_after_configured_epoch(tiny_dataset):
    cfg = dict(TINY)
    cfg.update(epochs=2, lr=1e-3)
    _, _, adam = train(tiny_dataset["train"][:8], TrainConfig(lr_decay_epoch=1, **cfg))
    assert adam.lr == pytest.approx(1e-4)
    _, _, adam = train(tiny_dataset["train"][:8], TrainConfig(lr_decay_epoch=30, **cfg))
    assert adam.lr == pytest.approx(1e-3)


def test_empty_dataset_rejected():
    with pytest.raises(DataError):
        train([], TrainConfig(**TINY))


def test_unlabeled_sample_rejected(tiny_dataset):
    bad = list(tiny_dataset["train"][:4])
    broken = SyntheticSample(image=bad[0].image, labels=np.zeros_like(bad[0].labels), name="broken")
    with pytest.raises(DataError) as e:
        train(bad + [broken], TrainConfig(**TINY))
    assert "4" in str(e.value)


def test_non_finite_loss_aborts_with_batch(tiny_dataset):
    poisoned = list(tiny_dataset["train"][:8])
    img = poisoned[2].image.copy()
    img[0, 0, 0] = np.nan
    poisoned[2] = SyntheticSample(image=img, labels=poisoned[2].labels, name=poisoned[2].name)
    with pytest.raises(NonFiniteLossError) as e:
        train(poisoned, TrainConfig(**TINY))
    assert 2 in e.value.batch_indices


def test_architecture_defaults_come_from_model_config():
    names = ("channels", "n_hidden", "region", "k_regions", "cell_tanh")
    model, trainer = ModelConfig(n_classes=2), TrainConfig()
    assert [getattr(trainer, n) for n in names] == [getattr(model, n) for n in names]
