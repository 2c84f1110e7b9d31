import struct

import numpy as np
import pytest

from rmanet import checkpoint
from rmanet.checkpoint import MAGIC, load_tensors, save_tensors
from rmanet.errors import FormatError
from rmanet.model import Model, ModelConfig, load_model, save_model


def sample_tensors():
    rng = np.random.default_rng(0)
    return [
        ("weights/a", rng.standard_normal((3, 4)).astype(np.float32)),
        ("weights/b", rng.standard_normal(7).astype(np.float32)),
        ("scalar", np.array(2.5, dtype=np.float32)),
        ("cube", rng.standard_normal((2, 2, 2)).astype(np.float32)),
    ]


def test_round_trip_bit_exact(tmp_path):
    path = tmp_path / "ckpt.rma"
    named = sample_tensors()
    save_tensors(named, path)
    loaded = load_tensors(path)
    assert list(loaded.keys()) == [n for n, _ in named]
    for name, arr in named:
        assert loaded[name].dtype == np.float32
        assert loaded[name].shape == arr.shape
        assert np.array_equal(loaded[name], arr)


def test_truncated_file_rejected_with_offset(tmp_path):
    path = tmp_path / "ckpt.rma"
    save_tensors(sample_tensors(), path)
    blob = path.read_bytes()
    short = tmp_path / "short.rma"
    short.write_bytes(blob[: len(blob) - 5])
    with pytest.raises(FormatError) as e:
        load_tensors(short)
    assert "offset" in str(e.value)


def test_undecodable_name_rejected_with_offset(tmp_path):
    path = tmp_path / "ckpt.rma"
    save_tensors(sample_tensors(), path)
    blob = bytearray(path.read_bytes())
    blob[14] = 0xFF  # first byte of the first name: after magic, version, count and name length
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as e:
        load_tensors(path)
    assert "offset 14" in str(e.value) and "UTF-8" in str(e.value)


def tiny_checkpoint(path):
    """The bytes of a 1,052-byte model checkpoint saved at ``path``."""
    config = ModelConfig(n_classes=2, channels=(1, 1, 1), n_hidden=1, region=(1, 1), k_regions=1)
    save_model(path, Model.init(config, seed=0))
    return path.read_bytes()


def test_shape_numpy_cannot_build_rejected_with_offset(tmp_path):
    path = tmp_path / "ckpt.rma"
    blob = bytearray(tiny_checkpoint(path))
    blob[12] = 0  # the first name is now empty, so its first letter "m" (109) is read as the rank
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as e:
        load_model(path)
    assert "offset 14" in str(e.value) and "rank-109" in str(e.value)


def test_every_truncation_and_byte_edit_loads_or_raises_format_error(tmp_path):
    blob = tiny_checkpoint(tmp_path / "ckpt.rma")
    assert len(blob) == 1052
    edits = [(f"truncated to {n} bytes", blob[:n]) for n in range(len(blob))]
    edits += [(f"byte {i} set to {v:#04x}", blob[:i] + bytes([v]) + blob[i + 1:])
              for i in range(len(blob)) for v in (0x00, 0xFF, blob[i] ^ 0x80, blob[i] ^ 0x01)]
    path = tmp_path / "edited.rma"
    for what, data in edits:
        path.write_bytes(data)
        try:
            load_model(path)
        except FormatError:
            pass
        except Exception as exc:  # anything else fails, naming the edit
            pytest.fail(f"{what}: {type(exc).__name__}: {exc}")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.rma"
    path.write_bytes(b"NOPE" + struct.pack("<II", 1, 0))
    with pytest.raises(FormatError) as e:
        load_tensors(path)
    assert "magic" in str(e.value)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "bad.rma"
    path.write_bytes(MAGIC + struct.pack("<II", 9, 0))
    with pytest.raises(FormatError) as e:
        load_tensors(path)
    assert "version 9" in str(e.value)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "ckpt.rma"
    save_tensors(sample_tensors(), path)
    padded = tmp_path / "padded.rma"
    padded.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(FormatError) as e:
        load_tensors(padded)
    assert "trailing" in str(e.value)


def test_duplicate_names_rejected(tmp_path):
    path = tmp_path / "dup.rma"
    arr = np.zeros(2, dtype=np.float32)
    save_tensors([("x", arr), ("x", arr)], path)
    with pytest.raises(FormatError) as e:
        load_tensors(path)
    assert "duplicate" in str(e.value)


def test_empty_container_round_trips(tmp_path):
    path = tmp_path / "empty.rma"
    save_tensors([], path)
    assert load_tensors(path) == {}


def test_interrupted_save_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.rma"
    config = ModelConfig(n_classes=3, channels=(4, 8), n_hidden=6, k_regions=2)
    save_model(path, Model.init(config, seed=1))
    before = path.read_bytes()
    pack, calls = struct.pack, []

    def interrupting_pack(*args):
        calls.append(args)
        if len(calls) == 21:  # partway through the tensors
            raise KeyboardInterrupt
        return pack(*args)

    monkeypatch.setattr(checkpoint.struct, "pack", interrupting_pack)
    with pytest.raises(KeyboardInterrupt):
        save_model(path, Model.init(config, seed=2))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.rma"]
    model, _ = load_model(path)
    assert model.config == config
