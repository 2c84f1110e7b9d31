import struct

import numpy as np
import pytest

from rmanet.checkpoint import MAGIC, load_tensors, save_tensors
from rmanet.errors import FormatError


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
