import hashlib
import os

import numpy as np
import pytest

from rmanet.data import generate, generate_split, load, load_boxes, read_ppm, write_ppm
from rmanet.errors import ConfigError, DataError


def dir_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for fn in sorted(filenames):
            with open(os.path.join(dirpath, fn), "rb") as fh:
                h.update(fn.encode())
                h.update(fh.read())
    return h.hexdigest()


def test_same_seed_gives_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate(11, 20, str(a), image_size=32, n_classes=4)
    generate(11, 20, str(b), image_size=32, n_classes=4)
    assert dir_digest(a) == dir_digest(b)
    c = tmp_path / "c"
    generate(12, 20, str(c), image_size=32, n_classes=4)
    assert dir_digest(a) != dir_digest(c)


def test_every_sample_has_a_label(tmp_path):
    generate(3, 100, str(tmp_path / "d"), image_size=32, n_classes=3)
    samples = load(str(tmp_path / "d"))
    assert len(samples) == 100
    assert all(int(s.labels.sum()) >= 1 for s in samples)


def test_label_marginals_in_range(tmp_path):
    generate(5, 500, str(tmp_path / "d"), image_size=32, n_classes=4)
    samples = load(str(tmp_path / "d"))
    marg = np.mean([s.labels for s in samples], axis=0)
    assert np.all(marg >= 0.15) and np.all(marg <= 0.85)


def test_generate_load_round_trip(tmp_path):
    root = tmp_path / "d"
    generate(9, 10, str(root), image_size=32, n_classes=4)
    samples = load(str(root), n_classes=4)
    for s in samples:
        assert s.image.shape == (3, 32, 32)
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0
    # regenerating in memory and comparing against the files is covered by
    # determinism; here just check quantization bounds on a re-read
    pixels = read_ppm(os.path.join(str(root), samples[0].name))
    np.testing.assert_allclose(
        pixels.astype(np.float32) / 255.0, samples[0].image.transpose(1, 2, 0), atol=1 / 255
    )


def test_boxes_consistent_with_labels(tmp_path):
    root = tmp_path / "d"
    generate(2, 50, str(root), image_size=32, n_classes=4)
    samples = load(str(root), n_classes=4)
    boxes = load_boxes(str(root))
    for s in samples:
        classes_with_boxes = {cls for cls, _ in boxes[s.name]}
        assert classes_with_boxes == set(np.flatnonzero(s.labels))
        for _, (x0, y0, x1, y1) in boxes[s.name]:
            assert 0 <= x0 < x1 <= 32 and 0 <= y0 < y1 <= 32
        assert 1 <= len(boxes[s.name]) <= 4


def test_split_comes_from_one_stream(tmp_path):
    root = tmp_path / "split"
    train_sum, test_sum = generate_split(4, 12, 6, str(root), image_size=32, n_classes=4)
    assert train_sum["n"] == 12 and test_sum["n"] == 6
    train = load(str(root / "train"))
    test = load(str(root / "test"))
    assert len(train) == 12 and len(test) == 6
    # the test split continues the stream, so it differs from a fresh seed-4 draw
    solo = tmp_path / "solo"
    generate(4, 6, str(solo), image_size=32, n_classes=4)
    assert dir_digest(solo) != dir_digest(root / "test")


def test_manifest_validation(tmp_path):
    root = tmp_path / "d"
    generate(1, 3, str(root), image_size=32, n_classes=3)
    manifest = root / "manifest.csv"
    lines = manifest.read_text().splitlines()

    manifest.write_text(lines[0].split(",")[0] + ",\n")
    with pytest.raises(DataError) as e:
        load(str(root))
    assert "line 1" in str(e.value)

    manifest.write_text(lines[0].split(",")[0] + ",7\n")
    with pytest.raises(DataError):
        load(str(root), n_classes=3)

    manifest.write_text("images/absent.ppm,0\n")
    with pytest.raises(DataError) as e:
        load(str(root))
    assert "missing image" in str(e.value)


def test_shuffled_manifest_same_multiset(tmp_path):
    root = tmp_path / "d"
    generate(6, 8, str(root), image_size=32, n_classes=3)
    manifest = root / "manifest.csv"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(reversed(lines)) + "\n")
    names = {s.name for s in load(str(root))}
    assert names == {f"images/img_{i:05d}.ppm" for i in range(8)}


def test_generator_validation():
    with pytest.raises(ConfigError):
        generate(1, 10, "/tmp/never", image_size=32, n_classes=1)
    with pytest.raises(ConfigError):
        generate(1, 10, "/tmp/never", image_size=30, n_classes=4)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    write_ppm(str(path), pixels)
    assert np.array_equal(read_ppm(str(path)), pixels)


def test_ppm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n2 2\n255\n....")
    with pytest.raises(DataError):
        read_ppm(str(path))


@pytest.mark.parametrize("header", [b"P6 -4 -4 255\n", b"P6 0 0 255\n"], ids=["negative", "zero"])
def test_ppm_rejects_size_below_one(tmp_path, header):
    path = tmp_path / "empty.ppm"
    path.write_bytes(header + bytes(48))
    with pytest.raises(DataError, match="no pixels"):
        read_ppm(str(path))
