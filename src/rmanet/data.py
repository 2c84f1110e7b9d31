"""Seeded generator and loader for a synthetic multi-label shapes dataset.

Each image is a noisy background with 1-4 brightly colored shapes of distinct
classes; the label vector marks which shape classes appear.  Images are
written as binary PPM (P6), labels as a CSV manifest, and per-shape pixel
boxes go to a separate diagnostics file that training code never reads.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

SHAPE_NAMES = ("circle", "square", "triangle", "cross", "diamond", "ring", "hbar", "vbar")
N_CLASSES = 4     # generator defaults: classes drawn from, and image side in pixels
IMAGE_SIZE = 32
SIZE_DIVISOR = 8  # image sides divide by the default backbone's three 2x2 pools


def valid_n_classes(n_classes):
    return 2 <= n_classes <= len(SHAPE_NAMES)


def valid_image_size(image_size):
    return image_size >= 16 and image_size % SIZE_DIVISOR == 0


@dataclass
class SyntheticSample:
    image: np.ndarray   # (3, H, W) float32 in [0, 1]
    labels: np.ndarray  # (C,) uint8
    name: str


def _shape_mask(kind, size, cx, cy, r):
    yy, xx = np.ogrid[0:size, 0:size]
    dx = xx - cx
    dy = yy - cy
    if kind == "circle":
        return dx * dx + dy * dy <= r * r
    if kind == "square":
        return (np.abs(dx) <= r) & (np.abs(dy) <= r)
    if kind == "triangle":
        return (dy >= -r) & (dy <= r) & (np.abs(dx) <= (dy + r) * 0.5)
    if kind == "cross":
        arm = 0.34 * r
        return ((np.abs(dx) <= arm) & (np.abs(dy) <= r)) | ((np.abs(dy) <= arm) & (np.abs(dx) <= r))
    if kind == "diamond":
        return np.abs(dx) + np.abs(dy) <= r
    if kind == "ring":
        d2 = dx * dx + dy * dy
        return (d2 <= r * r) & (d2 >= (0.55 * r) ** 2)
    if kind == "hbar":
        return (np.abs(dy) <= 0.4 * r) & (np.abs(dx) <= r)
    if kind == "vbar":
        return (np.abs(dx) <= 0.4 * r) & (np.abs(dy) <= r)
    raise ConfigError(f"unknown shape kind {kind!r}")


def _overlap_ratio(a, b):
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    amin = min((a[2] - a[0]) * (a[3] - a[1]), (b[2] - b[0]) * (b[3] - b[1]))
    return inter / amin if amin > 0 else 0.0


def _draw_sample(rng, size, n_classes):
    # skewed toward fewer shapes: keeps per-class prevalence near 0.5 and
    # crowding low, so the localization task stays learnable at 32x32
    count = int(rng.choice((1, 2, 3, 4), p=(0.4, 0.3, 0.2, 0.1)))
    count = min(count, n_classes)
    classes = rng.choice(n_classes, size=count, replace=False)
    canvas = rng.uniform(0.0, 0.1, size=(3, size, size)).astype(np.float32)
    boxes = []
    for cls in classes:
        placed = None
        for _ in range(60):
            r = rng.uniform(4.0, 7.0) * size / 32.0
            cx = rng.uniform(r, size - 1 - r)
            cy = rng.uniform(r, size - 1 - r)
            box = (cx - r, cy - r, cx + r, cy + r)
            if all(_overlap_ratio(box, b[1]) <= 0.2 for b in boxes):
                placed = (r, cx, cy, box)
                break
            placed = (r, cx, cy, box)  # keep the last try if nothing fits
        r, cx, cy, box = placed
        while True:
            color = rng.uniform(0.2, 1.0, size=3)
            if color.max() >= 0.6:
                break
        mask = _shape_mask(SHAPE_NAMES[cls], size, cx, cy, r)
        canvas[:, mask] = color[:, None].astype(np.float32)
        x0 = int(max(0, np.floor(box[0])))
        y0 = int(max(0, np.floor(box[1])))
        x1 = int(min(size, np.ceil(box[2])))
        y1 = int(min(size, np.ceil(box[3])))
        boxes.append((int(cls), (x0, y0, x1, y1)))
    labels = np.zeros(n_classes, dtype=np.uint8)
    labels[classes] = 1
    return canvas, labels, boxes


def write_ppm(path, pixels):
    """Write (H, W, 3) uint8 pixels as binary P6."""
    h, w, _ = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def read_ppm(path):
    """Read a binary P6 file into (H, W, 3) uint8 pixels."""
    with open(path, "rb") as fh:
        blob = fh.read()

    pos = 0

    def token():
        nonlocal pos
        while pos < len(blob):
            if blob[pos:pos + 1].isspace():
                pos += 1
            elif blob[pos:pos + 1] == b"#":
                while pos < len(blob) and blob[pos] != 0x0A:
                    pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"{path}: truncated PPM header")
        return blob[start:pos]

    if token() != b"P6":
        raise DataError(f"{path}: not a binary P6 file")
    try:
        w, h, maxval = int(token()), int(token()), int(token())
    except ValueError as exc:
        raise DataError(f"{path}: malformed PPM header") from exc
    if w < 1 or h < 1:
        raise DataError(f"{path}: PPM size {w}x{h} has no pixels")
    if maxval != 255:
        raise DataError(f"{path}: unsupported max value {maxval}")
    pos += 1  # single whitespace after the header
    raw = blob[pos:pos + 3 * w * h]
    if len(raw) != 3 * w * h:
        raise DataError(f"{path}: expected {3 * w * h} pixel bytes, found {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3).copy()


def _write_samples(root, start_index, drawn):
    os.makedirs(os.path.join(root, "images"), exist_ok=True)
    manifest_rows = []
    box_rows = []
    for i, (canvas, labels, boxes) in enumerate(drawn, start=start_index):
        name = f"images/img_{i:05d}.ppm"
        pixels = np.clip(np.round(canvas * 255.0), 0, 255).astype(np.uint8).transpose(1, 2, 0)
        write_ppm(os.path.join(root, name), pixels)
        present = ";".join(str(c) for c in np.flatnonzero(labels))
        manifest_rows.append(f"{name},{present}")
        for cls, (x0, y0, x1, y1) in boxes:
            box_rows.append(f"{name},{cls},{x0},{y0},{x1},{y1}")
    with open(os.path.join(root, "manifest.csv"), "w", encoding="ascii") as fh:
        fh.write("\n".join(manifest_rows) + "\n")
    with open(os.path.join(root, "boxes.csv"), "w", encoding="ascii") as fh:
        fh.write("\n".join(box_rows) + "\n")


def _summary(drawn, n_classes):
    marg = np.zeros(n_classes)
    for _, labels, _ in drawn:
        marg += labels
    return {
        "n": len(drawn),
        "n_classes": n_classes,
        "marginals": (marg / max(len(drawn), 1)).tolist(),
    }


def _validate_gen_args(n_samples, image_size, n_classes):
    if not valid_n_classes(n_classes):
        raise ConfigError(f"n_classes must be in [2, {len(SHAPE_NAMES)}], got {n_classes}")
    if n_samples < 1:
        raise ConfigError(f"n_samples must be positive, got {n_samples}")
    if not valid_image_size(image_size):
        raise ConfigError(f"image_size must be a multiple of {SIZE_DIVISOR} and >= 16, got {image_size}")


def generate(seed, n_samples, out_dir, image_size=IMAGE_SIZE, n_classes=N_CLASSES):
    """Write one dataset root; every byte is a pure function of the seed."""
    _validate_gen_args(n_samples, image_size, n_classes)
    rng = np.random.default_rng(seed)
    drawn = [_draw_sample(rng, image_size, n_classes) for _ in range(n_samples)]
    _write_samples(out_dir, 0, drawn)
    return _summary(drawn, n_classes)


def generate_split(seed, n_train, n_test, out_dir, image_size=IMAGE_SIZE, n_classes=N_CLASSES):
    """Write train/ and test/ roots drawn from one seeded stream."""
    _validate_gen_args(n_train, image_size, n_classes)
    if n_test < 1:
        raise ConfigError(f"n_test must be positive, got {n_test}")
    rng = np.random.default_rng(seed)
    train = [_draw_sample(rng, image_size, n_classes) for _ in range(n_train)]
    test = [_draw_sample(rng, image_size, n_classes) for _ in range(n_test)]
    _write_samples(os.path.join(out_dir, "train"), 0, train)
    _write_samples(os.path.join(out_dir, "test"), n_train, test)
    return _summary(train, n_classes), _summary(test, n_classes)


def load(root, n_classes=None):
    """Load a dataset root into samples with [0, 1] float images."""
    manifest = os.path.join(root, "manifest.csv")
    if not os.path.exists(manifest):
        raise DataError(f"manifest not found: {manifest}")
    with open(manifest, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh]

    rows = []
    max_label = -1
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"{manifest} line {lineno}: expected 'file,labels', got {line!r}")
        name, label_field = parts
        if not label_field.strip():
            raise DataError(f"{manifest} line {lineno}: empty label list")
        try:
            labels = [int(tok) for tok in label_field.split(";")]
        except ValueError as exc:
            raise DataError(f"{manifest} line {lineno}: bad label field {label_field!r}") from exc
        if any(l < 0 for l in labels):
            raise DataError(f"{manifest} line {lineno}: negative label index")
        if n_classes is not None and any(l >= n_classes for l in labels):
            raise DataError(f"{manifest} line {lineno}: label index >= {n_classes}")
        max_label = max(max_label, max(labels))
        rows.append((lineno, name, labels))

    if not rows:
        raise DataError(f"{manifest}: no samples")
    c = n_classes if n_classes is not None else max_label + 1
    samples = []
    for lineno, name, labels in rows:
        path = os.path.join(root, name)
        if not os.path.exists(path):
            raise DataError(f"{manifest} line {lineno}: missing image file {name}")
        pixels = read_ppm(path)
        image = (pixels.astype(np.float32) / 255.0).transpose(2, 0, 1)
        vec = np.zeros(c, dtype=np.uint8)
        vec[labels] = 1
        samples.append(SyntheticSample(image=image, labels=vec, name=name))
    return samples


def load_boxes(root):
    """Diagnostics only: per-image ground-truth (class, box) lists."""
    path = os.path.join(root, "boxes.csv")
    if not os.path.exists(path):
        raise DataError(f"boxes file not found: {path}")
    out = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 6:
                raise DataError(f"{path} line {lineno}: expected 6 fields")
            name, cls, x0, y0, x1, y1 = parts
            out.setdefault(name, []).append((int(cls), (int(x0), int(y0), int(x1), int(y1))))
    return out
