"""Independent float64 reference for the rmanet benchmark's correctness checks.

Written from the README's model summary and file formats, with plain numpy
and no import from the ``rmanet`` package, so a fault in the program cannot
hide in a shared helper.  Parameters are a dict from checkpoint tensor name
(``backbone/conv0/kernel``, ``attn/w_xi``, ...) to float64 arrays.

The formulations differ on purpose from the program's: convolution is a
tensordot over sliding windows, bilinear sampling is a separable tent-kernel
product (which is zero padding by construction), label ranking uses Python
sorts, and gradients are finite differences of the whole loss.
"""

import math
import os
import struct

import numpy as np

# Documented defaults: README "Model summary" and the trainer's loss weights.
LOSS_WEIGHTS = {
    "scale_threshold": 0.5,
    "positive_threshold": 0.1,
    "anchor_weight": 0.2,
    "positive_weight": 0.1,
    "loc_weight": 0.1,
}
TOP_K = 3
THRESHOLD = 0.5
FD_EPS = 1e-6  # finite-difference step: small against the weights, large against float64 rounding


# file formats -----------------------------------------------------------------

def read_checkpoint(path):
    """Parse an ``RMA1`` checkpoint into {name: float64 array}."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"RMA1":
        raise ValueError(f"{path}: not an RMA1 checkpoint")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != 1:
        raise ValueError(f"{path}: unknown version {version}")
    off = 12
    out = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", blob, off)
        name = blob[off + 2:off + 2 + nlen].decode("utf-8")
        off += 2 + nlen
        rank = blob[off]
        dims = struct.unpack_from(f"<{rank}I", blob, off + 1)
        off += 1 + 4 * rank
        n = int(np.prod(dims, dtype=np.int64))
        out[name] = np.frombuffer(blob, dtype="<f4", count=n, offset=off).reshape(dims).astype(np.float64)
        off += 4 * n
    if off != len(blob):
        raise ValueError(f"{path}: {len(blob) - off} trailing bytes")
    return out


def read_manifest(root, n_classes):
    """(N, C) bool label matrix from ``<root>/manifest.csv`` lines ``file,0;2``."""
    rows = []
    with open(os.path.join(root, "manifest.csv"), encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                row = np.zeros(n_classes, dtype=bool)
                row[[int(tok) for tok in line.split(",")[1].split(";")]] = True
                rows.append(row)
    return np.array(rows)


# forward pass -------------------------------------------------------------------

def relu(x):
    return np.maximum(x, 0.0)


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def conv_same(x, kernel, bias):
    """Zero-padded stride-1 cross-correlation of a (C, H, W) map."""
    kh, kw = kernel.shape[2:]
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))  # (C, H, W, kh, kw)
    return np.tensordot(kernel, windows, axes=([1, 2, 3], [0, 3, 4])) + bias[:, None, None]


def maxpool2(x):
    c, h, w = x.shape
    return x.reshape(c, h // 2, 2, w // 2, 2).max(axis=(2, 4))


def backbone(params, image):
    """Blocks of (3x3 conv, relu, 2x2 max-pool) over a (3, H, W) image."""
    x = np.asarray(image, dtype=np.float64)
    i = 0
    while f"backbone/conv{i}/kernel" in params:
        x = maxpool2(relu(conv_same(x, params[f"backbone/conv{i}/kernel"], params[f"backbone/conv{i}/bias"])))
        i += 1
    return x


def _tent(coords, size):
    """Rows of bilinear weights max(0, 1 - |coord - pixel|) over ``size`` pixels."""
    return np.maximum(0.0, 1.0 - np.abs(coords[:, None] - np.arange(size)[None, :]))


def sample_region(fmap, p, out_hw):
    """Warp by [[sx, 0, tx], [0, sy, ty]] on an align-corners [-1, 1] grid."""
    sx, sy, tx, ty = p
    _, h, w = fmap.shape
    hr, wr = out_hw
    xt = np.linspace(-1.0, 1.0, wr) if wr > 1 else np.zeros(1)
    yt = np.linspace(-1.0, 1.0, hr) if hr > 1 else np.zeros(1)
    u = (sx * xt + tx + 1.0) * 0.5 * (w - 1)
    v = (sy * yt + ty + 1.0) * 0.5 * (h - 1)
    return _tent(v, h) @ fmap @ _tent(u, w).T


def episode(params, fmap, k_regions, region):
    """K+1 LSTM iterations; returns (K, C) scores and the K consumed (K, 4) transforms."""
    n = params["attn/w_hi"].shape[0]
    h = np.zeros((n, 1))
    c = np.zeros((n, 1))
    p = np.array([1.0, 1.0, 0.0, 0.0])
    scores, consumed = [], []

    def gate(name, x, h):
        return params[f"attn/w_x{name}"] @ x + params[f"attn/w_h{name}"] @ h + params[f"attn/b_{name}"]

    for it in range(k_regions + 1):
        f = sample_region(fmap, p, region).reshape(-1, 1)
        x = relu(params["attn/w_fx"] @ f + params["attn/b_x"])
        i, g, o = sigmoid(gate("i", x, h)), sigmoid(gate("g", x, h)), sigmoid(gate("o", x, h))
        m = np.tanh(gate("m", x, h))
        c = g * c + i * m
        h = o * c
        z = relu(params["attn/w_hz"] @ h + params["attn/b_z"])
        proposal = (params["attn/w_zm"] @ z + params["attn/b_zm"]).ravel()
        if it > 0:
            scores.append((params["attn/w_zs"] @ z + params["attn/b_s"]).ravel())
        if it < k_regions:
            consumed.append(proposal)
            p = proposal
    return np.array(scores), np.array(consumed)


def fused_scores(params, image, k_regions, region):
    """Per-class maximum over the K regional scores of one single-view episode."""
    scores, _ = episode(params, backbone(params, image), k_regions, region)
    return scores.max(axis=0)


def ten_view(params, image, k_regions, region):
    """(mean fused scores, mean softmax) over ten views of the feature map.

    The views are the centre and four corner crops of size (H-1, W-1) taken on
    the encoded map, each also mirrored left-right; every view runs its own
    episode.
    """
    fmap = backbone(params, image)
    _, fh, fw = fmap.shape
    ch, cw = fh - 1, fw - 1
    offsets = [((fh - ch) // 2, (fw - cw) // 2), (0, 0), (0, fw - cw), (fh - ch, 0), (fh - ch, fw - cw)]
    fused, probs = [], []
    for oy, ox in offsets:
        crop = fmap[:, oy:oy + ch, ox:ox + cw]
        for view in (crop, crop[:, :, ::-1]):
            s = episode(params, view, k_regions, region)[0].max(axis=0)
            fused.append(s)
            probs.append(softmax(s))
    return np.mean(fused, axis=0), np.mean(probs, axis=0)


# training objective ---------------------------------------------------------------

def anchors(k_regions):
    """K-1 points on the radius sqrt(2)/2 circle, starting at 45 degrees."""
    n = k_regions - 1
    r = math.sqrt(2.0) / 2.0
    return np.array([(r * math.cos(math.pi / 4 + 2 * math.pi * j / n),
                      r * math.sin(math.pi / 4 + 2 * math.pi * j / n)) for j in range(n)])


def total_loss(params, image, labels, k_regions, region):
    """Squared error of softmax(fused) to the normalized labels plus the region constraints."""
    scores, props = episode(params, backbone(params, image), k_regions, region)
    y = np.asarray(labels, dtype=np.float64)
    cls = ((softmax(scores.max(axis=0)) - y / y.sum()) ** 2).sum()
    s, t = props[:, :2], props[:, 2:]
    w = LOSS_WEIGHTS
    scale = (relu(np.abs(s) - w["scale_threshold"]) ** 2).sum()
    anchor = 0.5 * ((t[1:] - anchors(k_regions)) ** 2).sum() if k_regions >= 2 else 0.0
    positive = relu(w["positive_threshold"] - s).sum()
    loc = scale + w["anchor_weight"] * anchor + w["positive_weight"] * positive
    return cls + w["loc_weight"] * loc


def finite_difference(fn, params, name, index, base):
    """(left, central, right) differences of ``fn(params)``, which is ``base``, in one entry of ``params[name]``."""
    flat = params[name].reshape(-1)
    saved = flat[index]
    flat[index] = saved + FD_EPS
    hi = fn(params)
    flat[index] = saved - FD_EPS
    lo = fn(params)
    flat[index] = saved
    return (base - lo) / FD_EPS, (hi - lo) / (2.0 * FD_EPS), (hi - base) / FD_EPS


# metrics ---------------------------------------------------------------------------

def assign(probs):
    ranked = sorted(range(len(probs)), key=lambda c: (-probs[c], c))[:TOP_K]
    return {c for c in ranked if probs[c] >= THRESHOLD}


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def rank_walk_ap(scores, positives):
    """Mean precision at each positive, walking images by descending score (ties: lower index)."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, total = 0, 0.0
    for rank, i in enumerate(order, start=1):
        if positives[i]:
            hits += 1
            total += hits / rank
    return total / hits


def recount(probs, scores, truth):
    """OP, OR, OF1, CP, CR, CF1, per-class AP (None without positives) and mAP."""
    n, n_classes = truth.shape
    tp = [0] * n_classes
    npred = [0] * n_classes
    ngt = [0] * n_classes
    for i in range(n):
        predicted = assign(probs[i])
        for c in range(n_classes):
            npred[c] += c in predicted
            ngt[c] += bool(truth[i, c])
            tp[c] += c in predicted and bool(truth[i, c])
    op = _ratio(sum(tp), sum(npred))
    orec = _ratio(sum(tp), sum(ngt))
    cp = sum(_ratio(tp[c], npred[c]) for c in range(n_classes)) / n_classes
    cr = sum(_ratio(tp[c], ngt[c]) for c in range(n_classes)) / n_classes
    ap = [rank_walk_ap(scores[:, c], truth[:, c]) if ngt[c] else None for c in range(n_classes)]
    valid = [a for a in ap if a is not None]
    return {
        "op": op, "or": orec, "of1": _ratio(2 * op * orec, op + orec),
        "cp": cp, "cr": cr, "cf1": _ratio(2 * cp * cr, cp + cr),
        "ap": ap, "map": sum(valid) / len(valid),
    }
