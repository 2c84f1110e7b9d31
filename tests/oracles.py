"""Independent brute-force oracles the tests compare against.

Everything here is deliberately naive (scalar loops, explicit counting) and
shares no code with the implementations it checks.
"""

import numpy as np


def conv2d_loop(x, k, bias, stride=1, padding=0):
    """Scalar-accumulation cross-correlation of one (Cin, H, W) sample, summing in (cin, kh, kw) order, then the bias."""
    cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    xp = np.zeros((cin, hp, wp), dtype=x.dtype)
    xp[:, padding:padding + h, padding:padding + w] = x
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    out = np.zeros((cout, ho, wo), dtype=x.dtype)
    zero = x.dtype.type(0.0)
    for co in range(cout):
        for i in range(ho):
            for j in range(wo):
                acc = zero
                for ci in range(cin):
                    for a in range(kh):
                        for b in range(kw):
                            acc = acc + k[co, ci, a, b] * xp[ci, i * stride + a, j * stride + b]
                out[co, i, j] = acc + bias[co]
    return out


def maxpool2d_loop(x, window, stride):
    c, h, w = x.shape
    wh, ww = (window, window) if isinstance(window, int) else window
    sh, sw = (stride, stride) if isinstance(stride, int) else stride
    ho = (h - wh) // sh + 1
    wo = (w - ww) // sw + 1
    out = np.empty((c, ho, wo), dtype=x.dtype)
    for ch in range(c):
        for i in range(ho):
            for j in range(wo):
                best = x[ch, i * sh, j * sw]
                for a in range(wh):
                    for b in range(ww):
                        v = x[ch, i * sh + a, j * sw + b]
                        if v > best:
                            best = v
                out[ch, i, j] = best
    return out


def bilinear_point(fmap, x_norm, y_norm):
    """Hand bilinear read of one normalized point from a (D, H, W) map."""
    d, h, w = fmap.shape
    u = (x_norm + 1.0) / 2.0 * (w - 1)
    v = (y_norm + 1.0) / 2.0 * (h - 1)
    u0, v0 = int(np.floor(u)), int(np.floor(v))
    du, dv = u - u0, v - v0
    out = np.zeros(d)
    for (vi, ui, wt) in (
        (v0, u0, (1 - du) * (1 - dv)),
        (v0, u0 + 1, du * (1 - dv)),
        (v0 + 1, u0, (1 - du) * dv),
        (v0 + 1, u0 + 1, du * dv),
    ):
        if 0 <= vi < h and 0 <= ui < w:
            out += wt * fmap[:, vi, ui]
    return out


def st_loop(fmap, sx, sy, tx, ty, h_r, w_r):
    """Hand spatial transform: per-cell grid coords then bilinear reads."""
    d = fmap.shape[0]
    out = np.zeros((d, h_r, w_r))
    for i in range(h_r):
        for j in range(w_r):
            x_t = -1.0 + 2.0 * j / (w_r - 1) if w_r > 1 else 0.0
            y_t = -1.0 + 2.0 * i / (h_r - 1) if h_r > 1 else 0.0
            out[:, i, j] = bilinear_point(fmap, sx * x_t + tx, sy * y_t + ty)
    return out


def metrics_count(pairs, n_classes):
    """Naive per-image, per-class counting of the six aggregate metrics."""
    nc = [0] * n_classes
    np_ = [0] * n_classes
    ng = [0] * n_classes
    for pred, actual in pairs:
        for c in range(n_classes):
            if c in pred:
                np_[c] += 1
                if c in actual:
                    nc[c] += 1
            if c in actual:
                ng[c] += 1

    def div(a, b):
        return a / b if b else 0.0

    op = div(sum(nc), sum(np_))
    orec = div(sum(nc), sum(ng))
    of1 = div(2 * op * orec, op + orec)
    cp = sum(div(nc[c], np_[c]) for c in range(n_classes)) / n_classes
    cr = sum(div(nc[c], ng[c]) for c in range(n_classes)) / n_classes
    cf1 = div(2 * cp * cr, cp + cr)
    return op, orec, of1, cp, cr, cf1


def ap_rank(scores, positives):
    """Rank-walk AP: precision at each positive's rank, averaged."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    acc = 0.0
    n_pos = sum(bool(p) for p in positives)
    for rank, idx in enumerate(order, start=1):
        if positives[idx]:
            hits += 1
            acc += hits / rank
    return acc / n_pos


def random_baseline_map(gt_matrix, n_draws=100, seed=0):
    """Expected mAP of a random scorer given only which images are positive."""
    gt = np.asarray(gt_matrix, dtype=bool)
    rng = np.random.default_rng(seed)
    n, c = gt.shape
    vals = []
    for _ in range(n_draws):
        scores = rng.uniform(size=(n, c))
        aps = [ap_rank(scores[:, j], gt[:, j]) for j in range(c) if gt[:, j].any()]
        vals.append(np.mean(aps))
    return float(np.mean(vals))


def adam_single_step(param, grad, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """One hand-stepped Adam update from fresh (zero) moment state."""
    m = (1 - beta1) * grad
    v = (1 - beta2) * grad * grad
    m_hat = m / (1 - beta1)
    v_hat = v / (1 - beta2)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps)
