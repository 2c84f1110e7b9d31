"""Scale-and-translate spatial transformer with bilinear sampling.

Coordinates are normalized to [-1, 1] with align-corners semantics: -1 and +1
land on the centers of the first and last pixels (a size-1 axis maps to
coordinate 0), so the identity transform reproduces its input exactly.
Samples outside the map read as zero, and the transform matrix is restricted
to scaling plus translation; no rotation or shear can ever enter it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, _accum, _node

IDENTITY = (1.0, 1.0, 0.0, 0.0)  # (sx, sy, tx, ty) of the warp that reproduces its input


@dataclass(frozen=True)
class TransformParams:
    """The four warp parameters of one sample as plain floats, for traces, overlays and CSV.

    The model itself carries them as (4, N) tensor columns (sx, sy, tx, ty).
    """

    sx: float
    sy: float
    tx: float
    ty: float

    @classmethod
    def identity(cls):
        return cls(*IDENTITY)

    @classmethod
    def from_tensor(cls, t):
        vals = t.data.reshape(-1)
        if vals.size != 4:
            raise ShapeError(f"transform parameters of one sample need 4 entries, got shape {t.shape}")
        return cls(float(vals[0]), float(vals[1]), float(vals[2]), float(vals[3]))


def identity_params(n, dtype=np.float32):
    """The (4, n) parameter columns of the identity warp for n samples."""
    return Tensor(np.repeat(np.reshape(IDENTITY, (4, 1)), n, axis=1), dtype=dtype)


def build_matrix(params):
    """Place each (sx, sy, tx, ty) column of a (4, N) tensor into a matrix [[sx, 0, tx], [0, sy, ty]].

    Returns the N matrices as an (N, 2, 3) tensor.
    """
    if params.data.ndim != 2 or params.shape[0] != 4:
        raise ShapeError(f"transform parameters must be a (4, N) tensor, got shape {params.shape}")
    d = params.data
    m = np.zeros((d.shape[1], 2, 3), dtype=d.dtype)
    m[:, 0, 0] = d[0]
    m[:, 1, 1] = d[1]
    m[:, 0, 2] = d[2]
    m[:, 1, 2] = d[3]

    def bwd(g):
        _accum(params, np.stack([g[:, 0, 0], g[:, 1, 1], g[:, 0, 2], g[:, 1, 2]]))

    return _node(m, (params,), bwd)


def affine_grid(matrix, h_r, w_r):
    """Source coordinates for each output cell of an (h_r, w_r) region, one grid per sample.

    Output cell (i, j) has target coordinates spaced evenly over [-1, 1]
    along each axis; sample n's source point is matrix[n] @ (x_t, y_t, 1).
    Returned as an (N, 2, h_r, w_r) tensor: channel 0 holds x, channel 1 holds y.
    """
    if matrix.data.ndim != 3 or matrix.shape[1:] != (2, 3):
        raise ShapeError(f"affine_grid needs (N, 2, 3) matrices, got shape {matrix.shape}")
    if h_r < 1 or w_r < 1:
        raise ShapeError(f"affine_grid: region size must be positive, got {h_r}x{w_r}")
    dt = matrix.data.dtype
    xt = np.linspace(-1.0, 1.0, w_r, dtype=dt) if w_r > 1 else np.zeros(1, dtype=dt)
    yt = np.linspace(-1.0, 1.0, h_r, dtype=dt) if h_r > 1 else np.zeros(1, dtype=dt)
    gx, gy = np.meshgrid(xt, yt)
    m = matrix.data[..., None, None]  # (N, 2, 3, 1, 1): each entry spreads over the grid
    grid = m[:, :, 0] * gx + m[:, :, 1] * gy + m[:, :, 2]

    def bwd(g):
        cells = (2, 3)
        _accum(matrix, np.stack([(g * gx).sum(axis=cells), (g * gy).sum(axis=cells), g.sum(axis=cells)], axis=2))

    return _node(grid, (matrix,), bwd)


def bilinear_sample(features, grid):
    """Sample each (D, H, W) map of an (N, D, H, W) batch at its own normalized grid by bilinear blending.

    Normalized x maps to pixel column u = (x + 1) / 2 * (W - 1) and likewise
    for rows; each output value mixes the four neighbors of (u, v).  Missing
    neighbors (outside the map) contribute zero.  ``grid`` is (N, 2, h, w)
    and the result (N, D, h, w).  Gradients flow to both the maps and the
    grid coordinates.
    """
    if features.data.ndim != 4:
        raise ShapeError(f"bilinear_sample needs (N, D, H, W) maps, got shape {features.shape}")
    if grid.data.ndim != 4 or grid.shape[1] != 2:
        raise ShapeError(f"bilinear_sample needs (N, 2, h, w) grids, got shape {grid.shape}")
    if grid.shape[0] != features.shape[0]:
        raise ShapeError(f"bilinear_sample: {features.shape[0]} maps but {grid.shape[0]} grids")
    n, d, h, w = features.shape
    dt = np.result_type(features.data, grid.data)

    u = (grid.data[:, 0] + 1.0) * (0.5 * (w - 1))
    v = (grid.data[:, 1] + 1.0) * (0.5 * (h - 1))
    u0 = np.floor(u)
    v0 = np.floor(v)
    du = (u - u0).astype(dt)[:, None]
    dv = (v - v0).astype(dt)[:, None]
    with np.errstate(invalid="ignore"):  # non-finite coords still yield NaN via the weights
        u0 = u0.astype(np.intp)
        v0 = v0.astype(np.intp)

    # Each map gets a one-pixel zero border and becomes a table of pixel rows
    # with D channels each.  A neighbor outside the map is clipped onto the
    # border, so it reads zero and its gradient is dropped.
    hp, wp = h + 2, w + 2
    table = np.zeros((n, hp, wp, d), dtype=features.data.dtype)
    table[:, 1:-1, 1:-1] = features.data.transpose(0, 2, 3, 1)
    table = table.reshape(-1, d)
    rows = [np.clip(v0 + dy, -1, h) + 1 for dy in (0, 1)]
    cols = [np.clip(u0 + dx, -1, w) + 1 for dx in (0, 1)]
    # table rows of the corners (v0, u0), (v0, u0+1), (v0+1, u0) and (v0+1, u0+1), sample by sample
    at = np.stack([r * wp + c for r in rows for c in cols], axis=1)
    at = (at + (np.arange(n) * (hp * wp)).reshape(n, 1, 1, 1)).reshape(-1)
    corners = table[at].reshape(n, -1, d).transpose(0, 2, 1).reshape((n, d, 4) + u.shape[1:])
    f00, f01, f10, f11 = np.moveaxis(corners, 2, 0)
    w00 = (1 - du) * (1 - dv)
    w01 = du * (1 - dv)
    w10 = (1 - du) * dv
    w11 = du * dv
    out = w00 * f00 + w01 * f01 + w10 * f10 + w11 * f11

    def bwd(g):
        if features.requires_grad:
            # per map position, contributions add up in corner order, then cell order
            spread = g[:, :, None] * np.stack([w00, w01, w10, w11], axis=2)
            gt = np.zeros_like(table)
            np.add.at(gt.reshape(-1), (at[:, None] * d + np.arange(d)).reshape(-1),
                      spread.reshape(n, d, -1).transpose(0, 2, 1).reshape(-1))
            _accum(features, np.ascontiguousarray(gt.reshape(n, hp, wp, d)[:, 1:-1, 1:-1].transpose(0, 3, 1, 2)))
        if grid.requires_grad:
            dfdu = (1 - dv) * (f01 - f00) + dv * (f11 - f10)
            dfdv = (1 - du) * (f10 - f00) + du * (f11 - f01)
            gu = (g * dfdu).sum(axis=1) * (0.5 * (w - 1))
            gv = (g * dfdv).sum(axis=1) * (0.5 * (h - 1))
            _accum(grid, np.stack([gu, gv], axis=1))

    return _node(out, (features, grid), bwd)


def st(features, params, out_size=None):
    """Warp each map of ``features`` (N, D, H, W) by its column of the (4, N) ``params``.

    Matrix -> grid -> bilinear sampling; the output is (N, D) + ``out_size``,
    by default the maps' own (H, W).
    """
    h_r, w_r = features.shape[2:] if out_size is None else out_size
    return bilinear_sample(features, affine_grid(build_matrix(params), h_r, w_r))


def region_box(params: TransformParams, img_w, img_h):
    """Pixel rectangle (x0, y0, x1, y1) covered by a transform, clipped to the image."""
    cx = (params.tx + 1.0) / 2.0 * img_w
    cy = (params.ty + 1.0) / 2.0 * img_h
    hw = abs(params.sx) * img_w / 2.0
    hh = abs(params.sy) * img_h / 2.0
    x0 = min(max(cx - hw, 0.0), float(img_w))
    x1 = min(max(cx + hw, 0.0), float(img_w))
    y0 = min(max(cy - hh, 0.0), float(img_h))
    y1 = min(max(cy + hh, 0.0), float(img_h))
    return (x0, y0, x1, y1)
