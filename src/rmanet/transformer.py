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
    """The four warp parameters as plain floats, for traces, overlays and CSV.

    The model itself carries them as a (4,) tensor (sx, sy, tx, ty).
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
            raise ShapeError(f"transform parameters need 4 entries, got shape {t.shape}")
        return cls(float(vals[0]), float(vals[1]), float(vals[2]), float(vals[3]))


def identity_params(dtype=np.float32):
    """The (4,) parameter tensor of the identity warp."""
    return Tensor(np.array(IDENTITY), dtype=dtype)


def build_matrix(params):
    """Place a (4,) tensor (sx, sy, tx, ty) into the 2x3 matrix [[sx, 0, tx], [0, sy, ty]]."""
    if params.shape != (4,):
        raise ShapeError(f"transform parameters must be a (4,) tensor, got shape {params.shape}")
    d = params.data
    m = np.zeros((2, 3), dtype=d.dtype)
    m[0, 0] = d[0]
    m[1, 1] = d[1]
    m[0, 2] = d[2]
    m[1, 2] = d[3]

    def bwd(g):
        _accum(params, np.array([g[0, 0], g[1, 1], g[0, 2], g[1, 2]], dtype=g.dtype))

    return _node(m, (params,), bwd)


def affine_grid(matrix, h_r, w_r):
    """Source coordinates for each output cell of an (h_r, w_r) region.

    Output cell (i, j) has target coordinates spaced evenly over [-1, 1]
    along each axis; the source point is matrix @ (x_t, y_t, 1).  Returned as
    a (2, h_r, w_r) tensor: channel 0 holds x, channel 1 holds y.
    """
    if matrix.shape != (2, 3):
        raise ShapeError(f"affine_grid needs a 2x3 matrix, got shape {matrix.shape}")
    if h_r < 1 or w_r < 1:
        raise ShapeError(f"affine_grid: region size must be positive, got {h_r}x{w_r}")
    dt = matrix.data.dtype
    xt = np.linspace(-1.0, 1.0, w_r, dtype=dt) if w_r > 1 else np.zeros(1, dtype=dt)
    yt = np.linspace(-1.0, 1.0, h_r, dtype=dt) if h_r > 1 else np.zeros(1, dtype=dt)
    gx, gy = np.meshgrid(xt, yt)
    m = matrix.data
    xs = m[0, 0] * gx + m[0, 1] * gy + m[0, 2]
    ys = m[1, 0] * gx + m[1, 1] * gy + m[1, 2]

    def bwd(g):
        gm = np.array(
            [
                [(g[0] * gx).sum(), (g[0] * gy).sum(), g[0].sum()],
                [(g[1] * gx).sum(), (g[1] * gy).sum(), g[1].sum()],
            ],
            dtype=g.dtype,
        )
        _accum(matrix, gm)

    return _node(np.stack([xs, ys]), (matrix,), bwd)


def bilinear_sample(features, grid):
    """Sample a (D, H, W) map at normalized grid points by bilinear blending.

    Normalized x maps to pixel column u = (x + 1) / 2 * (W - 1) and likewise
    for rows; each output value mixes the four neighbors of (u, v).  Missing
    neighbors (outside the map) contribute zero.  Gradients flow to both the
    map and the grid coordinates.
    """
    if features.data.ndim != 3:
        raise ShapeError(f"bilinear_sample needs a (D,H,W) map, got shape {features.shape}")
    if grid.data.ndim != 3 or grid.shape[0] != 2:
        raise ShapeError(f"bilinear_sample needs a (2,h,w) grid, got shape {grid.shape}")
    d, h, w = features.shape
    fd = features.data
    dt = np.result_type(fd, grid.data)

    u = (grid.data[0] + 1.0) * (0.5 * (w - 1))
    v = (grid.data[1] + 1.0) * (0.5 * (h - 1))
    u0 = np.floor(u)
    v0 = np.floor(v)
    du = (u - u0).astype(dt)
    dv = (v - v0).astype(dt)
    with np.errstate(invalid="ignore"):  # non-finite coords still yield NaN via the weights
        u0 = u0.astype(np.intp)
        v0 = v0.astype(np.intp)

    def corner(vi, ui):
        valid = (vi >= 0) & (vi < h) & (ui >= 0) & (ui < w)
        vals = fd[:, np.clip(vi, 0, h - 1), np.clip(ui, 0, w - 1)]
        return vals * valid, valid

    f00, m00 = corner(v0, u0)
    f01, m01 = corner(v0, u0 + 1)
    f10, m10 = corner(v0 + 1, u0)
    f11, m11 = corner(v0 + 1, u0 + 1)
    w00 = (1 - du) * (1 - dv)
    w01 = du * (1 - dv)
    w10 = (1 - du) * dv
    w11 = du * dv
    out = w00 * f00 + w01 * f01 + w10 * f10 + w11 * f11

    def bwd(g):
        if features.requires_grad:
            gf = np.zeros_like(fd)
            ch = np.arange(d)[:, None, None]
            for vi, ui, wt, mask in (
                (v0, u0, w00, m00),
                (v0, u0 + 1, w01, m01),
                (v0 + 1, u0, w10, m10),
                (v0 + 1, u0 + 1, w11, m11),
            ):
                np.add.at(
                    gf,
                    (ch, np.clip(vi, 0, h - 1)[None], np.clip(ui, 0, w - 1)[None]),
                    g * (wt * mask),
                )
            _accum(features, gf)
        if grid.requires_grad:
            dfdu = (1 - dv) * (f01 - f00) + dv * (f11 - f10)
            dfdv = (1 - du) * (f10 - f00) + du * (f11 - f01)
            gu = (g * dfdu).sum(axis=0) * (0.5 * (w - 1))
            gv = (g * dfdv).sum(axis=0) * (0.5 * (h - 1))
            _accum(grid, np.stack([gu, gv]))

    return _node(out, (features, grid), bwd)


def st(features, params, out_size=None):
    """Warp ``features`` by the (4,) tensor ``params``: matrix -> grid -> bilinear sampling."""
    h_r, w_r = features.shape[1:] if out_size is None else out_size
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
