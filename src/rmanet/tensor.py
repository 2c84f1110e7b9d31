"""Dense float tensors with reverse-mode automatic differentiation.

Operations record a computation graph as they run.  ``Tensor.backward`` walks
the graph once in reverse topological order, accumulates vector-Jacobian
products into the ``.grad`` of every input created with
``requires_grad=True``, then frees the graph.  Model state is float32 end to
end; ``grad_check`` re-runs a computation in float64 so the comparison
against central finite differences is not polluted by single-precision
roundoff.
"""

import numpy as np

from .errors import ProtocolError, ShapeError

_SCALARS = (int, float, np.integer, np.floating)


class Tensor:
    """Row-major dense float array plus autodiff bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is None:
            dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.float32
        arr = np.asarray(arr, dtype=dtype)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # keeps rank-0 arrays rank-0
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def backward(self, cotangent=None):
        """Propagate ``cotangent`` (default: ones, scalar outputs only) to inputs."""
        if cotangent is None:
            if self.data.size != 1:
                raise ShapeError(
                    f"backward() without a cotangent needs a single-element tensor, got {self.shape}"
                )
            cot = np.ones_like(self.data)
        else:
            cot = np.asarray(cotangent, dtype=self.data.dtype)
            if cot.shape != self.data.shape:
                raise ShapeError(f"cotangent shape {cot.shape} != output shape {self.data.shape}")

        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, emitted = stack.pop()
            if emitted:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = cot.copy() if self.grad is None else self.grad + cot
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            # free the graph so a forward pass never outlives its backward
            node._parents = ()
            node._backward = None

    # operators -------------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def reshape(self, shape):
        return reshape(self, shape)

    def sum(self):
        return sum_all(self)

    def abs(self):
        return absolute(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def _node(data, parents, backward):
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    grads_needed = tuple(p for p in parents if p.requires_grad)
    out.requires_grad = bool(grads_needed)
    out._parents = grads_needed
    out._backward = backward if grads_needed else None
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    if g.dtype != t.data.dtype:
        g = g.astype(t.data.dtype)
    if t.grad is None:
        t.grad = np.array(g, copy=True)
    else:
        t.grad += g


def _check_same_shape(a, b, opname):
    if a.shape != b.shape:
        raise ShapeError(f"{opname}: operand shapes differ: {a.shape} vs {b.shape}")


# elementwise ----------------------------------------------------------------

def add(a, b):
    if isinstance(a, _SCALARS):
        a, b = b, a
    if isinstance(b, _SCALARS):
        c = float(b)

        def bwd(g):
            _accum(a, g)

        return _node(a.data + c, (a,), bwd)
    _check_same_shape(a, b, "add")

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return _node(a.data + b.data, (a, b), bwd)


def sub(a, b):
    if isinstance(a, _SCALARS):
        c = float(a)
        t = b

        def bwd(g):
            _accum(t, -g)

        return _node(c - t.data, (t,), bwd)
    if isinstance(b, _SCALARS):
        c = float(b)

        def bwd(g):
            _accum(a, g)

        return _node(a.data - c, (a,), bwd)
    _check_same_shape(a, b, "sub")

    def bwd(g):
        _accum(a, g)
        _accum(b, -g)

    return _node(a.data - b.data, (a, b), bwd)


def mul(a, b):
    if isinstance(a, _SCALARS):
        a, b = b, a
    if isinstance(b, _SCALARS):
        c = float(b)

        def bwd(g):
            _accum(a, g * c)

        return _node(a.data * c, (a,), bwd)
    _check_same_shape(a, b, "mul")

    def bwd(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _node(a.data * b.data, (a, b), bwd)


def relu(x):
    mask = x.data > 0

    def bwd(g):
        _accum(x, g * mask)

    return _node(np.maximum(x.data, 0), (x,), bwd)


def sigmoid(x):
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    out[~pos] = e / (1.0 + e)

    def bwd(g):
        _accum(x, g * out * (1.0 - out))

    return _node(out, (x,), bwd)


def tanh(x):
    out = np.tanh(x.data)

    def bwd(g):
        _accum(x, g * (1.0 - out * out))

    return _node(out, (x,), bwd)


def absolute(x):
    # subgradient 0 at the kink: sign(0) == 0
    sgn = np.sign(x.data)

    def bwd(g):
        _accum(x, g * sgn)

    return _node(np.abs(x.data), (x,), bwd)


# linear algebra and reductions ----------------------------------------------

def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def bwd(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _node(a.data @ b.data, (a, b), bwd)


def softmax(x):
    """Normalized exponentials of a 1-D tensor, computed with max-subtraction."""
    if x.data.ndim != 1 or x.data.size == 0:
        raise ShapeError(f"softmax expects a nonempty 1-D tensor, got shape {x.shape}")
    z = x.data - x.data.max()
    e = np.exp(z)
    y = e / e.sum()

    def bwd(g):
        _accum(x, y * (g - np.dot(g, y)))

    return _node(y, (x,), bwd)


def sum_all(x):
    out = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def bwd(g):
        _accum(x, np.broadcast_to(g, x.data.shape))

    return _node(out, (x,), bwd)


def reshape(x, shape):
    try:
        new = x.data.reshape(shape).copy()
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view shape {x.shape} as {shape}") from exc

    def bwd(g):
        _accum(x, g.reshape(x.data.shape))

    return _node(new, (x,), bwd)


def columns(x):
    """One column per sample: each (...) sample of an (N, ...) tensor, flattened row-major, as (F, N)."""
    n = x.shape[0]
    out = x.data.reshape(n, -1).T.copy()

    def bwd(g):
        _accum(x, g.T.reshape(x.data.shape))

    return _node(out, (x,), bwd)


def take(x, indices):
    """Gather entries at flat row-major positions into a 1-D tensor."""
    idx = np.asarray(indices, dtype=np.intp)
    out = x.data.reshape(-1)[idx].copy()

    def bwd(g):
        gx = np.zeros(x.data.size, dtype=g.dtype)
        np.add.at(gx, idx, g)
        _accum(x, gx.reshape(x.data.shape))

    return _node(out, (x,), bwd)


def bias_add(x, b):
    """Add an (n, 1) bias column to every column of (n, N) columns, one copy per sample."""
    if x.data.ndim != 2 or b.shape != (x.shape[0], 1):
        raise ShapeError(f"bias_add: shape {x.shape} does not take bias shape {b.shape}")

    def bwd(g):
        _accum(x, g)
        _accum(b, g.sum(axis=1, keepdims=True))

    return _node(x.data + b.data, (x, b), bwd)


def fuse_max(tensors):
    """Elementwise maximum over equal-shape (C, N) score columns.

    The backward pass routes each position's cotangent to the first tensor
    (in argument order) attaining the maximum, which keeps gradients
    deterministic under ties.
    """
    if not tensors:
        raise ProtocolError("fuse_max needs at least one input")
    first = tensors[0]
    for t in tensors[1:]:
        if t.shape != first.shape:
            raise ShapeError(f"fuse_max: shapes differ: {first.shape} vs {t.shape}")
    if first.data.ndim != 2:
        raise ShapeError(f"fuse_max expects (C, N) columns, got shape {first.shape}")
    stacked = np.stack([t.data for t in tensors])
    winner = stacked.argmax(axis=0)
    out = stacked.max(axis=0)

    def bwd(g):
        for k, t in enumerate(tensors):
            _accum(t, g * (winner == k))

    return _node(out, tuple(tensors), bwd)


# spatial ops -----------------------------------------------------------------

def conv2d(x, kernels, bias, padding=0):
    """Cross-correlate (N, Cin, H, W) maps with (Cout, Cin, kH, kW) kernels at stride 1, plus a (Cout,) bias.

    Zero padding; output H' = H + 2*padding - kH + 1.  Each tap is one
    elementwise multiply-add over the whole batch, and the taps accumulate in
    fixed (cin, kh, kw) order before the bias is added, so every sample's
    float32 result is bit-equal to convolving it alone and to a scalar loop
    doing the same.
    """
    if x.data.ndim != 4 or kernels.data.ndim != 4:
        raise ShapeError(f"conv2d: need (N,Cin,H,W) and (Cout,Cin,kH,kW), got {x.shape} and {kernels.shape}")
    n, cin, h, w = x.shape
    cout, kcin, kh, kw = kernels.shape
    if kcin != cin:
        raise ShapeError(f"conv2d: input channels {x.shape} do not match kernels {kernels.shape}")
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} does not match kernels {kernels.shape}")
    if padding < 0:
        raise ShapeError(f"conv2d: invalid padding={padding}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(f"conv2d: kernel ({kh}, {kw}) larger than padded input ({hp}, {wp})")
    ho, wo = hp - kh + 1, wp - kw + 1

    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    kd = kernels.data
    taps = list(np.ndindex(cin, kh, kw))  # the one accumulation order, forward and backward
    out = np.zeros((n, cout, ho, wo), dtype=x.data.dtype)
    tmp = np.empty_like(out)
    for ci, a, b in taps:
        np.multiply(kd[:, ci, a, b][:, None, None], xp[:, ci, None, a:a + ho, b:b + wo], out=tmp)
        out += tmp
    out += bias.data[:, None, None]

    def bwd(g):
        gm = g.transpose(1, 0, 2, 3).reshape(cout, -1)  # (cout, N*ho*wo)
        if kernels.requires_grad:
            cols = np.stack([xp[:, ci, a:a + ho, b:b + wo] for ci, a, b in taps]).reshape(len(taps), -1)
            _accum(kernels, (gm @ cols.T).reshape(cout, cin, kh, kw))
        _accum(bias, g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            spread = (kd.reshape(cout, -1).T @ gm).reshape(len(taps), n, ho, wo)
            gxp = np.zeros_like(xp, dtype=g.dtype)
            for row, (ci, a, b) in enumerate(taps):
                gxp[:, ci, a:a + ho, b:b + wo] += spread[row]
            _accum(x, gxp[:, :, padding:padding + h, padding:padding + w])

    return _node(out, (x, kernels, bias), bwd)


def maxpool2d(x, window):
    """Per-window maximum over (N, C, H, W) maps that the windows tile exactly.

    The backward pass routes each window's cotangent to the first (row-major)
    position attaining the maximum.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d expects an (N,C,H,W) tensor, got shape {x.shape}")
    wh, ww = (window, window) if isinstance(window, int) else window
    n, c, h, w = x.shape
    if wh > h or ww > w or h % wh or w % ww:
        raise ShapeError(f"maxpool2d: window ({wh}, {ww}) does not tile input ({h}, {w})")
    ho, wo = h // wh, w // ww
    maps = n * c  # every (sample, channel) map pools on its own
    blocks = x.data.reshape(maps, ho, wh, wo, ww).transpose(0, 1, 3, 2, 4).reshape(maps, ho, wo, wh * ww)
    am = blocks.argmax(axis=3)
    out = blocks.max(axis=3).reshape(n, c, ho, wo)
    gi = (np.arange(ho) * wh)[None, :, None] + am // ww
    gj = (np.arange(wo) * ww)[None, None, :] + am % ww

    flat = ((np.arange(maps)[:, None, None] * h + gi) * w + gj).reshape(-1)

    def bwd(g):
        gx = np.zeros(x.data.size, dtype=g.dtype)
        np.add.at(gx, flat, g.reshape(-1))
        _accum(x, gx.reshape(x.data.shape))

    return _node(out, (x,), bwd)


# gradient checking -----------------------------------------------------------

def grad_check(fn, inputs, eps=1e-4, seed=0):
    """Max relative error between analytic gradients and central differences.

    ``fn`` maps ``len(inputs)`` tensors to one tensor.  Inputs are copied to
    float64; the output is contracted against a fixed random cotangent so a
    single scalar probes the whole vector-Jacobian product.  Relative error
    per entry is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    Sample points must stay clear of kinks (relu/abs zeros, pooling ties,
    integer bilinear coordinates) by more than ``eps``.
    """
    rng = np.random.default_rng(seed)
    leaves = [
        Tensor(np.asarray(t.data if isinstance(t, Tensor) else t, dtype=np.float64), requires_grad=True)
        for t in inputs
    ]
    out = fn(*leaves)
    w = rng.standard_normal(out.data.shape)
    out.backward(w)
    analytic = [leaf.grad.copy() if leaf.grad is not None else np.zeros_like(leaf.data) for leaf in leaves]

    worst = 0.0
    for leaf, ana in zip(leaves, analytic):
        flat = leaf.data.reshape(-1)
        aflat = ana.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            hi = float((w * fn(*leaves).data).sum())
            flat[i] = saved - eps
            lo = float((w * fn(*leaves).data).sum())
            flat[i] = saved
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(aflat[i] - numeric) / max(abs(aflat[i]), abs(numeric), 1e-8)
            if err > worst:
                worst = err
    return worst
