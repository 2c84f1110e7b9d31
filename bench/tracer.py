"""Per-layer timing for the rmanet benchmark, installed from outside the package.

``Tracer`` replaces each traced function at every ``rmanet.*`` module
attribute that refers to it, which is where the calling module looks it up:
``rmanet.backbone.conv2d``, ``rmanet.attention.matmul``, ``rmanet.tensor.add``
(reached through ``Tensor.__add__``), and so on.  A wrapper times the call.
For a differentiable op it also wraps the ``_backward`` closure of the tensor
the op returns, so backward time lands on the op that made the node.
``Tensor.backward`` and ``Adam.step`` are wrapped on their classes.  Nothing
in ``rmanet`` is edited; ``remove`` puts every original back.

Totals are seconds and call counts keyed by metric stem (``tensor.conv2d.fwd``);
``run.py`` turns them into per-image or per-call figures.
"""

import importlib
import sys
import time
from collections import defaultdict

_MODULES = ("tensor", "backbone", "transformer", "attention", "losses", "optim", "model", "evaluation", "data")

# (module, function) -> stem for differentiable ops: fwd and bwd are timed.
OPS = {
    ("tensor", "conv2d"): "tensor.conv2d",
    ("tensor", "maxpool2d"): "tensor.maxpool2d",
    ("tensor", "matmul"): "tensor.matmul",
    ("transformer", "bilinear_sample"): "transformer.bilinear_sample",
    ("transformer", "build_matrix"): "transformer.grid",
    ("transformer", "affine_grid"): "transformer.grid",
}
ELEMENTWISE = ("add", "sub", "mul", "relu", "sigmoid", "tanh", "absolute", "bias_add", "reshape",
               "take", "sum_all", "softmax", "fuse_max")
OPS.update({("tensor", name): "tensor.elementwise" for name in ELEMENTWISE})

# Layer entry points: inclusive forward time only (their ops carry the backward).
SPANS = {
    ("backbone", "encode"): "backbone.encode.fwd",
    ("attention", "run_episode"): "attention.run_episode.fwd",
    ("attention", "lstm_step"): "attention.lstm_step.fwd",
    ("attention", "heads"): "attention.heads.fwd",
    ("transformer", "st"): "transformer.st.fwd",
    ("losses", "cls_loss"): "losses.cls_loss.fwd",
    ("losses", "loc_loss"): "losses.loc_loss.fwd",
    ("model", "save_model"): "model.save_model",
    ("model", "load_model"): "model.load_model",
    ("data", "load"): "data.load",
    ("evaluation", "multi_view_eval"): "evaluation.multi_view_eval",
    ("evaluation", "report_from_predictions"): "evaluation.report_from_predictions",
}
# Nodes made inside these calls also charge their backward to ``losses.bwd``.
LOSS_SCOPES = {("losses", "cls_loss"), ("losses", "loc_loss"), ("losses", "total_loss")}


class Tracer:
    """Wraps rmanet's layers in place; use as a context manager."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self._patches = []
        self._scope = None

    def snapshot(self):
        return dict(self.seconds), dict(self.calls)

    # wrappers ---------------------------------------------------------------------
    def _timed_backward(self, closure, keys):
        seconds, clock = self.seconds, time.perf_counter

        def backward(g):
            t0 = clock()
            closure(g)
            dt = clock() - t0
            for key in keys:
                seconds[key] += dt
            seconds["tensor.closures"] += dt

        return backward

    def _op(self, fn, stem):
        seconds, calls, clock = self.seconds, self.calls, time.perf_counter
        fwd, bwd = stem + ".fwd", stem + ".bwd"

        def wrapped(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            seconds[fwd] += clock() - t0
            calls[fwd] += 1
            closure = getattr(out, "_backward", None)
            if closure is not None:
                keys = (bwd,) if self._scope is None else (bwd, self._scope)
                out._backward = self._timed_backward(closure, keys)
            return out

        return wrapped

    def _span(self, fn, key, scope=None):
        seconds, calls, clock = self.seconds, self.calls, time.perf_counter

        def wrapped(*args, **kwargs):
            outer = self._scope
            if scope is not None:
                self._scope = scope
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if key is not None:
                    seconds[key] += clock() - t0
                    calls[key] += 1
                self._scope = outer

        return wrapped

    def _counter(self, fn, key):
        calls = self.calls

        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _backward_walk(self, fn):
        seconds, calls, clock = self.seconds, self.calls, time.perf_counter

        def backward(tensor, *args, **kwargs):
            t0 = clock()
            fn(tensor, *args, **kwargs)
            seconds["tensor.backward"] += clock() - t0
            calls["tensor.backward"] += 1

        return backward

    # installation -------------------------------------------------------------------
    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        mods = {m: importlib.import_module(f"rmanet.{m}") for m in _MODULES}
        wrappers = {}  # id(original) -> (original, wrapper)

        def add(fn, wrapper):
            wrappers[id(fn)] = (fn, wrapper)

        for (mod, name), stem in OPS.items():
            add(getattr(mods[mod], name), self._op(getattr(mods[mod], name), stem))
        for (mod, name), key in SPANS.items():
            scope = "losses.bwd" if (mod, name) in LOSS_SCOPES else None
            add(getattr(mods[mod], name), self._span(getattr(mods[mod], name), key, scope))
        add(mods["losses"].total_loss, self._span(mods["losses"].total_loss, None, "losses.bwd"))
        add(mods["tensor"]._node, self._counter(mods["tensor"]._node, "tensor.nodes"))
        for module in [m for n, m in sys.modules.items() if n == "rmanet" or n.startswith("rmanet.")]:
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is not None and value is original:
                    self._patch(module, attr, wrapper)
        tensor_cls = mods["tensor"].Tensor
        self._patch(tensor_cls, "backward", self._backward_walk(tensor_cls.backward))
        adam = mods["optim"].Adam
        self._patch(adam, "step", self._span(adam.step, "optim.adam_step"))
        return self

    def remove(self):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False
