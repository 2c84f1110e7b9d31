"""Cross-check the traced per-layer times against an independent cProfile run.

Usage (from the repository root):

    python3 -B bench/profile_check.py [--seed 1] [--seconds 8]

For each workload this runs the benchmark twice in one process: once traced
(``--trace 1``) and once untraced under ``cProfile``.  Both measure the same
span: from the start of the workload's set-up to the end of the timed loop
(and, on eval, the metrics report).  For every traced layer that runs in the
span it compares the layer's share of the span's wall time: the tracer's
total against cProfile's cumulative time for the same functions.  A backward
metric is the ops' nested ``bwd`` closures; ``walk_self`` is
``Tensor.backward`` minus the ``bwd`` closures it calls.  The two shares may
differ by at most ``REL_TOL`` of the larger one, or ``ONE_OFF_TOL`` for the
few-ms calls made once per run or per epoch, so a layer that either side
reads as zero always fails.  The README gives the reason for both.  Prints
one line per layer and exits 1 if any layer is outside its tolerance.

``losses.bwd`` is not checked: its closures are the tensor ops' own ``bwd``
functions, charged to it by the scope that made the node, and cProfile
cannot tell them apart from the same closures made elsewhere.
"""

import argparse
import contextlib
import cProfile
import io
import os
import pstats
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (sets the BLAS thread variables before numpy loads)
from tracer import ELEMENTWISE  # noqa: E402

REL_TOL = 0.4
ONE_OFF_TOL = 0.7
ONE_OFF = {"model.save_model", "model.load_model", "data.load", "evaluation.report_from_predictions"}

# tracer key -> [(module, function, part)] where part is "fwd" or the nested "bwd" closure
LAYERS = {
    "backbone.encode.fwd": [("backbone", "encode", "fwd")],
    "tensor.conv2d.fwd": [("tensor", "conv2d", "fwd")],
    "tensor.conv2d.bwd": [("tensor", "conv2d", "bwd")],
    "tensor.maxpool2d.fwd": [("tensor", "maxpool2d", "fwd")],
    "tensor.maxpool2d.bwd": [("tensor", "maxpool2d", "bwd")],
    "tensor.matmul.fwd": [("tensor", "matmul", "fwd")],
    "tensor.matmul.bwd": [("tensor", "matmul", "bwd")],
    "tensor.elementwise.fwd": [("tensor", name, "fwd") for name in ELEMENTWISE],
    "tensor.elementwise.bwd": [("tensor", name, "bwd") for name in ELEMENTWISE],
    "attention.run_episode.fwd": [("attention", "run_episode", "fwd")],
    "attention.lstm_step.fwd": [("attention", "lstm_step", "fwd")],
    "attention.heads.fwd": [("attention", "heads", "fwd")],
    "transformer.st.fwd": [("transformer", "st", "fwd")],
    "transformer.bilinear_sample.fwd": [("transformer", "bilinear_sample", "fwd")],
    "transformer.bilinear_sample.bwd": [("transformer", "bilinear_sample", "bwd")],
    "transformer.grid.fwd": [("transformer", "build_matrix", "fwd"), ("transformer", "affine_grid", "fwd")],
    "transformer.grid.bwd": [("transformer", "build_matrix", "bwd"), ("transformer", "affine_grid", "bwd")],
    "losses.cls_loss.fwd": [("losses", "cls_loss", "fwd")],
    "losses.loc_loss.fwd": [("losses", "loc_loss", "fwd")],
    "tensor.backward": [("tensor", "Tensor.backward", "fwd")],
    "walk_self": [],  # see shares()
    "optim.adam_step": [("optim", "Adam.step", "fwd")],
    "model.save_model": [("model", "save_model", "fwd")],
    "model.load_model": [("model", "load_model", "fwd")],
    "data.load": [("data", "load", "fwd")],
    "evaluation.multi_view_eval": [("evaluation", "multi_view_eval", "fwd")],
    "evaluation.report_from_predictions": [("evaluation", "report_from_predictions", "fwd")],
}


def _label(code):
    return code.co_filename, code.co_firstlineno, code.co_name


def _codes(module, name, part):
    """The function's code, or every nested closure of that name (``add`` has two ``bwd``)."""
    obj = sys.modules[f"rmanet.{module}"]
    for attr in name.split("."):
        obj = getattr(obj, attr)
    code = obj.__code__
    if part == "fwd":
        return [code]
    return [c for c in code.co_consts if getattr(c, "co_name", None) == part]


class _Span(run.Timeline):
    """Timeline whose ``stop_tracing`` ends the span, and with it the profiler."""

    profiler = None
    start = None
    last = None

    def stop_tracing(self):
        if _Span.profiler:
            _Span.profiler.disable()
        self.span_s = time.perf_counter() - _Span.start
        super().stop_tracing()
        _Span.last = self


def _spanned(workload_fn):
    """Start the span, and the profiler when there is one, as the workload's set-up starts."""
    def wrapped(*args, **kwargs):
        _Span.start = time.perf_counter()
        if _Span.profiler:
            _Span.profiler.enable()
        return workload_fn(*args, **kwargs)
    return wrapped


def _run(workload, seed, seconds, profile):
    _Span.profiler = cProfile.Profile(builtins=False) if profile else None
    with contextlib.redirect_stdout(io.StringIO()):
        run.main(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", "0" if profile else "1"])
    return _Span.last, _Span.profiler


def shares(workload, seed, seconds):
    """{layer: (traced share, cProfile share)} for the layers that run on ``workload``."""
    traced, _ = _run(workload, seed, seconds, profile=False)
    profiled, profiler = _run(workload, seed, seconds, profile=True)
    totals = dict(traced.final[0])
    totals["walk_self"] = totals.get("tensor.backward", 0.0) - totals.get("tensor.closures", 0.0)
    stats = pstats.Stats(profiler).stats
    cumulative = {label: ct for label, (_, _, _, ct, _) in stats.items()}
    walk = _label(*_codes("tensor", "Tensor.backward", "fwd"))
    closures = sum(callers[walk][3] for label, (*_, callers) in stats.items()
                   if label[2] == "bwd" and walk in callers)
    out = {}
    for key, functions in LAYERS.items():
        if totals.get(key, 0.0) <= 0.0:
            continue
        if key == "walk_self":
            seconds_in = cumulative.get(walk, 0.0) - closures
        else:
            seconds_in = sum(cumulative.get(_label(code), 0.0) for f in functions for code in _codes(*f))
        out[key] = (totals[key] / traced.span_s, seconds_in / profiled.span_s)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description="traced layer shares against cProfile")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args(argv)
    run.Timeline = _Span
    run.workload_train = _spanned(run.workload_train)
    run.workload_eval = _spanned(run.workload_eval)
    bad = 0
    for workload in run.WORKLOADS:
        for key, (trace, prof) in shares(workload, args.seed, args.seconds).items():
            tol = ONE_OFF_TOL if key in ONE_OFF else REL_TOL
            ok = abs(trace - prof) <= tol * max(trace, prof)
            bad += not ok
            print(f"{workload:12s} {key:38s} traced {trace:8.3%}  cProfile {prof:8.3%}  {'ok' if ok else 'OUTSIDE'}")
    print(f"{bad} layer(s) outside |traced - cProfile| <= {REL_TOL} (one-off calls {ONE_OFF_TOL}) x max share")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
