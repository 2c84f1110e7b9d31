"""rmanet benchmark: training and single-/ten-view evaluation, end to end and per layer.

Usage (from the repository root):

    python3 -B bench/run.py --workload {train,eval-single,eval-ten} --seed N --seconds S --trace {0,1}

One single-threaded process drives the library in ``src/`` through the calls
the CLI makes: ``data.generate_split`` and ``data.load``, ``train.train``,
``model.save_model`` and ``model.load_model``, ``evaluation.score_samples``
and ``evaluation.report_from_predictions``.  Inputs come from ``--seed``
alone.  The timed loop repeats whole rounds (a training run, or one pass
over the held-out split) until ``--seconds`` have passed.  Then the outputs
are checked against the float64 reference in ``reference.py``, and an
untimed learning run on the whole training split gives ``train_loss_final``
on every workload.  The last
line of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (images) and ``metrics``, which holds the end-to-end metrics with
``--trace 0`` and the per-layer metrics of a traced run with ``--trace 1``.
See README.md for the metrics, the workloads and reference figures.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before numpy and rmanet load

import os  # noqa: E402

# Every matrix is tiny, so BLAS threads only add overhead; must precede numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

WORK = os.path.join(ROOT, ".bench_work", str(os.getpid()))  # removed at the end of main()

import numpy as np  # noqa: E402

if __name__ == "__main__":
    # Compile rmanet and the modules below from source on every run, also where a
    # __pycache__ exists, so set-up time does not depend on what ran before.  With
    # -B nothing is written there; without it, main() removes what was.
    sys.pycache_prefix = os.path.join(WORK, "pycache")

import checks  # noqa: E402
import reference as ref  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("train", "eval-single", "eval-ten")
N_TRAIN = 320         # training images per seed
N_TEST = 64           # held-out images per seed, drawn after the training ones
N_CLASSES = 4         # generate_split defaults: 32x32 images, 4 classes
EPOCHS = 2            # epochs of every training run; the rest is the default TrainConfig
ROUND_IMAGES = 16     # images of one timed training run (one batch), which is one timed chunk
EVAL_CHUNK = 4        # images per timed score_samples call
QUANTILE = 0.1        # ms_per_image is this quantile of the timed chunks (see README)
K_REGIONS = 5         # model defaults, restated for the reference
REGION = (4, 4)
GRAD_BATCH = 8        # images in the gradient check's single batch
GRAD_ENTRIES = 2      # checked entries per parameter tensor
SCORE_GAIN = 100.0    # eval checkpoint: score head scaled so predictions are confident
TRANSFORM_STD = 3.0   # eval checkpoint: transform head weights ~ N(0, 3^2)

END_TO_END_UNITS = {"ms_per_image": "ms", "setup_s": "s", "peak_rss_mb": "MB", "train_loss_final": "loss"}

# per-layer metric -> (unit, tracer key, divisor): "image" divides by the
# images of the timed loop, "call" by the key's own calls.
LAYERS = {
    "backbone.encode.fwd_ms": ("ms/image", "backbone.encode.fwd", "image"),
    "tensor.conv2d.fwd_ms": ("ms/image", "tensor.conv2d.fwd", "image"),
    "tensor.conv2d.bwd_ms": ("ms/image", "tensor.conv2d.bwd", "image"),
    "tensor.maxpool2d.fwd_ms": ("ms/image", "tensor.maxpool2d.fwd", "image"),
    "tensor.maxpool2d.bwd_ms": ("ms/image", "tensor.maxpool2d.bwd", "image"),
    "attention.run_episode.fwd_ms": ("ms/episode", "attention.run_episode.fwd", "call"),
    "attention.lstm_step.fwd_ms": ("ms/image", "attention.lstm_step.fwd", "image"),
    "attention.heads.fwd_ms": ("ms/image", "attention.heads.fwd", "image"),
    "tensor.matmul.fwd_ms": ("ms/image", "tensor.matmul.fwd", "image"),
    "tensor.matmul.bwd_ms": ("ms/image", "tensor.matmul.bwd", "image"),
    "tensor.matmul.calls": ("count/image", "tensor.matmul.fwd", "image-calls"),
    "transformer.st.fwd_ms": ("ms/image", "transformer.st.fwd", "image"),
    "transformer.bilinear_sample.fwd_ms": ("ms/image", "transformer.bilinear_sample.fwd", "image"),
    "transformer.bilinear_sample.bwd_ms": ("ms/image", "transformer.bilinear_sample.bwd", "image"),
    "transformer.grid.fwd_ms": ("ms/image", "transformer.grid.fwd", "image"),
    "transformer.grid.bwd_ms": ("ms/image", "transformer.grid.bwd", "image"),
    "tensor.elementwise.fwd_ms": ("ms/image", "tensor.elementwise.fwd", "image"),
    "tensor.elementwise.bwd_ms": ("ms/image", "tensor.elementwise.bwd", "image"),
    "losses.cls_loss.fwd_ms": ("ms/image", "losses.cls_loss.fwd", "image"),
    "losses.loc_loss.fwd_ms": ("ms/image", "losses.loc_loss.fwd", "image"),
    "losses.bwd_ms": ("ms/image", "losses.bwd", "image"),
    "tensor.backward.ms": ("ms/image", "tensor.backward", "image"),
    "tensor.backward.walk_self_ms": ("ms/image", "walk_self", "image"),
    "tensor.nodes": ("count/image", "tensor.nodes", "image-calls"),
    "optim.adam_step.ms": ("ms/batch", "optim.adam_step", "call"),
    "model.save_model.ms": ("ms/call", "model.save_model", "call"),
    "model.load_model.ms": ("ms/call", "model.load_model", "call"),
    "data.load.ms": ("ms/call", "data.load", "call"),
    "evaluation.multi_view_eval.ms": ("ms/image", "evaluation.multi_view_eval", "call"),
    "evaluation.report_from_predictions.ms": ("ms/call", "evaluation.report_from_predictions", "call"),
    "trace.ms_per_image": ("ms", None, None),
}


def import_program():
    """The rmanet modules from this checkout's ``src``; exits when they are missing."""
    sys.path.insert(0, SRC)
    try:
        package = importlib.import_module("rmanet")
    except ImportError as exc:
        sys.exit(f"bench: cannot import rmanet from {SRC}: {exc}")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: rmanet was imported from {package.__file__}, not from {SRC}")
    # by module path: the package rebinds the name ``rmanet.train`` to the function
    return types.SimpleNamespace(**{n: sys.modules[f"rmanet.{n}"] for n in ("data", "train", "model", "evaluation")})


class Timeline:
    """Wall clock of the timed chunks, plus tracer snapshots around them when tracing."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.chunks_ms = []   # ms per image of each timed chunk
        self.images = 0

    def __enter__(self):
        self.before = self.tracer.snapshot() if self.tracer else None
        return self

    def __exit__(self, *exc):
        self.after = self.tracer.snapshot() if self.tracer else None
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return False

    def record(self, start, end, images):
        self.chunks_ms.append((end - start) * 1000.0 / images)
        self.images += images

    def stop_tracing(self):
        """Snapshot the per-call totals and take the tracer out before the checks run."""
        if self.tracer:
            self.final = self.tracer.snapshot()
            self.tracer.remove()

    @property
    def ms_per_image(self):
        ranked = sorted(self.chunks_ms)
        pos = QUANTILE * (len(ranked) - 1)
        lo = int(pos)
        return ranked[lo] + (ranked[min(lo + 1, len(ranked) - 1)] - ranked[lo]) * (pos - lo)


def run_rounds(seconds, fn):
    """Whole rounds of ``fn`` until ``seconds`` have passed; returns every round's output."""
    outputs = []
    start = time.perf_counter()
    while not outputs or time.perf_counter() - start < seconds:
        outputs.append(fn())
    return outputs


# workloads ------------------------------------------------------------------------

def make_data(prog, seed, work):
    root = os.path.join(work, "data")  # train/ and test/
    prog.data.generate_split(seed, N_TRAIN, N_TEST, root)
    return root


def read_log(path):
    with open(path, encoding="ascii") as fh:
        return [[float(v) for v in line.split(",")[1:]] for line in fh.read().splitlines()[1:] if line]


def workload_train(prog, args, work, tracer):
    root = make_data(prog, args.seed, work)
    samples = prog.data.load(os.path.join(root, "train"))
    config = prog.train.TrainConfig(epochs=EPOCHS)
    prog.train.train(samples[:config.batch_size], dataclasses.replace(config, epochs=1))  # warm-up
    setup_s = time.perf_counter() - T0

    head = samples[:ROUND_IMAGES]

    def training_round():
        start = time.perf_counter()
        stats = prog.train.train(head, config, out_dir=os.path.join(work, "round"))[1]
        timeline.record(start, time.perf_counter(), len(head) * config.epochs)
        return [s.total for s in stats]

    with Timeline(tracer) as timeline:
        rounds = run_rounds(args.seconds, training_round)
    timeline.stop_tracing()
    fails = [f"training round {i} logged other losses than round 0" for i, r in enumerate(rounds) if r != rounds[0]]

    fails += gradient_check(prog, samples[:GRAD_BATCH], config, args.seed, work)
    return timeline, setup_s, fails


def learning_run(prog, work):
    """Train on the whole training split; returns the last epoch's mean loss and check failures.

    It runs after the timed loop on every workload, so ``train_loss_final``
    guards the arithmetic of every run whatever the workload times.
    """
    samples = prog.data.load(os.path.join(work, "data", "train"))
    out_dir = os.path.join(work, "full")
    totals = [s.total for s in prog.train.train(samples, prog.train.TrainConfig(epochs=EPOCHS), out_dir=out_dir)[1]]
    return totals[-1], checks.training_losses(totals, read_log(os.path.join(out_dir, "log.csv")))


def gradient_check(prog, batch, config, seed, work):
    """The trainer's gradient on one batch against finite differences of the reference loss.

    Training ``batch`` as a single batch for E and for E+1 epochs leaves Adam's
    first moments m_E and m_{E+1} in the checkpoints; the trainer's gradient at
    the epoch-E weights is then (m_{E+1} - beta1 m_E) / (1 - beta1).  E = 2
    steps move every region off the identity grid, whose sample points sit on
    the kinks of bilinear interpolation.
    """
    beta1 = 0.9
    cfg = dataclasses.replace(config, batch_size=len(batch))
    ckpt = []
    for epochs in (2, 3):
        out_dir = os.path.join(work, f"grad{epochs}")
        prog.train.train(batch, dataclasses.replace(cfg, epochs=epochs), out_dir=out_dir)
        ckpt.append(ref.read_checkpoint(os.path.join(out_dir, "checkpoint.rma")))
    params = {k: v for k, v in ckpt[0].items() if not k.startswith(("meta/", "adam/"))}
    grads = {k: (ckpt[1]["adam/m/" + k] - beta1 * ckpt[0]["adam/m/" + k]) / (1.0 - beta1) for k in params}

    def loss(p):
        return np.mean([ref.total_loss(p, s.image, s.labels, K_REGIONS, REGION) for s in batch])

    rng = np.random.default_rng([seed, 7])
    base = loss(params)
    program, numeric = {}, {}
    for name in sorted(params):
        for index in rng.choice(params[name].size, size=min(GRAD_ENTRIES, params[name].size), replace=False):
            key = (name, int(index))
            program[key] = float(grads[name].reshape(-1)[index])
            numeric[key] = ref.finite_difference(loss, params, name, int(index), base)
    return checks.gradients(program, numeric, {k: float(np.abs(g).max()) for k, g in grads.items()})


def eval_checkpoint(prog, seed, path):
    """A seeded model whose transform head moves regions off the whole map, saved and read back."""
    model = prog.model.Model.init(prog.model.ModelConfig(n_classes=N_CLASSES), seed=seed)
    params = dict(model.parameters())
    rng = np.random.default_rng([seed, 3])
    zm = params["attn/w_zm"].data
    zm[...] = rng.normal(0.0, TRANSFORM_STD, zm.shape)
    params["attn/w_zs"].data *= SCORE_GAIN
    prog.model.save_model(path, model)
    return prog.model.load_model(path)[0]


def workload_eval(prog, args, work, tracer, views):
    root = make_data(prog, args.seed, work)
    test_root = os.path.join(root, "test")
    samples = prog.data.load(test_root)
    model = eval_checkpoint(prog, args.seed, os.path.join(work, "eval.rma"))
    prog.evaluation.score_samples(model, samples[:2], views=views)  # warm-up
    setup_s = time.perf_counter() - T0

    predictions = []  # the first pass; later passes are only compared with it

    def one_pass():
        out = []
        for i in range(0, len(samples), EVAL_CHUNK):
            chunk = samples[i:i + EVAL_CHUNK]
            start = time.perf_counter()
            out += prog.evaluation.score_samples(model, chunk, views=views)
            timeline.record(start, time.perf_counter(), len(chunk))
        if not predictions:
            predictions.extend(out)
        return all(np.array_equal(a.scores, b.scores) for a, b in zip(out, predictions))

    with Timeline(tracer) as timeline:
        repeatable = run_rounds(args.seconds, one_pass)
    report = prog.evaluation.report_from_predictions(predictions, N_CLASSES)
    timeline.stop_tracing()

    truth = ref.read_manifest(test_root, N_CLASSES)
    params = {name: t.data.astype(np.float64) for name, t in model.parameters()}
    if views is None:
        ref_scores = [ref.fused_scores(params, s.image, K_REGIONS, REGION) for s in samples]
        ref_probs = [ref.softmax(s) for s in ref_scores]
    else:
        ref_scores, ref_probs = zip(*(ref.ten_view(params, s.image, K_REGIONS, REGION) for s in samples))
    fails = checks.eval_outputs([p.scores for p in predictions], [p.probs for p in predictions],
                                ref_scores, ref_probs)
    fails += checks.labels_and_report(predictions, report, truth)
    fails += [f"pass {i} scores differ from pass 0" for i, same in enumerate(repeatable) if not same]
    return timeline, setup_s, fails


# reporting ------------------------------------------------------------------------

def layer_metrics(timeline):
    before_s, before_n = timeline.before
    after_s, after_n = timeline.after
    final_s, final_n = timeline.final
    loop_s = {k: v - before_s.get(k, 0.0) for k, v in after_s.items()}
    loop_n = {k: v - before_n.get(k, 0) for k, v in after_n.items()}
    loop_s["walk_self"] = loop_s.get("tensor.backward", 0.0) - loop_s.get("tensor.closures", 0.0)
    out = {}
    for name, (unit, key, per) in LAYERS.items():
        if per == "image":
            value = 1000.0 * loop_s.get(key, 0.0) / timeline.images
        elif per == "image-calls":
            value = loop_n.get(key, 0) / timeline.images
        elif per == "call":
            calls = final_n.get(key, 0)
            value = 1000.0 * final_s[key] / calls if calls else 0.0
        else:
            value = timeline.ms_per_image
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = None
    try:
        prog = import_program()
        tracer = Tracer().install() if args.trace else None
        os.makedirs(WORK, exist_ok=True)
        if args.workload == "train":
            timeline, setup_s, fails = workload_train(prog, args, WORK, tracer)
        else:
            views = None if args.workload == "eval-single" else prog.evaluation.TEN_VIEWS
            timeline, setup_s, fails = workload_eval(prog, args, WORK, tracer, views)
        loss, learning_fails = learning_run(prog, WORK)
        fails += learning_fails
    finally:
        if tracer:
            tracer.remove()
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(WORK))  # only when no other run is using it

    for message in fails:
        print(f"bench: check failed: {message}", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(timeline)
    else:
        values = {"ms_per_image": timeline.ms_per_image, "setup_s": setup_s,
                  "peak_rss_mb": timeline.peak_rss_mb, "train_loss_final": loss}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({"correct": not fails, "attempted": timeline.images, "failed": 0, "metrics": metrics}))


if __name__ == "__main__":
    main()
