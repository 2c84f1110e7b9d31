"""Command-line surface: gen-data, train, eval, viz, grad-check.

Exit codes: 0 success, 1 runtime/data error, 2 usage error, 3 numerical
divergence during training.
"""

import argparse
import os
import sys

from . import config as cfgmod
from . import data as datamod
from . import viz as vizmod
from .errors import ConfigError, DataError, FormatError, NonFiniteLossError, ProtocolError, ShapeError
from .evaluation import SINGLE_VIEW, TEN_VIEWS, report_csv, report_from_predictions, report_table, score_samples
from .gradchecks import TOLERANCE, format_results, run_checks
from .losses import LossWeights
from .model import load_model
from .train import TrainConfig, train
from .transformer import region_box

TRAIN_DEFAULTS = {
    "seed": 1,
    "k": 5,
    "epochs": 40,
    "batch_size": 16,
    "lr": 1e-3,
    "lr_decay_epoch": 30,
    "hidden": 64,
    "channels": (16, 32, 32),
    "region": 4,
    "cell_tanh": False,
    "scale_threshold": 0.5,
    "positive_threshold": 0.1,
    "anchor_weight": 0.2,  # toy-scale training default; LossWeights itself defaults to 0.01
    "positive_weight": 0.1,
    "loc_weight": 0.1,
}

EVAL_DEFAULTS = {"top_k": 3, "threshold": 0.5, "views": "single"}


def _int_at_least(minimum):
    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _positive_float(text):
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(prog="rmanet", description="Recurrent-attention multi-label classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic shapes dataset")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--n", type=_int_at_least(1), default=600, help="training samples")
    g.add_argument("--test-n", type=_int_at_least(0), default=200, help="test samples (0: no test split)")
    g.add_argument("--classes", type=_int_at_least(2), default=4)
    g.add_argument("--size", type=_int_at_least(16), default=32)
    g.add_argument("--out", required=True)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--data", required=True, help="dataset root (images/ + manifest.csv)")
    t.add_argument("--out", required=True)
    t.add_argument("--config", default=None, help="key = value config file")
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--k", type=_int_at_least(1), default=None)
    t.add_argument("--epochs", type=_int_at_least(1), default=None)
    t.add_argument("--batch-size", type=_int_at_least(1), default=None)
    t.add_argument("--lr", type=_positive_float, default=None)
    t.add_argument("--lr-decay-epoch", type=_int_at_least(1), default=None)
    t.add_argument("--hidden", type=_int_at_least(1), default=None)
    t.add_argument("--region", type=_int_at_least(1), default=None)
    t.add_argument("--cell-tanh", action="store_true", default=None)
    t.add_argument(
        "--no-constraint",
        action="append",
        choices=["anchor", "scale", "positive", "all"],
        default=None,
        help="disable region constraints (repeatable)",
    )

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", default=None)
    e.add_argument("--config", default=None)
    e.add_argument("--seed", type=int, default=0, help="recorded for provenance; evaluation is deterministic")
    e.add_argument("--views", choices=["single", "ten"], default=None)
    e.add_argument("--top-k", type=_int_at_least(1), default=None)
    e.add_argument("--threshold", type=float, default=None)

    v = sub.add_parser("viz", help="render attended regions as SVG overlays")
    v.add_argument("--checkpoint", required=True)
    v.add_argument("--data", required=True)
    v.add_argument("--out", required=True)
    v.add_argument("--config", default=None)
    v.add_argument("--seed", type=int, default=0, help="recorded for provenance; rendering is deterministic")
    v.add_argument("--n", type=_int_at_least(1), default=4, help="number of images")

    c = sub.add_parser("grad-check", help="run the finite-difference suite")
    c.add_argument("--out", default=None)
    return parser


def cmd_gen_data(args):
    if args.test_n:
        train_summary, test_summary = datamod.generate_split(
            args.seed, args.n, args.test_n, args.out, image_size=args.size, n_classes=args.classes
        )
        summaries = [("train", train_summary), ("test", test_summary)]
    else:
        summaries = [("all", datamod.generate(args.seed, args.n, args.out, image_size=args.size, n_classes=args.classes))]
    cfgmod.write_effective(
        {"seed": args.seed, "classes": args.classes, "image_size": args.size}, args.out
    )
    for name, s in summaries:
        marg = " ".join(f"{m:.3f}" for m in s["marginals"])
        print(f"{name}: n={s['n']} classes={s['n_classes']} label_marginals=[{marg}]")
    return 0


def _merged(defaults, args, keys):
    file_values = cfgmod.read_config(args.config) if getattr(args, "config", None) else {}
    flag_values = {k: getattr(args, k.replace("-", "_"), None) for k in keys}
    return cfgmod.merge(defaults, file_values, flag_values)


def cmd_train(args):
    merged = _merged(TRAIN_DEFAULTS, args, TRAIN_DEFAULTS.keys())
    disabled = frozenset()
    if args.no_constraint:
        chosen = set(args.no_constraint)
        disabled = frozenset(("anchor", "scale", "positive")) if "all" in chosen else frozenset(chosen)
    weights = LossWeights(
        scale_threshold=merged["scale_threshold"],
        positive_threshold=merged["positive_threshold"],
        anchor_weight=merged["anchor_weight"],
        positive_weight=merged["positive_weight"],
        loc_weight=merged["loc_weight"],
    )
    cfg = TrainConfig(
        epochs=merged["epochs"],
        batch_size=merged["batch_size"],
        lr=merged["lr"],
        lr_decay_epoch=merged["lr_decay_epoch"],
        seed=merged["seed"],
        k_regions=merged["k"],
        n_hidden=merged["hidden"],
        channels=tuple(merged["channels"]),
        region=(merged["region"], merged["region"]),
        cell_tanh=bool(merged["cell_tanh"]),
        loss_weights=weights,
        disabled_constraints=disabled,
    )
    samples = datamod.load(args.data)
    effective = dict(merged)
    effective["no_constraint"] = ",".join(sorted(disabled)) if disabled else "none"
    cfgmod.write_effective(effective, args.out)
    print(f"training on {len(samples)} samples (C={len(samples[0].labels)}, K={cfg.k_regions}, "
          f"epochs={cfg.epochs}, seed={cfg.seed})")
    train(samples, cfg, out_dir=args.out,
          progress=lambda s: print(f"epoch {s.epoch:3d}  total={s.total:.5f}  cls={s.cls:.5f}  loc={s.loc:.5f}"))
    print(f"checkpoint: {os.path.join(args.out, 'checkpoint.rma')}")
    print(f"log: {os.path.join(args.out, 'log.csv')}")
    return 0


def cmd_eval(args):
    merged = _merged(EVAL_DEFAULTS, args, EVAL_DEFAULTS.keys())
    model, _ = load_model(args.checkpoint)
    samples = datamod.load(args.data, n_classes=model.config.n_classes)
    views = TEN_VIEWS if merged["views"] == "ten" else None
    predictions = score_samples(model, samples, top_k=merged["top_k"],
                                threshold=merged["threshold"], views=views)
    report = report_from_predictions(predictions, model.config.n_classes)
    n_views = len(views) if views else len(SINGLE_VIEW)
    print(f"evaluated {len(samples)} images with {n_views} view(s)")
    print(report_table(report))
    if args.out:
        cfgmod.write_effective({**merged, "seed": args.seed}, args.out)
        path = os.path.join(args.out, "metrics.csv")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(report_csv(report))
        print(f"report: {path}")
    return 0


def cmd_viz(args):
    model, _ = load_model(args.checkpoint)
    samples = datamod.load(args.data, n_classes=model.config.n_classes)
    os.makedirs(args.out, exist_ok=True)
    cfgmod.write_effective({"seed": args.seed, "n": args.n}, args.out)
    for s in samples[: args.n]:
        transforms = model.episode(s.image).transforms[1:]
        _, h, w = s.image.shape
        boxes = [region_box(p, w, h) for p in transforms]
        stem = os.path.splitext(os.path.basename(s.name))[0]
        svg_path = os.path.join(args.out, f"{stem}.svg")
        with open(svg_path, "w", encoding="ascii") as fh:
            fh.write(vizmod.render_overlay(s.image, boxes))
        with open(os.path.join(args.out, f"{stem}_regions.csv"), "w", encoding="ascii") as fh:
            fh.write(vizmod.transforms_csv(transforms))
        print(f"wrote {svg_path}")
    return 0


def cmd_grad_check(args, checks=None):
    results = run_checks(checks)
    text = format_results(results)
    print(text)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed (tolerance {TOLERANCE:g})")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "grad_check.txt"), "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    if failed:
        print("failed: " + ", ".join(r.name for r in failed), file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen-data": cmd_gen_data,
        "train": cmd_train,
        "eval": cmd_eval,
        "viz": cmd_viz,
        "grad-check": cmd_grad_check,
    }
    try:
        return handlers[args.command](args)
    except NonFiniteLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"offending batch indices: {exc.batch_indices}", file=sys.stderr)
        print(f"per-sample losses: {exc.losses}", file=sys.stderr)
        return 3
    except (ConfigError, DataError, FormatError, ProtocolError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
