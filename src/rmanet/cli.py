"""Command-line surface: gen-data, train, eval, viz, grad-check.

Exit codes: 0 success, 1 runtime/data error, 2 usage error, 3 numerical
divergence during training.
"""

import argparse
import dataclasses
import os
import sys

from . import config as cfgmod
from . import data as datamod
from . import viz as vizmod
from .errors import ConfigError, DataError, FormatError, NonFiniteLossError, ProtocolError, ShapeError
from .evaluation import (SINGLE_VIEW, TEN_VIEWS, THRESHOLD, TOP_K, report_csv, report_from_predictions,
                         report_table, score_samples)
from .gradchecks import TOLERANCE, format_results, run_checks
from .losses import LossWeights
from .model import load_model
from .train import TrainConfig, train
from .transformer import region_box

# config key -> TrainConfig field; the key "region" is the side r of the (r, r) field
TRAIN_FIELDS = {"seed": "seed", "k": "k_regions", "epochs": "epochs", "batch_size": "batch_size", "lr": "lr",
                "lr_decay_epoch": "lr_decay_epoch", "hidden": "n_hidden", "channels": "channels",
                "region": "region", "cell_tanh": "cell_tanh"}
LOSS_KEYS = tuple(f.name for f in dataclasses.fields(LossWeights))  # keys of TrainConfig.loss_weights


def train_values(config: TrainConfig):
    """The config-key view of a TrainConfig, as echoed into config.txt."""
    values = {key: getattr(config, name) for key, name in TRAIN_FIELDS.items()}
    values["region"] = config.region[0]
    return {**values, **dataclasses.asdict(config.loss_weights)}


def train_config(values, disabled=frozenset()):
    """The TrainConfig that ``values`` (every train and loss key) describe."""
    fields = {name: values[key] for key, name in TRAIN_FIELDS.items()}
    fields["region"] = (values["region"], values["region"])
    weights = LossWeights(**{key: values[key] for key in LOSS_KEYS})
    return TrainConfig(**fields, loss_weights=weights, disabled_constraints=disabled)


def _flag(parse):
    """A config-value parser as a flag type: a bad value is a usage error (exit 2)."""
    def flag(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return flag


KEY = {name: _flag(parse) for name, parse in cfgmod.KNOWN_KEYS.items()}  # flag type of each config key


def build_parser():
    parser = argparse.ArgumentParser(prog="rmanet", description="Recurrent-attention multi-label classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic shapes dataset")
    g.add_argument("--seed", type=KEY["seed"], default=1)
    g.add_argument("--n", type=_flag(cfgmod.int_range(1)), default=600, help="training samples")
    g.add_argument("--test-n", type=_flag(cfgmod.int_range(0)), default=200, help="test samples (0: no test split)")
    g.add_argument("--classes", type=KEY["classes"], default=datamod.N_CLASSES)
    g.add_argument("--size", type=KEY["image_size"], default=datamod.IMAGE_SIZE)
    g.add_argument("--out", required=True)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--data", required=True, help="dataset root (images/ + manifest.csv)")
    t.add_argument("--out", required=True)
    t.add_argument("--config", default=None, help="key = value config file")
    for key in ("seed", "k", "epochs", "batch_size", "lr", "lr_decay_epoch", "hidden", "region"):
        t.add_argument("--" + key.replace("_", "-"), type=KEY[key], default=None)
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
    e.add_argument("--seed", type=KEY["seed"], default=0, help="recorded for provenance; evaluation is deterministic")
    e.add_argument("--views", type=KEY["views"], default=None, help="single or ten")
    e.add_argument("--top-k", type=KEY["top_k"], default=None)
    e.add_argument("--threshold", type=KEY["threshold"], default=None)

    v = sub.add_parser("viz", help="render attended regions as SVG overlays")
    v.add_argument("--checkpoint", required=True)
    v.add_argument("--data", required=True)
    v.add_argument("--out", required=True)
    v.add_argument("--config", default=None)
    v.add_argument("--seed", type=KEY["seed"], default=0, help="recorded for provenance; rendering is deterministic")
    v.add_argument("--n", type=_flag(cfgmod.int_range(1)), default=4, help="number of images")

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


def _merged(defaults, args):
    """Defaults, overridden by the ``--config`` file, overridden by the flags of the same keys."""
    file_values = cfgmod.read_config(args.config) if args.config else {}
    return cfgmod.merge(defaults, file_values, {key: getattr(args, key, None) for key in defaults})


def cmd_train(args):
    merged = _merged(train_values(TrainConfig()), args)
    disabled = frozenset()
    if args.no_constraint:
        chosen = set(args.no_constraint)
        disabled = frozenset(("anchor", "scale", "positive")) if "all" in chosen else frozenset(chosen)
    cfg = train_config(merged, disabled)
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
    merged = _merged({"top_k": TOP_K, "threshold": THRESHOLD, "views": "single"}, args)
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
    inference = model.constants()
    for s in samples[: args.n]:
        transforms = inference.episode(s.image[None]).transforms[1:]
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
