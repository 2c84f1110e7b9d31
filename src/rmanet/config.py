"""Line-oriented ``key = value`` config files and flag merging.

A config file supplies defaults for the known training/model/loss knobs;
explicit command-line flags win over the file, and built-in defaults fill
whatever is left.  Each known key has one parser that converts and
range-checks its value; the command-line flag of the same knob uses that
parser too.  Unknown keys and bad values are rejected with the offending
line.  Every command echoes its effective configuration into its output
directory.
"""

import math
import os

from .data import SHAPE_NAMES, SIZE_DIVISOR, valid_image_size, valid_n_classes
from .errors import ConfigError
from .model import MAX_REGIONS


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_tuple(text):
    return tuple(int(tok) for tok in text.replace(" ", "").split(","))


def _checked(convert, accept, rule):
    """Parser that converts the text and rejects values ``accept`` refuses."""
    def parse(text):
        value = convert(text)
        if not accept(value):
            raise ValueError(f"must be {rule}, got {text.strip()}")
        return value

    return parse


def int_range(low, high=math.inf):
    rule = f">= {low}" if high == math.inf else f"an integer from {low} to {high}"
    return _checked(int, lambda v: low <= v <= high, rule)


def _float(low=-math.inf, strict=False):
    bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"
    return _checked(float, lambda v: math.isfinite(v) and (v > low if strict else v >= low), "a finite number" + bound)


KNOWN_KEYS = {
    "seed": int_range(0),
    "k": int_range(1, MAX_REGIONS),
    "epochs": int_range(1),
    "batch_size": int_range(1),
    "lr": _float(0.0, strict=True),
    "lr_decay_epoch": int_range(1),
    "hidden": int_range(1),
    "channels": _checked(_parse_int_tuple, lambda cs: min(cs) >= 1, "integers >= 1"),
    "region": int_range(1),
    "classes": _checked(int, valid_n_classes, f"an integer from 2 to {len(SHAPE_NAMES)}"),
    "image_size": _checked(int, valid_image_size, f"a multiple of {SIZE_DIVISOR} and >= 16"),
    "scale_threshold": _float(0.0),
    "positive_threshold": _float(0.0),
    "anchor_weight": _float(0.0),
    "positive_weight": _float(0.0),
    "loc_weight": _float(0.0),
    "cell_tanh": _parse_bool,
    "top_k": int_range(1),
    "threshold": _float(),
    "views": _checked(str, lambda v: v in ("single", "ten"), "single or ten"),
}


def read_config(path):
    """Parse a config file into typed values, validating every key."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path} line {lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in KNOWN_KEYS:
                raise ConfigError(f"{path} line {lineno}: unknown key {key!r}")
            try:
                values[key] = KNOWN_KEYS[key](value)
            except ValueError as exc:
                raise ConfigError(f"{path} line {lineno}: bad value for {key!r}: {exc}") from exc
    return values


def merge(defaults, file_values, flag_values):
    """Built-in defaults, overridden by the file, overridden by explicit flags."""
    out = dict(defaults)
    out.update(file_values)
    out.update({k: v for k, v in flag_values.items() if v is not None})
    return out


def write_effective(values, out_dir, name="config.txt"):
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for key in sorted(values):
        v = values[key]
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        lines.append(f"{key} = {v}")
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
