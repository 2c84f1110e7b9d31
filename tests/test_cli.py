import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from rmanet import cli
from rmanet.losses import LossWeights
from rmanet.tensor import _accum, _node
from rmanet.train import TrainConfig

from oracles import random_baseline_map


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """One tiny dataset + trained checkpoint shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run_cli("gen-data", "--seed", "5", "--n", "16", "--test-n", "8",
                   "--classes", "3", "--size", "32", "--out", str(data)) == 0
    run = root / "run"
    assert run_cli("train", "--data", str(data / "train"), "--out", str(run),
                   "--seed", "2", "--k", "2", "--epochs", "2", "--batch-size", "8",
                   "--hidden", "8") == 0
    return {"root": root, "data": data, "run": run}


def test_gen_data_deterministic_and_summarized(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run_cli("gen-data", "--seed", "9", "--n", "6", "--test-n", "3",
                       "--classes", "4", "--out", str(out)) == 0
    text = capsys.readouterr().out
    assert "label_marginals" in text
    pair = [(p / "train" / "manifest.csv").read_bytes() for p in (a, b)]
    assert pair[0] == pair[1]
    img = [(p / "train" / "images" / "img_00000.ppm").read_bytes() for p in (a, b)]
    assert img[0] == img[1]


def test_gen_data_rejects_single_class(tmp_path):
    with pytest.raises(SystemExit) as e:
        run_cli("gen-data", "--seed", "1", "--n", "4", "--classes", "1", "--out", str(tmp_path / "x"))
    assert e.value.code == 2


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit) as e:
        run_cli("frobnicate")
    assert e.value.code == 2


def test_train_outputs(cli_workspace):
    run = cli_workspace["run"]
    log = (run / "log.csv").read_text().splitlines()
    assert log[0] == "epoch,total_loss,cls_loss,loc_loss"
    assert len(log) == 3
    assert (run / "checkpoint.rma").exists()
    assert (run / "config.txt").exists()


def test_train_missing_data_exits_1(tmp_path):
    assert run_cli("train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")) == 1


def test_train_no_constraint_all_zeroes_loc(cli_workspace, tmp_path):
    data = cli_workspace["data"]
    out = tmp_path / "ablate"
    assert run_cli("train", "--data", str(data / "train"), "--out", str(out),
                   "--seed", "2", "--k", "2", "--epochs", "2", "--batch-size", "8",
                   "--hidden", "8", "--no-constraint", "all") == 0
    rows = (out / "log.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[3] == "0.000000" for row in rows)


def test_eval_report_in_range(cli_workspace, tmp_path, capsys):
    out = tmp_path / "metrics"
    assert run_cli("eval", "--checkpoint", str(cli_workspace["run"] / "checkpoint.rma"),
                   "--data", str(cli_workspace["data"] / "test"), "--out", str(out)) == 0
    capsys.readouterr()
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "metric,value"
    values = {row.split(",")[0]: row.split(",")[1] for row in lines[1:]}
    for key in ("op", "or", "of1", "cp", "cr", "cf1", "map"):
        assert 0.0 <= float(values[key]) <= 1.0
    assert "ap_0" in values


def test_eval_ten_views_runs(cli_workspace, capsys):
    assert run_cli("eval", "--checkpoint", str(cli_workspace["run"] / "checkpoint.rma"),
                   "--data", str(cli_workspace["data"] / "test"), "--views", "ten") == 0
    assert "10 view(s)" in capsys.readouterr().out


def test_eval_checkpoint_data_mismatch(cli_workspace, tmp_path):
    other = tmp_path / "otherdata"
    assert run_cli("gen-data", "--seed", "3", "--n", "4", "--test-n", "2",
                   "--classes", "6", "--out", str(other)) == 0
    code = run_cli("eval", "--checkpoint", str(cli_workspace["run"] / "checkpoint.rma"),
                   "--data", str(other / "test"))
    assert code == 1


def test_eval_malformed_checkpoint_exits_1(cli_workspace, tmp_path, capsys):
    from rmanet.checkpoint import load_tensors, save_tensors

    arrays = load_tensors(str(cli_workspace["run"] / "checkpoint.rma"))
    arrays["meta/hidden"] = np.zeros(1, dtype=np.float32)
    bad = tmp_path / "bad.rma"
    save_tensors(list(arrays.items()), str(bad))
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", str(bad), "--data", str(cli_workspace["data"] / "test")) == 1
    assert any(line.startswith("error: ") and "meta/hidden" in line
               for line in capsys.readouterr().err.splitlines())


def test_eval_checkpoint_with_undecodable_name_exits_1(cli_workspace, tmp_path, capsys):
    blob = bytearray((cli_workspace["run"] / "checkpoint.rma").read_bytes())
    blob[14] = 0xFF  # first byte of the first tensor name: after magic, version, count and name length
    bad = tmp_path / "bad.rma"
    bad.write_bytes(bytes(blob))
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", str(bad), "--data", str(cli_workspace["data"] / "test")) == 1
    assert any(line.startswith("error: ") and "UTF-8" in line for line in capsys.readouterr().err.splitlines())


def test_untrained_model_scores_near_random_baseline(tmp_path, capsys):
    data = tmp_path / "base_data"
    assert run_cli("gen-data", "--seed", "21", "--n", "8", "--test-n", "60",
                   "--classes", "4", "--out", str(data)) == 0
    run = tmp_path / "base_run"
    # lr 0 keeps the randomly initialized weights untouched
    assert run_cli("train", "--data", str(data / "train"), "--out", str(run),
                   "--seed", "8", "--k", "2", "--epochs", "1", "--batch-size", "8",
                   "--hidden", "8", "--lr", "1e-12") == 0
    out = tmp_path / "base_metrics"
    assert run_cli("eval", "--checkpoint", str(run / "checkpoint.rma"),
                   "--data", str(data / "test"), "--out", str(out)) == 0
    capsys.readouterr()
    rows = dict(r.split(",") for r in (out / "metrics.csv").read_text().splitlines()[1:])
    from rmanet.data import load

    gt = np.stack([s.labels.astype(bool) for s in load(str(data / "test"))])
    baseline = random_baseline_map(gt, n_draws=100, seed=0)
    assert abs(float(rows["map"]) - baseline) <= 0.15


def test_viz_outputs_wellformed_and_deterministic(cli_workspace, tmp_path):
    ckpt = str(cli_workspace["run"] / "checkpoint.rma")
    data = str(cli_workspace["data"] / "test")
    outs = [tmp_path / "viz1", tmp_path / "viz2"]
    for out in outs:
        assert run_cli("viz", "--checkpoint", ckpt, "--data", data, "--out", str(out), "--n", "2") == 0
    names = sorted(os.listdir(outs[0]))
    assert any(n.endswith(".svg") for n in names) and any(n.endswith("_regions.csv") for n in names)
    for name in names:
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b
    svg = next(n for n in names if n.endswith(".svg"))
    root = ET.fromstring((outs[0] / svg).read_text())
    assert root.tag.endswith("svg")
    for rect in root:
        x, y = float(rect.get("x")), float(rect.get("y"))
        w, h = float(rect.get("width")), float(rect.get("height"))
        assert x >= 0 and y >= 0 and x + w <= 32 + 1e-9 and y + h <= 32 + 1e-9


def test_viz_records_no_graph(cli_workspace, tmp_path, model_outputs):
    assert run_cli("viz", "--checkpoint", str(cli_workspace["run"] / "checkpoint.rma"),
                   "--data", str(cli_workspace["data"] / "test"), "--out", str(tmp_path / "viz"), "--n", "2") == 0
    assert len(model_outputs["encode"]) == 2 and model_outputs["attend"]
    assert not any(t.requires_grad for t in model_outputs["encode"] + model_outputs["attend"])


def test_viz_region_csv_lists_k_rows(cli_workspace, tmp_path):
    out = tmp_path / "viz"
    assert run_cli("viz", "--checkpoint", str(cli_workspace["run"] / "checkpoint.rma"),
                   "--data", str(cli_workspace["data"] / "test"), "--out", str(out), "--n", "1") == 0
    csv = next(p for p in out.iterdir() if p.name.endswith("_regions.csv"))
    assert len(csv.read_text().splitlines()) == 1 + 2  # header + K=2 transforms


def test_grad_check_command_passes(capsys):
    assert run_cli("grad-check") == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 12
    assert "FAIL" not in out


def test_grad_check_reports_injected_failure(capsys):
    def broken():
        from rmanet.tensor import Tensor

        x = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)

        def wrong(t):
            out = t.data * 2.0

            def bwd(g):
                _accum(t, -2.0 * g)  # sign flipped on purpose

            return _node(out, (t,), bwd)

        from rmanet.tensor import grad_check

        return grad_check(wrong, [np.array([1.0, 2.0])])

    args = cli.build_parser().parse_args(["grad-check"])
    code = cli.cmd_grad_check(args, checks=[("good", lambda: 0.0), ("injected_sign_error", broken)])
    out = capsys.readouterr()
    assert code == 1
    assert "injected_sign_error" in out.out + out.err


def test_default_region_count_is_five():
    args = cli.build_parser().parse_args(["train", "--data", "x", "--out", "y"])
    merged = cli._merged(cli.train_values(TrainConfig()), args)
    assert merged["k"] == 5 and cli.train_config(merged).k_regions == 5


def test_train_without_flags_or_file_uses_train_config_defaults(monkeypatch, cli_workspace, tmp_path):
    handed = []
    monkeypatch.setattr(cli, "train", lambda samples, config, **kwargs: handed.append(config))
    assert run_cli("train", "--data", str(cli_workspace["data"] / "train"), "--out", str(tmp_path / "o")) == 0
    assert handed == [TrainConfig()]


def test_train_config_round_trips_through_config_keys():
    cfg = TrainConfig(seed=3, k_regions=2, n_hidden=8, channels=(4, 8), region=(3, 3), cell_tanh=True,
                      loss_weights=LossWeights(anchor_weight=0.5, loc_weight=0.0))
    assert cli.train_config(cli.train_values(cfg)) == cfg


BAD_CONFIG_VALUES = [
    ("train", "hidden = 0"),
    ("train", "channels = 0,8"),
    ("train", "lr = -0.001"),
    ("train", "lr_decay_epoch = -3"),
    ("train", "seed = -1"),
    ("train", "k = 100000"),
    ("train", "anchor_weight = inf"),
    ("eval", "views = bogus"),
    ("eval", "views = TEN"),
    ("eval", "threshold = nan"),
]


@pytest.mark.parametrize("command,line", BAD_CONFIG_VALUES)
def test_bad_config_value_exits_1_before_any_output(cli_workspace, tmp_path, capsys, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    data = cli_workspace["data"]
    if command == "train":
        where = ["--data", str(data / "train")]
    else:
        where = ["--checkpoint", str(cli_workspace["run"] / "checkpoint.rma"), "--data", str(data / "test")]
    capsys.readouterr()
    assert run_cli(command, *where, "--out", str(out), "--config", str(cfg)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert any(row.startswith("error: ") and repr(line.split(" = ")[0]) in row for row in captured.err.splitlines())
    assert not out.exists()


BAD_FLAGS = [
    ("train", "--seed", "-1"),
    ("train", "--lr", "-1"),
    ("train", "--lr", "0"),
    ("train", "--k", "100000"),
    ("gen-data", "--seed", "-1"),
    ("gen-data", "--classes", "9"),
    ("gen-data", "--size", "20"),
    ("eval", "--threshold", "nan"),
    ("eval", "--views", "bogus"),
]


@pytest.mark.parametrize("command,flag,value", BAD_FLAGS)
def test_bad_flag_value_exits_2(tmp_path, command, flag, value):
    required = {"train": ["--data", "d"], "gen-data": [], "eval": ["--checkpoint", "c", "--data", "d"]}
    with pytest.raises(SystemExit) as e:
        run_cli(command, *required[command], "--out", str(tmp_path / "out"), flag, value)
    assert e.value.code == 2
    assert not (tmp_path / "out").exists()


def test_non_finite_loss_maps_to_exit_3(monkeypatch, tmp_path, cli_workspace, capsys):
    from rmanet.errors import NonFiniteLossError

    def explode(*a, **k):
        raise NonFiniteLossError("non-finite loss in epoch 1", batch_indices=[3, 4], losses=[float("nan")])

    monkeypatch.setattr(cli, "train", explode)
    code = run_cli("train", "--data", str(cli_workspace["data"] / "train"), "--out", str(tmp_path / "o"))
    assert code == 3
    assert "batch indices: [3, 4]" in capsys.readouterr().err


def test_config_file_feeds_train(cli_workspace, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 1\nk = 2\nhidden = 8\nbatch_size = 8\nseed = 2\n")
    out = tmp_path / "cfg_run"
    assert run_cli("train", "--data", str(cli_workspace["data"] / "train"),
                   "--out", str(out), "--config", str(cfg)) == 0
    assert "epochs = 1" in (out / "config.txt").read_text()
    rows = (out / "log.csv").read_text().splitlines()
    assert len(rows) == 2  # header + 1 epoch
