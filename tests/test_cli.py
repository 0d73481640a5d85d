import csv
import json
import os
import struct
import sys
import warnings
import weakref

import numpy as np
import pytest

from glasso_prune.analysis import (
    CURVE_HEADER, HISTOGRAM_HEADER, bimodality_gap, norm_histogram, write_bundle,
)
from glasso_prune.cli import entry, main
from glasso_prune.config import ExperimentConfig, parse_config
from glasso_prune.errors import (
    ConfigError, DataFormatError, GlassoPruneError, ModelFormatError, ShapeMismatchError,
    TrainingDiverged,
)
from glasso_prune.model_io import load_model, model_bytes, save_model
from glasso_prune.network import batch_gradients, init_network
from glasso_prune.regularization import Mode, group_norms
from glasso_prune.trainer import EpochReport, evaluate

BASE_CFG = """
dataset = synth
synth_classes = 3
synth_dim = 8
synth_per_class = 60
synth_separation = 4.0
data_seed = 5
split_fractions = 0.8,0.1,0.1
layer_sizes = 8,16,3
mode = glasso_out
alpha = 0.02
beta_coupling = true
epochs = 3
batch_size = 16
seed = 11
"""


def write_cfg(tmp_path, extra="", name="exp.cfg"):
    path = tmp_path / name
    path.write_text(BASE_CFG + extra)
    return path


def read_history(path):
    return [EpochReport(**json.loads(line)) for line in path.read_text().splitlines()]


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    cfg = write_cfg(tmp, f"output_dir = {tmp / 'run'}\n")
    assert main(["train", str(cfg)]) == 0
    return tmp, cfg, tmp / "run"


def test_train_minimal_roundtrip(trained_run):
    _, _, run = trained_run
    model = run / "model.glnn"
    assert model.exists()
    net = load_model(model)
    assert model_bytes(net) == model.read_bytes()
    assert net.layer_sizes == [8, 16, 3]


def test_train_writes_history_and_manifest(trained_run):
    _, _, run = trained_run
    history = read_history(run / "history.jsonl")
    assert len(history) == 3
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["config"]["alpha"] == 0.02
    assert manifest["config"]["seed"] == 11
    assert 1 <= manifest["best_epoch"] <= 3
    assert 0.0 <= manifest["test_acc"] <= 1.0
    assert set(manifest["final"]) == {"train_loss", "train_acc", "val_acc", "disposable"}


def test_train_outputs_agree_with_its_saved_model(tmp_path):
    # manifest.json, retained.csv and history.jsonl are made from the
    # float32 network that model.glnn stores, as prune and analyze see it
    run = tmp_path / "run"
    cfg = write_cfg(tmp_path, f"emit_bundle = true\noutput_dir = {run}\n")
    assert main(["train", str(cfg)]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    net = load_model(run / "model.glnn")
    assert net.dtype == np.float32
    _, val_set, _ = parse_config(cfg).load_splits()
    assert manifest["best_val_acc"] == evaluate(net, val_set)
    assert main(["prune", str(run / "model.glnn"), "--data", str(cfg), "--out", str(run)]) == 0
    doc = json.loads((run / "prune.json").read_text())
    assert manifest["test_acc"] == doc["before_accuracy"]
    with open(run / "retained.csv", newline="") as f:
        kept = [int(row["kept"]) for row in csv.DictReader(f)]
    assert kept == doc["retained_per_layer"]
    best = read_history(run / "history.jsonl")[manifest["best_epoch"] - 1]
    assert best.disposable == doc["removed_per_layer"]
    assert best.val_acc == manifest["best_val_acc"]
    # the final block is the last history record without its epoch
    last = json.loads((run / "history.jsonl").read_text().splitlines()[-1])
    assert last.pop("epoch") == 3
    assert manifest["final"] == last
    assert list(manifest["final"]) == list(last)


def test_train_bundle_equals_analyze_outputs(tmp_path):
    # train's model diagnostics are those of analyze on the model it saved,
    # and its disposable.csv holds the counts of its history.jsonl
    run, by_model = tmp_path / "run", tmp_path / "model"
    cfg = write_cfg(tmp_path, f"emit_bundle = true\noutput_dir = {run}\n")
    assert main(["train", str(cfg)]) == 0
    argv = ["analyze", str(run / "model.glnn"), "--data", str(cfg), "--out", str(by_model)]
    assert main(argv) == 0
    for name in ("histogram.csv", "gap.json", "retained.csv"):
        assert (run / name).read_bytes() == (by_model / name).read_bytes(), name
    history = read_history(run / "history.jsonl")
    want = [[r.epoch, layer, count] for r in history for layer, count in enumerate(r.disposable, 1)]
    with open(run / "disposable.csv", newline="") as f:
        header, *rows = csv.reader(f)
    assert header == ["epoch", "layer", "count"]
    assert [[int(cell) for cell in row] for row in rows] == want
    assert len(want) == 3  # three epochs, one hidden layer


def test_train_without_bundle_writes_disposable_only(tmp_path):
    # disposable.csv comes from the history in memory; emit_bundle gates only
    # the files analyze can rebuild from model.glnn
    run = tmp_path / "run"
    assert main(["train", str(write_cfg(tmp_path, f"output_dir = {run}\n"))]) == 0
    assert sorted(p.name for p in run.iterdir()) == [
        "disposable.csv", "history.jsonl", "manifest.json", "model.glnn"
    ]
    assert (run / "disposable.csv").read_text().splitlines()[0] == "epoch,layer,count"


@pytest.mark.parametrize(
    "mode, layer_sizes",
    [("glasso_out", "8,16,16,3"), ("glasso_in", "8,16,16,3"), ("glasso_in", "8,5,7,6,3"),
     ("l2", "8,16,3")],
)
def test_train_disposable_csv_holds_history_counts(tmp_path, mode, layer_sizes):
    # one row per epoch and hidden layer, layers numbered from 1; an l2 run
    # counts no groups, so its file is the header alone
    run = tmp_path / "run"
    text = BASE_CFG.replace("layer_sizes = 8,16,3", f"layer_sizes = {layer_sizes}")
    text = text.replace("mode = glasso_out", f"mode = {mode}")
    if mode == "l2":
        text = text.replace("alpha = 0.02", "alpha = 0.0").replace("beta_coupling = true", "")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text + f"output_dir = {run}\n")
    assert main(["train", str(cfg)]) == 0
    history = read_history(run / "history.jsonl")
    want = [[r.epoch, layer, count] for r in history for layer, count in enumerate(r.disposable, 1)]
    with open(run / "disposable.csv", newline="") as f:
        header, *rows = csv.reader(f)
    assert header == ["epoch", "layer", "count"]
    assert [[int(cell) for cell in row] for row in rows] == want
    hidden = 0 if mode == "l2" else layer_sizes.count(",") - 1
    assert len(want) == 3 * hidden


def test_train_missing_output_dir(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["train", str(cfg)]) == 2
    assert "output_dir" in capsys.readouterr().err


def test_train_empty_split_exits_2_before_writing(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        BASE_CFG.replace("synth_classes = 3", "synth_classes = 2")
        .replace("synth_per_class = 60", "synth_per_class = 2")
        + f"output_dir = {out}\n"
    )
    assert main(["train", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "split_fractions" in err and "3/0/1" in err
    assert not out.exists()


def test_train_negative_alpha_exit_and_message(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BASE_CFG.replace("alpha = 0.02", "alpha = -1") + "output_dir = x\n")
    assert main(["train", str(cfg)]) == 2
    assert "alpha" in capsys.readouterr().err


def test_train_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cfg1 = write_cfg(tmp_path, f"output_dir = {out1}\nemit_bundle = true\n", "a.cfg")
    cfg2 = write_cfg(tmp_path, f"output_dir = {out2}\nemit_bundle = true\n", "b.cfg")
    assert main(["train", str(cfg1)]) == 0
    assert main(["train", str(cfg2)]) == 0
    for name in ("model.glnn", "history.jsonl", "histogram.csv", "gap.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_prune_theta_below_all_norms(trained_run, tmp_path, capsys):
    _, cfg, run = trained_run
    out = tmp_path / "pruned"
    code = main(
        [
            "prune", str(run / "model.glnn"),
            "--mode", "out",
            "--theta", "1e-12",
            "--data", str(cfg),
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads((out / "prune.json").read_text())
    assert doc["total_removed"] == 0
    assert doc["before_accuracy"] == doc["after_accuracy"]
    pruned = load_model(out / "pruned_model.glnn")
    assert pruned.layer_sizes == [8, 16, 3]


def test_prune_match_count(trained_run, tmp_path):
    _, cfg, run = trained_run
    out = tmp_path / "mc"
    code = main(
        [
            "prune", str(run / "model.glnn"),
            "--mode", "out",
            "--match-count", "2",
            "--data", str(cfg),
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads((out / "prune.json").read_text())
    assert doc["total_removed"] == 2
    assert doc["theta"] is None
    assert load_model(out / "pruned_model.glnn").layer_sizes == [8, 14, 3]


def test_prune_missing_model_exits_4(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(
        ["prune", str(tmp_path / "nope.glnn"), "--mode", "out", "--data", str(cfg)]
    )
    assert code == 4


def test_prune_corrupt_model_exits_4(trained_run, tmp_path):
    _, cfg, run = trained_run
    corrupt = tmp_path / "corrupt.glnn"
    corrupt.write_bytes((run / "model.glnn").read_bytes()[:-4])
    code = main(["prune", str(corrupt), "--mode", "out", "--data", str(cfg)])
    assert code == 4


@pytest.mark.parametrize(
    "start,field,message",
    [(4, 3, "unsupported version 3"), (8, 2, "element size 2")],
    ids=["version-3", "element-size-2"],
)
def test_unknown_model_header_exits_4(trained_run, tmp_path, capsys, start, field, message):
    _, cfg, run = trained_run
    blob = bytearray((run / "model.glnn").read_bytes())
    blob[start : start + 4] = field.to_bytes(4, "little")
    bad = tmp_path / "bad.glnn"
    bad.write_bytes(bytes(blob))
    assert main(["prune", str(bad), "--data", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_analyze_histogram_mass(trained_run, tmp_path):
    _, _, run = trained_run
    out = tmp_path / "an"
    assert main(
        ["analyze", str(run / "model.glnn"), "--histogram", "--out", str(out)]
    ) == 0
    lines = (out / "histogram.csv").read_text().splitlines()
    assert lines[0] == HISTOGRAM_HEADER
    pooled = sum(
        int(line.split(",")[3]) for line in lines[1:] if line.split(",")[2] == "0"
    )
    assert pooled == 16  # all hidden nodes


def test_analyze_curve_first_row_zero(trained_run, tmp_path):
    _, cfg, run = trained_run
    out = tmp_path / "curve"
    code = main(
        [
            "analyze", str(run / "model.glnn"),
            "--curve", "--step", "4",
            "--data", str(cfg),
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[0] == CURVE_HEADER
    assert lines[1].startswith("0,")


def test_analyze_curve_without_data_errors(trained_run, tmp_path, capsys):
    _, _, run = trained_run
    code = main(["analyze", str(run / "model.glnn"), "--curve", "--out", str(tmp_path)])
    assert code == 2
    assert "--data" in capsys.readouterr().err


def test_analyze_disposable_flag_rejected(trained_run, tmp_path, capsys):
    # train writes disposable.csv from its history; a model has no such output
    _, _, run = trained_run
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(run / "model.glnn"), "--disposable", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--disposable" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("options", [[], ["--theta", "0.5"], ["--histogram"]])
def test_analyze_history_exits_4(trained_run, tmp_path, capsys, options):
    # analyze takes only a model: a history is not one, whatever the options
    _, _, run = trained_run
    history = tmp_path / "history.jsonl"
    history.write_bytes((run / "history.jsonl").read_bytes())
    assert main(["analyze", str(history), *options]) == 4
    err = capsys.readouterr().err
    assert str(history) in err and "bad magic" in err
    assert list(tmp_path.iterdir()) == [history]


# trained_run's model.glnn, [8, 16, 3] in float32: a 16-byte header (magic,
# version, element size, L), layer 1 at 16 (rows, cols, 512 weight bytes at
# 24, 64 bias bytes at 536), layer 2 at 600 (weights at 608, biases at 800)
# and 812 bytes in all
def _patched(blob, at, value):
    return blob[:at] + value + blob[at + len(value):]


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda m: b"", "truncated at byte 0, needed 4 more of 0", id="empty"),
        pytest.param(lambda m: BASE_CFG.encode(), "bad magic", id="config"),
        pytest.param(lambda m: b"a,b,y\n1,2,0\n", "bad magic b'a,b,'", id="csv"),
        pytest.param(lambda m: m[:2], "truncated at byte 0, needed 4 more of 2", id="cut-magic"),
        pytest.param(lambda m: m[:4], "truncated at byte 4", id="cut-version"),
        pytest.param(lambda m: m[:10], "truncated at byte 8", id="cut-element-size"),
        pytest.param(lambda m: m[:14], "truncated at byte 12", id="cut-layer-count"),
        pytest.param(lambda m: m[:18], "truncated at byte 16", id="cut-rows"),
        pytest.param(lambda m: m[:20], "truncated at byte 20", id="cut-cols"),
        pytest.param(lambda m: m[:100], "truncated at byte 24, needed 512 more", id="cut-weights"),
        pytest.param(lambda m: m[:540], "truncated at byte 536, needed 64 more", id="cut-biases"),
        pytest.param(lambda m: m[:604], "truncated at byte 604", id="cut-layer-2"),
        pytest.param(lambda m: m[:-1], "truncated at byte 800, needed 12 more of 811",
                     id="cut-last-byte"),
        pytest.param(lambda m: m + b"\0", "1 trailing bytes", id="trailing-byte"),
        pytest.param(lambda m: _patched(m, 4, (3).to_bytes(4, "little")),
                     "unsupported version 3", id="version-3"),
        pytest.param(lambda m: _patched(m, 8, (2).to_bytes(4, "little")),
                     "element size 2", id="element-size-2"),
        pytest.param(lambda m: _patched(m, 12, (3).to_bytes(4, "little")),
                     "truncated at byte 812", id="layer-count-3"),
        pytest.param(lambda m: _patched(m, 16, (0).to_bytes(4, "little")),
                     "layer 1 has zero width (0x8)", id="zero-width"),
        pytest.param(lambda m: _patched(m, 800, np.float32(np.inf).tobytes()),
                     "layer 2 has a non-finite weight or bias", id="inf-bias"),
    ],
)
def test_analyze_unreadable_model_exits_4(trained_run, tmp_path, capsys, make, message):
    # analyze's one target is a model, so every load error exits 4 naming
    # the file, before any output is made
    _, _, run = trained_run
    model = tmp_path / "model.glnn"
    model.write_bytes(make((run / "model.glnn").read_bytes()))
    assert main(["analyze", str(model), "--out", str(tmp_path / "o")]) == 4
    assert f"{model}: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [model]


@pytest.mark.parametrize(
    "options, named",
    [
        # a model reads --theta only for retained.csv and --step only for curve.csv
        (["--histogram", "--theta", "0.5", "--step", "3"], "--theta"),
        (["--histogram", "--theta", "0.5"], "--theta"),
        (["--gap", "--step", "3"], "--step"),
        (["--step", "3"], "--step"),  # without --data there is no curve
        (["--curve", "--theta", "0.5", "--data", "{cfg}"], "--theta"),
        (["--retained", "--step", "3", "--data", "{cfg}"], "--step"),
        # --data is read for the curve, for the direction without --mode, and
        # for retained.csv's theta without --theta; here for none of them
        (["--histogram", "--mode", "out", "--data", "{cfg}"], "--data"),
        (["--gap", "--retained", "--theta", "0.05", "--mode", "in", "--data", "{cfg}"],
         "--data"),
    ],
)
def test_analyze_unread_option_rejected(trained_run, tmp_path, capsys, options, named):
    _, cfg, run = trained_run
    options = [o.format(cfg=cfg) for o in options]
    out = tmp_path / "o"
    assert main(["analyze", str(run / "model.glnn"), *options, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_analyze_option_accepted_where_read(trained_run, tmp_path, capsys):
    _, cfg, run = trained_run
    # with --data and no selector the curve is drawn, so --step is read
    argv = ["analyze", str(run / "model.glnn"), "--data", str(cfg), "--step", "4"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert (tmp_path / "a" / "curve.csv").read_bytes() == (
        _curve_bytes(run / "model.glnn", cfg, tmp_path / "b", "--step", "4")
    )
    # without a selector retained.csv is written, so --theta is read
    argv = ["analyze", str(run / "model.glnn"), "--theta", "0.5", "--out", str(tmp_path / "c")]
    assert main(argv) == 0
    assert (tmp_path / "c" / "retained.csv").exists()
    # --data is read for the direction without --mode, and for theta without --theta
    argv = ["analyze", str(run / "model.glnn"), "--histogram", "--data", str(cfg)]
    assert main(argv + ["--out", str(tmp_path / "e")]) == 0
    assert (tmp_path / "e" / "histogram.csv").exists()
    argv = ["analyze", str(run / "model.glnn"), "--retained", "--mode", "out", "--data", str(cfg)]
    assert main(argv + ["--out", str(tmp_path / "f")]) == 0
    assert (tmp_path / "f" / "retained.csv").exists()
    # --step 0 is read, and rejected
    assert _curve_bytes(run / "model.glnn", cfg, tmp_path / "d", "--step", "0") is None
    assert "step must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def _curve_bytes(model, cfg, out, *options):
    argv = ["analyze", str(model), "--curve", "--data", str(cfg), *options]
    if main(argv + ["--out", str(out)]) != 0:
        return None
    return (out / "curve.csv").read_bytes()


def test_analyze_default_step_is_100(trained_run, tmp_path):
    # 250 hidden nodes, so step 100 draws points 0, 100 and 200, unlike step 50
    _, cfg, _ = trained_run
    model = tmp_path / "wide.glnn"
    save_model(init_network([8, 250, 3], seed=1), model)
    default = _curve_bytes(model, cfg, tmp_path / "a")
    assert default == _curve_bytes(model, cfg, tmp_path / "b", "--step", "100")
    assert default != _curve_bytes(model, cfg, tmp_path / "c", "--step", "50")
    assert [line.split(",")[0] for line in default.decode().splitlines()[1:]] == [
        "0", "100", "200"
    ]


def test_analyze_curve_splits_across_free_cores(trained_run, tmp_path, monkeypatch, forked_pids):
    # one BLAS thread on four usable cores: the 7 points after the 16-node
    # curve's baseline are drawn by four workers, and the file is one core's
    _, cfg, run = trained_run
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    serial = _curve_bytes(run / "model.glnn", cfg, tmp_path / "a", "--step", "2")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert _curve_bytes(run / "model.glnn", cfg, tmp_path / "b", "--step", "2") == serial
    assert len(forked_pids) == 3


def test_analyze_curve_worker_that_dies_exits_4(
    trained_run, tmp_path, monkeypatch, forked_pids, dying_curve_worker, capsys
):
    _, cfg, run = trained_run
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    argv = ["analyze", str(run / "model.glnn"), "--curve", "--data", str(cfg), "--step", "2"]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 4
    assert len(forked_pids) == 1
    assert capsys.readouterr().err == (
        f"error: curve worker {forked_pids[0]} ended without a result\n"
    )
    assert not (tmp_path / "o").exists()
    for pid in forked_pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_prune_theta_and_match_count_exclusive(trained_run, tmp_path, capsys):
    _, cfg, run = trained_run
    argv = ["prune", str(run / "model.glnn"), "--match-count", "10", "--theta", "0.5",
            "--data", str(cfg), "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_analyze_default_model_products(trained_run, tmp_path):
    _, _, run = trained_run
    out = tmp_path / "defaults"
    assert main(["analyze", str(run / "model.glnn"), "--out", str(out)]) == 0
    for name in ("histogram.csv", "gap.json", "retained.csv"):
        assert (out / name).exists()
    assert not (out / "curve.csv").exists()


@pytest.mark.parametrize(
    "selectors, names",
    [([], ["histogram.csv", "curve.csv", "retained.csv", "gap.json"]),
     (["--histogram", "--curve"], ["histogram.csv", "curve.csv"])],
    ids=["data-only", "histogram-curve"],
)
def test_analyze_writes_each_file_as_its_single_flag_run(
    trained_run, tmp_path, capsys, selectors, names
):
    # the norm outputs and the curve are built apart; the files come out in
    # write order, each the bytes its own flag writes
    _, cfg, run = trained_run
    argv = ["analyze", str(run / "model.glnn"), "--data", str(cfg)]
    out = tmp_path / "together"
    assert main(argv + selectors + ["--step", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "".join(f"wrote {out / name}\n" for name in names)
    for name in names:
        stem = name.split(".")[0]
        step = ["--step", "2"] if stem == "curve" else []
        assert main(argv + [f"--{stem}", *step, "--out", str(tmp_path / stem)]) == 0
        assert capsys.readouterr().out == f"wrote {tmp_path / stem / name}\n"
        assert (out / name).read_bytes() == (tmp_path / stem / name).read_bytes(), name


def test_analyze_missing_target(tmp_path, capsys):
    # a file that cannot be read is an I/O error, as for prune's model
    assert main(["analyze", str(tmp_path / "ghost.glnn")]) == 4
    assert "ghost.glnn" in capsys.readouterr().err
    assert main(["analyze", str(tmp_path / "ghost.glnn"), "--histogram"]) == 4


def test_sweep_summary(tmp_path):
    out_root = tmp_path / "sweeps"
    cfg = write_cfg(tmp_path, f"output_dir = {out_root}\n")
    code = main(["sweep", str(cfg), "--set", "alpha=0.0", "--set", "alpha=0.02"])
    assert code == 0
    lines = (out_root / "summary.csv").read_text().splitlines()
    assert lines[0] == "alpha,best_val_acc,disposable_total,post_prune_acc"
    assert len(lines) == 3
    zero_row = lines[1].split(",")
    assert float(zero_row[0]) == 0.0
    assert int(zero_row[2]) == 0  # no regularization, no disposable nodes
    assert (out_root / "alpha_0.0" / "model.glnn").exists()
    assert (out_root / "alpha_0.02" / "model.glnn").exists()


def test_single_alpha_sweep_matches_train_plus_prune(tmp_path):
    out_root = tmp_path / "one"
    cfg = write_cfg(tmp_path, f"output_dir = {out_root}\n", "sweep.cfg")
    assert main(["sweep", str(cfg), "--set", "alpha=0.02"]) == 0
    row = (out_root / "summary.csv").read_text().splitlines()[1].split(",")

    # the same settings through train: beta_coupling gives beta = 0.1*alpha
    solo = tmp_path / "solo"
    cfg2 = write_cfg(tmp_path, f"output_dir = {solo}\n", "solo.cfg")
    assert main(["train", str(cfg2)]) == 0
    assert (solo / "model.glnn").read_bytes() == (
        out_root / "alpha_0.02" / "model.glnn"
    ).read_bytes()
    history = read_history(solo / "history.jsonl")
    assert float(row[1]) == max(r.val_acc for r in history)


def test_sweep_empty_alphas_errors(tmp_path, capsys):
    cfg = write_cfg(tmp_path, f"output_dir = {tmp_path / 'x'}\n")
    with pytest.raises(SystemExit) as exc:  # argparse: --set is required
        main(["sweep", str(cfg)])
    assert exc.value.code == 2
    assert main(["sweep", str(cfg), "--set", "alpha="]) == 2
    assert main(["sweep", str(cfg), "--set", "alpha=0.1", "--set", "alpha=fish"]) == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("value", ["8,,16,3", "8,16,3,", ",8,16,3"])
def test_sweep_empty_list_item_exits_2(tmp_path, capsys, value):
    cfg = write_cfg(tmp_path, f"output_dir = {tmp_path / 'x'}\n")
    assert main(["sweep", str(cfg), "--set", f"layer_sizes={value}"]) == 2
    assert "layer_sizes" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_sweep_l2_mode_uses_beta(tmp_path, capsys):
    out_root = tmp_path / "l2s"
    text = BASE_CFG.replace("mode = glasso_out", "mode = l2")
    text = text.replace("alpha = 0.02", "alpha = 0.0")
    text = text.replace("beta_coupling = true", "beta_coupling = false")
    cfg = tmp_path / "l2.cfg"
    cfg.write_text(text + f"output_dir = {out_root}\n")
    # an l2 run has no group penalty, so a nonzero alpha is a config error
    assert main(["sweep", str(cfg), "--set", "alpha=0.02"]) == 2
    assert "alpha" in capsys.readouterr().err
    assert not out_root.exists()
    # beta is swept as given, not derived from anything
    assert main(["sweep", str(cfg), "--set", "beta=0.002"]) == 0
    manifest = json.loads((out_root / "beta_0.002" / "manifest.json").read_text())
    assert manifest["config"]["alpha"] == 0.0
    assert manifest["config"]["beta"] == 0.002


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize(
    "edit, dim, classes",
    [(("synth_dim = 8", "synth_dim = 9"), 9, 3), (("synth_classes = 3", "synth_classes = 4"), 8, 4)],
    ids=["dim", "classes"],
)
def test_config_contradicting_its_data_exits_2_before_writing(
    tmp_path, capsys, command, edit, dim, classes
):
    out = tmp_path / "run"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BASE_CFG.replace(*edit) + f"output_dir = {out}\n")
    argv = [command, str(cfg)] + (["--set", "alpha=0.01"] if command == "sweep" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "layer_sizes" in err and f"dimension {dim}" in err and f"{classes} classes" in err
    assert not out.exists()


def test_data_shape_mismatch_exits_4(trained_run, tmp_path):
    _, _, run = trained_run
    other = tmp_path / "other.cfg"
    other.write_text(BASE_CFG.replace("synth_dim = 8", "synth_dim = 9").replace(
        "layer_sizes = 8,16,3", "layer_sizes = 9,16,3"
    ))
    code = main(
        ["prune", str(run / "model.glnn"), "--mode", "out", "--data", str(other)]
    )
    assert code == 4


@pytest.mark.parametrize(
    "edits, message",
    [
        ((("synth_dim = 8", "synth_dim = 9"), ("layer_sizes = 8,16,3", "layer_sizes = 9,16,3")),
         "dataset dim 9 does not match network input 8"),
        ((("synth_classes = 3", "synth_classes = 4"), ("layer_sizes = 8,16,3", "layer_sizes = 8,16,4")),
         "label 3 out of range for 3 output nodes"),
    ],
    ids=["dim", "classes"],
)
def test_analyze_curve_on_data_that_does_not_fit_exits_4(
    trained_run, tmp_path, capsys, edits, message
):
    # the config fits its own data but not the model; the curve checks the
    # eval set against the network before its first point
    _, _, run = trained_run
    text = BASE_CFG
    for edit in edits:
        text = text.replace(*edit)
    other = tmp_path / "other.cfg"
    other.write_text(text)
    out = tmp_path / "curve"
    argv = ["analyze", str(run / "model.glnn"), "--curve", "--data", str(other), "--out", str(out)]
    assert main(argv) == 4
    assert message in capsys.readouterr().err
    assert not (out / "curve.csv").exists()


def write_csv_cfg(tmp_path, data: bytes):
    """A config training on a CSV with features a, b and label y."""
    (tmp_path / "d.csv").write_bytes(data)
    cfg = tmp_path / "csv.cfg"
    cfg.write_text(
        f"dataset = csv\ncsv_path = {tmp_path / 'd.csv'}\ncsv_label_column = y\n"
        f"layer_sizes = 2,4,2\nmode = glasso_out\noutput_dir = {tmp_path / 'run'}\n"
    )
    return cfg


@pytest.mark.parametrize("shape", [(0, 2, 2), (3, 0, 0), None],
                         ids=["idx-no-images", "idx-no-pixels", "csv-label-only"])
def test_train_data_without_samples_or_features_exits_4_before_writing(tmp_path, capsys, shape):
    # an IDX image shape, or None for a CSV holding only its label column
    if shape is None:
        cfg = write_csv_cfg(tmp_path, b"y\n0\n1\n0\n1\n")
        data = tmp_path / "d.csv"
    else:
        data, labels = tmp_path / "imgs.idx", tmp_path / "labs.idx"
        data.write_bytes(struct.pack(">IIII", 0x803, *shape))
        labels.write_bytes(struct.pack(">II", 0x801, shape[0]) + bytes(shape[0]))
        cfg = tmp_path / "idx.cfg"
        cfg.write_text(f"dataset = idx\nidx_images = {data}\nidx_labels = {labels}\n"
                       f"layer_sizes = 4,4,2\nmode = glasso_out\noutput_dir = {tmp_path / 'run'}\n")
    assert main(["train", str(cfg)]) == 4
    assert capsys.readouterr().err.startswith(f"error: {data}: no ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("label", ["nan", "inf"])
def test_train_non_finite_csv_label_exits_4(tmp_path, capsys, label):
    cfg = write_csv_cfg(tmp_path, f"a,b,y\n1,2,0\n3,4,1\n5,6,{label}\n".encode())
    assert main(["train", str(cfg)]) == 4
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["1e300", "9223372036854775808", "-1e300"])
def test_train_csv_label_past_int64_exits_4(tmp_path, capsys, label):
    cfg = write_csv_cfg(tmp_path, f"a,b,y\n1,2,0\n3,4,1\n5,6,{label}\n".encode())
    assert main(["train", str(cfg)]) == 4
    assert f"{tmp_path / 'd.csv'}: row 4 label" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_csv_label_past_layer_sizes_exits_2_before_split(tmp_path, capsys, monkeypatch):
    # a label of 1e18 makes 1e18 + 1 classes, which split would scan one by one
    def unreachable(*args):
        raise AssertionError("split ran before check_fit")

    monkeypatch.setattr("glasso_prune.config.split", unreachable)
    cfg = write_csv_cfg(tmp_path, b"a,b,y\n1,2,0\n3,4,1\n5,6,1e18\n")
    assert main(["train", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "'layer_sizes' [2, 4, 2]" in err and "1000000000000000001 classes" in err
    assert not (tmp_path / "run").exists()


def test_train_labels_that_skip_a_class_exit_4_naming_the_file(tmp_path, capsys, monkeypatch):
    # loaders count max label + 1 classes; a label no row has is the data file's
    # fault, found before split and before train makes its output directory
    def unreachable(*args):
        raise AssertionError("split ran before the label check")

    monkeypatch.setattr("glasso_prune.config.split", unreachable)
    csv_dir, idx_dir = tmp_path / "csv", tmp_path / "idx"
    csv_dir.mkdir()
    idx_dir.mkdir()
    rows = "".join(f"{i},{i % 5},{1 + i % 3}\n" for i in range(12))
    cfg = write_csv_cfg(csv_dir, f"a,b,y\n{rows}".encode())
    cfg.write_text(cfg.read_text().replace("layer_sizes = 2,4,2", "layer_sizes = 2,4,4"))
    assert main(["train", str(cfg)]) == 4
    assert capsys.readouterr().err == f"error: {csv_dir / 'd.csv'}: no row has label [0]\n"
    assert not (csv_dir / "run").exists()

    images, labels = idx_dir / "imgs.idx", idx_dir / "labs.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, 4, 1, 2) + bytes(range(8)))
    labels.write_bytes(struct.pack(">II", 0x801, 4) + bytes([1, 3, 3, 1]))
    cfg = idx_dir / "idx.cfg"
    cfg.write_text(f"dataset = idx\nidx_images = {images}\nidx_labels = {labels}\n"
                   f"layer_sizes = 2,4,4\nmode = glasso_out\noutput_dir = {idx_dir / 'run'}\n")
    assert main(["train", str(cfg)]) == 4
    assert capsys.readouterr().err == f"error: {labels}: no row has label [0, 2]\n"
    assert not (idx_dir / "run").exists()


def test_train_csv_label_column_named_twice_exits_4(tmp_path, capsys):
    cfg = write_csv_cfg(tmp_path, b"y,a,y\n0,1,0\n1,2,1\n0,3,0\n1,4,1\n")
    assert main(["train", str(cfg)]) == 4
    assert f"{tmp_path / 'd.csv'}: label column 'y' appears 2 times" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_csv_cell_past_the_field_limit_exits_4_before_writing(tmp_path, capsys):
    cfg = write_csv_cfg(tmp_path, b"a,b,y\n1,2,0\n3,4,1\n5," + b"6" * 140_000 + b",1\n")
    assert main(["train", str(cfg)]) == 4
    assert f"{tmp_path / 'd.csv'}: row 4 is not valid CSV (field larger" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_non_utf8_csv_exits_4(tmp_path, capsys):
    cfg = write_csv_cfg(tmp_path, b"a,b,y\n1,2,0\n3,4,1\n5,\xff,1\n")
    assert main(["train", str(cfg)]) == 4
    assert f"{tmp_path / 'd.csv'}: row 4 is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "penalty", ["mode = glasso_out\nalpha = 0.01", "mode = glasso_in\nalpha = 0.01",
                "mode = l2\nalpha = 0\nbeta = 0.01"],
    ids=["glasso_out", "glasso_in", "l2"],
)
def test_train_diverging_last_step_exits_3(tmp_path, capsys, penalty):
    # the epoch's one step overflows the weights after its minibatch loss was
    # checked, so only the epoch-end train loss, penalty included, is not finite
    run = tmp_path / "run"
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(
        "dataset = synth\nsynth_classes = 3\nsynth_per_class = 20\nsynth_dim = 4\n"
        f"layer_sizes = 4,8,3\n{penalty}\nepochs = 1\n"
        f"batch_size = 1000\nlearning_rate = 1e38\noutput_dir = {run}\n"
    )
    # train's own check is the one report: no numpy overflow warning reaches a caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", str(cfg)]) == 3
    assert "epoch 1" in capsys.readouterr().err
    assert not (run / "model.glnn").exists()
    for path in run.iterdir():
        assert b"NaN" not in path.read_bytes() and b"Infinity" not in path.read_bytes(), path


@pytest.mark.parametrize("held", [
    "gradient",
    pytest.param("init_network", marks=pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="CPython 3.10 keeps a call's arguments referenced until the call returns, so a "
        "width-2048 train there frees the init network only after train returns")),
])
def test_train_holds_no_stale_network_or_gradient(tmp_path, monkeypatch, held):
    # before each step, count the arrays still alive of the init network, or
    # of the previous step's gradient: train has dropped them all by then
    refs, live = [], []

    def tracked_init(layer_sizes, seed):
        net = init_network(layer_sizes, seed)
        if held == "init_network":
            refs.append([weakref.ref(a) for p in net.layers for a in (p.weights, p.bias)])
        return net

    def tracked_step(*args):
        if refs:
            live.append(sum(ref() is not None for ref in refs[-1]))
        loss, hits, grads = batch_gradients(*args)
        if held == "gradient":
            refs.append([weakref.ref(a) for g in grads for a in (g.weights, g.bias)])
        return loss, hits, grads

    monkeypatch.setattr("glasso_prune.cli.init_network", tracked_init)
    monkeypatch.setattr("glasso_prune.trainer.batch_gradients", tracked_step)
    cfg = write_cfg(tmp_path, f"output_dir = {tmp_path / 'run'}\n")
    assert main(["train", str(cfg)]) == 0
    assert len(live) > 2 and live == [0] * len(live)


def test_train_reads_bom_config_and_csv_as_without(tmp_path):
    # a byte-order mark before a config or a CSV file changes no output byte
    rows = b"y,a,b\n" + b"".join(b"%d,%d,%d\n" % (k % 2, k, 2 * k) for k in range(40))
    runs = {}
    for name, bom in (("plain", b""), ("bom", "\ufeff".encode("utf-8"))):
        (tmp_path / name).mkdir()
        cfg = write_csv_cfg(tmp_path / name, bom + rows)
        cfg.write_bytes(bom + cfg.read_bytes())
        assert main(["train", str(cfg)]) == 0
        runs[name] = tmp_path / name / "run"
    for out in ("model.glnn", "history.jsonl", "disposable.csv"):
        assert (runs["bom"] / out).read_bytes() == (runs["plain"] / out).read_bytes(), out


def test_train_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "utf16.cfg"
    cfg.write_bytes(BASE_CFG.encode("utf-16"))  # starts ff fe
    assert main(["train", str(cfg)]) == 2
    assert f"{cfg}: not UTF-8" in capsys.readouterr().err


def test_sweep_disposable_total_uses_config_theta(tmp_path):
    # theta 0.5 sits inside the trained norm range, far above 1e-2
    out_root = tmp_path / "theta"
    cfg = write_cfg(tmp_path, f"theta = 0.5\noutput_dir = {out_root}\n")
    assert main(["sweep", str(cfg), "--set", "alpha=0.02"]) == 0
    row = (out_root / "summary.csv").read_text().splitlines()[1].split(",")
    net = load_model(out_root / "alpha_0.02" / "model.glnn")
    expected = sum(int(np.sum(n < 0.5)) for n in group_norms(net, Mode.GLASSO_OUT))
    assert expected > 0
    assert int(row[2]) == expected


def theta_half_removals(net):
    removed = sum(int(np.sum(n < 0.5)) for n in group_norms(net, Mode.GLASSO_OUT))
    assert 0 < removed < sum(net.hidden_sizes)
    return removed


def test_prune_theta_defaults_to_data_config_theta(trained_run, tmp_path):
    _, _, run = trained_run
    data = write_cfg(tmp_path, "theta = 0.5\n")
    out = tmp_path / "pruned"
    argv = ["prune", str(run / "model.glnn"), "--mode", "out", "--data", str(data)]
    assert main(argv + ["--out", str(out)]) == 0
    doc = json.loads((out / "prune.json").read_text())
    assert doc["theta"] == 0.5
    assert doc["total_removed"] == theta_half_removals(load_model(run / "model.glnn"))
    # an explicit --theta still wins
    assert main(argv + ["--theta", "1e-12", "--out", str(tmp_path / "explicit")]) == 0
    doc = json.loads((tmp_path / "explicit" / "prune.json").read_text())
    assert doc["total_removed"] == 0


def test_analyze_retained_theta_defaults(trained_run, tmp_path):
    _, _, run = trained_run
    net = load_model(run / "model.glnn")
    model = str(run / "model.glnn")
    data = write_cfg(tmp_path, "theta = 0.5\n")
    assert main(["analyze", model, "--retained", "--data", str(data),
                 "--out", str(tmp_path / "cfg")]) == 0
    kept = (tmp_path / "cfg" / "retained.csv").read_text().splitlines()[1]
    assert kept == f"1,{16 - theta_half_removals(net)},16"
    # without --data the threshold falls back to 1e-2
    assert main(["analyze", model, "--retained", "--out", str(tmp_path / "plain")]) == 0
    kept = (tmp_path / "plain" / "retained.csv").read_text().splitlines()[1]
    expected = int(np.sum(group_norms(net, Mode.GLASSO_OUT)[0] >= 1e-2))
    assert kept == f"1,{expected},16"


@pytest.mark.parametrize("command", ["prune", "analyze"])
def test_non_finite_model_exits_4(trained_run, tmp_path, capsys, command):
    _, cfg, run = trained_run
    net = load_model(run / "model.glnn")
    net.layers[1].weights[0, 3] = np.nan
    bad = tmp_path / "nan.glnn"
    bad.write_bytes(model_bytes(net))
    argv = [command, str(bad), "--mode", "out", "--out", str(tmp_path / "o")]
    if command == "prune":
        argv += ["--data", str(cfg)]
    else:
        argv += ["--histogram"]
    assert main(argv) == 4
    assert "non-finite" in capsys.readouterr().err


# perfbench reads total_removed and retained_per_layer from prune.json
PRUNE_JSON_KEYS = [
    "mode", "theta", "removed_per_layer", "retained_per_layer", "total_removed",
    "accuracy", "model", "before_accuracy", "after_accuracy",
    "layer_sizes_before", "layer_sizes_after",
]


@pytest.mark.parametrize(
    "how", [["--theta", "0.5"], ["--match-count", "3"]], ids=["theta", "match-count"]
)
def test_prune_json_keys_in_order(trained_run, tmp_path, how):
    _, cfg, run = trained_run
    model, out = run / "model.glnn", tmp_path / "o"
    argv = ["prune", str(model), "--mode", "out", "--data", str(cfg), "--out", str(out)]
    assert main(argv + how) == 0
    doc = json.loads((out / "prune.json").read_text())
    assert list(doc) == PRUNE_JSON_KEYS
    assert doc["mode"] == "glasso_out"
    assert doc["theta"] == (0.5 if how[0] == "--theta" else None)
    removed, retained = doc["removed_per_layer"], doc["retained_per_layer"]
    assert doc["total_removed"] == sum(removed) > 0
    assert [k + r for k, r in zip(retained, removed)] == [16]
    assert doc["layer_sizes_before"] == [8, 16, 3]
    assert doc["layer_sizes_after"] == [8, *retained, 3]
    assert doc["model"] == str(model)
    test_set = parse_config(cfg).load_splits()[2]
    assert doc["before_accuracy"] == evaluate(load_model(model), test_set)
    pruned = load_model(out / "pruned_model.glnn")
    assert doc["accuracy"] == doc["after_accuracy"] == evaluate(pruned, test_set)


def rescue_warnings(hidden_layers):
    """stderr of a prune that keeps each hidden layer's largest-norm node."""
    return "".join(f"warning: thresholding would empty hidden layer {k}; keeping its "
                   "largest-norm node\n" for k in range(1, hidden_layers + 1))


def test_prune_above_every_norm_keeps_each_layer_largest_node(trained_run, tmp_path, capsys):
    # the one prune whose keep vectors are not the raw threshold: the
    # prune.json counts come from the pruned network, not from theta
    _, cfg, run = trained_run
    out = tmp_path / "o"
    argv = ["prune", str(run / "model.glnn"), "--mode", "out", "--theta", "1e6",
            "--data", str(cfg), "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads((out / "prune.json").read_text())
    hidden = doc["layer_sizes_before"][1:-1]
    assert capsys.readouterr().err == rescue_warnings(len(hidden))
    assert doc["theta"] == 1e6
    assert doc["retained_per_layer"] == [1] * len(hidden)
    assert [r + k for r, k in zip(doc["removed_per_layer"], doc["retained_per_layer"])] == hidden
    assert doc["total_removed"] == sum(hidden) - len(hidden)
    assert load_model(out / "pruned_model.glnn").layer_sizes == [8, 1, 3]


def test_rescuing_prune_warns_each_time_it_runs(trained_run, tmp_path, capsys):
    # each command shows each distinct warning once, however many ran before it
    _, cfg, run = trained_run
    errs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        argv = ["prune", str(run / "model.glnn"), "--mode", "out", "--theta", "1e6",
                "--data", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        errs.append(capsys.readouterr().err)
    assert errs == [rescue_warnings(1)] * 2


def test_rescuing_prune_with_warnings_as_errors_exits_2(trained_run, tmp_path, capsys):
    # under python -W error the rescue's warning ends the command as an error line
    _, cfg, run = trained_run
    out = tmp_path / "o"
    argv = ["prune", str(run / "model.glnn"), "--mode", "out", "--theta", "1e6",
            "--data", str(cfg), "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert capsys.readouterr().err == rescue_warnings(1).replace("warning:", "error:")
    assert not (out / "prune.json").exists()


@pytest.mark.parametrize("theta", ["nan", "inf"])
@pytest.mark.parametrize("command", ["prune", "analyze"])
def test_non_finite_theta_exits_2(trained_run, tmp_path, capsys, command, theta):
    _, cfg, run = trained_run
    out = tmp_path / "o"
    argv = [command, str(run / "model.glnn"), "--mode", "out", "--theta", theta,
            "--out", str(out)]
    argv += ["--data", str(cfg)] if command == "prune" else ["--retained"]
    assert main(argv) == 2
    assert "theta must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "alphas",
    [
        pytest.param(alphas, id=",".join(alphas))
        for alphas in (["0.01", "-1"], ["nan"], ["0.01", "inf"], ["0.013", "0.0130"])
    ],
)
def test_sweep_checks_every_alpha_before_training(tmp_path, capsys, alphas):
    out_root = tmp_path / "never"
    cfg = write_cfg(tmp_path, f"output_dir = {out_root}\n")
    argv = ["sweep", str(cfg)]
    for a in alphas:
        argv += ["--set", f"alpha={a}"]
    assert main(argv) == 2
    assert "alpha" in capsys.readouterr().err
    assert not out_root.exists()


@pytest.mark.parametrize(
    "sets",
    [
        pytest.param(["alpha=0.01", "epochs=2", "alpha=-1"], id="last-point-alpha"),
        pytest.param(["layer_sizes=8,16,3", "layer_sizes=8,16,2"], id="last-point-layer-sizes"),
        pytest.param(["widgets=3"], id="unknown-key"),
        pytest.param(["output_dir=elsewhere"], id="output-dir"),
        pytest.param(["alpha"], id="missing-equals"),
        pytest.param(["beta=0.002"], id="beta-with-coupling"),
    ],
)
def test_sweep_bad_set_exits_2_before_writing(tmp_path, capsys, sets):
    out_root = tmp_path / "never"
    cfg = write_cfg(tmp_path, f"output_dir = {out_root}\n")
    argv = ["sweep", str(cfg)]
    for pair in sets:
        argv += ["--set", pair]
    assert main(argv) == 2
    assert sets[-1].partition("=")[0] in capsys.readouterr().err
    assert not out_root.exists()
    assert not (tmp_path / "elsewhere").exists()


def test_sweep_grid_over_two_keys(tmp_path):
    out_root = tmp_path / "grid"
    cfg = write_cfg(tmp_path, f"output_dir = {out_root}\n")
    argv = ["sweep", str(cfg), "--set", "alpha=0.0", "--set", "layer_sizes=8,4,3",
            "--set", "alpha=0.02", "--set", "layer_sizes=8,16,3"]
    assert main(argv) == 0
    with open(out_root / "summary.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["alpha", "layer_sizes", "best_val_acc", "disposable_total",
                       "post_prune_acc"]
    assert [row[:2] for row in rows[1:]] == [
        ["0.0", "8,4,3"], ["0.0", "8,16,3"], ["0.02", "8,4,3"], ["0.02", "8,16,3"]
    ]
    # analysis.write_csv quotes a layer_sizes cell, as csv.reader reads it back
    assert (out_root / "summary.csv").read_text().splitlines()[1].startswith('0.0,"8,4,3",')
    for alpha, sizes in [row[:2] for row in rows[1:]]:
        run = out_root / f"alpha_{alpha}_layer_sizes_{sizes}"
        assert load_model(run / "model.glnn").layer_sizes == [int(n) for n in sizes.split(",")]
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == float(alpha)
        assert manifest["config"]["output_dir"] == str(run)


def test_sweep_point_value_with_slash_is_one_directory(tmp_path, monkeypatch, capsys):
    # two CSV paths that share a file name, and a file whose name holds the
    # escape of one of them: each point is its own directory under output_dir
    monkeypatch.chdir(tmp_path)
    rows = "".join(f"{i % 7},{i % 3},{i % 2}\n" for i in range(40))
    values = ["a/d.csv", "b/d.csv", "a%2Fd.csv"]
    for value in values:
        (tmp_path / value).parent.mkdir(exist_ok=True)
        (tmp_path / value).write_text("a,b,y\n" + rows)
    cfg = write_csv_cfg(tmp_path, b"a,b,y\n" + rows.encode())
    cfg.write_text(cfg.read_text() + "epochs = 1\n")
    argv = ["sweep", str(cfg)]
    for value in values:
        argv += ["--set", f"csv_path={value}"]
    assert main(argv) == 0
    names = ["csv_path_a%2Fd.csv", "csv_path_b%2Fd.csv", "csv_path_a%252Fd.csv"]
    out_root = tmp_path / "run"
    assert sorted(p.name for p in out_root.iterdir()) == sorted([*names, "summary.csv"])
    for name in names:
        assert (out_root / name / "model.glnn").exists()
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed[:-1]] == names
    with open(out_root / "summary.csv", newline="") as f:
        assert [row[0] for row in csv.reader(f)] == ["csv_path", *values]


def test_sweep_name_the_file_system_refuses_exits_4_before_any_train(tmp_path, capsys):
    # synth data never reads csv_path, so only the second point's directory name fails
    out_root = tmp_path / "long"
    cfg = write_cfg(tmp_path, f"output_dir = {out_root}\n")
    argv = ["sweep", str(cfg), "--set", "csv_path=a", "--set", f"csv_path={'x' * 300}"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not list(out_root.rglob("model.glnn"))
    assert not (out_root / "summary.csv").exists()


@pytest.mark.parametrize(
    "sets,loads",
    [
        pytest.param(["alpha=0.005", "alpha=0.013"], 1, id="training-key"),
        pytest.param(["layer_sizes=8,4,3", "layer_sizes=8,16,3"], 1, id="layer-sizes"),
        pytest.param(["data_seed=5", "data_seed=6"], 2, id="data-seed"),
    ],
)
def test_sweep_loads_data_once_per_data_point(tmp_path, monkeypatch, sets, loads):
    # points that agree on every data-source key share one load of the data
    calls = []
    load_splits = ExperimentConfig.load_splits

    def counted(cfg):
        calls.append(cfg.layer_sizes)
        return load_splits(cfg)

    monkeypatch.setattr(ExperimentConfig, "load_splits", counted)
    out_root = tmp_path / "loads"
    cfg = write_cfg(tmp_path, f"output_dir = {out_root}\n")
    argv = ["sweep", str(cfg)]
    for pair in sets:
        argv += ["--set", pair]
    assert main(argv) == 0
    assert len(calls) == loads
    assert len((out_root / "summary.csv").read_text().splitlines()) == 3


def test_sweep_theta_sets_disposable_total(tmp_path):
    # each point's own theta counts its disposable nodes
    out_root = tmp_path / "theta"
    cfg = write_cfg(tmp_path, f"output_dir = {out_root}\n")
    argv = ["sweep", str(cfg), "--set", "theta=0.01", "--set", "theta=0.5"]
    assert main(argv) == 0
    rows = [r.split(",") for r in (out_root / "summary.csv").read_text().splitlines()]
    assert rows[0][0] == "theta"
    for row in rows[1:]:
        net = load_model(out_root / f"theta_{row[0]}" / "model.glnn")
        expected = sum(
            int(np.sum(n < float(row[0]))) for n in group_norms(net, Mode.GLASSO_OUT)
        )
        assert int(row[2]) == expected
    assert int(rows[2][2]) > int(rows[1][2])


def test_prune_negative_match_count_exits_2_before_writing(trained_run, tmp_path):
    _, cfg, run = trained_run
    out = tmp_path / "pruned"
    argv = ["prune", str(run / "model.glnn"), "--match-count", "-1", "--data", str(cfg),
            "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()


def mode_cfg(tmp_path, mode):
    text = BASE_CFG.replace("mode = glasso_out", f"mode = {mode}")
    if mode == "l2":
        text = text.replace("alpha = 0.02", "alpha = 0.0")
    path = tmp_path / f"{mode}.cfg"
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "data_mode, flag, expected",
    [
        ("glasso_in", None, "glasso_in"),
        ("glasso_out", None, "glasso_out"),
        ("l2", None, "glasso_out"),
        ("glasso_in", "out", "glasso_out"),
        ("glasso_out", "in", "glasso_in"),
    ],
)
def test_prune_mode_defaults_to_data_config(trained_run, tmp_path, data_mode, flag, expected):
    _, _, run = trained_run
    out = tmp_path / "o"
    argv = ["prune", str(run / "model.glnn"), "--match-count", "2",
            "--data", str(mode_cfg(tmp_path, data_mode)), "--out", str(out)]
    assert main(argv + (["--mode", flag] if flag else [])) == 0
    assert json.loads((out / "prune.json").read_text())["mode"] == expected


@pytest.mark.parametrize(
    "data_mode, flag, expected",
    [
        ("glasso_in", None, "glasso_in"),
        ("l2", None, "glasso_out"),
        (None, None, "glasso_out"),
        ("glasso_in", "out", "glasso_out"),
    ],
)
def test_analyze_mode_defaults_to_data_config(trained_run, tmp_path, data_mode, flag, expected):
    _, _, run = trained_run
    out = tmp_path / "o"
    # --retained without --theta reads the --data config even when --mode is given
    argv = ["analyze", str(run / "model.glnn"), "--gap", "--histogram", "--retained",
            "--out", str(out)]
    if data_mode:
        argv += ["--data", str(mode_cfg(tmp_path, data_mode))]
    assert main(argv + (["--mode", flag] if flag else [])) == 0
    assert json.loads((out / "gap.json").read_text())["mode"] == expected
    net = load_model(run / "model.glnn")
    write_bundle({"histogram": norm_histogram(group_norms(net, Mode(expected)))}, tmp_path)
    assert (out / "histogram.csv").read_bytes() == (tmp_path / "histogram.csv").read_bytes()


def test_gap_json_band_is_fixed(trained_run, tmp_path):
    # gap.json reports criterion 4's band whatever theta the --data config sets
    _, _, run = trained_run
    data = write_cfg(tmp_path, "theta = 0.5\n")
    out = tmp_path / "gap"
    argv = ["analyze", str(run / "model.glnn"), "--gap", "--data", str(data), "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads((out / "gap.json").read_text())
    assert list(doc) == ["mode", "band_lo", "band_hi", "gap_fraction", "hidden_nodes"]
    assert (doc["band_lo"], doc["band_hi"]) == (1e-2, 1e-1)
    net = load_model(run / "model.glnn")
    assert doc["gap_fraction"] == bimodality_gap(group_norms(net, Mode.GLASSO_OUT))
    assert doc["hidden_nodes"] == 16


@pytest.mark.parametrize(
    "command, passes",
    [
        # diagnostics' histogram, gap and retained.csv and the curve share one pass
        (["analyze", "{model}", "--data", "{cfg}"], 1),
        (["analyze", "{model}"], 1),
        (["analyze", "{model}", "--curve", "--step", "8", "--data", "{cfg}"], 1),
        (["prune", "{model}", "--data", "{cfg}"], 1),
        (["prune", "{model}", "--match-count", "2", "--data", "{cfg}"], 1),
        # per epoch one pass for the penalty value and the disposable count, then one of
        # the best network, read by the bundle if it is written
        (["train", "{bundle_cfg}"], 3 + 1),
        (["train", "{plain_cfg}"], 3 + 1),
        # the same for l2, whose per-epoch passes return [], and its best network read as out
        (["train", "{l2_cfg}"], 3 + 1),
        # per point its train's 3 + 1; the summary's disposable total and mask read its last
        (["sweep", "{bundle_cfg}", "--set", "alpha=0.01", "--set", "alpha=0.02"], 2 * (3 + 1)),
    ],
    ids=["analyze-data", "analyze", "analyze-curve", "prune", "prune-match-count", "train",
         "train-no-bundle", "train-l2", "sweep"],
)
def test_each_command_takes_a_networks_norms_once(
    trained_run, tmp_path, norm_passes, command, passes
):
    _, cfg, run = trained_run
    bundle_cfg = write_cfg(tmp_path, f"emit_bundle = true\noutput_dir = {tmp_path / 'run'}\n")
    plain_cfg = write_cfg(tmp_path, f"output_dir = {tmp_path / 'plain'}\n", name="plain.cfg")
    l2_cfg = tmp_path / "l2.cfg"
    l2_cfg.write_text(BASE_CFG.replace("mode = glasso_out", "mode = l2")
                      .replace("alpha = 0.02", "beta = 0.002").replace("beta_coupling = true\n", "")
                      + f"output_dir = {tmp_path / 'l2'}\n")
    names = {"model": run / "model.glnn", "cfg": cfg, "bundle_cfg": bundle_cfg,
             "plain_cfg": plain_cfg, "l2_cfg": l2_cfg}
    argv = [arg.format(**names) for arg in command]
    if command[0] in ("analyze", "prune"):
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert len(norm_passes) == passes


def test_console_entry_exits_with_main_code(tmp_path, monkeypatch):
    monkeypatch.setattr("sys.argv", ["glasso-prune", "analyze", str(tmp_path / "ghost.glnn")])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 4


class UndeclaredError(GlassoPruneError):
    """A package error whose type declares no exit code of its own."""


@pytest.mark.parametrize(
    "error,code",
    [
        (ConfigError("key 'alpha' must be nonnegative"), 2),
        (TrainingDiverged("non-finite loss at epoch 1, batch 1"), 3),
        (DataFormatError("data.csv: empty file"), 4),
        (ModelFormatError("model.glnn: bad magic"), 4),
        (ShapeMismatchError("batch shape (2, 3) does not match input dim 4"), 4),
        (ChildProcessError("curve worker 1 exited with code 1"), 4),
        (FileNotFoundError("no such file: model.glnn"), 4),
        (ValueError("mask would empty hidden layer 1"), 2),
        (UndeclaredError("an error of the package"), 4),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_exit_code_is_declared_by_the_error_type(tmp_path, monkeypatch, capsys, error, code):
    def failing_command(args):
        raise error

    monkeypatch.setattr("glasso_prune.cli.cmd_analyze", failing_command)
    assert main(["analyze", str(tmp_path / "model.glnn")]) == code
    assert capsys.readouterr().err == f"error: {error}\n"
