import csv
import json

import numpy as np
import pytest

from glasso_prune.analysis import (
    CURVE_HEADER, HISTOGRAM_HEADER, AnalysisBundle, bimodality_gap, norm_histogram,
    write_bundle,
)
from glasso_prune.cli import entry, main
from glasso_prune.config import ExperimentConfig, parse_config
from glasso_prune.model_io import load_model, model_bytes
from glasso_prune.regularization import Mode, group_norms
from glasso_prune.trainer import evaluate, load_history

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
    history = load_history(run / "history.jsonl")
    assert len(history) == 3
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["config"]["alpha"] == 0.02
    assert manifest["config"]["seed"] == 11
    assert 1 <= manifest["best_epoch"] <= 3
    assert 0.0 <= manifest["test_acc"] <= 1.0
    assert set(manifest["final"]) == {"train_loss", "train_acc", "val_acc", "disposable"}


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


def test_analyze_history_disposable(trained_run, tmp_path):
    _, _, run = trained_run
    out = tmp_path / "hist"
    assert main(["analyze", str(run / "history.jsonl"), "--out", str(out)]) == 0
    lines = (out / "disposable.csv").read_text().splitlines()
    assert lines[0] == "epoch,layer,count"
    assert len(lines) == 1 + 3  # three epochs, one hidden layer


def test_analyze_disposable_on_model_errors(trained_run, tmp_path, capsys):
    _, _, run = trained_run
    code = main(
        ["analyze", str(run / "model.glnn"), "--disposable", "--out", str(tmp_path)]
    )
    assert code == 2


def test_analyze_histogram_on_history_errors(trained_run, tmp_path):
    _, _, run = trained_run
    code = main(
        ["analyze", str(run / "history.jsonl"), "--histogram", "--out", str(tmp_path)]
    )
    assert code == 2


def test_analyze_default_model_products(trained_run, tmp_path):
    _, _, run = trained_run
    out = tmp_path / "defaults"
    assert main(["analyze", str(run / "model.glnn"), "--out", str(out)]) == 0
    for name in ("histogram.csv", "gap.json", "retained.csv"):
        assert (out / name).exists()
    assert not (out / "curve.csv").exists()


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
    history = load_history(solo / "history.jsonl")
    assert float(row[1]) == max(r.val_accuracy for r in history)


def test_sweep_empty_alphas_errors(tmp_path, capsys):
    cfg = write_cfg(tmp_path, f"output_dir = {tmp_path / 'x'}\n")
    with pytest.raises(SystemExit) as exc:  # argparse: --set is required
        main(["sweep", str(cfg)])
    assert exc.value.code == 2
    assert main(["sweep", str(cfg), "--set", "alpha="]) == 2
    assert main(["sweep", str(cfg), "--set", "alpha=0.1", "--set", "alpha=fish"]) == 2
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


@pytest.mark.parametrize("label", ["nan", "inf"])
def test_train_non_finite_csv_label_exits_4(tmp_path, capsys, label):
    data = tmp_path / "d.csv"
    data.write_text(f"a,b,y\n1,2,0\n3,4,1\n5,6,{label}\n")
    cfg = tmp_path / "csv.cfg"
    cfg.write_text(
        f"dataset = csv\ncsv_path = {data}\ncsv_label_column = y\n"
        f"layer_sizes = 2,4,2\nmode = glasso_out\noutput_dir = {tmp_path / 'run'}\n"
    )
    assert main(["train", str(cfg)]) == 4
    assert "not finite" in capsys.readouterr().err


def test_train_non_utf8_csv_exits_4(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_bytes(b"a,b,y\n1,2,0\n3,4,1\n5,\xff,1\n")
    cfg = tmp_path / "csv.cfg"
    cfg.write_text(
        f"dataset = csv\ncsv_path = {data}\ncsv_label_column = y\n"
        f"layer_sizes = 2,4,2\nmode = glasso_out\noutput_dir = {tmp_path / 'run'}\n"
    )
    assert main(["train", str(cfg)]) == 4
    assert f"{data}: row 4 is not UTF-8" in capsys.readouterr().err


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


def history_line(**changes):
    doc = {"epoch": 2, "train_loss": 0.5, "train_acc": 1.0, "val_acc": 1.0,
           "disposable": [1, 2]}
    return json.dumps(dict(doc, **changes))


@pytest.mark.parametrize(
    "bad_line",
    [
        "{}",
        "not json",
        pytest.param(history_line(disposable="12"), id="disposable-string"),
        pytest.param(history_line(disposable=[True, 2.5]), id="disposable-bool-float"),
        pytest.param(history_line(disposable=[3, -1]), id="disposable-negative"),
        pytest.param(history_line(epoch=1.7), id="epoch-float"),
        pytest.param(history_line(epoch=True), id="epoch-bool"),
        pytest.param(history_line(train_loss="0.5"), id="loss-string"),
        pytest.param(history_line(val_acc=None), id="val-acc-null"),
        pytest.param("[2]", id="not-an-object"),
        # written as latin-1 below, so these are the bytes ff fe: not UTF-8
        pytest.param("\xff\xfe", id="not-utf8"),
    ],
)
def test_analyze_malformed_history_exits_4(trained_run, tmp_path, capsys, bad_line):
    _, _, run = trained_run
    history = tmp_path / "history.jsonl"
    first = (run / "history.jsonl").read_text().splitlines()[0]
    history.write_text(f"{first}\n{bad_line}\n", encoding="latin-1")
    assert main(["analyze", str(history), "--out", str(tmp_path / "o")]) == 4
    assert f"{history}, line 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
    for alpha, sizes in [row[:2] for row in rows[1:]]:
        run = out_root / f"alpha_{alpha}_layer_sizes_{sizes}"
        assert load_model(run / "model.glnn").layer_sizes == [int(n) for n in sizes.split(",")]
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == float(alpha)
        assert manifest["config"]["output_dir"] == str(run)


@pytest.mark.parametrize(
    "sets,loads",
    [
        pytest.param(["alpha=0.005", "alpha=0.013"], 1, id="training-key"),
        pytest.param(["layer_sizes=8,4,3", "layer_sizes=8,16,3"], 2, id="layer-sizes"),
    ],
)
def test_sweep_loads_data_once_per_data_point(tmp_path, monkeypatch, sets, loads):
    # points that differ only in TrainConfig keys share one load of the data
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
    argv = ["analyze", str(run / "model.glnn"), "--gap", "--histogram", "--out", str(out)]
    if data_mode:
        argv += ["--data", str(mode_cfg(tmp_path, data_mode))]
    assert main(argv + (["--mode", flag] if flag else [])) == 0
    assert json.loads((out / "gap.json").read_text())["mode"] == expected
    net = load_model(run / "model.glnn")
    write_bundle(AnalysisBundle(histogram=norm_histogram(net, Mode(expected))), tmp_path)
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
    assert doc["gap_fraction"] == bimodality_gap(net, Mode.GLASSO_OUT)
    assert doc["hidden_nodes"] == 16


def test_console_entry_exits_with_main_code(tmp_path, monkeypatch):
    monkeypatch.setattr("sys.argv", ["glasso-prune", "analyze", str(tmp_path / "ghost.glnn")])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 4
