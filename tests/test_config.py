import json
from dataclasses import fields
from pathlib import Path

import pytest

from glasso_prune.cli import main
from glasso_prune.config import ExperimentConfig, parse_config, parse_config_text
from glasso_prune.errors import ConfigError
from glasso_prune.regularization import Mode, RegularizerSpec
from glasso_prune.trainer import TrainConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MINIMAL = """
dataset = synth
layer_sizes = 8,16,3
mode = glasso_out
"""

FULL = """
# reference-style experiment
dataset = synth
synth_classes = 3
synth_dim = 8
synth_per_class = 50
synth_separation = 4.0
data_seed = 7
split_fractions = 0.8,0.1,0.1
layer_sizes = 8,16,16,3
mode = glasso_in
alpha = 0.02
beta_coupling = true
epochs = 5
batch_size = 32
learning_rate = 0.05
momentum = 0.8
lr_decay = 0.95
seed = 3
theta = 0.02
output_dir = out
emit_bundle = true
"""


def test_minimal_parses_with_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.dataset == "synth"
    assert cfg.layer_sizes == [8, 16, 3]
    assert cfg.mode == "glasso_out"
    assert cfg.alpha == 0.0
    assert cfg.theta == 1e-2
    assert cfg.epochs == 20
    assert cfg.batch_size == 128
    assert cfg.learning_rate == 0.1
    assert cfg.momentum == 0.9
    assert cfg.standardize is False
    assert cfg.emit_bundle is False


def test_full_kv_file():
    cfg = parse_config_text(FULL)
    assert cfg.synth_classes == 3
    assert cfg.split_fractions == [0.8, 0.1, 0.1]
    assert cfg.mode == "glasso_in"
    assert cfg.beta_coupling is True
    assert cfg.lr_decay == 0.95
    assert cfg.output_dir == "out"


def test_comments_and_blank_lines_skipped():
    cfg = parse_config_text("# top\n\n" + MINIMAL + "\n# tail\n")
    assert cfg.layer_sizes == [8, 16, 3]


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + "banana = 3\n")
    assert "banana" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + "mode = l2\n")
    assert "mode" in str(err.value)


def test_missing_required_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("dataset = synth\nmode = glasso_out\n")
    assert "layer_sizes" in str(err.value)


def test_bad_value_names_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + "epochs = soon\n")
    assert "epochs" in str(err.value)


def test_malformed_line_names_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config_text("dataset = synth\nnonsense without equals\n", name="f.cfg")
    assert "f.cfg:2" in str(err.value)


def test_negative_alpha_names_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + "alpha = -0.5\n")
    assert "alpha" in str(err.value)


def test_l2_mode_with_alpha_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("dataset = synth\nlayer_sizes = 8,16,3\nmode = l2\nalpha = 0.1\n")


def test_bad_mode_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("dataset = synth\nlayer_sizes = 8,16,3\nmode = ridge\n")
    assert "mode" in str(err.value)


def test_nonpositive_theta_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + "theta = 0\n")
    assert "theta" in str(err.value)


def test_short_layer_sizes_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("dataset = synth\nlayer_sizes = 8,3\nmode = glasso_out\n")


def test_idx_requires_paths():
    with pytest.raises(ConfigError) as err:
        parse_config_text("dataset = idx\nlayer_sizes = 8,16,3\nmode = glasso_out\n")
    assert "idx_images" in str(err.value)


def test_csv_requires_paths():
    with pytest.raises(ConfigError):
        parse_config_text("dataset = csv\nlayer_sizes = 8,16,3\nmode = glasso_out\n")


def test_split_fractions_need_three_values():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + "split_fractions = 0.9,0.1\n")
    assert "split_fractions" in str(err.value)


def test_json_config_accepted():
    doc = {
        "dataset": "synth",
        "layer_sizes": [8, 16, 3],
        "mode": "glasso_out",
        "alpha": 0.05,
        "epochs": 2,
    }
    cfg = parse_config_text(json.dumps(doc))
    assert cfg.layer_sizes == [8, 16, 3]
    assert cfg.alpha == 0.05


def test_json_rejects_non_object():
    with pytest.raises(ConfigError):
        parse_config_text("[1, 2, 3]")


def test_json_invalid_syntax():
    with pytest.raises(ConfigError):
        parse_config_text("{not json")


def test_json_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text(json.dumps({"dataset": "synth", "widgets": 1}))
    assert "widgets" in str(err.value)


def test_beta_coupling_propagates_to_train_config():
    # the config is the TrainConfig that train reads its penalty from
    cfg = parse_config_text(MINIMAL + "alpha = 0.2\nbeta_coupling = true\n")
    assert isinstance(cfg, TrainConfig)
    spec = cfg.regularizer_spec()
    assert spec.beta == pytest.approx(0.02, abs=1e-15)
    assert spec.mode is Mode.GLASSO_OUT


def test_beta_coupling_forces_tenth():
    # beta_coupling derives beta, so an explicit nonzero beta beside it is rejected
    for beta in ("0.5", "-1"):
        with pytest.raises(ConfigError, match="'beta'.*'beta_coupling'"):
            parse_config_text(MINIMAL + f"alpha = 0.4\nbeta = {beta}\nbeta_coupling = true\n")
    cfg = parse_config_text(MINIMAL + "alpha = 0.4\nbeta = 0.0\nbeta_coupling = true\n")
    assert cfg.regularizer_spec().beta == 0.1 * 0.4
    assert cfg.regularizer_spec().alpha == 0.4
    reference = parse_config(CONFIGS / "reference_glasso_out.cfg")
    assert reference.regularizer_spec().beta == 0.1 * reference.alpha
    # the coupling and its check live in TrainConfig, without any data keys
    bare = TrainConfig(mode="glasso_in", alpha=0.4, beta_coupling=True)
    assert bare.regularizer_spec().beta == 0.1 * 0.4
    with pytest.raises(ValueError, match="'beta'.*'beta_coupling'"):
        TrainConfig(mode="glasso_in", alpha=0.4, beta=0.5, beta_coupling=True)


def test_regularizer_spec_roundtrip():
    cfg = parse_config_text(MINIMAL + "alpha = 0.3\nbeta = 0.01\n")
    assert cfg.regularizer_spec() == RegularizerSpec(mode=Mode.GLASSO_OUT, alpha=0.3, beta=0.01)


@pytest.mark.parametrize("key", ["emit_history", "emit_model", "epsilon_norm"])
def test_removed_keys_are_unknown(tmp_path, capsys, key):
    # train always writes history.jsonl and model.glnn, and the norm floor
    # is regularization.EPSILON_NORM: none of these is a config key
    cfg = tmp_path / "old.cfg"
    cfg.write_text(
        MINIMAL + "synth_classes = 3\nsynth_dim = 8\nsynth_per_class = 20\nepochs = 1\n"
        f"output_dir = {tmp_path / 'run'}\n{key} = 1\n"
    )
    assert main(["train", str(cfg)]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_load_splits_respects_fractions():
    cfg = parse_config_text(
        "dataset = synth\nsynth_classes = 2\nsynth_dim = 4\nsynth_per_class = 50\n"
        "layer_sizes = 4,8,2\nmode = glasso_out\nsplit_fractions = 0.8,0.1,0.1\n"
    )
    tr, va, te = cfg.load_splits()
    assert (tr.n, va.n, te.n) == (80, 10, 10)
    assert tr.dim == 4


def test_empty_split_rejected():
    cfg = parse_config_text(
        "dataset = synth\nsynth_classes = 2\nsynth_dim = 4\nsynth_per_class = 2\n"
        "layer_sizes = 4,8,2\nmode = glasso_out\n"
    )
    with pytest.raises(ConfigError) as err:
        cfg.load_splits()
    assert "split_fractions" in str(err.value)
    assert "3/0/1" in str(err.value)


def test_parse_config_file_and_write_roundtrip(tmp_path):
    src = tmp_path / "exp.cfg"
    src.write_text(FULL)
    cfg = parse_config(src)
    back = tmp_path / "echo.cfg"
    back.write_text(json.dumps(cfg.to_dict()))
    assert parse_config(back) == cfg


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.cfg")


def test_non_utf8_config_names_file(tmp_path):
    path = tmp_path / "utf16.cfg"
    path.write_bytes("dataset = synth\n".encode("utf-16"))  # starts ff fe
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(path) in str(err.value)
    assert "UTF-8" in str(err.value)


def test_to_dict_is_complete():
    cfg = parse_config_text(FULL)
    doc = cfg.to_dict()
    assert ExperimentConfig(**doc) == cfg


def test_to_dict_keys_in_manifest_order():
    # this order is the key order of manifest.json's "config" section
    # the training keys, inherited from TrainConfig, come first
    assert list(parse_config_text(MINIMAL).to_dict()) == [
        "mode", "alpha", "beta", "beta_coupling", "epochs", "batch_size",
        "learning_rate", "momentum", "lr_decay", "seed", "theta",
        "dataset", "synth_classes", "synth_dim", "synth_per_class",
        "synth_separation", "idx_images", "idx_labels", "standardize", "csv_path",
        "csv_label_column", "data_seed", "split_fractions", "layer_sizes",
        "output_dir", "emit_bundle",
    ]


def test_training_keys_declared_once():
    # ExperimentConfig declares only data, network and output keys
    train_keys = {f.name for f in fields(TrainConfig)}
    assert not train_keys & set(ExperimentConfig.__annotations__)
    assert [f.name for f in fields(ExperimentConfig)][: len(train_keys)] == [
        f.name for f in fields(TrainConfig)
    ]
    cfg = TrainConfig(mode="glasso_out")
    assert not hasattr(cfg, "dataset") and not hasattr(cfg, "layer_sizes")


def test_missing_required_key_named():
    with pytest.raises(ConfigError, match="missing required key 'dataset'"):
        parse_config_text("layer_sizes = 8,16,3\nmode = l2\n")
    with pytest.raises(ConfigError, match="missing required key 'layer_sizes'"):
        parse_config_text("dataset = synth\nmode = l2\n")
    with pytest.raises(ConfigError, match="missing required key 'mode'"):
        parse_config_text("dataset = synth\nlayer_sizes = 8,16,3\n")


@pytest.mark.parametrize(
    "key,json_value,kv_value",
    [
        ("layer_sizes", 5, None),
        ("output_dir", None, None),
        ("csv_path", 5, None),
        ("split_fractions", None, None),
        ("layer_sizes", [8, 16.5, 3], "8,16.5,3"),
        ("layer_sizes", [8, 0, 3], "8,0,3"),
        ("epochs", float("inf"), "inf"),
        ("epochs", 2.5, None),
        ("epochs", True, None),
        ("learning_rate", float("nan"), "nan"),
        ("alpha", float("nan"), "nan"),
        ("beta", -0.5, "-0.5"),
        pytest.param("theta", 10**400, None, id="theta-huge-int"),
        ("split_fractions", [0.8, float("nan"), 0.1], "0.8,nan,0.1"),
        ("seed", -1, "-1"),
        ("data_seed", -3, "-3"),
        ("split_fractions", [0.5, 0.3, 0.3], "0.5,0.3,0.3"),
        ("split_fractions", [0.5, 0.6, -0.1], "0.5,0.6,-0.1"),
        ("split_fractions", [0.9, 0.1, 0.0], "0.9,0.1,0"),
    ],
)
def test_malformed_value_rejected_at_parse(key, json_value, kv_value):
    doc = {"dataset": "synth", "layer_sizes": [8, 16, 3], "mode": "glasso_out"}
    # json.dumps writes inf/nan as Infinity/NaN, which json.loads reads back
    texts = [json.dumps(dict(doc, **{key: json_value}))]
    if kv_value is not None:
        kv = {"dataset": "synth", "layer_sizes": "8,16,3", "mode": "glasso_out", key: kv_value}
        texts.append("".join(f"{k} = {v}\n" for k, v in kv.items()))
    for text in texts:
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert key in str(err.value)


def test_json_integral_float_accepted_for_int_key():
    doc = {"dataset": "synth", "layer_sizes": [8.0, 16, 3], "mode": "l2", "epochs": 4.0}
    cfg = parse_config_text(json.dumps(doc))
    assert cfg.layer_sizes == [8, 16, 3] and cfg.epochs == 4
