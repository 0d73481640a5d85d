"""Self-test of the benchmark and its tracer on a tiny network.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import glasso_prune.cli as cli  # noqa: E402
from glasso_prune import linalg, network, trainer  # noqa: E402
from glasso_prune.config import ExperimentConfig  # noqa: E402
from run import CONFIGS, Bench, measure, per_layer_result, seeded_config  # noqa: E402
from tracer import Span, Tracer, installed_wrappers, self_time  # noqa: E402

TINY = """\
dataset = synth
synth_classes = 10
synth_dim = 64
synth_per_class = 30
synth_separation = 40.0
data_seed = 42
layer_sizes = 64,16,16,16,10
mode = {mode}
alpha = {alpha}
beta = 0.0013
epochs = 2
batch_size = 32
seed = 42
output_dir = unused
emit_bundle = true
"""


def tiny_texts() -> dict[str, str]:
    return {
        name: TINY.format(mode=name, alpha=0.0 if name == "l2" else 0.013)
        for name in CONFIGS
    }


def _span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent, "w", 0)


def test_self_time_subtracts_the_union_of_children():
    parent = _span(0, 0.0, 10.0)
    children = [
        _span(1, 1.0, 3.0, 0),
        _span(2, 2.0, 4.0, 0),  # overlaps the first: covered once
        _span(3, 6.0, 7.0, 0),
        _span(4, 9.5, 12.0, 0),  # runs past the parent: clipped
    ]
    assert self_time(parent, children) == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_install_patches_every_binding_and_restore_puts_originals_back():
    originals = (trainer.forward_batch, network.forward_batch, linalg.sigmoid,
                 trainer.evaluate, cli.evaluate, cli.train,
                 ExperimentConfig.__dict__["load_splits"])
    with Tracer():
        # imported by name into trainer and cli: both bindings are wrapped
        assert trainer.forward_batch is network.forward_batch is not originals[0]
        assert cli.evaluate is trainer.evaluate is not originals[3]
        assert installed_wrappers()
    assert (trainer.forward_batch, network.forward_batch, linalg.sigmoid,
            trainer.evaluate, cli.evaluate, cli.train,
            ExperimentConfig.__dict__["load_splits"]) == originals
    assert installed_wrappers() == []


def traced_layers(tmp_path: Path, workload: str):
    bench = Bench(cli, tmp_path / workload, tiny_texts(), seed=7)
    bench.setup(workload)
    iter_times, layers, spans = measure(bench, workload, seconds=0.0, trace=True)
    # Two epochs leave every group norm above theta, so the glasso prune
    # removes nothing and the L2 match-count contrast rightly fails.
    expected = ["match-count"] * (2 if workload == "prune_analyze" else 0)
    assert [f.split(": ")[0].split()[-1] for f in bench.failures] == expected
    return per_layer_result(layers, iter_times), spans


@pytest.mark.parametrize("workload", ["train_glasso", "prune_analyze"])
def test_two_traced_runs_give_equal_counts(tmp_path, workload):
    (first, problems), spans = traced_layers(tmp_path / "a", workload)
    assert problems == []
    assert installed_wrappers() == []
    (second, _), _ = traced_layers(tmp_path / "b", workload)
    counts = {k: v["value"] for k, v in first.items() if v["unit"] in ("count", "B")}
    assert counts == {k: second[k]["value"] for k in counts}
    assert counts["network.forward_batch_calls"] > 0
    assert counts["pruning.curve_points"] > 0
    if workload == "train_glasso":
        # 2 configs x 2 epochs x ceil(240 / 32) minibatches
        assert counts["trainer.steps"] == 2 * 2 * 8
        # a train span's self time plus its children's time is its duration
        by_parent = {}
        for s in spans:
            by_parent.setdefault(s.parent, []).append(s)
        for s in spans:
            if s.name == "trainer.train":
                kids = by_parent.get(s.id, [])
                assert kids
                assert self_time(s, kids) + sum(k.end - k.start for k in kids) == pytest.approx(
                    s.end - s.start
                )
    else:
        assert counts["trainer.steps"] == 0


def test_seed_42_reproduces_the_committed_configs():
    root = Path(__file__).resolve().parent.parent
    for name in CONFIGS:
        text = (root / "configs" / f"reference_{name}.cfg").read_text(encoding="utf-8")
        out = seeded_config(text, 42, Path(f"runs/reference_{name}"))
        assert out == text
        changed = seeded_config(text, 5, Path("x")).splitlines()
        diff = [(a, b) for a, b in zip(text.splitlines(), changed) if a != b]
        assert [b for _, b in diff] == ["seed = 5", "output_dir = x"]
