"""End-to-end acceptance checks for training, pruning, and file formats.

Each test prints one `[acceptance] criterion N ...` line ending in PASS
or FAIL, so running this module with -s gives a scannable scorecard.
The slow criteria share a module-scoped fixture that trains the pinned
reference configs (configs/) at five seeds per regularizer mode, in a
pool of up to two worker processes with one BLAS thread each; the whole
module takes about 11 s on a 2-vCPU VM.
"""

import dataclasses
import json
import multiprocessing
import os
import struct
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from glasso_prune import cli
from glasso_prune.analysis import (
    bimodality_gap,
    norm_histogram,
    read_curve_csv,
    read_histogram_csv,
    write_bundle,
)
from glasso_prune.config import parse_config
from glasso_prune.datasets import Dataset, load_idx
from glasso_prune.errors import DataFormatError
from glasso_prune.model_io import load_model, model_bytes, model_from_bytes, save_model
from glasso_prune.network import batch_gradients, forward_batch, init_network
from glasso_prune.pruning import (
    BLAS_THREADS_ENV,
    apply_mask,
    forced_removal_curve,
    make_mask,
    match_count_mask,
)
from glasso_prune.regularization import (
    Mode,
    group_norms,
    regularizer_gradient,
    regularizer_value,
)
from glasso_prune.trainer import evaluate, mean_loss, train

SEEDS = (42, 43, 44, 45, 46)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = {
    "out": "reference_glasso_out.cfg",
    "in": "reference_glasso_in.cfg",
    "l2": "reference_l2.cfg",
}


# Worker processes read their BLAS thread count from the environment they start with.
ONE_BLAS_THREAD = {var: "1" for var in BLAS_THREADS_ENV}
# Longest wait for a pool's trains; the fixture's 15 take about 9 s on two workers.
POOL_TIMEOUT_S = 600


def _pool_train(jobs: list[tuple], workers: int) -> list:
    """train(*job) for every job, in a spawn pool of workers with one BLAS thread each."""
    with mock.patch.dict(os.environ, ONE_BLAS_THREAD):
        with multiprocessing.get_context("spawn").Pool(workers) as pool:
            return pool.starmap_async(train, jobs).get(timeout=POOL_TIMEOUT_S)


def _report(label: str, passed: bool, detail: str) -> bool:
    verdict = "PASS" if passed else "FAIL"
    print(f"[acceptance] {label}: {verdict} ({detail})")
    return passed


def _randomize(net, rng, w_scale=0.7, b_scale=0.4):
    for p in net.layers:
        p.weights[...] = rng.normal(0.0, w_scale, size=p.weights.shape)
        p.bias[...] = rng.normal(0.0, b_scale, size=p.bias.shape)


def _match_count_prune(net, mode, count):
    """net without its count smallest-norm hidden nodes."""
    return apply_mask(net, mode, match_count_mask(group_norms(net, mode), count))


def _v1_bytes(net) -> bytes:
    """A version 1 file of net: its float64 version 2 body after a 12-byte header."""
    return b"GLNN" + struct.pack("<II", 1, net.num_layers) + model_bytes(net.copy(np.float64))[16:]


@pytest.fixture(scope="module")
def reference_runs():
    """Train the pinned reference task at 5 seeds for each of the 3 modes.

    All three configs describe the same data, so one set of splits is
    shared. Per run we keep the best network, its test accuracy, and the
    theta-prune outcome (grouped modes only).
    """
    cfgs = {key: parse_config(CONFIG_DIR / name) for key, name in CONFIGS.items()}
    train_set, val_set, test_set = cfgs["out"].load_splits()
    pairs = [(key, seed) for key in cfgs for seed in SEEDS]
    jobs = [
        (init_network(cfgs[key].layer_sizes, seed), train_set, val_set,
         dataclasses.replace(cfgs[key], seed=seed))
        for key, seed in pairs
    ]
    # the trains are independent, so they run in parallel on up to two cores
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    results = _pool_train(jobs, min(2, cores or 1))
    runs = {}
    for (key, seed), result in zip(pairs, results):
        cfg = cfgs[key]
        mode = Mode(cfg.mode)
        net = result.best_network
        rec = SimpleNamespace(
            net=net,
            base=evaluate(net, test_set),
            per_epoch_disposable=[
                sum(r.disposable) for r in result.history
            ],
        )
        if mode is not Mode.L2_ALL:
            norms = group_norms(net, mode)
            keep = make_mask(norms, cfg.theta)
            rec.removed = sum(int(np.sum(~k)) for k in keep)
            rec.pruned_acc = evaluate(apply_mask(net, mode, keep), test_set)
            rec.gap = bimodality_gap(norms)
        runs[(key, seed)] = rec
    return SimpleNamespace(
        runs=runs,
        cfgs=cfgs,
        test_set=test_set,
        hidden_total=sum(cfgs["out"].layer_sizes[1:-1]),
    )


def test_pooled_train_equals_in_process_train():
    # a worker trains from pickled inputs with one BLAS thread; its network
    # and history must equal an in-process train of the same pair
    cfg = dataclasses.replace(parse_config(CONFIG_DIR / CONFIGS["in"]), epochs=2, seed=43)
    train_set, val_set, _ = cfg.load_splits()
    job = (init_network(cfg.layer_sizes, cfg.seed), train_set, val_set, cfg)
    [pooled] = _pool_train([job], workers=1)
    local = train(*job)
    assert pooled.history == local.history
    assert pooled.best_epoch == local.best_epoch
    for got, want in zip(pooled.best_network.layers, local.best_network.layers, strict=True):
        for a, b in ((got.weights, want.weights), (got.bias, want.bias)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def test_criterion_1_total_gradient_matches_finite_differences():
    """The training gradient (batched CE plus penalty) vs central differences.

    The gradient comes from the two calls train makes per minibatch,
    batch_gradients and regularizer_gradient; the differenced objective
    is mean_loss plus regularizer_value.
    """
    sizes = [3, 5, 4, 2]
    h = 1e-5
    worst = 0.0
    checked = 0
    for mode in (Mode.GLASSO_OUT, Mode.GLASSO_IN):
        penalty = (mode, 0.02, 0.002)
        for seed in range(5):
            rng = np.random.default_rng(1000 + seed)
            net = init_network(sizes, seed)
            _randomize(net, rng, w_scale=0.6, b_scale=0.3)
            # a float64 oracle: float32 rounding would swamp the differences
            assert net.dtype == np.float64
            xs = rng.normal(0.0, 1.0, size=(6, sizes[0]))
            ys = rng.integers(0, sizes[-1], size=6).astype(np.int64)
            batch = Dataset(xs, ys, num_classes=sizes[-1])

            _, _, grad = batch_gradients(net, batch.features, batch.labels)
            regularizer_gradient(net, *penalty, grad)

            norms = group_norms(net, mode)
            last = len(net.layers) - 1

            def in_live_group(layer, i, j):
                # entries of an ungrouped matrix are always checked; a
                # grouped entry is skipped when its group norm is tiny
                # (the penalty is not differentiable at the origin)
                if mode is Mode.GLASSO_OUT:
                    return layer == 0 or norms[layer - 1][j] >= 1e-3
                return layer == last or norms[layer][i] >= 1e-3

            def total():
                # the perturbed network's own norms, never the outer norms
                own = group_norms(net, mode)
                return mean_loss(net, batch) + regularizer_value(net, mode, own, *penalty[1:])

            for layer, p in enumerate(net.layers):
                for i in range(p.weights.shape[0]):
                    for j in range(p.weights.shape[1]):
                        if not in_live_group(layer, i, j):
                            continue
                        old = p.weights[i, j]
                        p.weights[i, j] = old + h
                        up = total()
                        p.weights[i, j] = old - h
                        down = total()
                        p.weights[i, j] = old
                        fd = (up - down) / (2 * h)
                        rel = abs(grad[layer].weights[i, j] - fd) / max(abs(fd), 1e-8)
                        worst = max(worst, rel)
                        checked += 1
                for i in range(p.bias.shape[0]):
                    old = p.bias[i]
                    p.bias[i] = old + h
                    up = total()
                    p.bias[i] = old - h
                    down = total()
                    p.bias[i] = old
                    fd = (up - down) / (2 * h)
                    rel = abs(grad[layer].bias[i] - fd) / max(abs(fd), 1e-8)
                    worst = max(worst, rel)
                    checked += 1
    passed = worst < 1e-5
    assert _report(
        "criterion 1 gradient oracle",
        passed,
        f"worst rel err {worst:.2e} over {checked} entries, 10 nets",
    )


def test_criterion_2_zero_group_pruning_is_logit_identical():
    """Removing nodes whose group vector is exactly zero changes nothing."""
    sizes = [6, 10, 8, 4]
    dead = {1: [1, 4, 7], 2: [0, 5]}
    worst = 0.0
    for mode in (Mode.GLASSO_OUT, Mode.GLASSO_IN):
        rng = np.random.default_rng(200)
        net = init_network(sizes, 9)
        _randomize(net, rng, b_scale=0.5)  # nonzero biases exercise folding
        keep = [np.ones(sizes[1], dtype=bool), np.ones(sizes[2], dtype=bool)]
        for layer, idxs in dead.items():
            for i in idxs:
                keep[layer - 1][i] = False
                if mode is Mode.GLASSO_OUT:
                    net.layers[layer].weights[:, i] = 0.0
                else:
                    net.layers[layer - 1].weights[i, :] = 0.0
        pruned = apply_mask(net, mode, keep)
        # a float64 oracle: its 1e-12 bound is below float32 rounding
        assert net.dtype == pruned.dtype == np.float64
        for _ in range(100):
            x = rng.normal(0.0, 1.2, size=(1, sizes[0]))
            diff = np.max(np.abs(forward_batch(net, x)[-1] - forward_batch(pruned, x)[-1]))
            worst = max(worst, float(diff))
    passed = worst <= 1e-12
    assert _report(
        "criterion 2 exact-zero pruning equivalence",
        passed,
        f"max logit diff {worst:.2e} over 100 inputs x 2 modes",
    )


def test_criterion_3_out_prune_deviation_below_dropped_norm_sum():
    """Next-layer pre-activation shift is strictly under the dropped norms.

    Each dropped node contributes its outgoing column times a bounded
    sigmoid factor, so the 2-norm of the shift must come in strictly
    below the plain sum of dropped column norms.
    """
    rng = np.random.default_rng(300)
    min_margin = np.inf
    for _ in range(20):
        sizes = [
            int(rng.integers(3, 7)),
            int(rng.integers(5, 11)),
            int(rng.integers(4, 9)),
            int(rng.integers(2, 5)),
        ]
        net = init_network(sizes, int(rng.integers(0, 10_000)))
        _randomize(net, rng, w_scale=0.8)
        keep1 = rng.random(sizes[1]) >= 0.5
        if keep1.all():
            keep1[int(rng.integers(0, sizes[1]))] = False
        if not keep1.any():
            keep1[int(rng.integers(0, sizes[1]))] = True
        keep = [keep1, np.ones(sizes[2], dtype=bool)]
        pruned = apply_mask(net, Mode.GLASSO_OUT, keep)
        x = rng.normal(0.0, 1.5, size=(1, sizes[0]))
        pre = [
            forward_batch(n, x)[1] @ n.layers[1].weights.T + n.layers[1].bias
            for n in (net, pruned)
        ]
        dev = float(np.linalg.norm(pre[0] - pre[1]))
        dropped = np.flatnonzero(~keep1)
        bound = float(np.sum(np.linalg.norm(net.layers[1].weights[:, dropped], axis=0)))
        assert dev < bound
        min_margin = min(min_margin, bound - dev)
    assert _report(
        "criterion 3 bounded pruning perturbation",
        True,
        f"20 nets, strict in all, min margin {min_margin:.3f}",
    )


def test_criterion_4_norms_split_bimodal(reference_runs):
    """Grouped runs leave an empty band in [1e-2, 1e-1]; L2 runs do not."""
    R = reference_runs
    good = 0
    worst_gap = 0.0
    least_removed = None
    for seed in SEEDS:
        r = R.runs[("out", seed)]
        if r.gap < 0.05 and r.removed >= 0.10 * R.hidden_total:
            good += 1
        worst_gap = max(worst_gap, r.gap)
        least_removed = r.removed if least_removed is None else min(least_removed, r.removed)
    l2_below = 0
    l2_min = np.inf
    for seed in SEEDS:
        net = R.runs[("l2", seed)].net
        for mode in (Mode.GLASSO_OUT, Mode.GLASSO_IN):
            norms = np.concatenate(group_norms(net, mode))
            l2_below += int(np.sum(norms < 1e-2))
            l2_min = min(l2_min, float(norms.min()))
    passed = good >= 4 and l2_below == 0
    assert _report(
        "criterion 4 bimodal norm split",
        passed,
        f"{good}/5 seeds gap<0.05 with >=10% disposable (worst gap "
        f"{worst_gap:.3f}, fewest removed {least_removed}/{R.hidden_total}); "
        f"L2 nodes under 1e-2: {l2_below}, min norm {l2_min:.2f}",
    )


def test_criterion_5_prune_without_loss_vs_l2(reference_runs):
    """Theta-pruned grouped nets keep accuracy; L2 at matched count dies."""
    R = reference_runs
    good = 0
    worst_glasso_drop = -np.inf
    least_l2_drop = np.inf
    for seed in SEEDS:
        out_r = R.runs[("out", seed)]
        in_r = R.runs[("in", seed)]
        l2_r = R.runs[("l2", seed)]
        glasso_ok = (
            out_r.base - out_r.pruned_acc < 0.005
            and in_r.base - in_r.pruned_acc < 0.005
        )
        worst_glasso_drop = max(
            worst_glasso_drop,
            out_r.base - out_r.pruned_acc,
            in_r.base - in_r.pruned_acc,
        )
        drops = []
        for mode, count in ((Mode.GLASSO_OUT, out_r.removed), (Mode.GLASSO_IN, in_r.removed)):
            acc = evaluate(_match_count_prune(l2_r.net, mode, count), R.test_set)
            drops.append(l2_r.base - acc)
        least_l2_drop = min(least_l2_drop, *drops)
        if glasso_ok and all(d > 0.05 for d in drops):
            good += 1
    passed = good >= 4
    assert _report(
        "criterion 5 prune without loss",
        passed,
        f"{good}/5 seeds ok; worst grouped drop {worst_glasso_drop * 100:.2f} pts, "
        f"smallest L2 matched-count drop {least_l2_drop * 100:.1f} pts",
    )


def test_criterion_6_low_norm_cluster_removal(reference_runs):
    """Removing the whole low-norm cluster is free for grouped, fatal for L2."""
    R = reference_runs
    ok = True
    worst_dev = 0.0
    least_l2_drop = np.inf
    for seed in SEEDS:
        out_r = R.runs[("out", seed)]
        l2_r = R.runs[("l2", seed)]
        count = out_r.removed
        g_acc = evaluate(_match_count_prune(out_r.net, Mode.GLASSO_OUT, count), R.test_set)
        l_acc = evaluate(_match_count_prune(l2_r.net, Mode.GLASSO_OUT, count), R.test_set)
        worst_dev = max(worst_dev, abs(g_acc - out_r.base))
        least_l2_drop = min(least_l2_drop, l2_r.base - l_acc)
        if not (abs(g_acc - out_r.base) <= 0.01 and l2_r.base - l_acc > 0.05):
            ok = False
    assert _report(
        "criterion 6 pruning-curve shape",
        ok,
        f"grouped worst dev {worst_dev * 100:.2f} pts at cluster size, "
        f"L2 smallest drop {least_l2_drop * 100:.1f} pts",
    )


def test_criterion_7_selection_happens_early(reference_runs):
    """At least half the final disposable count is in place by epoch 10."""
    R = reference_runs
    good = 0
    ratios = []
    for seed in SEEDS:
        counts = R.runs[("out", seed)].per_epoch_disposable
        final = counts[-1]
        ratios.append(counts[9] / final if final else 0.0)
        if final > 0 and counts[9] >= 0.5 * final:
            good += 1
    passed = good >= 4
    assert _report(
        "criterion 7 early selection",
        passed,
        f"{good}/5 seeds at >=50% by epoch 10, ratios "
        + ", ".join(f"{r:.2f}" for r in ratios),
    )


def test_trainer_invariant_stabilized_selection(reference_runs):
    """Disposable counts do not shrink over the last five epochs."""
    R = reference_runs
    good = 0
    for seed in SEEDS:
        last5 = R.runs[("out", seed)].per_epoch_disposable[-5:]
        if all(a <= b for a, b in zip(last5, last5[1:])):
            good += 1
    passed = good >= 4
    assert _report(
        "trainer invariant stabilized selection",
        passed,
        f"{good}/5 seeds non-decreasing across final 5 epochs",
    )


def test_criterion_8_reruns_are_byte_identical(tmp_path):
    """Same config, two executions, byte-compared outputs."""
    cfg = parse_config(CONFIG_DIR / CONFIGS["out"])
    dirs = []
    for tag in ("first", "second"):
        out_dir = tmp_path / tag
        cfg_path = tmp_path / f"{tag}.cfg"
        doc = dict(cfg.to_dict(), output_dir=str(out_dir))
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["train", str(cfg_path)]) == 0
        dirs.append(out_dir)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    # manifest.json echoes the config, including the two distinct
    # output_dir values, so it is the one file excluded from comparison
    compared = [n for n in names if n != "manifest.json"]
    differing = [
        n for n in compared if (dirs[0] / n).read_bytes() != (dirs[1] / n).read_bytes()
    ]
    passed = (
        not differing
        and "model.glnn" in compared
        and "history.jsonl" in compared
        and "histogram.csv" in compared
    )
    assert _report(
        "criterion 8 deterministic reruns",
        passed,
        f"files {', '.join(compared)} byte-identical"
        if not differing
        else f"differs: {', '.join(differing)}",
    )


def test_criterion_9_file_format_roundtrips(tmp_path, reference_runs):
    """GLNN and CSV round-trips, IDX corruption rejection."""
    R = reference_runs
    net = R.runs[("out", SEEDS[0])].net

    raw = model_bytes(net)
    bytes_ok = model_bytes(model_from_bytes(raw)) == raw
    model_path = tmp_path / "model.glnn"
    save_model(net, model_path)
    file_ok = (
        model_path.read_bytes() == raw and model_bytes(load_model(model_path)) == raw
    )
    # a version 1 file loads as the float64 widening, whose f8 body it shares
    v1 = _v1_bytes(net)
    wide = model_from_bytes(v1)
    v1_ok = (
        net.dtype == np.float32
        and wide.dtype == np.float64
        and model_bytes(wide) == model_bytes(net.copy(np.float64))
        and _v1_bytes(wide) == v1
        and model_bytes(wide.copy(np.float32)) == raw
    )

    norms = group_norms(net, Mode.GLASSO_OUT)
    hist = norm_histogram(norms)
    curve = forced_removal_curve(net, Mode.GLASSO_OUT, norms, R.test_set, step=256)
    write_bundle({"histogram": hist, "curve": curve}, tmp_path)
    hist_ok = read_histogram_csv(tmp_path / "histogram.csv") == hist
    curve_ok = read_curve_csv(tmp_path / "curve.csv") == [
        (int(n), float(a)) for n, a in curve
    ]

    images = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
    img_path = tmp_path / "imgs.idx"
    lab_path = tmp_path / "labs.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + images.tobytes())
    lab_path.write_bytes(struct.pack(">II", 0x801, 2) + bytes([0, 1]))
    loads_ok = load_idx(img_path, lab_path).n == 2

    def rejected(blob: bytes) -> bool:
        bad_path = tmp_path / "bad.idx"
        bad_path.write_bytes(blob)
        try:
            load_idx(bad_path, lab_path)
        except DataFormatError:
            return True
        return False

    good_blob = img_path.read_bytes()
    idx_ok = (
        loads_ok
        and rejected(struct.pack(">IIII", 0x999, 2, 2, 2) + images.tobytes())
        and rejected(good_blob[:-3])
    )

    passed = bytes_ok and file_ok and v1_ok and hist_ok and curve_ok and idx_ok
    assert _report(
        "criterion 9 format round-trips",
        passed,
        f"glnn v2 bytes {bytes_ok}, glnn v2 file {file_ok}, glnn v1 {v1_ok}, "
        f"histogram csv {hist_ok}, curve csv {curve_ok}, idx rejection {idx_ok}",
    )


@pytest.mark.parametrize("key", ["out", "in"])
def test_float64_copy_gives_same_prune_and_curve(tmp_path, reference_runs, key):
    """The seed-42 model and its version 1 float64 copy select and score alike."""
    R = reference_runs
    net = R.runs[(key, SEEDS[0])].net
    cfg = str(CONFIG_DIR / CONFIGS[key])
    outputs = {}
    for name, blob in (("v2", model_bytes(net)), ("v1", _v1_bytes(net))):
        model = tmp_path / name / "model.glnn"
        model.parent.mkdir()
        model.write_bytes(blob)
        assert cli.main(["prune", str(model), "--data", cfg]) == 0
        assert cli.main(["analyze", str(model), "--curve", "--step", "8", "--data", cfg]) == 0
        doc = json.loads((model.parent / "prune.json").read_text())
        del doc["model"]
        outputs[name] = (doc, (model.parent / "curve.csv").read_bytes())
    assert load_model(tmp_path / "v2" / "model.glnn").dtype == np.float32
    assert load_model(tmp_path / "v1" / "model.glnn").dtype == np.float64
    assert outputs["v1"] == outputs["v2"]
    assert outputs["v2"][0]["total_removed"] == R.runs[(key, SEEDS[0])].removed
