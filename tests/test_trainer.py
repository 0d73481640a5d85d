import json
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glasso_prune import trainer
from glasso_prune.datasets import Dataset, synth_gaussians
from glasso_prune.errors import ShapeMismatchError, TrainingDiverged
from glasso_prune.linalg import as_matrix, as_vector
from glasso_prune.network import (
    LayerParams,
    MlpNetwork,
    batch_gradients,
    forward_batch,
    init_network,
)
from glasso_prune.pruning import apply_mask, match_count_mask
from glasso_prune.regularization import (
    Mode,
    group_norms,
    regularizer_gradient,
    regularizer_value,
)
from glasso_prune.trainer import (
    EVAL_BATCH,
    EpochReport,
    TrainConfig,
    _sgd_step,
    disposable_counts,
    evaluate,
    mean_loss,
    train,
)


def small_task(seed=0):
    return synth_gaussians(3, 6, 40, 4.0, seed=seed)


def replay_sgd(net, train_set, val_set, cfg):
    """Test-side copy of the training schedule, spelled out step by step.

    Like train, it steps a float32 copy of the network (forward_batch casts
    each batch to it). Returns one (mean minibatch CE, hit fraction,
    epoch-end network) per epoch, and the best-validation network (latest
    on ties), all float32.
    """
    mode = Mode(cfg.mode)
    net = net.copy(np.float32)
    vw = [np.zeros_like(p.weights) for p in net.layers]
    vb = [np.zeros_like(p.bias) for p in net.layers]
    lr = cfg.learning_rate
    epochs, best_net, best_val = [], None, -1.0
    for epoch in range(1, cfg.epochs + 1):
        seq = np.random.SeedSequence([cfg.seed, epoch])
        perm = np.random.Generator(np.random.Philox(seq)).permutation(train_set.n)
        ce_sum, hit_sum = 0.0, 0
        for start in range(0, train_set.n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            loss, hits, grads = batch_gradients(
                net, train_set.features[idx], train_set.labels[idx]
            )
            ce_sum += loss * len(idx)
            hit_sum += hits
            regularizer_gradient(net, mode, cfg.alpha, cfg.beta, grads)
            for l, p in enumerate(net.layers):
                vw[l] = cfg.momentum * vw[l] - lr * grads[l].weights
                vb[l] = cfg.momentum * vb[l] - lr * grads[l].bias
                p.weights = p.weights + vw[l]
                p.bias = p.bias + vb[l]
        epochs.append((ce_sum / train_set.n, hit_sum / train_set.n, net.copy()))
        val = evaluate(net, val_set)
        if val >= best_val:
            best_val, best_net = val, net.copy()
        lr *= cfg.lr_decay
    return epochs, best_net


def arrays_of(layers):
    """Every weight matrix, then every bias vector, of a LayerParams list."""
    return [g.weights for g in layers] + [g.bias for g in layers]


def replay_configs():
    # momentum, decay, a short last batch (120 rows in batches of 16 or
    # 50) and each penalty layout
    return [
        TrainConfig(mode="glasso_out", alpha=0.02, beta=0.002, epochs=4,
                    batch_size=16, lr_decay=0.9, seed=11),
        TrainConfig(mode="glasso_in", alpha=0.05, epochs=3,
                    batch_size=50, momentum=0.5, seed=12),
        TrainConfig(mode="l2", beta=0.01, epochs=3, batch_size=16, seed=13),
    ]


def networks_equal(a, b):
    return all(
        np.array_equal(pa.weights, pb.weights) and np.array_equal(pa.bias, pb.bias)
        for pa, pb in zip(a.layers, b.layers)
    )


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mode="glasso_out", epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(mode="glasso_out", batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(mode="glasso_out", momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(mode="glasso_out", momentum=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(mode="glasso_out", lr_decay=0.0)
    with pytest.raises(ValueError):
        TrainConfig(mode="glasso_out", lr_decay=1.5)
    with pytest.raises(ValueError):
        TrainConfig(mode="glasso_out", learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(mode="glasso_out", theta=0.0)
    with pytest.raises(ValueError):
        TrainConfig(mode="glasso_out", theta=float("nan"))


def test_negative_seed_rejected_by_train_config():
    # the seed keys the epoch shuffles, which numpy takes only as non-negative
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(mode="glasso_out", seed=-1)


def test_zero_everything_leaves_network_unchanged():
    data = small_task()
    net = init_network([6, 5, 3], seed=1)
    cfg = TrainConfig(mode="glasso_out", epochs=3, learning_rate=0.0, seed=3)
    result = train(net, data, data, cfg)
    # train steps a float32 copy; learning rate 0 returns that copy as it was
    assert networks_equal(result.best_network, net.copy(np.float32))


def test_one_epoch_train_copies_the_network_twice(monkeypatch):
    # the float32 working copy and epoch 1's snapshot: no snapshot is taken
    # before epoch 1, which would always replace it unread
    calls = []
    copy = MlpNetwork.copy

    def counted(self, dtype=None):
        calls.append(dtype)
        return copy(self, dtype)

    monkeypatch.setattr(MlpNetwork, "copy", counted)
    data = small_task()
    train(init_network([6, 5, 3], seed=1), data, data, TrainConfig(mode="glasso_out", epochs=1))
    assert calls == [np.float32, None]


def test_train_does_not_mutate_input_network():
    data = small_task()
    net = init_network([6, 5, 3], seed=1)
    frozen = net.copy()
    cfg = TrainConfig(mode="glasso_out", epochs=2, seed=3)
    train(net, data, data, cfg)
    assert networks_equal(net, frozen)


def test_scalar_glasso_dynamics():
    # single output class: CE gradient vanishes identically, leaving the
    # pure group pull w <- w - lr*alpha*sign(w) on the lone 1x1 group,
    # here in float32 as train computes it
    w0, lr, alpha, steps = 0.05, 0.1, 1.0, 7
    net = MlpNetwork(
        [
            LayerParams(as_matrix([[0.0]]), as_vector([0.0])),
            LayerParams(as_matrix([[w0]]), as_vector([0.0])),
        ]
    )
    data = Dataset(np.zeros((1, 1)), np.zeros(1, dtype=np.int64), num_classes=1)
    cfg = TrainConfig(
        mode="glasso_out",
        alpha=alpha,
        epochs=steps,
        batch_size=1,
        learning_rate=lr,
        momentum=0.0,
        seed=0,
    )
    result = train(net, data, data, cfg)

    w_oracle = np.float32(w0)
    seen = []
    for _ in range(steps):
        if abs(w_oracle) > 1e-12:
            w_oracle = w_oracle - np.float32(lr * alpha) * np.sign(w_oracle)
        seen.append(w_oracle)
        assert abs(w_oracle) <= abs(w0) + lr * alpha + 1e-15

    # overshoot: the pull exceeds |w0|, so the sign flips every step
    assert any(s < 0 for s in seen) and any(s > 0 for s in seen)
    w_final = result.best_network.layers[1].weights[0, 0]
    # val accuracy ties at 1.0 every epoch and ties keep the latest
    # snapshot, so best_network is the endpoint of the full run
    assert result.best_epoch == steps
    assert abs(w_final) <= abs(w0) + lr * alpha + 1e-15
    assert w_final == pytest.approx(seen[-1], abs=1e-15)


def test_scalar_glasso_magnitude_never_exceeds_bound():
    w0, lr, alpha = 0.3, 0.05, 2.0
    net = MlpNetwork(
        [
            LayerParams(as_matrix([[0.0]]), as_vector([0.0])),
            LayerParams(as_matrix([[w0]]), as_vector([0.0])),
        ]
    )
    data = Dataset(np.zeros((1, 1)), np.zeros(1, dtype=np.int64), num_classes=1)
    bound = abs(w0) + lr * alpha + 1e-15
    for epochs in range(1, 12):
        cfg = TrainConfig(
            mode="glasso_out",
        alpha=alpha,
            epochs=epochs,
            batch_size=1,
            learning_rate=lr,
            momentum=0.0,
            seed=0,
        )
        result = train(net, data, data, cfg)
        # every epoch's endpoint obeys the overshoot bound
        for report in result.history:
            assert report.train_loss >= 0.0
        w = result.best_network.layers[1].weights[0, 0]
        assert abs(w) <= bound


def test_separable_two_gaussians_reach_high_accuracy():
    data = synth_gaussians(2, 8, 100, 6.0, seed=5)
    net = init_network([8, 16, 2], seed=5)
    cfg = TrainConfig(mode="glasso_out", epochs=20, batch_size=32, seed=5)
    result = train(net, data, data, cfg)
    assert result.history[-1].train_acc > 0.95


def test_evaluate_single_sample():
    net = init_network([4, 5, 3], seed=2)
    x = np.ones((1, 4))
    label = int(np.argmax(forward_batch(net, x)[-1][0]))
    good = Dataset(x, np.array([label], dtype=np.int64), num_classes=3)
    assert evaluate(net, good) == 1.0


def test_evaluate_adversarial_labels():
    net = init_network([4, 5, 3], seed=2)
    rng = np.random.default_rng(7)
    xs = rng.standard_normal((20, 4))
    wrong = (np.argmax(forward_batch(net, xs)[-1], axis=1) + 1) % 3
    assert evaluate(net, Dataset(xs, wrong, num_classes=3)) == 0.0


def test_evaluate_matches_loop_oracle():
    net = init_network([6, 8, 3], seed=3)
    data = small_task(seed=9)
    hits = sum(
        1
        for x, y in zip(data.features, data.labels)
        if np.argmax(forward_batch(net, x[np.newaxis, :])[-1][0]) == y
    )
    assert evaluate(net, data) == pytest.approx(hits / data.n, abs=1e-15)


def test_evaluate_empty_dataset_errors():
    net = init_network([4, 5, 3], seed=2)
    empty = Dataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), num_classes=3)
    with pytest.raises(ValueError, match="dataset is empty"):
        evaluate(net, empty)


def test_train_determinism():
    data = small_task(seed=11)
    net = init_network([6, 10, 3], seed=11)
    cfg = TrainConfig(
        mode="glasso_out", alpha=0.02, beta=0.002, epochs=4, batch_size=16, seed=11
    )
    r1 = train(net, data, data, cfg)
    r2 = train(net, data, data, cfg)
    assert len(r1.history) == len(r2.history)
    for a, b in zip(r1.history, r2.history):
        assert a.epoch == b.epoch
        assert a.train_loss == b.train_loss
        assert a.train_acc == b.train_acc
        assert a.val_acc == b.val_acc
        assert a.disposable == b.disposable
    assert networks_equal(r1.best_network, r2.best_network)
    assert r1.best_epoch == r2.best_epoch


def test_descent_on_fixed_minibatch():
    # one minibatch per epoch, no momentum, tiny lr: loss must not increase
    data = synth_gaussians(3, 6, 8, 3.0, seed=4)  # 24 samples, one batch
    net = init_network([6, 8, 3], seed=4)
    cfg = TrainConfig(
        mode="glasso_out",
        epochs=50,
        batch_size=24,
        learning_rate=1e-3,
        momentum=0.0,
        seed=4,
    )
    result = train(net, data, data, cfg)
    losses = [r.train_loss for r in result.history]
    for prev, cur in zip(losses, losses[1:]):
        assert cur <= prev + 1e-12


def test_best_epoch_attains_max_val_accuracy():
    data = small_task(seed=6)
    net = init_network([6, 8, 3], seed=6)
    cfg = TrainConfig(mode="glasso_out", epochs=6, batch_size=16, seed=6)
    result = train(net, data, data, cfg)
    best = max(r.val_acc for r in result.history)
    assert result.history[result.best_epoch - 1].val_acc == best
    assert result.best_val_accuracy == best
    # latest on ties: equal accuracy, prefer the further-regularized net
    last_hit = max(r.epoch for r in result.history if r.val_acc == best)
    assert result.best_epoch == last_hit


def test_shape_mismatch_rejected():
    data = small_task()
    net = init_network([7, 5, 3], seed=0)  # input dim 7 vs data dim 6
    cfg = TrainConfig(mode="glasso_out", epochs=1)
    with pytest.raises(ShapeMismatchError):
        train(net, data, data, cfg)


@pytest.mark.parametrize("empty_split", ["train", "val"])
def test_empty_split_rejected_before_any_step(monkeypatch, empty_split):
    def no_step(*args, **kwargs):
        raise AssertionError("minibatch step before the empty-split check")

    monkeypatch.setattr(trainer, "batch_gradients", no_step)
    data = small_task()
    empty = Dataset(np.zeros((0, 6)), np.zeros(0, dtype=np.int64), num_classes=3)
    splits = (empty, data) if empty_split == "train" else (data, empty)
    net = init_network([6, 5, 3], seed=0)
    cfg = TrainConfig(mode="glasso_out", epochs=2)
    with pytest.raises(ValueError, match="dataset is empty") as info:
        train(net, *splits, cfg)
    assert info.type is ValueError  # not a ShapeMismatchError


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sgd_step_is_the_closed_form(dtype):
    # v' = momentum * v - lr * g and p' = p + v', bit for bit, on every array
    net = init_network([5, 4, 3], seed=3).copy(dtype)
    rng = np.random.default_rng(3)

    def random_set():
        weights = [rng.standard_normal(p.weights.shape).astype(dtype) for p in net.layers]
        biases = [rng.standard_normal(p.n_out).astype(dtype) for p in net.layers]
        return [LayerParams(w, b) for w, b in zip(weights, biases)]

    velocity, grads = random_set(), random_set()
    before = net.copy()
    v0 = [a.copy() for a in arrays_of(velocity)]
    g0 = [a.copy() for a in arrays_of(grads)]
    lr, momentum = 0.07, 0.9
    _sgd_step(net, velocity, grads, lr, momentum)
    params = [p.weights for p in net.layers] + [p.bias for p in net.layers]
    params0 = [p.weights for p in before.layers] + [p.bias for p in before.layers]
    for p, p_prev, v, v_prev, g_prev in zip(
        params, params0, arrays_of(velocity), v0, g0
    ):
        v_expected = momentum * v_prev - lr * g_prev
        assert v.dtype == dtype and np.array_equal(v, v_expected)
        assert p.dtype == dtype and np.array_equal(p, p_prev + v_expected)


def test_label_out_of_range_rejected():
    data = small_task()
    net = init_network([6, 5, 2], seed=0)  # 2 outputs vs 3 classes
    cfg = TrainConfig(mode="glasso_out", epochs=1)
    with pytest.raises(ShapeMismatchError):
        train(net, data, data, cfg)


def test_divergence_aborts_with_location():
    # an absurd alpha overflows the weights; the next batch sees nan loss
    data = synth_gaussians(2, 1, 2, 1.0, seed=1)
    net = init_network([1, 2, 2], seed=1)
    cfg = TrainConfig(
        mode="glasso_out",
        alpha=1e300,
        epochs=3,
        batch_size=1,
        learning_rate=1e10,
        momentum=0.0,
        seed=1,
    )
    # TrainingDiverged is the one report: no numpy overflow warning reaches the caller
    with warnings.catch_warnings(), pytest.raises(TrainingDiverged) as err:
        warnings.simplefilter("error")
        train(net, data, data, cfg)
    assert "epoch" in str(err.value)
    assert "batch" in str(err.value)


def test_disposable_counts_by_threshold():
    norms = [np.array([2e-4, 0.7, 0.7]), np.array([5e-3, 1e-2])]
    assert disposable_counts(norms, threshold=1e-2) == [1, 1]
    assert disposable_counts(norms, threshold=1e-5) == [0, 0]
    assert TrainConfig(mode="glasso_out").theta == 1e-2


def test_history_log_roundtrip(tmp_path):
    data = small_task(seed=8)
    net = init_network([6, 5, 3], seed=8)
    cfg = TrainConfig(
        mode="glasso_out", alpha=0.01, epochs=3, batch_size=16, seed=8
    )
    log = tmp_path / "history.jsonl"
    result = train(net, data, data, cfg, log_path=log)
    loaded = [EpochReport(**json.loads(line)) for line in log.read_text().splitlines()]
    assert len(loaded) == 3
    for a, b in zip(result.history, loaded):
        assert a.epoch == b.epoch
        assert a.train_loss == b.train_loss
        assert a.train_acc == b.train_acc
        assert a.val_acc == b.val_acc
        assert a.disposable == b.disposable


def test_diverged_run_keeps_the_finished_epochs_lines(tmp_path, monkeypatch):
    # epoch 2's first minibatch loss is nan: epoch 1's line is already written
    calls = []

    def nan_in_epoch_2(*args):
        loss, hits, grads = batch_gradients(*args)
        calls.append(loss)
        return (np.nan if len(calls) == 4 else loss), hits, grads

    monkeypatch.setattr(trainer, "batch_gradients", nan_in_epoch_2)
    data = small_task(seed=8)
    cfg = TrainConfig(mode="glasso_out", alpha=0.01, epochs=3, batch_size=40, seed=8)
    log = tmp_path / "history.jsonl"
    with pytest.raises(TrainingDiverged, match="epoch 2, batch 0"):
        train(init_network([6, 5, 3], seed=8), data, data, cfg, log_path=log)
    (line,) = log.read_text().splitlines()
    assert json.loads(line)["epoch"] == 1


def test_epoch_report_json_keys():
    report = EpochReport(
        epoch=2,
        train_loss=0.5,
        train_acc=0.75,
        val_acc=0.5,
        disposable=[3, 1],
    )
    line = report.to_json_line()
    assert '"epoch": 2' in line
    assert '"train_loss"' in line
    assert '"train_acc"' in line
    assert '"val_acc"' in line
    assert '"disposable": [3, 1]' in line
    # the history.jsonl line, byte for byte: the five keys in file order
    assert line == json.dumps(
        {"epoch": 2, "train_loss": 0.5, "train_acc": 0.75, "val_acc": 0.5, "disposable": [3, 1]}
    )
    assert line == '{"epoch": 2, "train_loss": 0.5, "train_acc": 0.75, "val_acc": 0.5, ' \
        '"disposable": [3, 1]}'


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    epoch=st.integers(min_value=0, max_value=2**63),
    metrics=st.lists(st.floats(allow_nan=False), min_size=3, max_size=3),
    disposable=st.lists(st.integers(min_value=0, max_value=2**31), max_size=6),
)
def test_epoch_report_json_roundtrip(epoch, metrics, disposable):
    report = EpochReport(epoch, *metrics, disposable)
    line = report.to_json_line()
    assert "\n" not in line
    assert EpochReport(**json.loads(line)) == report


def test_l2_mode_records_no_disposable():
    data = small_task(seed=2)
    net = init_network([6, 5, 3], seed=2)
    cfg = TrainConfig(
        mode="l2",
        beta=0.01,
        epochs=2,
        batch_size=16,
        seed=2,
    )
    result = train(net, data, data, cfg)
    assert all(r.disposable == [] for r in result.history)


def test_train_loss_includes_regularizer():
    # the reported loss is the epoch's running CE mean plus the penalty at
    # the epoch-end weights: alpha 0 adds exactly 0.0, alpha 10 a large term
    data = small_task(seed=3)
    net = init_network([6, 5, 3], seed=3)
    penalties = []
    for alpha in (0.0, 10.0):
        cfg = TrainConfig(mode="glasso_out", alpha=alpha, epochs=1, batch_size=16, seed=3)
        reported = train(net, data, data, cfg).history[0].train_loss
        [(ce_mean, _, end_net)], _ = replay_sgd(net, data, data, cfg)
        norms = group_norms(end_net, Mode.GLASSO_OUT)
        penalties.append(regularizer_value(end_net, Mode.GLASSO_OUT, norms, alpha, 0.0))
        assert reported == ce_mean + penalties[-1]
    assert penalties[0] == 0.0
    assert penalties[1] > 1.0


def test_history_disposable_counts_use_config_theta():
    # learning_rate 0 keeps the network fixed, so every epoch counts the
    # same norms: 0.003 and 0.03 lie below theta 0.05, only 0.003 below 1e-2
    net = init_network([6, 4, 3], seed=0)
    w = net.layers[1].weights
    for j, norm in enumerate((0.003, 0.03, 0.3, 3.0)):
        w[:, j] *= norm / np.linalg.norm(w[:, j])
    data = small_task()
    cfg = TrainConfig(
        mode="glasso_out", alpha=0.01, epochs=3, learning_rate=0.0, seed=1, theta=0.05
    )
    result = train(net, data, data, cfg)
    expected = [int(np.sum(n < 0.05)) for n in group_norms(net, Mode.GLASSO_OUT)]
    assert expected == [2]
    assert [r.disposable for r in result.history] == [expected] * 3


def ce_by_separate_softmax(logits, labels):
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    return log_norm - shifted[np.arange(len(labels)), labels]


def odd_task(seed):
    # 999 = 512 + 487 rows: one full evaluation batch and a partial one
    return synth_gaussians(3, 6, 333, 4.0, seed=seed)


def random_task(n, seed):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(0.0, 3.0, (n, 6)), rng.integers(0, 3, n), num_classes=3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "n, batches",
    [(7, [7]), (999, [512, 487]), (1024, [512, 512])],
    ids=["one-short-batch", "full-and-partial", "two-full-batches"],
)
def test_mean_loss_equals_sum_of_separate_passes(n, batches, dtype):
    # evaluate and mean_loss run forward_batch on consecutive EVAL_BATCH-row
    # batches; the same calls here give the same bits, a short last batch
    # included
    starts = range(0, n, EVAL_BATCH)
    assert [min(EVAL_BATCH, n - start) for start in starts] == batches
    for seed in range(3):
        net = init_network([6, 9, 3], seed=seed).copy(dtype)
        data = random_task(n, seed)
        total = 0.0
        hits = 0
        for start in starts:
            stop = min(start + EVAL_BATCH, data.n)
            logits = forward_batch(net, data.features[start:stop])[-1]
            assert logits.dtype == dtype
            labels = data.labels[start:stop]
            total += float(np.sum(ce_by_separate_softmax(logits, labels)))
            hits += int(np.sum(np.argmax(logits, axis=1) == labels))
        assert mean_loss(net, data) == total / data.n
        assert evaluate(net, data) == hits / data.n


def test_evaluation_unaffected_by_other_networks():
    # passes over a wider network, a narrower pruned one and net A in
    # float32 in between must not change net A's results
    data = odd_task(5)
    net_a = init_network([6, 40, 30, 3], seed=5)
    wider = init_network([6, 90, 70, 3], seed=6)
    keep = match_count_mask(group_norms(net_a, Mode.GLASSO_OUT), 40)
    narrower = apply_mask(net_a, Mode.GLASSO_OUT, keep)

    def results(net):
        return evaluate(net, data), mean_loss(net, data)

    before = results(net_a)
    for other in (wider, narrower, net_a.copy(np.float32)):
        results(other)
        assert results(net_a) == before


def test_mean_loss_empty_dataset_errors():
    net = init_network([4, 5, 3], seed=2)
    empty = Dataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), num_classes=3)
    with pytest.raises(ValueError, match="dataset is empty"):
        mean_loss(net, empty)


def test_batch_gradients_match_two_softmax_oracle():
    # the minibatch step shares one softmax between loss and delta; the
    # oracle computes them separately and must agree bit for bit
    rng = np.random.default_rng(21)
    net = init_network([6, 9, 7, 3], seed=4)
    xs = rng.standard_normal((16, 6)) * 3
    labels = rng.integers(0, 3, 16)
    zs = forward_batch(net, xs)
    want_loss = float(ce_by_separate_softmax(zs[-1], labels).mean())
    shifted = zs[-1] - zs[-1].max(axis=1, keepdims=True)
    delta = np.exp(shifted)
    delta /= delta.sum(axis=1, keepdims=True)
    delta[np.arange(16), labels] -= 1.0
    delta /= 16
    want = [None] * 3
    for l in (2, 1, 0):
        want[l] = LayerParams(delta.T @ zs[l], delta.sum(axis=0))
        if l > 0:
            delta = (delta @ net.layers[l].weights) * zs[l] * (1.0 - zs[l])
    loss, _, got = batch_gradients(net, xs, labels)
    assert loss == want_loss
    for g, w in zip(arrays_of(got), arrays_of(want)):
        npt.assert_array_equal(g, w)


def test_history_metrics_equal_minibatch_replay(tmp_path):
    # each history line carries the running means of the epoch's own
    # minibatch steps, at pre-step weights, plus the epoch-end penalty
    data = small_task(seed=11)
    val = small_task(seed=12)
    net = init_network([6, 10, 7, 3], seed=11)
    for cfg in replay_configs():
        log = tmp_path / "history.jsonl"
        train(net, data, val, cfg, log_path=log)
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        replayed, _ = replay_sgd(net, data, val, cfg)
        assert len(lines) == len(replayed) == cfg.epochs
        for line, (ce_mean, acc, end_net) in zip(lines, replayed):
            assert end_net.dtype == np.float32
            mode = Mode(cfg.mode)
            norms = group_norms(end_net, mode)
            penalty = regularizer_value(end_net, mode, norms, cfg.alpha, cfg.beta)
            assert line["train_loss"] == ce_mean + penalty
            assert line["train_acc"] == acc


def test_best_network_equals_minibatch_replay():
    # best_network is the replay's best float32 network, bit for bit
    data = small_task(seed=11)
    val = small_task(seed=12)
    net = init_network([6, 10, 7, 3], seed=11)
    for cfg in replay_configs():
        result = train(net, data, val, cfg)
        _, want = replay_sgd(net, data, val, cfg)
        assert want.dtype == result.best_network.dtype == np.float32
        for got_p, want_p in zip(result.best_network.layers, want.layers):
            npt.assert_array_equal(got_p.weights.view(np.int32), want_p.weights.view(np.int32))
            npt.assert_array_equal(got_p.bias.view(np.int32), want_p.bias.view(np.int32))


def test_batch_gradients_hits_equal_forward_argmax():
    rng = np.random.default_rng(5)
    for seed in range(4):
        net = init_network([6, 9, 7, 3], seed=seed)
        for n in (1, 5, 64):
            xs = rng.standard_normal((n, 6)) * 3
            labels = rng.integers(0, 3, n)
            want = int(np.sum(np.argmax(forward_batch(net, xs)[-1], axis=1) == labels))
            assert batch_gradients(net, xs, labels)[1] == want
    # labels that are the argmax, then never the argmax
    xs = rng.standard_normal((20, 6))
    predicted = np.argmax(forward_batch(net, xs)[-1], axis=1)
    assert batch_gradients(net, xs, predicted)[1] == 20
    assert batch_gradients(net, xs, (predicted + 1) % 3)[1] == 0
