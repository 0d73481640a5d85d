import os
import time

import numpy as np
import numpy.testing as npt
import pytest

from glasso_prune import pruning, trainer
from glasso_prune.datasets import Dataset, synth_gaussians
from glasso_prune.errors import ShapeMismatchError
from glasso_prune.linalg import as_vector, norms, sigmoid
from glasso_prune.network import forward_batch, init_network
from glasso_prune.pruning import apply_mask, forced_removal_curve, make_mask, match_count_mask
from glasso_prune.regularization import Mode, group_norms
from glasso_prune.trainer import EVAL_BATCH, disposable_counts, evaluate, mean_loss


def bimodal_net(seed=0, low=1e-5, high=0.8):
    """[4, 6, 5, 3] net whose hidden groups split into two clusters (OUT)."""
    rng = np.random.default_rng(seed)
    net = init_network([4, 6, 5, 3], seed=seed)
    for l, widths in ((1, 6), (2, 5)):
        w = net.layers[l].weights
        w[:] = rng.uniform(0.5, 1.0, w.shape) * np.sign(rng.standard_normal(w.shape))
        cols = rng.permutation(widths)[: widths // 2]
        w[:, cols] *= low / high
        w[:, [c for c in range(widths) if c not in cols]] *= 1.0
    return net


def logits_close(a, b, inputs, tol=1e-12):
    la = forward_batch(a, inputs)[-1]
    lb = forward_batch(b, inputs)[-1]
    if la.shape != lb.shape:
        return False
    return float(np.max(np.abs(la - lb))) <= tol


def test_make_mask_threshold_separates_clusters():
    net = bimodal_net(seed=1)
    keep = make_mask(net, Mode.GLASSO_OUT, 1e-2)
    for l, norms in enumerate(group_norms(net, Mode.GLASSO_OUT)):
        npt.assert_array_equal(keep[l], norms >= 1e-2)
        # the clusters really are separated: nothing within a decade of theta
        assert not np.any((norms > 1e-3) & (norms < 1e-1))


def test_make_mask_below_all_norms_is_identity():
    net = init_network([3, 5, 4, 2], seed=2)
    keep = make_mask(net, Mode.GLASSO_OUT, 1e-9)
    assert all(np.all(k) for k in keep)
    pruned = apply_mask(net, Mode.GLASSO_OUT, keep)
    assert pruned.layer_sizes == net.layer_sizes
    rng = np.random.default_rng(0)
    assert logits_close(net, pruned, rng.standard_normal((10, 3)))


def test_make_mask_agrees_with_loop_oracle():
    net = init_network([3, 6, 4, 2], seed=3)
    theta = float(np.median(np.concatenate(group_norms(net, Mode.GLASSO_IN))))
    for keep, norms in zip(make_mask(net, Mode.GLASSO_IN, theta), group_norms(net, Mode.GLASSO_IN)):
        for j in range(len(norms)):
            assert keep[j] == (norms[j] >= theta)


def test_make_mask_rejects_nonpositive_theta():
    # the threshold rule behind masks and disposable counts takes only a
    # positive finite theta
    net = init_network([3, 4, 2], seed=0)
    for theta in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            make_mask(net, Mode.GLASSO_OUT, theta)
        with pytest.raises(ValueError, match="positive and finite"):
            disposable_counts(net, Mode.GLASSO_OUT, theta)


def test_make_mask_never_empties_a_layer():
    net = init_network([3, 4, 2], seed=4)
    with pytest.warns(UserWarning):
        keep = make_mask(net, Mode.GLASSO_OUT, 1e6)
    assert keep[0].sum() == 1
    norms = group_norms(net, Mode.GLASSO_OUT)[0]
    assert keep[0][int(np.argmax(norms))]


def test_apply_mask_rejects_empty_layer():
    net = init_network([3, 2, 4, 2], seed=0)
    with pytest.raises(ValueError, match="mask would empty hidden layer 2"):
        apply_mask(net, Mode.GLASSO_OUT, [np.array([True, False]), np.zeros(4, dtype=bool)])


def test_apply_mask_rejects_wrong_length():
    net = init_network([3, 2, 4, 2], seed=0)
    with pytest.raises(ShapeMismatchError, match=r"mask lengths \[2, 3\]"):
        apply_mask(net, Mode.GLASSO_OUT, [np.ones(2, dtype=bool), np.ones(3, dtype=bool)])


@pytest.mark.parametrize("mode", [Mode.GLASSO_OUT, Mode.GLASSO_IN])
def test_apply_mask_takes_int_keep_vectors_as_bools(mode):
    net = init_network([3, 5, 4, 2], seed=1)
    ints = [[1, 0, 1, 1, 0], [0, 1, 1, 1]]
    from_ints = apply_mask(net, mode, ints)
    from_bools = apply_mask(net, mode, [np.array(k, dtype=bool) for k in ints])
    assert from_ints.layer_sizes == [3, 3, 3, 2]
    for a, b in zip(from_ints.layers, from_bools.layers):
        assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)


def test_apply_mask_out_zero_column_exact():
    net = init_network([4, 6, 3], seed=5)
    net.layers[1].weights[:, 2] = 0.0
    keep = [np.array([True, True, False, True, True, True])]
    pruned = apply_mask(net, Mode.GLASSO_OUT, keep)
    assert pruned.layer_sizes == [4, 5, 3]
    rng = np.random.default_rng(1)
    assert logits_close(net, pruned, rng.standard_normal((100, 4)))


def test_apply_mask_in_zero_row_exact():
    # zero incoming row: node output is the constant sigmoid(bias); the
    # compensation absorbs it into the next layer exactly
    net = init_network([4, 6, 3], seed=6)
    net.layers[0].weights[3, :] = 0.0
    net.layers[0].bias[3] = 0.7
    keep = [np.array([True, True, True, False, True, True])]
    pruned = apply_mask(net, Mode.GLASSO_IN, keep)
    assert pruned.layer_sizes == [4, 5, 3]
    rng = np.random.default_rng(2)
    assert logits_close(net, pruned, rng.standard_normal((100, 4)))


def test_exactness_at_zero_multi_node_both_modes():
    for mode in (Mode.GLASSO_OUT, Mode.GLASSO_IN):
        net = init_network([3, 8, 6, 2], seed=7)
        if mode is Mode.GLASSO_OUT:
            net.layers[1].weights[:, [1, 4]] = 0.0
            net.layers[2].weights[:, [0, 3]] = 0.0
        else:
            net.layers[0].weights[[1, 4], :] = 0.0
            net.layers[0].bias[[1, 4]] = [0.3, -0.2]
            net.layers[1].weights[[0, 3], :] = 0.0
            net.layers[1].bias[[0, 3]] = [0.1, 0.9]
        norms = group_norms(net, mode)
        keep = [n > 0.0 for n in norms]
        pruned = apply_mask(net, mode, keep)
        assert pruned.layer_sizes == [3, 6, 4, 2]
        rng = np.random.default_rng(3)
        assert logits_close(net, pruned, rng.standard_normal((100, 3)))


def test_out_mode_perturbation_bound():
    # layer-local check: activation shift is below the sum of dropped
    # column norms because every hidden output is strictly inside (0,1)
    rng = np.random.default_rng(8)
    for trial in range(20):
        net = init_network([4, 8, 3], seed=trial)
        col_norms = norms(net.layers[1].weights, axis=0)
        drop = rng.permutation(8)[:3]
        keep = np.ones(8, dtype=bool)
        keep[drop] = False
        bound = col_norms[drop].sum()

        x = rng.standard_normal(4)
        z1 = forward_batch(net, x[np.newaxis, :])[1][0]
        a2_full = net.layers[1].weights @ z1 + net.layers[1].bias
        a2_pruned = net.layers[1].weights[:, keep] @ z1[keep] + net.layers[1].bias
        deviation = np.max(np.abs(a2_full - a2_pruned))
        assert deviation < bound


def test_in_mode_constant_output_lipschitz_bound():
    # a small incoming row pins the node's output near sigmoid(bias):
    # |z - sigmoid(b)| <= 1/4 * ||row|| * ||z_prev||
    rng = np.random.default_rng(9)
    for trial in range(20):
        net = init_network([5, 7, 3], seed=100 + trial)
        net.layers[0].weights[2, :] *= 1e-3
        x = rng.standard_normal(5)
        z_prev = x
        z = forward_batch(net, x[np.newaxis, :])[1][0, 2]
        const = sigmoid(as_vector([net.layers[0].bias[2]]))[0]
        bound = 0.25 * norms(net.layers[0].weights, axis=1)[2] * np.linalg.norm(z_prev)
        assert abs(z - const) <= bound + 1e-15


def test_structural_accounting():
    net = bimodal_net(seed=10)
    keep = make_mask(net, Mode.GLASSO_OUT, 1e-2)
    retained = [int(np.sum(k)) for k in keep]
    removed = [int(np.sum(~k)) for k in keep]
    hidden = net.hidden_sizes
    for kept, dropped, width in zip(retained, removed, hidden):
        assert kept + dropped == width
    assert sum(removed) > 0
    # pruned network construction re-validates chaining
    assert apply_mask(net, Mode.GLASSO_OUT, keep).hidden_sizes == retained


def test_forced_removal_curve_starts_at_baseline():
    net = bimodal_net(seed=11)
    data = synth_gaussians(3, 4, 30, 3.0, seed=11)
    curve = forced_removal_curve(net, Mode.GLASSO_OUT, data, step=2)
    assert curve[0][0] == 0
    assert curve[0][1] == pytest.approx(evaluate(net, data), abs=1e-15)
    removed_counts = [c for c, _ in curve]
    assert removed_counts == sorted(removed_counts)
    for prev, cur in zip(removed_counts, removed_counts[1:]):
        assert cur - prev <= 2


def test_forced_removal_curve_never_empties_layer():
    net = init_network([3, 4, 3, 2], seed=12)
    data = synth_gaussians(2, 3, 20, 3.0, seed=12)
    curve = forced_removal_curve(net, Mode.GLASSO_OUT, data, step=1)
    # 7 hidden nodes across [4, 3]; at most 5 can go before a layer empties
    assert curve[-1][0] <= 5


def test_forced_removal_follows_ascending_norms():
    net = bimodal_net(seed=13)
    data = synth_gaussians(3, 4, 30, 3.0, seed=13)
    step = 3
    curve = forced_removal_curve(net, Mode.GLASSO_OUT, data, step=step)
    ranked = sorted(
        (float(n), l, j)
        for l, norms in enumerate(group_norms(net, Mode.GLASSO_OUT))
        for j, n in enumerate(norms)
    )
    # rebuild the mask for the second point and check the removal set
    removed_target = curve[1][0]
    expected_removed = {(l, j) for _, l, j in ranked[:removed_target]}
    keep = [np.ones(w, dtype=bool) for w in net.hidden_sizes]
    for l, j in expected_removed:
        keep[l][j] = False
    pruned = apply_mask(net, Mode.GLASSO_OUT, keep)
    assert evaluate(pruned, data) == pytest.approx(
        curve[1][1], abs=1e-15
    )


def reference_prune(net, mode, keep):
    """(W, b) per layer of the pruned net, from the definition alone.

    Each layer is W[np.ix_(rows, cols)]; in GLASSO_IN mode its bias is first
    b + W[:, dropped] @ sigmoid(b_prev[dropped]), dropped being the
    previous hidden layer's removed nodes.
    """
    keep = [np.ones(net.layers[0].n_in, dtype=bool), *keep,
            np.ones(net.layers[-1].n_out, dtype=bool)]
    layers = []
    for l, p in enumerate(net.layers, start=1):
        rows, cols = keep[l], keep[l - 1]
        bias = p.bias
        if mode is Mode.GLASSO_IN and l >= 2:
            dropped = ~cols
            bias = p.bias + p.weights[:, dropped] @ sigmoid(net.layers[l - 2].bias[dropped])
        layers.append((p.weights[np.ix_(rows, cols)], bias[rows]))
    return layers


@pytest.mark.parametrize("mode", [Mode.GLASSO_OUT, Mode.GLASSO_IN])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "removed",
    [
        {0: [1, 4], 1: [0, 3, 5], 2: [2]},  # nodes go in every hidden layer
        {0: [2, 6], 2: [0, 3]},  # the middle hidden layer is left whole
        {2: [1]},  # only the last hidden layer loses a node
        {},  # nothing removed
    ],
    ids=["every-layer", "middle-untouched", "last-only", "none"],
)
def test_apply_mask_equals_reference_prune(mode, dtype, removed):
    net = init_network([5, 7, 6, 4, 3], seed=31).copy(dtype)
    rng = np.random.default_rng(31)
    for p in net.layers:
        p.bias[:] = rng.normal(0.0, 1.0, p.n_out)  # nonzero, so the fold moves biases
    keep = [np.ones(n, dtype=bool) for n in net.hidden_sizes]
    for l, nodes in removed.items():
        keep[l][nodes] = False
    pruned = apply_mask(net, mode, keep)
    expected = reference_prune(net, mode, keep)
    assert len(pruned.layers) == len(expected)
    for l, (p, (w, b)) in enumerate(zip(pruned.layers, expected), start=1):
        assert p.weights.dtype == dtype and p.bias.dtype == dtype
        assert np.array_equal(p.weights, w) and np.array_equal(p.bias, b)
        # a layer no removal touches is the input's own, not a copy: layer l
        # maps hidden layer l - 1 (index l - 2 in removed) to hidden layer l
        untouched = l - 2 not in removed and l - 1 not in removed
        assert (p is net.layers[l - 1]) == untouched


def rebuilt_curve(net, mode, data, step):
    """The forced-removal curve and its networks, one apply_mask per point."""
    ranked = sorted(
        (float(n), l, j)
        for l, norms in enumerate(group_norms(net, mode))
        for j, n in enumerate(norms)
    )
    keep = [np.ones(w, dtype=bool) for w in net.hidden_sizes]
    curve, nets = [(0, evaluate(net, data))], [net]
    for count in range(step, len(ranked) + 1, step):
        for _, l, j in ranked[count - step : count]:
            keep[l][j] = False
        if not all(k.any() for k in keep):
            break
        nets.append(apply_mask(net, mode, keep))
        curve.append((count, evaluate(nets[-1], data)))
    return curve, nets


def curve_case(dtype, rows):
    """A 6-9-7-5-4 network and rows samples whose curve moves at every step."""
    net = init_network([6, 9, 7, 5, 4], seed=21).copy(dtype)
    rng = np.random.default_rng(21)
    for p in net.layers:
        # nonzero biases, so a GLASSO_IN removal moves the next layer's fold
        p.bias[:] = rng.normal(0.0, 1.0, p.n_out)
        p.weights *= 3.0
    features = rng.standard_normal((rows, 6))
    # labels the unpruned net mostly gets right, so removals move the accuracy
    labels = np.argmax(forward_batch(net, features)[-1], axis=1)
    labels[::5] = rng.integers(0, 4, len(labels[::5]))
    return net, Dataset(features, labels, num_classes=4)


def curve_grid(test):
    """Parametrize test over the curve cases: mode, dtype, rows and step."""
    for mark in reversed([
        pytest.mark.parametrize("mode", [Mode.GLASSO_OUT, Mode.GLASSO_IN]),
        pytest.mark.parametrize("dtype", [np.float32, np.float64]),
        pytest.mark.parametrize(
            "rows", [40, 2 * EVAL_BATCH + 76], ids=["one-batch", "three-batches"]
        ),
        pytest.mark.parametrize("step", [1, 3, 25]),  # 25 > the 21 hidden nodes: baseline only
    ]):
        test = mark(test)
    return test


@curve_grid
def test_forced_removal_curve_equals_per_point_rebuild(monkeypatch, mode, dtype, rows, step):
    net, data = curve_case(dtype, rows)
    features = data.features

    logits = []  # every eval batch's logits at every point, in curve order

    def recording_forward(*args, **kwargs):
        zs = forward_batch(*args, **kwargs)
        logits.append(zs[-1].copy())
        return zs

    # the baseline pass runs in trainer.eval_batches, the suffix passes here
    for module in (trainer, pruning):
        monkeypatch.setattr(module, "forward_batch", recording_forward)
    curve = forced_removal_curve(net, mode, data, step=step)
    monkeypatch.undo()
    expected, nets = rebuilt_curve(net, mode, data, step)
    assert curve == expected
    if step < 25:
        assert len(curve) > 4 and len({acc for _, acc in curve}) > 2
    # the bits behind the accuracies, not only their argmax, are the rebuild's
    rebuilt = [
        forward_batch(pruned, features[i : i + EVAL_BATCH])[-1]
        for pruned in nets
        for i in range(0, rows, EVAL_BATCH)
    ]
    assert len(logits) == len(rebuilt)
    assert all(np.array_equal(a, b) for a, b in zip(logits, rebuilt))


@curve_grid
@pytest.mark.parametrize("workers", [2, 3])
def test_forced_removal_curve_is_the_same_for_any_workers(mode, dtype, rows, step, workers):
    net, data = curve_case(dtype, rows)
    assert forced_removal_curve(net, mode, data, step, workers) == forced_removal_curve(
        net, mode, data, step
    )


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_forced_removal_curve_with_more_workers_than_points(forked_pids):
    net, data = curve_case(np.float64, 40)
    expected = forced_removal_curve(net, Mode.GLASSO_OUT, data, step=4)
    assert forced_removal_curve(net, Mode.GLASSO_OUT, data, 4, workers=50) == expected
    # one worker per point after the baseline, the caller's included
    assert len(forked_pids) == len(expected) - 2
    assert_reaped(forked_pids)


def test_forced_removal_curve_with_no_point_to_deal_forks_nothing(forked_pids):
    # a step past the removable nodes leaves the baseline alone, for any workers
    net, data = curve_case(np.float64, 40)
    curve = forced_removal_curve(net, Mode.GLASSO_OUT, data, step=1000, workers=4)
    assert curve == [(0, evaluate(net, data))]
    assert forked_pids == []


@pytest.mark.parametrize("in_child", [True, False], ids=["child-raises", "caller-raises"])
def test_forced_removal_curve_worker_error_reaches_the_caller(
    monkeypatch, forked_pids, capfd, in_child
):
    net, data = curve_case(np.float64, 40)
    caller, calls = os.getpid(), []

    def failing_forward(*args, **kwargs):
        in_a_child = os.getpid() != caller
        if in_a_child == in_child:  # the failing side fails on its second pass
            calls.append(None)
            if len(calls) == 2:
                raise ShapeMismatchError("forward pass 2 failed")
        elif in_a_child:  # children still at work when the caller fails are killed
            time.sleep(10)
        return forward_batch(*args, **kwargs)

    monkeypatch.setattr(pruning, "forward_batch", failing_forward)
    start = time.monotonic()
    # a child's exception stays in the child: its traceback goes to stderr,
    # and the caller names the first child that failed
    expected = ChildProcessError if in_child else ShapeMismatchError
    with pytest.raises(expected) as exc:
        forced_removal_curve(net, Mode.GLASSO_OUT, data, step=1, workers=3)
    assert time.monotonic() - start < 5
    assert len(forked_pids) == 2
    assert_reaped(forked_pids)
    if in_child:
        assert str(exc.value) == f"curve worker {forked_pids[0]} ended without a result"
        assert "ShapeMismatchError: forward pass 2 failed" in capfd.readouterr().err
    else:
        assert str(exc.value) == "forward pass 2 failed"


def test_forced_removal_curve_worker_that_dies_is_named(forked_pids, dying_curve_worker):
    net, data = curve_case(np.float64, 40)
    with pytest.raises(ChildProcessError) as exc:
        forced_removal_curve(net, Mode.GLASSO_OUT, data, step=1, workers=2)
    assert len(forked_pids) == 1
    assert str(exc.value) == f"curve worker {forked_pids[0]} ended without a result"
    assert_reaped(forked_pids)


@pytest.mark.parametrize(
    ("cores", "env", "expected"),
    [
        (2, {}, 1),  # BLAS threads unset: they count as every core
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
        (8, {"OMP_NUM_THREADS": "2"}, 4),
        # OpenBLAS does not read MKL_NUM_THREADS: every core
        (8, {"MKL_NUM_THREADS": "3"}, 1),
        (2, {"MKL_NUM_THREADS": "1"}, 1),
        # the first variable set wins, in OpenBLAS's order
        (8, {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 2),
        (2, {"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        (4, {"OPENBLAS_NUM_THREADS": "8"}, 1),
        (4, {"OPENBLAS_NUM_THREADS": "0"}, 1),  # not a thread count: every core
        (4, {"OPENBLAS_NUM_THREADS": "two"}, 1),
        (4, {"OPENBLAS_NUM_THREADS": "\u00b2"}, 1),  # a digit int() does not read
    ],
)
def test_curve_workers_is_usable_cores_over_blas_threads(monkeypatch, cores, env, expected):
    for var in pruning.BLAS_THREADS_ENV:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    assert pruning.curve_workers() == expected


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_curve_workers_is_one_without_fork_or_affinity(monkeypatch, missing):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.delattr(os, missing, raising=False)
    assert pruning.curve_workers() == 1


def test_forced_removal_rejects_eval_set_that_does_not_fit(monkeypatch):
    def no_forward(*args, **kwargs):
        raise AssertionError("forward pass before the shape check")

    for module in (trainer, pruning):
        monkeypatch.setattr(module, "forward_batch", no_forward)
    net = init_network([3, 4, 2], seed=0)
    wide = Dataset(np.zeros((5, 4)), np.zeros(5, dtype=np.int64), num_classes=2)
    # labels the dataset allows but the 2-output network does not
    many_classes = Dataset(np.zeros((5, 3)), np.arange(5) % 3, num_classes=3)
    for data, message in ((wide, "dataset dim 4"), (many_classes, "label 2 out of range")):
        with pytest.raises(ShapeMismatchError, match=message):
            forced_removal_curve(net, Mode.GLASSO_OUT, data, step=1)


def test_one_eval_batch_size_governs_every_evaluation_pass(monkeypatch):
    # evaluate, mean_loss and the curve all batch through trainer.eval_batches,
    # so one EVAL_BATCH sets the row count of each of their forward passes
    rows = []

    def recording_forward(net, xs):
        rows.append(len(xs))
        return forward_batch(net, xs)

    monkeypatch.setattr(trainer, "EVAL_BATCH", 7)
    for module in (trainer, pruning):
        monkeypatch.setattr(module, "forward_batch", recording_forward)
    data = synth_gaussians(3, 4, 6, 2.0, seed=3)
    net = init_network([4, 6, 5, 3], seed=3)
    evaluate(net, data)
    mean_loss(net, data)
    # step 20 > the 11 hidden nodes: the baseline point only
    assert [count for count, _ in forced_removal_curve(net, Mode.GLASSO_OUT, data, step=20)] == [0]
    assert rows == [7, 7, 4] * 3


def test_forced_removal_rejects_empty_eval_set():
    net = init_network([3, 4, 2], seed=0)
    empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), num_classes=2)
    with pytest.raises(ValueError, match="dataset is empty"):
        forced_removal_curve(net, Mode.GLASSO_OUT, empty, step=1)


def test_match_count_zero_is_identity():
    net = init_network([3, 5, 2], seed=14)
    keep = match_count_mask(net, Mode.GLASSO_OUT, 0)
    assert all(np.all(k) for k in keep)
    assert apply_mask(net, Mode.GLASSO_OUT, keep).layer_sizes == net.layer_sizes


def test_match_count_removes_smallest_norms():
    net = bimodal_net(seed=15)
    n_remove = 4
    keep_vectors = match_count_mask(net, Mode.GLASSO_OUT, n_remove)
    assert sum(int(np.sum(~k)) for k in keep_vectors) == n_remove
    ranked = sorted(
        (float(n), l, j)
        for l, norms in enumerate(group_norms(net, Mode.GLASSO_OUT))
        for j, n in enumerate(norms)
    )
    expected = {(l, j) for _, l, j in ranked[:n_remove]}
    actual = {
        (l, j)
        for l, keep in enumerate(keep_vectors)
        for j in range(len(keep))
        if not keep[j]
    }
    assert actual == expected


def test_match_count_too_large_errors():
    net = init_network([3, 4, 3, 2], seed=16)
    with pytest.raises(ValueError):
        match_count_mask(net, Mode.GLASSO_OUT, 7)  # would empty both layers
    with pytest.raises(ValueError):
        match_count_mask(net, Mode.GLASSO_OUT, 100)
