import numpy as np
import numpy.testing as npt
import pytest

from glasso_prune.datasets import Dataset
from glasso_prune.errors import ShapeMismatchError
from glasso_prune.linalg import as_matrix, as_vector
from glasso_prune.network import (
    LayerParams,
    MlpNetwork,
    batch_gradients,
    forward_batch,
    init_network,
    softmax_terms,
)
from glasso_prune.trainer import mean_loss


def zero_network(sizes):
    layers = [
        LayerParams(np.zeros((sizes[i + 1], sizes[i])), np.zeros(sizes[i + 1]))
        for i in range(len(sizes) - 1)
    ]
    return MlpNetwork(layers)


def network_loss(net, x, target):
    # the fixed-network loss path on a one-row dataset
    one = Dataset(x[np.newaxis, :], np.array([target]), num_classes=net.layers[-1].n_out)
    return mean_loss(net, one)


def row_gradients(net, x, target):
    return batch_gradients(net, x[np.newaxis, :], np.array([target]))[2]


def predicted(net, xs):
    """Class with the highest logit per row; ties go to the lowest index."""
    return np.argmax(forward_batch(net, np.atleast_2d(xs))[-1], axis=1)


def test_layer_params_shape_invariant():
    with pytest.raises(ValueError):
        LayerParams(np.zeros((3, 2)), np.zeros(2))


def test_network_chaining_invariant():
    good = zero_network([2, 3, 2])
    assert good.layer_sizes == [2, 3, 2]
    with pytest.raises(ValueError):
        MlpNetwork(
            [
                LayerParams(np.zeros((3, 2)), np.zeros(3)),
                LayerParams(np.zeros((2, 4)), np.zeros(2)),
            ]
        )


def test_network_rejects_mixed_dtypes():
    def net(w2_dtype, b2_dtype):
        return MlpNetwork([
            LayerParams(np.zeros((3, 2), np.float32), np.zeros(3, np.float32)),
            LayerParams(np.zeros((2, 3), w2_dtype), np.zeros(2, b2_dtype)),
        ])

    assert net(np.float32, np.float32).dtype == np.float32
    for dtypes in ((np.float64, np.float64), (np.float32, np.float64)):
        with pytest.raises(ValueError, match="mix dtypes"):
            net(*dtypes)


def test_copy_casts_every_parameter():
    net = init_network([4, 5, 3], seed=1)
    for dtype in (np.float32, np.float64):
        cast = net.copy(dtype)
        assert cast.dtype == dtype
        for p, q in zip(net.layers, cast.layers):
            assert q.weights.dtype == q.bias.dtype == dtype
            assert not np.shares_memory(p.weights, q.weights)
            npt.assert_array_equal(q.weights, p.weights.astype(dtype))


def test_forward_batch_computes_in_the_weights_dtype():
    net = init_network([4, 7, 3], seed=9).copy(np.float32)
    xs = np.random.default_rng(9).standard_normal((5, 4))
    zs = forward_batch(net, xs)
    assert all(z.dtype == np.float32 for z in zs)
    for a, b in zip(zs, forward_batch(net, xs.astype(np.float32))):
        npt.assert_array_equal(a, b)


def test_network_needs_hidden_layer():
    with pytest.raises(ValueError):
        MlpNetwork([LayerParams(np.zeros((2, 2)), np.zeros(2))])


def test_init_deterministic():
    a = init_network([4, 8, 3], seed=7)
    b = init_network([4, 8, 3], seed=7)
    for la, lb in zip(a.layers, b.layers):
        npt.assert_array_equal(la.weights, lb.weights)
        npt.assert_array_equal(la.bias, lb.bias)


def test_init_shapes_and_zero_bias():
    net = init_network([4, 8, 3], seed=0)
    assert [p.weights.shape for p in net.layers] == [(8, 4), (3, 8)]
    for p in net.layers:
        npt.assert_array_equal(p.bias, np.zeros(len(p.bias)))


def test_init_respects_uniform_bound():
    net = init_network([10, 20, 5], seed=1)
    for p in net.layers:
        n_out, n_in = p.weights.shape
        s = np.sqrt(6.0 / (n_in + n_out))
        assert np.all(np.abs(p.weights) <= s)


def test_init_statistical_mean():
    # sample mean of ~10^6 uniform draws should sit within 3 sigma of 0
    net = init_network([1000, 1000, 2], seed=13)
    w = net.layers[0].weights
    n = w.size
    s = np.sqrt(6.0 / 2000)
    sigma = s / np.sqrt(3.0)  # stdev of U(-s, s)
    assert abs(w.mean()) < 3 * sigma / np.sqrt(n)


def test_init_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        init_network([4, 3], seed=0)
    with pytest.raises(ValueError):
        init_network([4, 0, 3], seed=0)


def test_forward_zero_network():
    net = zero_network([3, 4, 2])
    zs = forward_batch(net, as_matrix([[0.3, -1.0, 2.0]]))
    npt.assert_array_equal(zs[1], np.full((1, 4), 0.5))
    npt.assert_array_equal(zs[-1], np.zeros((1, 2)))


def test_forward_hand_computed_scalar_chain():
    # 1-1-1 chain: a1 = 2*0.5 + 0.1, z1 = sigmoid(a1), logit = -1*z1 + 0.3
    net = MlpNetwork(
        [
            LayerParams(as_matrix([[2.0]]), as_vector([0.1])),
            LayerParams(as_matrix([[-1.0]]), as_vector([0.3])),
        ]
    )
    zs = forward_batch(net, as_matrix([[0.5]]))
    a1 = 2.0 * 0.5 + 0.1
    z1 = 1.0 / (1.0 + np.exp(-a1))
    npt.assert_allclose(zs[1], [[z1]], atol=1e-15)
    npt.assert_allclose(zs[-1], [[-z1 + 0.3]], atol=1e-15)


def test_forward_deterministic():
    net = init_network([5, 6, 3], seed=2)
    x = as_matrix([np.linspace(-1, 1, 5)])
    for a, b in zip(forward_batch(net, x), forward_batch(net, x)):
        npt.assert_array_equal(a, b)


def test_forward_dimension_mismatch():
    net = init_network([5, 6, 3], seed=2)
    with pytest.raises(ShapeMismatchError):
        forward_batch(net, as_matrix([[1.0, 2.0]]))


def test_forward_batch_matches_forward():
    # per-row reference: matrix-vector products and a plain logistic
    net = init_network([4, 7, 5, 3], seed=9)
    rng = np.random.default_rng(9)
    xs = rng.standard_normal((6, 4))
    zs = forward_batch(net, xs)
    for i in range(6):
        z = xs[i]
        for l, p in enumerate(net.layers):
            a = p.weights @ z + p.bias
            z = a if l == net.num_layers - 1 else 1.0 / (1.0 + np.exp(-a))
            npt.assert_allclose(zs[l + 1][i], z, atol=1e-12)


def test_hidden_outputs_bounded():
    net = init_network([6, 12, 12, 4], seed=3)
    rng = np.random.default_rng(30)
    zs = forward_batch(net, rng.standard_normal((20, 6)) * 10)
    for z in zs[1:-1]:
        assert np.all(z > 0.0)
        assert np.all(z < 1.0)


def logits_net(logits):
    # constant-logit network: zero weights, output bias carries the logits
    k = len(logits)
    net = zero_network([1, 2, k])
    net.layers[-1].bias[:] = logits
    return net


def test_predict_known_logits():
    assert predicted(logits_net([0.1, 0.9, 0.3]), [0.0]) == [1]


def test_predict_tie_breaks_low():
    assert predicted(logits_net([1.0, 1.0]), [0.0]) == [0]


def test_predict_agrees_with_softmax_argmax():
    rng = np.random.default_rng(14)
    for seed in range(5):
        net = init_network([4, 6, 5], seed=seed)
        xs = rng.standard_normal((3, 4))
        _, exps, sums = softmax_terms(forward_batch(net, xs)[-1])
        probs = exps / sums[:, np.newaxis]
        npt.assert_array_equal(predicted(net, xs), np.argmax(probs, axis=1))


def test_backward_finite_differences():
    net = init_network([3, 4, 4, 2], seed=5)
    x = as_vector([0.2, -0.7, 1.1])
    target = 1
    grads = row_gradients(net, x, target)
    h = 1e-5
    for l, p in enumerate(net.layers):
        for idx in np.ndindex(p.weights.shape):
            orig = p.weights[idx]
            p.weights[idx] = orig + h
            hi = network_loss(net, x, target)
            p.weights[idx] = orig - h
            lo = network_loss(net, x, target)
            p.weights[idx] = orig
            numeric = (hi - lo) / (2 * h)
            assert grads[l].weights[idx] == pytest.approx(numeric, rel=1e-5, abs=1e-8)
        for i in range(len(p.bias)):
            orig = p.bias[i]
            p.bias[i] = orig + h
            hi = network_loss(net, x, target)
            p.bias[i] = orig - h
            lo = network_loss(net, x, target)
            p.bias[i] = orig
            numeric = (hi - lo) / (2 * h)
            assert grads[l].bias[i] == pytest.approx(numeric, rel=1e-5, abs=1e-8)


def test_backward_zero_gradient_fixed_point():
    # a single output class makes softmax exactly one-hot
    net = init_network([3, 4, 1], seed=6)
    grads = row_gradients(net, as_vector([0.5, 0.5, 0.5]), 0)
    for dw, db in ((g.weights, g.bias) for g in grads):
        npt.assert_array_equal(dw, np.zeros_like(dw))
        npt.assert_array_equal(db, np.zeros_like(db))


def test_backward_shapes_mirror_network():
    net = init_network([3, 5, 4, 2], seed=7)
    grads = row_gradients(net, as_vector([1.0, 0.0, -1.0]), 0)
    for p, (dw, db) in zip(net.layers, ((g.weights, g.bias) for g in grads)):
        assert dw.shape == p.weights.shape
        assert db.shape == p.bias.shape


def test_backward_target_out_of_range():
    net = init_network([3, 4, 2], seed=8)
    with pytest.raises(IndexError):
        row_gradients(net, as_vector([0.0, 0.0, 0.0]), 2)


def test_loss_directional_derivative():
    # loss(p + eps d) - loss(p - eps d) ~ 2 eps <grad, d> over many directions
    net = init_network([3, 5, 4, 2], seed=10)
    x = as_vector([0.4, -0.2, 0.9])
    target = 0
    grads = row_gradients(net, x, target)
    rng = np.random.default_rng(44)
    eps = 1e-5
    for _ in range(20):
        d_w = [rng.standard_normal(p.weights.shape) for p in net.layers]
        d_b = [rng.standard_normal(p.bias.shape) for p in net.layers]
        inner = sum(
            np.sum(g.weights * d) for g, d in zip(grads, d_w)
        ) + sum(np.sum(g.bias * d) for g, d in zip(grads, d_b))

        shifted = net.copy()
        for p, dw, db in zip(shifted.layers, d_w, d_b):
            p.weights += eps * dw
            p.bias += eps * db
        hi = network_loss(shifted, x, target)
        for p, dw, db in zip(shifted.layers, d_w, d_b):
            p.weights -= 2 * eps * dw
            p.bias -= 2 * eps * db
        lo = network_loss(shifted, x, target)
        assert (hi - lo) == pytest.approx(2 * eps * inner, rel=1e-5, abs=1e-12)


def test_predict_invariant_under_output_bias_shift():
    rng = np.random.default_rng(15)
    for seed in range(5):
        net = init_network([4, 6, 5], seed=seed)
        xs = rng.standard_normal((3, 4))
        before = predicted(net, xs)
        shifted = net.copy()
        shifted.layers[-1].bias += 3.7
        npt.assert_array_equal(predicted(shifted, xs), before)


def test_sigmoid_derivative_identity_used_by_backward():
    # hidden delta carries z*(1-z); spot-check against the chain rule on a1
    net = init_network([2, 3, 2], seed=20)
    x = as_vector([0.3, -0.6])
    grads = row_gradients(net, x, 1)
    zs = forward_batch(net, x[np.newaxis, :])
    z1 = zs[1][0]
    logits = zs[-1][0]
    probs = np.exp(logits) / np.sum(np.exp(logits))
    delta_out = probs - np.array([0.0, 1.0])
    delta_hidden = (net.layers[1].weights.T @ delta_out) * z1 * (1.0 - z1)
    npt.assert_allclose(grads[0].bias, delta_hidden, atol=1e-12)
