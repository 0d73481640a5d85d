import numpy as np
import numpy.testing as npt
import pytest

from glasso_prune.config import parse_config_text
from glasso_prune.errors import ConfigError
from glasso_prune.linalg import as_matrix
from glasso_prune.network import LayerParams, MlpNetwork, init_network, zero_layers
from glasso_prune.regularization import (
    EPSILON_NORM,
    Mode,
    group_axes,
    group_norms,
    regularizer_gradient,
    regularizer_value,
)
from glasso_prune.trainer import TrainConfig


def net_from_weights(*weight_lists):
    layers = []
    for w in weight_lists:
        w = as_matrix(w)
        layers.append(LayerParams(w, np.zeros(w.shape[0])))
    return MlpNetwork(layers)


def penalty_gradient(net, spec):
    return regularizer_gradient(net, *spec, zero_layers(net))


def penalty_value(net, spec):
    """regularizer_value on net's own group norms, taken as train takes them."""
    mode, alpha, beta = spec
    return regularizer_value(net, mode, group_norms(net, mode), alpha, beta)


def layers_of(weights, biases):
    return [LayerParams(w, b) for w, b in zip(weights, biases)]


def arrays_of(grads):
    """Every weight matrix, then every bias vector."""
    return [g.weights for g in grads] + [g.bias for g in grads]


def transposed_reversed(net):
    layers = [
        LayerParams(as_matrix(p.weights.T.copy()), np.zeros(p.weights.shape[1]))
        for p in reversed(net.layers)
    ]
    return MlpNetwork(layers)


def value_by_loops(net, spec):
    mode, alpha, beta = spec
    total = 0.0
    if mode is Mode.GLASSO_OUT:
        grouped = net.layers[1:]
        l2_mats = [net.layers[0].weights]
    elif mode is Mode.GLASSO_IN:
        grouped = net.layers[:-1]
        l2_mats = [net.layers[-1].weights]
    else:
        grouped = []
        l2_mats = [p.weights for p in net.layers]
    for p in grouped:
        w = p.weights
        if mode is Mode.GLASSO_OUT:
            for j in range(w.shape[1]):
                acc = 0.0
                for i in range(w.shape[0]):
                    acc += w[i, j] ** 2
                total += alpha * np.sqrt(acc)
        else:
            for i in range(w.shape[0]):
                acc = 0.0
                for j in range(w.shape[1]):
                    acc += w[i, j] ** 2
                total += alpha * np.sqrt(acc)
    for w in l2_mats:
        total += beta * 0.5 * float(np.sum(np.asarray(w) ** 2))
    for p in net.layers:
        total += beta * 0.5 * float(np.sum(p.bias**2))
    return total


def test_mode_lookup():
    # each value, and a member passed back in, resolve to that member
    for mode, value in ((Mode.GLASSO_OUT, "glasso_out"), (Mode.GLASSO_IN, "glasso_in"),
                        (Mode.L2_ALL, "l2")):
        assert Mode(value) is mode
        assert Mode(mode) is mode
    # an unknown value gives one message, directly, from TrainConfig and from a config file
    message = "unknown mode 'ridge', expected one of ['glasso_out', 'glasso_in', 'l2']"
    with pytest.raises(ValueError) as direct:
        Mode("ridge")
    with pytest.raises(ValueError) as from_train_config:
        TrainConfig(mode="ridge")
    with pytest.raises(ConfigError) as from_file:
        parse_config_text("dataset = synth\nlayer_sizes = 8,16,3\nmode = ridge\n", "exp.cfg")
    assert str(direct.value) == str(from_train_config.value) == message
    assert str(from_file.value) == f"exp.cfg: {message}"


def test_group_norms_zero_column_flags_node():
    net = net_from_weights([[1.0, 1.0], [1.0, 1.0]], [[2.0, 0.0], [1.0, 0.0]])
    norms = group_norms(net, Mode.GLASSO_OUT)
    assert len(norms) == 1
    assert norms[0][1] == 0.0
    assert norms[0][0] == pytest.approx(np.sqrt(5.0))


def test_group_norms_two_two_two_second_node():
    # 2-2-2 net where hidden node 2's outgoing column vanishes: the next
    # layer's activation then depends only on node 1, and the norms say so
    net = net_from_weights([[0.4, 0.4], [0.4, 0.4]], [[0.9, 0.0], [-0.2, 0.0]])
    norms = group_norms(net, Mode.GLASSO_OUT)[0]
    assert norms[1] == 0.0
    assert norms[0] > 0.0


def test_group_norms_in_mode_uses_rows():
    net = net_from_weights([[3.0, 4.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]])
    norms = group_norms(net, Mode.GLASSO_IN)
    assert len(norms) == 1
    npt.assert_allclose(norms[0], [5.0, 0.0], atol=1e-15)


def test_l2_has_no_group_norms():
    net = init_network([2, 3, 2], 0)
    assert group_norms(net, Mode.L2_ALL) == []


def test_group_norms_lengths_match_hidden_sizes():
    net = init_network([3, 5, 4, 2], 0)
    for mode in (Mode.GLASSO_OUT, Mode.GLASSO_IN):
        norms = group_norms(net, mode)
        assert [len(v) for v in norms] == [5, 4]
        assert all(np.all(v >= 0) for v in norms)


@pytest.mark.parametrize("sizes", [[3, 5, 4, 2], [16, 300, 200, 4]])
def test_float32_group_norms_are_those_of_the_float64_widening(sizes):
    # selection decides on the norms of the float64 model that is saved;
    # the penalty gradient keeps the network's own dtype
    spec = (Mode.GLASSO_OUT, 0.02, 0.002)
    for seed in range(3):
        net32 = init_network(sizes, seed).copy(np.float32)
        net64 = net32.copy(np.float64)
        for mode in (Mode.GLASSO_OUT, Mode.GLASSO_IN):
            widened = [
                np.sqrt(np.add.reduce(p.weights * p.weights, axis))
                for p, axis in zip(net64.layers, group_axes(net64, mode))
                if axis is not None
            ]
            for a, b, want in zip(group_norms(net32, mode), group_norms(net64, mode), widened):
                assert a.dtype == np.float64
                npt.assert_array_equal(a, b)
                npt.assert_array_equal(a, want)
        grad = penalty_gradient(net32, spec)
        assert all(a.dtype == np.float32 for g in grad for a in (g.weights, g.bias))


def test_group_norms_make_no_widened_copy(traced_peak):
    # each weight is widened as it is squared, so the peak is one float64
    # 1024x1024 square, not a widened copy of the matrix and then its square
    net = init_network([16, 1024, 1024, 4], 0).copy(np.float32)
    one_copy = 1024 * 1024 * 8
    for mode in (Mode.GLASSO_OUT, Mode.GLASSO_IN):
        assert traced_peak(group_norms, net, mode) < 1.5 * one_copy


def test_group_norms_transpose_duality():
    for seed in range(4):
        net = init_network([3, 5, 4, 2], seed)
        flipped = transposed_reversed(net)
        a = group_norms(net, Mode.GLASSO_IN)
        b = list(reversed(group_norms(flipped, Mode.GLASSO_OUT)))
        for va, vb in zip(a, b):
            npt.assert_allclose(va, vb, atol=1e-15)


def test_value_zero_network():
    net = net_from_weights(np.zeros((3, 2)), np.zeros((2, 3)))
    for mode in Mode:
        spec = (mode, 0.0 if mode is Mode.L2_ALL else 1.0, 1.0)
        assert penalty_value(net, spec) == 0.0


def test_value_single_column_345():
    # grouped matrix [[3,0],[4,0]] under column grouping: one 3-4-5 column
    net = net_from_weights(np.zeros((2, 2)), [[3.0, 0.0], [4.0, 0.0]])
    spec = (Mode.GLASSO_OUT, 1.0, 0.0)
    assert penalty_value(net, spec) == pytest.approx(5.0, abs=1e-15)


def test_value_sums_the_norms_it_is_given():
    # the group term is the sum of the given norms, whatever the weights;
    # the L2 terms still follow mode's layout
    net = net_from_weights([[1.0, 2.0], [0.0, 3.0]], [[4.0, 0.0]])  # own norms 4 and 0
    given = [np.array([0.25, 1.25])]
    assert regularizer_value(net, Mode.GLASSO_OUT, given, 2.0, 0.0) == 3.0
    assert regularizer_value(net, Mode.GLASSO_OUT, given, 0.0, 2.0) == 14.0
    assert regularizer_value(net, Mode.L2_ALL, [], 0.0, 2.0) == 30.0


def test_value_matches_loop_oracle():
    net = init_network([3, 6, 5, 2], seed=12)
    for p in net.layers:
        p.bias[:] = np.linspace(-0.5, 0.5, len(p.bias))
    for mode in Mode:
        spec = (mode, 0.0 if mode is Mode.L2_ALL else 0.3, 0.07)
        assert penalty_value(net, spec) == pytest.approx(
            value_by_loops(net, spec), rel=1e-12
        )


def test_gradient_unit_column():
    net = net_from_weights(np.zeros((2, 2)), [[3.0, 0.0], [4.0, 0.0]])
    spec = (Mode.GLASSO_OUT, 1.0, 0.0)
    grads = penalty_gradient(net, spec)
    npt.assert_allclose(grads[1].weights[:, 0], [0.6, 0.8], atol=1e-15)


def test_gradient_zero_column_safeguard():
    net = net_from_weights(np.zeros((2, 2)), [[3.0, 0.0], [4.0, 0.0]])
    spec = (Mode.GLASSO_OUT, 1.0, 0.0)
    grads = penalty_gradient(net, spec)
    npt.assert_array_equal(grads[1].weights[:, 1], [0.0, 0.0])


def test_gradient_finite_differences():
    h = 1e-5
    for seed in range(3):
        net = init_network([3, 5, 4, 2], seed)
        for p in net.layers:
            p.bias[:] = np.linspace(-0.4, 0.4, len(p.bias))
        for mode in Mode:
            spec = (mode, 0.0 if mode is Mode.L2_ALL else 0.2, 0.05)
            if mode is not Mode.L2_ALL:
                assert all(np.all(v > 1e-3) for v in group_norms(net, mode))
            grads = penalty_gradient(net, spec)
            for l, p in enumerate(net.layers):
                for idx in np.ndindex(p.weights.shape):
                    orig = p.weights[idx]
                    p.weights[idx] = orig + h
                    hi = penalty_value(net, spec)
                    p.weights[idx] = orig - h
                    lo = penalty_value(net, spec)
                    p.weights[idx] = orig
                    numeric = (hi - lo) / (2 * h)
                    assert grads[l].weights[idx] == pytest.approx(
                        numeric, rel=1e-5, abs=1e-9
                    )
                for i in range(len(p.bias)):
                    orig = p.bias[i]
                    p.bias[i] = orig + h
                    hi = penalty_value(net, spec)
                    p.bias[i] = orig - h
                    lo = penalty_value(net, spec)
                    p.bias[i] = orig
                    numeric = (hi - lo) / (2 * h)
                    assert grads[l].bias[i] == pytest.approx(
                        numeric, rel=1e-5, abs=1e-9
                    )


def test_gradient_group_block_norm_capped_at_alpha():
    alpha = 0.35
    for seed in range(3):
        net = init_network([3, 5, 4, 2], seed)
        for mode in (Mode.GLASSO_OUT, Mode.GLASSO_IN):
            spec = (mode, alpha, 0.0)
            grads = penalty_gradient(net, spec)
            mats = (
                [g.weights for g in grads[1:]] if mode is Mode.GLASSO_OUT else [g.weights for g in grads[:-1]]
            )
            for dw in mats:
                blocks = dw.T if mode is Mode.GLASSO_OUT else dw
                for block in blocks:
                    assert np.linalg.norm(block) == pytest.approx(alpha, abs=1e-12)


def test_positive_homogeneity():
    net = init_network([3, 5, 4, 2], seed=9)
    glasso = (Mode.GLASSO_OUT, 0.4, 0.0)
    l2 = (Mode.L2_ALL, 0.0, 0.4)
    base_g = penalty_value(net, glasso)
    base_l = penalty_value(net, l2)
    for c in (0.5, 2.0, 7.0):
        scaled = net.copy()
        for p in scaled.layers:
            p.weights *= c
            p.bias *= c
        assert penalty_value(scaled, glasso) == pytest.approx(c * base_g, rel=1e-12)
        assert penalty_value(scaled, l2) == pytest.approx(c * c * base_l, rel=1e-12)


def test_mode_symmetry_value():
    # IN on a net equals OUT on the transposed, layer-reversed net
    for seed in range(4):
        net = init_network([3, 5, 4, 2], seed)
        spec_in = (Mode.GLASSO_IN, 0.7, 0.2)
        spec_out = (Mode.GLASSO_OUT, 0.7, 0.2)
        flipped = transposed_reversed(net)
        assert penalty_value(net, spec_in) == pytest.approx(
            penalty_value(flipped, spec_out), rel=1e-12
        )


def test_l2_gradient_is_identity_scaling():
    net = init_network([2, 3, 2], seed=4)
    for p in net.layers:
        p.bias[:] = 0.25
    beta = 0.6
    spec = (Mode.L2_ALL, 0.0, beta)
    grads = penalty_gradient(net, spec)
    for p, (dw, db) in zip(net.layers, ((g.weights, g.bias) for g in grads)):
        npt.assert_allclose(dw, beta * p.weights, atol=1e-15)
        npt.assert_allclose(db, beta * p.bias, atol=1e-15)


def test_biases_never_grouped_always_l2():
    net = init_network([2, 3, 2], seed=5)
    for p in net.layers:
        p.bias[:] = 1.0
    spec = (Mode.GLASSO_OUT, 1.0, 0.5)
    grads = penalty_gradient(net, spec)
    for p, db in zip(net.layers, (g.bias for g in grads)):
        npt.assert_allclose(db, 0.5 * p.bias, atol=1e-15)


def test_gradient_adds_into_given_set():
    rng = np.random.default_rng(8)
    net = init_network([3, 5, 4, 2], seed=7)
    for p in net.layers:
        p.bias[:] = rng.standard_normal(len(p.bias))
    for mode in Mode:
        spec = (mode, 0.0 if mode is Mode.L2_ALL else 0.3, 0.05)
        base = layers_of(
            [rng.standard_normal(p.weights.shape) for p in net.layers],
            [rng.standard_normal(p.bias.shape) for p in net.layers],
        )
        given = layers_of(
            [g.weights.copy() for g in base], [g.bias.copy() for g in base]
        )
        arrays = arrays_of(given)
        assert regularizer_gradient(net, *spec, given) is given
        # same array objects, updated in place
        assert all(a is b for a, b in zip(arrays, arrays_of(given)))
        alone = penalty_gradient(net, spec)
        for g, b, a in zip(arrays_of(given), arrays_of(base), arrays_of(alone)):
            npt.assert_array_equal(g, b + a)


# The penalty as it was written before the group axis table: one branch
# per mode. Kept as the bit-for-bit oracle of regularizer_value and
# regularizer_gradient, whose outputs feed history.jsonl and the weights.


def _column_norms(m):
    return np.sqrt(np.add.reduce(m * m, axis=0))


def _row_norms(m):
    return np.sqrt(np.add.reduce(m * m, axis=1))


def value_by_mode_branches(net, spec):
    mode, alpha, beta = spec
    l2 = 0.0
    glasso = 0.0
    big_l = net.num_layers
    if mode is Mode.L2_ALL:
        for p in net.layers:
            l2 += 0.5 * float(np.sum(p.weights**2)) + 0.5 * float(np.sum(p.bias**2))
    else:
        if mode is Mode.GLASSO_OUT:
            norms = [_column_norms(net.layers[l].weights) for l in range(1, big_l)]
        else:
            norms = [_row_norms(net.layers[l - 1].weights) for l in range(1, big_l)]
        for n in norms:
            glasso += float(np.sum(n))
        ungrouped = net.layers[0] if mode is Mode.GLASSO_OUT else net.layers[-1]
        l2 += 0.5 * float(np.sum(ungrouped.weights**2))
        for p in net.layers:
            l2 += 0.5 * float(np.sum(p.bias**2))
    return alpha * glasso + beta * l2


def gradient_by_mode_branches(net, spec, grad):
    mode, alpha, beta = spec
    big_l = net.num_layers
    if mode is Mode.L2_ALL:
        for l, p in enumerate(net.layers):
            grad[l].weights += beta * p.weights
    elif mode is Mode.GLASSO_OUT:
        for l in range(1, big_l):
            w = net.layers[l].weights
            scale = alpha / np.maximum(_column_norms(w), EPSILON_NORM)
            grad[l].weights += w * scale[np.newaxis, :]
        grad[0].weights += beta * net.layers[0].weights
    else:
        for l in range(1, big_l):
            w = net.layers[l - 1].weights
            scale = alpha / np.maximum(_row_norms(w), EPSILON_NORM)
            grad[l - 1].weights += w * scale[:, np.newaxis]
        grad[-1].weights += beta * net.layers[-1].weights
    for l, p in enumerate(net.layers):
        grad[l].bias += beta * p.bias
    return grad


def assert_bits_equal(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    npt.assert_array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("sizes", [[7, 5, 3], [7, 6, 5, 4, 3]], ids=["depth2", "depth4"])
@pytest.mark.parametrize("mode", list(Mode))
def test_penalty_bit_identical_to_mode_branches(sizes, mode):
    rng = np.random.default_rng(len(sizes))
    net = init_network(sizes, seed=13)
    for p in net.layers:
        p.bias[:] = rng.standard_normal(len(p.bias))
    # an exactly-zero group in either direction: outgoing column of hidden
    # node 1 and incoming row of hidden node 2, both in hidden layer 1
    net.layers[1].weights[:, 1] = 0.0
    net.layers[0].weights[2, :] = 0.0
    spec = (mode, 0.0 if mode is Mode.L2_ALL else 0.013, 0.0013)
    assert_bits_equal(penalty_value(net, spec), value_by_mode_branches(net, spec))

    def random_grads():
        g = np.random.default_rng(99)
        return layers_of(
            [g.standard_normal(p.weights.shape) for p in net.layers],
            [g.standard_normal(p.bias.shape) for p in net.layers],
        )

    got = regularizer_gradient(net, *spec, random_grads())
    want = gradient_by_mode_branches(net, spec, random_grads())
    for g, w in zip(arrays_of(got), arrays_of(want)):
        assert_bits_equal(g, w)
    if mode is not Mode.L2_ALL:
        zero_node = 1 if mode is Mode.GLASSO_OUT else 2
        assert group_norms(net, mode)[0][zero_node] == 0.0


@pytest.mark.parametrize(
    "mode, axes",
    [
        (Mode.GLASSO_OUT, [None, 0, 0, 0]),
        (Mode.GLASSO_IN, [1, 1, 1, None]),
        (Mode.L2_ALL, [None] * 4),
    ],
)
def test_group_axes_one_entry_per_weight_matrix(mode, axes):
    assert group_axes(init_network([4, 5, 6, 7, 2], seed=0), mode) == axes
