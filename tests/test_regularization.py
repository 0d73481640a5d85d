import numpy as np
import numpy.testing as npt
import pytest

from glasso_prune.linalg import as_matrix
from glasso_prune.network import GradientSet, LayerParams, MlpNetwork, init_network
from glasso_prune.regularization import (
    EPSILON_NORM,
    Mode,
    RegularizerSpec,
    group_layout,
    group_norms,
    regularizer_gradient,
    regularizer_value,
)


def net_from_weights(*weight_lists):
    layers = []
    for w in weight_lists:
        w = as_matrix(w)
        layers.append(LayerParams(w, np.zeros(w.shape[0])))
    return MlpNetwork(layers)


def penalty_gradient(net, spec):
    return regularizer_gradient(net, spec, GradientSet.zeros_like(net))


def transposed_reversed(net):
    layers = [
        LayerParams(as_matrix(p.weights.T.copy()), np.zeros(p.weights.shape[1]))
        for p in reversed(net.layers)
    ]
    return MlpNetwork(layers)


def value_by_loops(net, spec):
    mode = spec.mode
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
                total += spec.alpha * np.sqrt(acc)
        else:
            for i in range(w.shape[0]):
                acc = 0.0
                for j in range(w.shape[1]):
                    acc += w[i, j] ** 2
                total += spec.alpha * np.sqrt(acc)
    for w in l2_mats:
        total += spec.beta * 0.5 * float(np.sum(np.asarray(w) ** 2))
    for p in net.layers:
        total += spec.beta * 0.5 * float(np.sum(p.bias**2))
    return total


def test_spec_rejects_negative_strengths():
    with pytest.raises(ValueError):
        RegularizerSpec(mode=Mode.GLASSO_OUT, alpha=-0.1, beta=0.0)
    with pytest.raises(ValueError):
        RegularizerSpec(mode=Mode.GLASSO_OUT, alpha=0.0, beta=-0.1)


def test_spec_l2_forbids_alpha():
    with pytest.raises(ValueError):
        RegularizerSpec(mode=Mode.L2_ALL, alpha=0.5, beta=0.0)
    RegularizerSpec(mode=Mode.L2_ALL, alpha=0.0, beta=0.5)  # fine


def test_mode_from_string():
    assert Mode.from_string("glasso_out") is Mode.GLASSO_OUT
    assert Mode.from_string("glasso_in") is Mode.GLASSO_IN
    assert Mode.from_string("l2") is Mode.L2_ALL
    with pytest.raises(ValueError):
        Mode.from_string("ridge")


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


def test_group_norms_rejects_l2():
    net = init_network([2, 3, 2], 0)
    with pytest.raises(ValueError):
        group_norms(net, Mode.L2_ALL)


def test_group_norms_lengths_match_hidden_sizes():
    net = init_network([3, 5, 4, 2], 0)
    for mode in (Mode.GLASSO_OUT, Mode.GLASSO_IN):
        norms = group_norms(net, mode)
        assert [len(v) for v in norms] == [5, 4]
        assert all(np.all(v >= 0) for v in norms)


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
        spec = RegularizerSpec(
            mode=mode, alpha=0.0 if mode is Mode.L2_ALL else 1.0, beta=1.0
        )
        assert regularizer_value(net, spec) == 0.0


def test_value_single_column_345():
    # grouped matrix [[3,0],[4,0]] under column grouping: one 3-4-5 column
    net = net_from_weights(np.zeros((2, 2)), [[3.0, 0.0], [4.0, 0.0]])
    spec = RegularizerSpec(mode=Mode.GLASSO_OUT, alpha=1.0, beta=0.0)
    assert regularizer_value(net, spec) == pytest.approx(5.0, abs=1e-15)


def test_value_matches_loop_oracle():
    net = init_network([3, 6, 5, 2], seed=12)
    for p in net.layers:
        p.bias[:] = np.linspace(-0.5, 0.5, len(p.bias))
    for mode in Mode:
        spec = RegularizerSpec(
            mode=mode,
            alpha=0.0 if mode is Mode.L2_ALL else 0.3,
            beta=0.07,
        )
        assert regularizer_value(net, spec) == pytest.approx(
            value_by_loops(net, spec), rel=1e-12
        )


def test_gradient_unit_column():
    net = net_from_weights(np.zeros((2, 2)), [[3.0, 0.0], [4.0, 0.0]])
    spec = RegularizerSpec(mode=Mode.GLASSO_OUT, alpha=1.0, beta=0.0)
    grads = penalty_gradient(net, spec)
    npt.assert_allclose(grads.d_weights[1][:, 0], [0.6, 0.8], atol=1e-15)


def test_gradient_zero_column_safeguard():
    net = net_from_weights(np.zeros((2, 2)), [[3.0, 0.0], [4.0, 0.0]])
    spec = RegularizerSpec(mode=Mode.GLASSO_OUT, alpha=1.0, beta=0.0)
    grads = penalty_gradient(net, spec)
    npt.assert_array_equal(grads.d_weights[1][:, 1], [0.0, 0.0])


def test_gradient_finite_differences():
    h = 1e-5
    for seed in range(3):
        net = init_network([3, 5, 4, 2], seed)
        for p in net.layers:
            p.bias[:] = np.linspace(-0.4, 0.4, len(p.bias))
        for mode in Mode:
            spec = RegularizerSpec(
                mode=mode,
                alpha=0.0 if mode is Mode.L2_ALL else 0.2,
                beta=0.05,
            )
            if mode is not Mode.L2_ALL:
                assert all(np.all(v > 1e-3) for v in group_norms(net, mode))
            grads = penalty_gradient(net, spec)
            for l, p in enumerate(net.layers):
                for idx in np.ndindex(p.weights.shape):
                    orig = p.weights[idx]
                    p.weights[idx] = orig + h
                    hi = regularizer_value(net, spec)
                    p.weights[idx] = orig - h
                    lo = regularizer_value(net, spec)
                    p.weights[idx] = orig
                    numeric = (hi - lo) / (2 * h)
                    assert grads.d_weights[l][idx] == pytest.approx(
                        numeric, rel=1e-5, abs=1e-9
                    )
                for i in range(len(p.bias)):
                    orig = p.bias[i]
                    p.bias[i] = orig + h
                    hi = regularizer_value(net, spec)
                    p.bias[i] = orig - h
                    lo = regularizer_value(net, spec)
                    p.bias[i] = orig
                    numeric = (hi - lo) / (2 * h)
                    assert grads.d_biases[l][i] == pytest.approx(
                        numeric, rel=1e-5, abs=1e-9
                    )


def test_gradient_group_block_norm_capped_at_alpha():
    alpha = 0.35
    for seed in range(3):
        net = init_network([3, 5, 4, 2], seed)
        for mode in (Mode.GLASSO_OUT, Mode.GLASSO_IN):
            spec = RegularizerSpec(mode=mode, alpha=alpha, beta=0.0)
            grads = penalty_gradient(net, spec)
            mats = (
                grads.d_weights[1:] if mode is Mode.GLASSO_OUT else grads.d_weights[:-1]
            )
            for dw in mats:
                blocks = dw.T if mode is Mode.GLASSO_OUT else dw
                for block in blocks:
                    assert np.linalg.norm(block) == pytest.approx(alpha, abs=1e-12)


def test_positive_homogeneity():
    net = init_network([3, 5, 4, 2], seed=9)
    glasso = RegularizerSpec(mode=Mode.GLASSO_OUT, alpha=0.4, beta=0.0)
    l2 = RegularizerSpec(mode=Mode.L2_ALL, alpha=0.0, beta=0.4)
    base_g = regularizer_value(net, glasso)
    base_l = regularizer_value(net, l2)
    for c in (0.5, 2.0, 7.0):
        scaled = net.copy()
        for p in scaled.layers:
            p.weights *= c
            p.bias *= c
        assert regularizer_value(scaled, glasso) == pytest.approx(c * base_g, rel=1e-12)
        assert regularizer_value(scaled, l2) == pytest.approx(c * c * base_l, rel=1e-12)


def test_mode_symmetry_value():
    # IN on a net equals OUT on the transposed, layer-reversed net
    for seed in range(4):
        net = init_network([3, 5, 4, 2], seed)
        spec_in = RegularizerSpec(mode=Mode.GLASSO_IN, alpha=0.7, beta=0.2)
        spec_out = RegularizerSpec(mode=Mode.GLASSO_OUT, alpha=0.7, beta=0.2)
        flipped = transposed_reversed(net)
        assert regularizer_value(net, spec_in) == pytest.approx(
            regularizer_value(flipped, spec_out), rel=1e-12
        )


def test_l2_gradient_is_identity_scaling():
    net = init_network([2, 3, 2], seed=4)
    for p in net.layers:
        p.bias[:] = 0.25
    beta = 0.6
    spec = RegularizerSpec(mode=Mode.L2_ALL, alpha=0.0, beta=beta)
    grads = penalty_gradient(net, spec)
    for p, dw, db in zip(net.layers, grads.d_weights, grads.d_biases):
        npt.assert_allclose(dw, beta * p.weights, atol=1e-15)
        npt.assert_allclose(db, beta * p.bias, atol=1e-15)


def test_biases_never_grouped_always_l2():
    net = init_network([2, 3, 2], seed=5)
    for p in net.layers:
        p.bias[:] = 1.0
    spec = RegularizerSpec(mode=Mode.GLASSO_OUT, alpha=1.0, beta=0.5)
    grads = penalty_gradient(net, spec)
    for p, db in zip(net.layers, grads.d_biases):
        npt.assert_allclose(db, 0.5 * p.bias, atol=1e-15)


def test_gradient_adds_into_given_set():
    rng = np.random.default_rng(8)
    net = init_network([3, 5, 4, 2], seed=7)
    for p in net.layers:
        p.bias[:] = rng.standard_normal(len(p.bias))
    for mode in Mode:
        spec = RegularizerSpec(
            mode=mode, alpha=0.0 if mode is Mode.L2_ALL else 0.3, beta=0.05
        )
        base = GradientSet(
            [rng.standard_normal(p.weights.shape) for p in net.layers],
            [rng.standard_normal(p.bias.shape) for p in net.layers],
        )
        given = GradientSet(
            [w.copy() for w in base.d_weights], [b.copy() for b in base.d_biases]
        )
        arrays = given.d_weights + given.d_biases
        assert regularizer_gradient(net, spec, given) is given
        # same array objects, updated in place
        assert all(a is b for a, b in zip(arrays, given.d_weights + given.d_biases))
        alone = penalty_gradient(net, spec)
        for g, b, a in zip(
            given.d_weights + given.d_biases,
            base.d_weights + base.d_biases,
            alone.d_weights + alone.d_biases,
        ):
            npt.assert_array_equal(g, b + a)


# The penalty as it was written before the group layout table: one branch
# per mode. Kept as the bit-for-bit oracle of regularizer_value and
# regularizer_gradient, whose outputs feed history.jsonl and the weights.


def _column_norms(m):
    return np.sqrt(np.add.reduce(m * m, axis=0))


def _row_norms(m):
    return np.sqrt(np.add.reduce(m * m, axis=1))


def value_by_mode_branches(net, spec):
    l2 = 0.0
    glasso = 0.0
    big_l = net.num_layers
    if spec.mode is Mode.L2_ALL:
        for p in net.layers:
            l2 += 0.5 * float(np.sum(p.weights**2)) + 0.5 * float(np.sum(p.bias**2))
    else:
        if spec.mode is Mode.GLASSO_OUT:
            norms = [_column_norms(net.layers[l].weights) for l in range(1, big_l)]
        else:
            norms = [_row_norms(net.layers[l - 1].weights) for l in range(1, big_l)]
        for n in norms:
            glasso += float(np.sum(n))
        ungrouped = net.layers[0] if spec.mode is Mode.GLASSO_OUT else net.layers[-1]
        l2 += 0.5 * float(np.sum(ungrouped.weights**2))
        for p in net.layers:
            l2 += 0.5 * float(np.sum(p.bias**2))
    return spec.alpha * glasso + spec.beta * l2


def gradient_by_mode_branches(net, spec, grad):
    big_l = net.num_layers
    if spec.mode is Mode.L2_ALL:
        for l, p in enumerate(net.layers):
            grad.d_weights[l] += spec.beta * p.weights
    elif spec.mode is Mode.GLASSO_OUT:
        for l in range(1, big_l):
            w = net.layers[l].weights
            scale = spec.alpha / np.maximum(_column_norms(w), EPSILON_NORM)
            grad.d_weights[l] += w * scale[np.newaxis, :]
        grad.d_weights[0] += spec.beta * net.layers[0].weights
    else:
        for l in range(1, big_l):
            w = net.layers[l - 1].weights
            scale = spec.alpha / np.maximum(_row_norms(w), EPSILON_NORM)
            grad.d_weights[l - 1] += w * scale[:, np.newaxis]
        grad.d_weights[-1] += spec.beta * net.layers[-1].weights
    for l, p in enumerate(net.layers):
        grad.d_biases[l] += spec.beta * p.bias
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
    spec = RegularizerSpec(
        mode=mode, alpha=0.0 if mode is Mode.L2_ALL else 0.013, beta=0.0013
    )
    assert_bits_equal(regularizer_value(net, spec), value_by_mode_branches(net, spec))

    def random_grads():
        g = np.random.default_rng(99)
        return GradientSet(
            [g.standard_normal(p.weights.shape) for p in net.layers],
            [g.standard_normal(p.bias.shape) for p in net.layers],
        )

    got = regularizer_gradient(net, spec, random_grads())
    want = gradient_by_mode_branches(net, spec, random_grads())
    for g, w in zip(got.d_weights + got.d_biases, want.d_weights + want.d_biases):
        assert_bits_equal(g, w)
    if mode.grouped:
        zero_node = 1 if mode is Mode.GLASSO_OUT else 2
        assert group_norms(net, mode)[0][zero_node] == 0.0


@pytest.mark.parametrize(
    "mode, layout",
    [
        (Mode.GLASSO_OUT, [(1, 0), (2, 0), (3, 0)]),
        (Mode.GLASSO_IN, [(0, 1), (1, 1), (2, 1)]),
        (Mode.L2_ALL, []),
    ],
)
def test_group_layout_one_entry_per_hidden_layer(mode, layout):
    assert group_layout(init_network([4, 5, 6, 7, 2], seed=0), mode) == layout
