import numpy as np
import numpy.testing as npt
import pytest
from mpmath import mp

from glasso_prune.datasets import Dataset
from glasso_prune.errors import DataFormatError
from glasso_prune.linalg import as_matrix, as_vector, norms, sigmoid
from glasso_prune.network import LayerParams, MlpNetwork, batch_gradients, softmax_terms
from glasso_prune.trainer import mean_loss


def test_sigmoid_symmetry_point():
    npt.assert_array_equal(sigmoid(as_vector([0.0])), [0.5])


def test_sigmoid_saturation_no_nan():
    out = sigmoid(as_vector([-1000.0, 1000.0]))
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(0.0, abs=1e-300)
    assert out[1] == pytest.approx(1.0, abs=1e-15)


def test_sigmoid_closed_form():
    npt.assert_allclose(sigmoid(as_vector([np.log(3.0)])), [0.75], atol=1e-15)


def test_sigmoid_open_interval():
    # strict bounds hold up to |x| ~ 36; beyond that float64 rounds to 1.0
    rng = np.random.default_rng(4)
    out = sigmoid(as_vector(rng.standard_normal(100) * 8))
    assert np.all(out > 0.0)
    assert np.all(out < 1.0)


def branchy_sigmoid(v):
    """Oracle: split on the sign and gather/scatter through boolean masks."""
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    npt.assert_array_equal(a.view(np.int64), b.view(np.int64))


def test_sigmoid_bit_identical_to_branchy_oracle_at_edges():
    tiny = np.finfo(np.float64).tiny
    edges = [0.0, 5e-324, 1e-320, tiny / 2, tiny, 36.7, 709.0, 745.0, 1000.0, np.inf]
    v = as_vector(edges + [-x for x in edges])
    frozen = v.copy()
    out = sigmoid(v)
    assert_bits_equal(out, branchy_sigmoid(frozen))
    assert_bits_equal(v, frozen)  # input untouched
    # -0.0 takes the v >= 0 branch in both forms
    assert np.signbit(v[len(edges)]) and out[len(edges)] == 0.5


def test_sigmoid_bit_identical_to_branchy_oracle_random():
    rng = np.random.default_rng(17)
    for scale in (0.2, 0.5, 1.0, 2.0, 5.0, 10.0):
        for shape in ((128, 256), (7, 3), (1, 1), (512, 10)):
            v = rng.standard_normal(shape) * scale
            frozen = v.copy()
            out = sigmoid(v)
            assert_bits_equal(out, branchy_sigmoid(frozen))
            assert_bits_equal(v, frozen)


def test_float32_and_float64_kept_other_dtypes_widened():
    for dtype, want in ((np.float32, np.float32), (np.float64, np.float64),
                        (np.float16, np.float64), (np.int64, np.float64)):
        assert as_matrix(np.ones((2, 3), dtype)).dtype == want
        assert as_vector(np.ones(3, dtype)).dtype == want
        assert sigmoid(np.zeros(3, dtype)).dtype == want
    assert as_vector([1, 2]).dtype == np.float64


def test_sigmoid_float32_matches_float64_within_float32_eps():
    v = np.random.default_rng(8).standard_normal(1000).astype(np.float32) * 12
    npt.assert_allclose(sigmoid(v), sigmoid(v.astype(np.float64)),
                        rtol=4 * np.finfo(np.float32).eps, atol=0)


def test_sigmoid_nan_stays_nan():
    out = sigmoid(as_vector([np.nan, 0.0]))
    assert np.isnan(out[0]) and out[1] == 0.5


def test_sigmoid_in_place_bit_identical():
    # out=v overwrites the input with exactly the bits sigmoid(v) returns
    tiny = np.finfo(np.float64).tiny
    edges = [0.0, 5e-324, 1e-320, tiny / 2, tiny, 36.7, 709.0, 745.0, 1000.0, np.inf]
    rng = np.random.default_rng(18)
    inputs = [as_vector(edges + [-x for x in edges] + [np.nan])]
    inputs += [rng.standard_normal((128, 256)) * scale for scale in (0.2, 1.0, 10.0)]
    for v in inputs:
        expected = sigmoid(v)
        w = v.copy()
        assert sigmoid(w, out=w) is w
        assert_bits_equal(w, expected)


# Cross-entropy lives in the network's batched core. These checks feed it
# fixed logits through a network with zero weights whose output bias holds
# the logits: the loss comes from mean_loss on a one-row dataset, and the
# logit gradient is the output-bias gradient of batch_gradients.


def logits_net(logits):
    k = len(logits)
    return MlpNetwork(
        [
            LayerParams(np.zeros((2, 1)), np.zeros(2)),
            LayerParams(np.zeros((k, 2)), np.asarray(logits, dtype=np.float64)),
        ]
    )


def cross_entropy_of(logits, target):
    """(loss, gradient with respect to the logits) for one row."""
    net = logits_net(logits)
    one = Dataset(np.zeros((1, 1)), np.array([target]), num_classes=len(logits))
    _, _, grads = batch_gradients(net, one.features, one.labels)
    return mean_loss(net, one), grads[-1].bias


def test_cross_entropy_uniform_logits():
    for k in (2, 5, 9):
        loss, grad = cross_entropy_of(np.full(k, 1.7), 0)
        assert loss == pytest.approx(np.log(k), abs=1e-12)
        npt.assert_allclose(grad, np.full(k, 1.0 / k) - np.eye(k)[0], atol=1e-12)


def test_cross_entropy_saturated_correct():
    loss, _ = cross_entropy_of([1000.0, 0.0], 0)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_high_precision_oracle():
    # direct formula evaluated at 128-bit precision
    rng = np.random.default_rng(17)
    logits = rng.standard_normal(5) * 3
    target = 2
    loss, _ = cross_entropy_of(logits, target)

    mp.prec = 128
    exps = [mp.e ** mp.mpf(float(x)) for x in logits]
    expected = -mp.log(exps[target] / mp.fsum(exps))
    assert abs(loss - float(expected)) < 1e-12


def test_cross_entropy_grad_sums_to_zero():
    rng = np.random.default_rng(8)
    for _ in range(5):
        _, grad = cross_entropy_of(rng.standard_normal(6), 3)
        assert abs(grad.sum()) < 1e-12


def test_cross_entropy_grad_finite_differences():
    rng = np.random.default_rng(21)
    logits = rng.standard_normal(4)
    _, grad = cross_entropy_of(logits, 1)
    h = 1e-5
    for i in range(4):
        bumped = logits.copy()
        bumped[i] += h
        hi, _ = cross_entropy_of(bumped, 1)
        bumped[i] -= 2 * h
        lo, _ = cross_entropy_of(bumped, 1)
        numeric = (hi - lo) / (2 * h)
        assert grad[i] == pytest.approx(numeric, rel=1e-6, abs=1e-9)


def test_cross_entropy_target_out_of_range():
    net = logits_net([0.0, 1.0])
    with pytest.raises(IndexError):
        batch_gradients(net, np.zeros((1, 1)), np.array([2]))
    # a negative label would index from the end; Dataset refuses it first
    with pytest.raises(DataFormatError):
        Dataset(np.zeros((1, 1)), np.array([-1]), num_classes=2)


def test_softmax_sums_to_one():
    rng = np.random.default_rng(2)
    _, exps, sums = softmax_terms(rng.standard_normal((3, 7)) * 100)
    probs = exps / sums[:, np.newaxis]
    npt.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(probs >= 0.0)


def test_column_norms_known_values():
    npt.assert_array_equal(norms(as_matrix([[3.0, 0.0], [4.0, 0.0]]), axis=0), [5.0, 0.0])
    npt.assert_array_equal(norms(as_matrix(np.eye(2)), axis=0), [1.0, 1.0])


def test_column_norms_against_loop():
    rng = np.random.default_rng(5)
    m = as_matrix(rng.standard_normal((3, 4)))
    got = norms(m, axis=0)
    assert got.shape == (4,)
    for j in range(4):
        acc = 0.0
        for i in range(3):
            acc += m[i, j] ** 2
        assert got[j] ** 2 == pytest.approx(acc, abs=1e-12)


def test_row_norms_known_values():
    npt.assert_array_equal(norms(as_matrix([[3.0, 4.0], [0.0, 0.0]]), axis=1), [5.0, 0.0])
    npt.assert_array_equal(norms(as_matrix(np.eye(2)), axis=1), [1.0, 1.0])


def test_norms_bit_identical_to_numpy_norm():
    rng = np.random.default_rng(8)
    for shape in ((256, 256), (10, 256), (256, 64), (3, 1)):
        m = as_matrix(rng.standard_normal(shape))
        assert_bits_equal(norms(m, axis=0), np.linalg.norm(m, axis=0))
        assert_bits_equal(norms(m, axis=1), np.linalg.norm(m, axis=1))


def test_row_norms_transpose_duality():
    rng = np.random.default_rng(6)
    for _ in range(5):
        m = as_matrix(rng.standard_normal((4, 6)))
        npt.assert_array_equal(norms(m, axis=1), norms(as_matrix(m.T), axis=0))
