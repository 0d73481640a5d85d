"""Sigmoid MLP with a linear logit layer: parameters, the batched forward
pass, and the softmax cross-entropy gradient that training descends.

Layer l of the network maps z^(l-1) to a^l = W^l z^(l-1) + b^l. Hidden
layers apply the logistic sigmoid, the last layer emits raw logits and the
cross-entropy loss applies softmax. Layer indices follow the convention
that layers[0] holds W^1/b^1 (input -> first hidden). Samples are rows:
the forward and gradient functions take an (n, dim) batch. A network
computes in the one dtype, float32 or float64, that all its parameters
share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ShapeMismatchError


@dataclass
class LayerParams:
    weights: np.ndarray  # (n_out, n_in)
    bias: np.ndarray  # (n_out,)

    def __post_init__(self):
        self.weights = linalg.as_matrix(self.weights)
        self.bias = linalg.as_vector(self.bias)
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ShapeMismatchError(
                f"layer weights {self.weights.shape} do not match "
                f"bias length {self.bias.shape[0]}"
            )

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]


@dataclass
class MlpNetwork:
    layers: list[LayerParams]

    def __post_init__(self):
        if len(self.layers) < 2:
            raise ShapeMismatchError(
                f"network needs at least 2 layers (one hidden), got {len(self.layers)}"
            )
        for l in range(1, len(self.layers)):
            lo, hi = self.layers[l - 1], self.layers[l]
            if hi.n_in != lo.n_out:
                raise ShapeMismatchError(
                    f"layer {l + 1} expects input of size {hi.n_in} but "
                    f"layer {l} produces {lo.n_out}"
                )
        dtypes = {a.dtype for p in self.layers for a in (p.weights, p.bias)}
        if len(dtypes) > 1:
            raise ValueError(f"network parameters mix dtypes {sorted(map(str, dtypes))}")

    @property
    def num_layers(self) -> int:
        """L: the number of weight layers (hidden layers plus the output)."""
        return len(self.layers)

    @property
    def layer_sizes(self) -> list[int]:
        """Node counts N_0 .. N_L, input layer included."""
        return [self.layers[0].n_in] + [p.n_out for p in self.layers]

    @property
    def hidden_sizes(self) -> list[int]:
        return [p.n_out for p in self.layers[:-1]]

    @property
    def dtype(self) -> np.dtype:
        return self.layers[0].weights.dtype

    def copy(self, dtype=None) -> "MlpNetwork":
        """A copy of every parameter, cast to dtype (float32 or float64) if given."""
        dtype = self.dtype if dtype is None else dtype
        return MlpNetwork(
            [LayerParams(p.weights.astype(dtype), p.bias.astype(dtype)) for p in self.layers]
        )


def zero_layers(net: MlpNetwork) -> list[LayerParams]:
    """One zero LayerParams per layer, in the network's shapes and dtype."""
    return [LayerParams(np.zeros_like(p.weights), np.zeros_like(p.bias)) for p in net.layers]


def check_layer_sizes(sizes: list[int]) -> None:
    """Raise ValueError unless config key 'layer_sizes' holds input,hidden,output sizes >= 1."""
    if len(sizes) < 3:
        raise ValueError(f"key 'layer_sizes' needs at least input,hidden,output, got {sizes}")
    if min(sizes) < 1:
        raise ValueError(f"key 'layer_sizes' must all be >= 1, got {sizes}")


def init_network(layer_sizes: list[int], seed: int) -> MlpNetwork:
    """Seeded uniform initialization, scale sqrt(6 / (n_in + n_out)).

    Biases start at zero. Two calls with the same sizes and seed produce
    bitwise-identical networks.
    """
    check_layer_sizes(layer_sizes)
    rng = np.random.default_rng(seed)
    layers = []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        s = np.sqrt(6.0 / (n_in + n_out))
        weights = rng.uniform(-s, s, size=(n_out, n_in))
        layers.append(LayerParams(weights, np.zeros(n_out)))
    return MlpNetwork(layers)


def forward_batch(net: MlpNetwork, xs: np.ndarray) -> list[np.ndarray]:
    """Forward pass over a (n, dim) batch.

    Returns [Z^0 .. Z^L] where row i of Z^l corresponds to sample i; the
    last entry holds raw logits. The batch is cast to the dtype of the
    weights, and every Z^l is in that dtype.
    """
    xs = np.asarray(xs, dtype=net.dtype)
    if xs.ndim != 2 or xs.shape[1] != net.layers[0].n_in:
        raise ShapeMismatchError(
            f"batch shape {xs.shape} does not match input dim {net.layers[0].n_in}"
        )
    zs = [xs]
    last = net.num_layers - 1
    for l, p in enumerate(net.layers):
        a = zs[-1] @ p.weights.T
        a += p.bias
        zs.append(a if l == last else linalg.sigmoid(a, out=a))
    return zs


def softmax_terms(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-max-shifted logits, their exponentials and the row sums of those."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return shifted, exps, exps.sum(axis=1)


def cross_entropy(shifted: np.ndarray, sums: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample cross-entropy from softmax_terms' shifted logits and sums."""
    return np.log(sums) - shifted[np.arange(len(labels)), labels]


def count_hits(logits: np.ndarray, labels: np.ndarray) -> int:
    """Rows whose argmax logit equals the label: the one accuracy rule."""
    return int(np.sum(np.argmax(logits, axis=1) == labels))


def batch_gradients(
    net: MlpNetwork, xs: np.ndarray, labels: np.ndarray
) -> tuple[float, int, list[LayerParams]]:
    """Mean cross-entropy, hit count and gradient over one (n, dim) minibatch.

    The gradient is one LayerParams per layer, in the network's shapes and
    dtype. The hit count is count_hits of the raw logits, before the
    softmax. One softmax serves both the loss and the output delta; the
    delta is then backpropagated through the sigmoid layers via z * (1 - z).
    """
    zs = forward_batch(net, xs)
    hits = count_hits(zs[-1], labels)
    shifted, probs, sums = softmax_terms(zs[-1])
    loss = float(cross_entropy(shifted, sums, labels).mean())
    n = len(labels)
    probs /= sums[:, np.newaxis]
    delta = probs
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grads = [None] * net.num_layers
    for l in range(net.num_layers - 1, -1, -1):
        grads[l] = LayerParams(delta.T @ zs[l], delta.sum(axis=0))
        if l > 0:
            z = zs[l]
            delta = delta @ net.layers[l].weights
            delta *= z
            delta *= 1.0 - z
    return loss, hits, grads
