"""Group-lasso and L2 penalty terms and their gradients.

Three configurations:

  GLASSO_OUT  group norm of hidden node j in layer l is the Euclidean norm
              of column j of W^(l+1) (its outgoing weights); the group
              penalty spans W^2..W^L and the input weights W^1 plus all
              biases get a plain L2 term.
  GLASSO_IN   the group is row j of W^l (incoming weights); the penalty
              spans W^1..W^(L-1) and the L2 term covers W^L plus biases.
  L2_ALL      no grouping, L2 on every weight matrix and bias vector.

The group penalty per node is alpha * ||w||, so its gradient is the unit
vector alpha * w / ||w||: a constant-magnitude pull that drives unneeded
groups to near-zero norm during training. At exactly zero norm the pull is
defined as zero (subgradient choice, guarded by EPSILON_NORM). The penalty
sums the group norms its caller took; the gradient takes its own.
"""

from __future__ import annotations

import enum

import numpy as np

from .linalg import norms
from .network import LayerParams, MlpNetwork

EPSILON_NORM = 1e-12


class Mode(enum.Enum):
    GLASSO_OUT = "glasso_out"
    GLASSO_IN = "glasso_in"
    L2_ALL = "l2"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown mode {value!r}, expected one of {[m.value for m in cls]}")

    @property
    def grouped(self) -> bool:
        return self is not Mode.L2_ALL


# Per grouped mode, (offset, norm axis): hidden layer l's groups lie in
# net.layers[l - 1 + offset], as columns of W^(l+1) or rows of W^l.
_GROUP_OFFSET_AND_AXIS = {Mode.GLASSO_OUT: (1, 0), Mode.GLASSO_IN: (0, 1)}


def group_layout(net: MlpNetwork, mode: Mode) -> list[tuple[int, int]]:
    """(index into net.layers, norm axis), one entry per hidden layer.

    Empty for L2_ALL. Every weight matrix not listed gets the L2 term.
    """
    if not mode.grouped:
        return []
    offset, axis = _GROUP_OFFSET_AND_AXIS[mode]
    return [(l - 1 + offset, axis) for l in range(1, net.num_layers)]


def group_norms(net: MlpNetwork, mode: Mode) -> list[np.ndarray]:
    """Per-hidden-layer group norms, one entry per node of layers 1..L-1.

    Squares and sums are taken in float64 whatever the network's dtype.
    A float32 weight's square is exact in float64, so a float32 network's
    norms are bit for bit those of its float64 copy, without making one.
    """
    if not mode.grouped:
        raise ValueError("group norms are undefined for L2_ALL (no grouping)")
    return [
        norms(net.layers[l].weights, axis, np.float64)
        for l, axis in group_layout(net, mode)
    ]


def below_theta(norms: list[np.ndarray], theta: float) -> list[np.ndarray]:
    """Per hidden layer of group_norms' norms, True for each node below theta.

    The selection rule and theta's one check: every mask, disposable count
    and TrainConfig goes through it, so one theta means one thing everywhere.
    """
    if not 0 < theta < np.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")
    return [layer_norms < theta for layer_norms in norms]


def regularizer_value(
    net: MlpNetwork, mode: Mode, norms: list[np.ndarray], alpha: float, beta: float
) -> float:
    """Total penalty: alpha * sum of norms (group_norms', [] for L2_ALL) + beta * L2 terms."""
    grouped = {l for l, _ in group_layout(net, mode)}
    glasso = 0.0
    l2 = 0.0
    if grouped:
        for layer_norms in norms:
            glasso += float(np.sum(layer_norms))
        for l, p in enumerate(net.layers):
            if l not in grouped:
                l2 += 0.5 * float(np.sum(p.weights**2))
        for p in net.layers:
            l2 += 0.5 * float(np.sum(p.bias**2))
    else:
        # L2_ALL adds each layer's weight and bias terms as a pair: this
        # summation order is part of the train_loss bits in history.jsonl
        for p in net.layers:
            l2 += 0.5 * float(np.sum(p.weights**2)) + 0.5 * float(np.sum(p.bias**2))
    return alpha * glasso + beta * l2


def regularizer_gradient(
    net: MlpNetwork, mode: Mode, alpha: float, beta: float, grads: list[LayerParams]
) -> list[LayerParams]:
    """Add the gradient of regularizer_value into grads; returns grads.

    Each grouped vector contributes alpha * w / max(||w||, EPSILON_NORM),
    which is exactly zero for an exactly-zero group. These norms stay in
    the network's own dtype; only group_norms widens. Adding in place
    spares the trainer a zero gradient per minibatch step; pass
    network.zero_layers(net) to get the penalty gradient alone.
    """
    layout = group_layout(net, mode)
    for l, axis in layout:
        w = net.layers[l].weights
        scale = alpha / np.maximum(norms(w, axis), EPSILON_NORM)
        grads[l].weights += w * np.expand_dims(scale, axis)
    grouped = {l for l, _ in layout}
    for l, (p, g) in enumerate(zip(net.layers, grads)):
        if l not in grouped:
            g.weights += beta * p.weights
        g.bias += beta * p.bias
    return grads
