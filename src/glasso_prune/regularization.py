"""Group-lasso and L2 penalty terms and their gradients.

Three configurations:

  GLASSO_OUT  group norm of hidden node j in layer l is the Euclidean norm
              of column j of W^(l+1) (its outgoing weights); the group
              penalty spans W^2..W^L and the input weights W^1 plus all
              biases get a plain L2 term.
  GLASSO_IN   the group is row j of W^l (incoming weights); the penalty
              spans W^1..W^(L-1) and the L2 term covers W^L plus biases.
  L2_ALL      no groups, L2 on every weight matrix and bias vector.

group_axes holds this as one entry per weight matrix: the norm axis of its
groups, or None where the L2 term covers it. Biases are never grouped.

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


# Per grouped mode, (offset, norm axis): hidden layer l's groups lie in
# net.layers[l - 1 + offset], as columns of W^(l+1) or rows of W^l.
_GROUP_OFFSET_AND_AXIS = {Mode.GLASSO_OUT: (1, 0), Mode.GLASSO_IN: (0, 1)}


def group_axes(net: MlpNetwork, mode: Mode) -> list[int | None]:
    """Per weight matrix of net, the norm axis of its groups (0 for columns,
    1 for rows), or None where the L2 term covers it: all None for L2_ALL."""
    offset, axis = _GROUP_OFFSET_AND_AXIS.get(mode, (0, None))
    hidden = range(offset, offset + net.num_layers - 1)  # the matrices of layers 1..L-1
    return [axis if l in hidden else None for l in range(net.num_layers)]


def group_norms(net: MlpNetwork, mode: Mode) -> list[np.ndarray]:
    """Per-hidden-layer group norms, one entry per node of layers 1..L-1;
    [] for L2_ALL, which has no groups.

    Squares and sums are taken in float64 whatever the network's dtype.
    A float32 weight's square is exact in float64, so a float32 network's
    norms are bit for bit those of its float64 copy, without making one.
    """
    return [
        norms(p.weights, axis, np.float64)
        for p, axis in zip(net.layers, group_axes(net, mode))
        if axis is not None
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
    glasso = 0.0
    l2 = 0.0
    if mode is Mode.L2_ALL:
        # L2_ALL adds each layer's weight and bias terms as a pair: this
        # summation order is part of the train_loss bits in history.jsonl
        for p in net.layers:
            l2 += 0.5 * float(np.sum(p.weights**2)) + 0.5 * float(np.sum(p.bias**2))
    else:
        for layer_norms in norms:
            glasso += float(np.sum(layer_norms))
        for p, axis in zip(net.layers, group_axes(net, mode)):
            if axis is None:
                l2 += 0.5 * float(np.sum(p.weights**2))
        for p in net.layers:
            l2 += 0.5 * float(np.sum(p.bias**2))
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
    for p, g, axis in zip(net.layers, grads, group_axes(net, mode)):
        if axis is None:
            g.weights += beta * p.weights
        else:
            scale = alpha / np.maximum(norms(p.weights, axis), EPSILON_NORM)
            g.weights += p.weights * np.expand_dims(scale, axis)
        g.bias += beta * p.bias
    return grads
