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
defined as zero (subgradient choice, guarded by EPSILON_NORM).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import norms
from .network import GradientSet, MlpNetwork

EPSILON_NORM = 1e-12


class Mode(enum.Enum):
    GLASSO_OUT = "glasso_out"
    GLASSO_IN = "glasso_in"
    L2_ALL = "l2"

    @classmethod
    def from_string(cls, name: str) -> "Mode":
        for mode in cls:
            if mode.value == name:
                return mode
        raise ValueError(
            f"unknown mode {name!r}, expected one of "
            f"{[m.value for m in cls]}"
        )

    @property
    def grouped(self) -> bool:
        return self is not Mode.L2_ALL


@dataclass(frozen=True)
class RegularizerSpec:
    mode: Mode
    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError(
                f"alpha and beta must be nonnegative, got {self.alpha}, {self.beta}"
            )
        if self.mode is Mode.L2_ALL and self.alpha != 0:
            raise ValueError("alpha must be 0 in L2_ALL mode (no grouped penalty)")


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
    """Per-hidden-layer group norms, one entry per node of layers 1..L-1."""
    if not mode.grouped:
        raise ValueError("group norms are undefined for L2_ALL (no grouping)")
    return [norms(net.layers[l].weights, axis) for l, axis in group_layout(net, mode)]


def below_theta(net: MlpNetwork, mode: Mode, theta: float) -> list[np.ndarray]:
    """Per hidden layer, True for each node whose group norm is below theta.

    This is the selection rule: every disposable count and every threshold
    mask is built from it, so one theta means one thing everywhere.
    """
    if not 0 < theta < np.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")
    return [layer_norms < theta for layer_norms in group_norms(net, mode)]


def regularizer_value(net: MlpNetwork, spec: RegularizerSpec) -> float:
    """Total penalty: alpha * sum of group norms + beta * L2 terms."""
    grouped = {l for l, _ in group_layout(net, spec.mode)}
    glasso = 0.0
    l2 = 0.0
    if grouped:
        for layer_norms in group_norms(net, spec.mode):
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
    return spec.alpha * glasso + spec.beta * l2


def regularizer_gradient(
    net: MlpNetwork, spec: RegularizerSpec, grad: GradientSet
) -> GradientSet:
    """Add the gradient of regularizer_value into grad; returns grad.

    Each grouped vector contributes alpha * w / max(||w||, EPSILON_NORM),
    which is exactly zero for an exactly-zero group. Adding in place
    spares the trainer a zero GradientSet per minibatch step; pass
    GradientSet.zeros_like(net) to get the penalty gradient alone.
    """
    layout = group_layout(net, spec.mode)
    for l, axis in layout:
        w = net.layers[l].weights
        scale = spec.alpha / np.maximum(norms(w, axis), EPSILON_NORM)
        grad.d_weights[l] += w * np.expand_dims(scale, axis)
    grouped = {l for l, _ in layout}
    for l, p in enumerate(net.layers):
        if l not in grouped:
            grad.d_weights[l] += spec.beta * p.weights
        grad.d_biases[l] += spec.beta * p.bias
    return grad
