"""Structural node removal driven by group norms.

The selection procedure: compute every hidden node's group norm on the
trained network, threshold at theta, then rebuild the network without the
dropped nodes. In incoming mode a dropped node still emits the constant
sigmoid(bias), so that contribution is folded into the next layer's biases
before its outgoing column is removed; in outgoing mode the column itself
is near zero and no compensation is needed. All masks are fixed before any
structural edit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .errors import ShapeMismatchError
from .linalg import sigmoid
from .network import LayerParams, MlpNetwork
from .regularization import Mode, below_theta, group_norms
from .trainer import evaluate


@dataclass
class PruneMask:
    """Per-hidden-layer keep decisions; True keeps the node."""

    keep: list[np.ndarray]
    mode: Mode
    theta: float | None  # None for count-driven masks with no threshold

    def __post_init__(self):
        self.keep = [np.asarray(k, dtype=bool) for k in self.keep]
        for l, k in enumerate(self.keep, start=1):
            if not k.any():
                raise ValueError(f"mask would empty hidden layer {l}")

    def removed_per_layer(self) -> list[int]:
        return [int(np.sum(~k)) for k in self.keep]

    def retained_per_layer(self) -> list[int]:
        return [int(np.sum(k)) for k in self.keep]

    def total_removed(self) -> int:
        return sum(self.removed_per_layer())


def make_mask(net: MlpNetwork, mode: Mode, theta: float) -> PruneMask:
    """Keep every hidden node whose group norm is at least theta.

    A layer is never emptied: if every node falls below theta the
    largest-norm one is retained and a warning is issued.
    """
    keep = [~below for below in below_theta(net, mode, theta)]
    for l, k in enumerate(keep, start=1):
        if not k.any():
            k[int(np.argmax(group_norms(net, mode)[l - 1]))] = True
            warnings.warn(
                f"thresholding would empty hidden layer {l}; "
                f"keeping its largest-norm node"
            )
    return PruneMask(keep, mode, theta)


def apply_mask(net: MlpNetwork, mask: PruneMask) -> MlpNetwork:
    """Rebuild the network without the dropped nodes.

    Working from the original parameters: dropped node j of hidden layer l
    loses row j of W^l, entry j of b^l, and column j of W^(l+1). In
    GLASSO_IN mode the dropped node's constant output sigmoid(b^l_j) is
    absorbed into b^(l+1) via its outgoing column before removal.
    """
    hidden = net.hidden_sizes
    if len(mask.keep) != len(hidden) or any(
        len(k) != n for k, n in zip(mask.keep, hidden)
    ):
        raise ShapeMismatchError(
            f"mask lengths {[len(k) for k in mask.keep]} do not match "
            f"hidden layer sizes {hidden}"
        )
    big_l = net.num_layers
    # keep[0] is the input layer, keep[big_l] the output layer: never pruned
    keep = [np.ones(net.layers[0].n_in, dtype=bool)]
    keep += list(mask.keep)
    keep.append(np.ones(net.layers[-1].n_out, dtype=bool))

    layers = []
    for l in range(1, big_l + 1):
        p = net.layers[l - 1]
        bias = p.bias.copy()
        if mask.mode is Mode.GLASSO_IN and l >= 2:
            dropped = ~keep[l - 1]
            if dropped.any():
                below_bias = net.layers[l - 2].bias[dropped]
                bias += p.weights[:, dropped] @ sigmoid(below_bias)
        layers.append(
            LayerParams(p.weights[np.ix_(keep[l], keep[l - 1])], bias[keep[l]])
        )
    return MlpNetwork(layers)


def _ranked_nodes(net: MlpNetwork, mode: Mode) -> list[tuple[float, int, int]]:
    """All hidden nodes as (norm, layer_index, node_index), ascending."""
    ranked = [
        (float(norm), l, j)
        for l, norms in enumerate(group_norms(net, mode))
        for j, norm in enumerate(norms)
    ]
    ranked.sort()
    return ranked


def forced_removal_curve(
    net: MlpNetwork,
    mode: Mode,
    eval_set: Dataset,
    step: int = 100,
) -> list[tuple[int, float]]:
    """Accuracy after cumulative ascending-norm removal in batches of step.

    Each point re-applies a cumulative mask to the original network; each
    mask extends the previous one by the next step nodes. The curve starts
    at (0, unpruned accuracy) and stops before any batch that would empty
    a hidden layer.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if eval_set.n == 0:
        raise ValueError("eval_set is empty")
    ranked = _ranked_nodes(net, mode)
    hidden = net.hidden_sizes
    kept_per_layer = list(hidden)
    keep = [np.ones(n, dtype=bool) for n in hidden]
    curve = [(0, evaluate(net, eval_set))]
    for count in range(step, len(ranked) + 1, step):
        for _, l, j in ranked[count - step : count]:
            keep[l][j] = False
            kept_per_layer[l] -= 1
        if min(kept_per_layer) == 0:
            break
        pruned = apply_mask(net, PruneMask(keep, mode, theta=None))
        curve.append((count, evaluate(pruned, eval_set)))
    return curve


def match_count_mask(net: MlpNetwork, mode: Mode, n_remove: int) -> PruneMask:
    """Mask removing exactly the n_remove smallest-norm hidden nodes.

    Nodes whose removal would empty their layer are skipped in favor of the
    next-smallest candidates.
    """
    if n_remove < 0:
        raise ValueError(f"n_remove must be >= 0, got {n_remove}")
    hidden = net.hidden_sizes
    keep = [np.ones(n, dtype=bool) for n in hidden]
    kept_per_layer = list(hidden)
    removed = 0
    for _, l, j in _ranked_nodes(net, mode):
        if removed == n_remove:
            break
        if kept_per_layer[l] == 1:
            continue
        keep[l][j] = False
        kept_per_layer[l] -= 1
        removed += 1
    if removed < n_remove:
        raise ValueError(
            f"cannot remove {n_remove} of {sum(hidden)} hidden nodes while "
            f"keeping one per layer"
        )
    return PruneMask(keep, mode, theta=None)
