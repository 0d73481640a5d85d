"""Structural node removal driven by group norms.

The selection procedure: compute every hidden node's group norm on the
trained network, threshold at theta, then rebuild the network without the
dropped nodes. In incoming mode a dropped node still emits the constant
sigmoid(bias), so that contribution is folded into the next layer's biases
before its outgoing column is removed; in outgoing mode the column itself
is near zero and no compensation is needed. All masks are fixed before any
structural edit.
One cut (_cut) serves prune and the forced-removal curve, which re-cuts
each point's layers from the previous point's and re-runs only the layers
a removal batch touches, on the GEMM operands apply_mask would give.
"""

from __future__ import annotations

import warnings

import numpy as np

from .datasets import Dataset
from .errors import ShapeMismatchError
from .linalg import sigmoid
from .network import LayerParams, MlpNetwork, count_hits, forward_batch
from .regularization import Mode, below_theta, group_norms
from .trainer import eval_batches


def make_mask(net: MlpNetwork, mode: Mode, theta: float) -> list[np.ndarray]:
    """Per hidden layer, a bool keep vector: True for each node whose group
    norm is at least theta.

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
    return keep


def apply_mask(net: MlpNetwork, mode: Mode, keep: list) -> MlpNetwork:
    """Rebuild the network without the nodes whose keep entry is False.

    Working from the original parameters: dropped node j of hidden layer l
    loses row j of W^l, entry j of b^l, and column j of W^(l+1). In
    GLASSO_IN mode the dropped node's constant output sigmoid(b^l_j) is
    absorbed into b^(l+1) via its outgoing column before removal. A layer
    no removal touches is shared with net, not copied.
    """
    keep = [np.asarray(k, dtype=bool) for k in keep]
    if [len(k) for k in keep] != net.hidden_sizes:
        raise ShapeMismatchError(
            f"mask lengths {[len(k) for k in keep]} do not match "
            f"hidden layer sizes {net.hidden_sizes}"
        )
    for l, k in enumerate(keep, start=1):
        if not k.any():
            raise ValueError(f"mask would empty hidden layer {l}")
    full = [np.ones(n, dtype=bool) for n in net.layer_sizes]
    return MlpNetwork(_cut(net, mode, net.layers, full, [full[0], *keep, full[-1]], first=1))


def _cut(
    net: MlpNetwork, mode: Mode, layers: list, keep: list, new: list, first: int
) -> list[LayerParams]:
    """Cut layers, net's layers under keep vectors keep, down to keep vectors new.

    keep and new hold one bool vector per node layer, input (index 0) and
    output (index L) included. Of layers first..L, those whose rows or
    columns shrink are sliced, and in GLASSO_IN mode one that loses inputs
    gets its bias refolded from net's layer; the rest are shared, not copied.
    """
    layers = list(layers)
    for l in range(first, len(layers) + 1):
        rows, cols = new[l][keep[l]], new[l - 1][keep[l - 1]]
        if rows.all() and cols.all():
            continue
        p = layers[l - 1]
        refold = mode is Mode.GLASSO_IN and not cols.all()
        bias = _folded_bias(net, l, ~new[l - 1])[new[l]] if refold else p.bias[rows]
        layers[l - 1] = LayerParams(p.weights[:, cols][rows], bias)
    return layers


def _folded_bias(net: MlpNetwork, l: int, dropped: np.ndarray) -> np.ndarray:
    """b^l plus each dropped node j's constant output sigmoid(b^(l-1)_j), via column j of W^l."""
    p = net.layers[l - 1]
    return p.bias + p.weights[:, dropped] @ sigmoid(net.layers[l - 2].bias[dropped])


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

    Each batch of step nodes is cut by _cut from the previous point's
    layers, and each eval batch of trainer.eval_batches, the loop behind
    evaluate, re-runs only the layers from the first hidden layer touched,
    on its cached activations. Every GEMM thus has a per-point apply_mask +
    evaluate rebuild's operands and shape, and every accuracy its bits. The
    curve starts at (0, unpruned accuracy) and stops before any batch that
    would empty a hidden layer.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    batches = list(eval_batches(net, eval_set))
    ranked = _ranked_nodes(net, mode)
    keep = [np.ones(n, dtype=bool) for n in net.layer_sizes]
    layers = net.layers

    def accuracy() -> float:
        return sum(count_hits(zs[-1], y) for zs, y in batches) / eval_set.n

    curve = [(0, accuracy())]
    for count in range(step, len(ranked) + 1, step):
        removed = ranked[count - step : count]
        new = [k.copy() for k in keep]
        for _, l, j in removed:
            new[l + 1][j] = False
        if not all(k.any() for k in new[1:-1]):
            break
        first = 1 + min(l for _, l, _ in removed)
        layers = _cut(net, mode, layers, keep, new, first)
        keep = new
        suffix = MlpNetwork(layers[first - 1 :])
        for zs, _ in batches:
            zs[first:] = forward_batch(suffix, zs[first - 1])[1:]
        curve.append((count, accuracy()))
    return curve


def match_count_mask(net: MlpNetwork, mode: Mode, n_remove: int) -> list[np.ndarray]:
    """Keep vectors removing exactly the n_remove smallest-norm hidden nodes.

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
    return keep
