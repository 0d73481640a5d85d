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
the removal batches since then touch, on the GEMM operands apply_mask
would give. The curve's points can be dealt round-robin to forked
workers, one per free core (curve_workers), with the same result.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import warnings
from typing import BinaryIO

import numpy as np

from .datasets import Dataset
from .errors import ShapeMismatchError
from .linalg import sigmoid
from .network import LayerParams, MlpNetwork, count_hits, forward_batch
from .regularization import Mode, below_theta, group_norms
from .trainer import eval_batches

DEFAULT_STEP = 100  # nodes removed per forced-removal curve point
# variables that set BLAS threads, read in this order by curve_workers
BLAS_THREADS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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
    step: int = DEFAULT_STEP,
    workers: int = 1,
) -> list[tuple[int, float]]:
    """Accuracy after cumulative ascending-norm removal in batches of step.

    The curve starts at (0, unpruned accuracy) and stops before any batch
    that would empty a hidden layer. Its points are dealt round-robin to W =
    min(workers, points) workers: worker k draws points k, k + W, k + 2W, ...
    (see _curve_points). The caller is worker 0 and a forked child each
    other one, and the curve is the same for any workers. The step check,
    the shape check and the baseline eval pass run before any fork.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    batches = list(eval_batches(net, eval_set))
    plan = _curve_plan(net, mode, step)
    curve = [(0, _accuracy(batches, eval_set.n))]
    if not plan:
        return curve
    w = min(workers, len(plan))
    children = []  # (pid, reader of its result pipe), one per worker after the caller
    try:
        for k in range(1, w):
            children.append(_fork(functools.partial(
                _curve_points, net, mode, batches, eval_set.n, plan, range(k, len(plan), w))))
        parts = [_curve_points(net, mode, batches, eval_set.n, plan, range(0, len(plan), w))]
        parts += [_result(pid, reader) for pid, reader in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, reader in children:
            reader.close()
            os.waitpid(pid, 0)
    return curve + [parts[i % w][i // w] for i in range(len(plan))]


def _curve_plan(net: MlpNetwork, mode: Mode, step: int) -> list[tuple]:
    """The curve's points after the baseline: (removed count, keep vectors
    of every node layer, first hidden layer the point's batch touches)."""
    ranked = _ranked_nodes(net, mode)
    keep = [np.ones(n, dtype=bool) for n in net.layer_sizes]
    plan = []
    for count in range(step, len(ranked) + 1, step):
        removed = ranked[count - step : count]
        new = [k.copy() for k in keep]
        for _, l, j in removed:
            new[l + 1][j] = False
        if not all(k.any() for k in new[1:-1]):
            break
        plan.append((count, new, 1 + min(l for _, l, _ in removed)))
        keep = new
    return plan


def _curve_points(
    net: MlpNetwork, mode: Mode, batches: list, n: int, plan: list[tuple], points: range
) -> list[tuple[int, float]]:
    """(count, accuracy) at each of plan's points indexed by points, from net's layers.

    Each point is cut by _cut from the previous drawn point's layers, and each
    eval batch of trainer.eval_batches, the loop behind evaluate, re-runs
    only the layers from the shallowest one that any batch since that point
    touched on its cached activations (batches, updated in place). Every
    GEMM thus has a per-point apply_mask + evaluate rebuild's operands and
    shape, and every accuracy its bits.
    """
    keep = [np.ones(k, dtype=bool) for k in net.layer_sizes]
    layers = net.layers
    curve, done = [], 0
    for i in points:
        count, new, _ = plan[i]
        first = min(f for _, _, f in plan[done : i + 1])
        layers = _cut(net, mode, layers, keep, new, first)
        keep, done = new, i + 1
        suffix = MlpNetwork(layers[first - 1 :])
        for zs, _ in batches:
            zs[first:] = forward_batch(suffix, zs[first - 1])[1:]
        curve.append((count, _accuracy(batches, n)))
    return curve


def _accuracy(batches: list, n: int) -> float:
    return sum(count_hits(zs[-1], y) for zs, y in batches) / n


def _fork(task) -> tuple[int, BinaryIO]:
    """Run task in a forked child; return the child's pid and a reader of
    the pipe that carries (True, result) or (False, exception), pickled.

    The child inherits the caller's memory, BLAS threads and any installed
    tracer wrappers, and leaves through os._exit, so no exit handler runs
    twice and no output the caller buffered is written twice.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            os.close(r)
            try:
                payload = pickle.dumps((True, task()))
            except BaseException as e:
                payload = pickle.dumps((False, e))
            with open(w, "wb") as f:
                f.write(payload)
        finally:
            os._exit(0)
    os.close(w)
    return pid, open(r, "rb")


def _result(pid: int, reader: BinaryIO):
    """The result a _fork child sent, or its exception raised here."""
    payload = reader.read()
    if not payload:
        raise ChildProcessError(f"curve worker {pid} ended without a result")
    ok, value = pickle.loads(payload)  # bytes our own child wrote
    if not ok:
        raise value
    return value


def curve_workers() -> int:
    """Curve workers for analyze: usable cores divided by BLAS threads.

    BLAS threads are read from OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
    MKL_NUM_THREADS, the first one set; an unset or invalid value counts
    as every usable core, so by default one worker, the caller, runs. So
    do systems without os.fork or os.sched_getaffinity. Workers times
    BLAS threads never exceed the usable cores.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    value = next((os.environ[v] for v in BLAS_THREADS_ENV if v in os.environ), "")
    try:
        threads = int(value)
    except ValueError:  # unset or not a number: BLAS may use every core
        return 1
    return max(1, len(os.sched_getaffinity(0)) // threads) if threads > 0 else 1


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
