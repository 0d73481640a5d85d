"""Structural node removal driven by group norms.

The selection procedure: take every hidden node's group norm on the
trained network once (group_norms), keep those at least theta (make_mask)
or all but the n smallest (match_count_mask), which read only those
arrays, then rebuild the network without the dropped nodes. In incoming
mode a dropped node still emits the constant sigmoid(bias), so that
contribution is folded into the next layer's biases before its outgoing
column is removed; in outgoing mode the column itself is near zero and
no compensation is needed. All masks are fixed before any structural edit.
One cut (_cut) serves prune and the forced-removal curve, which removes
nodes in ascending order of the scores it is given, group norms or any
other. A curve point is a removed count and keep vectors; each is cut from
the previous point's layers and re-runs only the layers from the first one
sliced, on the GEMM operands apply_mask would give. The points can be dealt
round-robin to forked workers, one per free core (curve_workers), with the
same result: each writes its accuracies into one array shared with the caller.
"""

from __future__ import annotations

import functools
import mmap
import os
import re
import signal
import sys
import traceback
import warnings

import numpy as np

from .datasets import Dataset
from .errors import ShapeMismatchError
from .linalg import sigmoid
from .network import LayerParams, MlpNetwork, forward_batch
from .regularization import Mode, below_theta
from .trainer import accuracy, eval_batches

DEFAULT_STEP = 100  # nodes removed per forced-removal curve point
# variables that set BLAS threads, read in this order by curve_workers
BLAS_THREADS_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def make_mask(norms: list[np.ndarray], theta: float) -> list[np.ndarray]:
    """Per hidden layer of group_norms' norms, a bool keep vector: True for
    each node whose group norm is at least theta.

    A layer is never emptied: if every node falls below theta the
    largest-norm one is retained and a warning is issued.
    """
    keep = [~below for below in below_theta(norms, theta)]
    for l, k in enumerate(keep, start=1):
        if not k.any():
            k[int(np.argmax(norms[l - 1]))] = True
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
    _check_lengths(net, keep, "mask")
    for l, k in enumerate(keep, start=1):
        if not k.any():
            raise ValueError(f"mask would empty hidden layer {l}")
    full = [np.ones(n, dtype=bool) for n in net.layer_sizes]
    return MlpNetwork(_cut(net, mode, net.layers, full, [full[0], *keep, full[-1]])[0])


def _check_lengths(net: MlpNetwork, per_node: list, what: str) -> None:
    """Raise ShapeMismatchError unless per_node has one entry per node of each hidden layer."""
    if (lengths := [len(a) for a in per_node]) != net.hidden_sizes:
        raise ShapeMismatchError(
            f"{what} lengths {lengths} do not match hidden layer sizes {net.hidden_sizes}"
        )


def _cut(
    net: MlpNetwork, mode: Mode, layers: list, keep: list, new: list
) -> tuple[list[LayerParams], int]:
    """Cut layers, net's layers under keep vectors keep, down to keep vectors
    new; return them and the first layer sliced (0 if none is).

    keep and new hold one bool vector per node layer, input (index 0) and
    output (index L) included. Layers whose rows or columns shrink are
    sliced, and in GLASSO_IN mode one that loses inputs gets its bias
    refolded from net's layer; the rest are shared, not copied.
    """
    layers, first = list(layers), 0
    for l in range(1, len(layers) + 1):
        rows, cols = new[l][keep[l]], new[l - 1][keep[l - 1]]
        if rows.all() and cols.all():
            continue
        first = first or l
        p = layers[l - 1]
        refold = mode is Mode.GLASSO_IN and not cols.all()
        bias = _folded_bias(net, l, ~new[l - 1])[new[l]] if refold else p.bias[rows]
        layers[l - 1] = LayerParams(p.weights[:, cols][rows], bias)
    return layers, first


def _folded_bias(net: MlpNetwork, l: int, dropped: np.ndarray) -> np.ndarray:
    """b^l plus each dropped node j's constant output sigmoid(b^(l-1)_j), via column j of W^l."""
    p = net.layers[l - 1]
    return p.bias + p.weights[:, dropped] @ sigmoid(net.layers[l - 2].bias[dropped])


def _ranked_nodes(norms: list[np.ndarray]) -> list[tuple[float, int, int]]:
    """All hidden nodes of per-layer norms as (norm, layer_index, node_index), ascending."""
    return sorted(
        (float(norm), l, j) for l, layer in enumerate(norms) for j, norm in enumerate(layer)
    )


def forced_removal_curve(
    net: MlpNetwork,
    mode: Mode,
    norms: list[np.ndarray],
    eval_set: Dataset,
    step: int = DEFAULT_STEP,
    workers: int = 1,
) -> list[tuple[int, float]]:
    """Accuracy after cumulative removal in batches of step, in ascending
    order of norms (any per-node scores); mode sets only _cut's bias fold.

    The curve starts at (0, unpruned accuracy) and stops before any batch
    that would empty a hidden layer. Its points are dealt round-robin to W =
    max(1, min(workers, points)) workers: worker k draws plan[k::W] (see
    _curve_points). The caller is worker 0 and a forked child each other
    one, and the curve is the same for any workers. Each writes its
    accuracies into one array over memory the caller shares with its
    children; a child that does not exit 0 raises ChildProcessError here.
    The step check, the score and data shape checks and the baseline eval
    pass run before any fork.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    _check_lengths(net, norms, "score")
    batches = list(eval_batches(net, eval_set))
    plan = _curve_plan(net, norms, step)
    curve = [(0, accuracy(batches, eval_set.n))]
    w = max(1, min(workers, len(plan)))
    # an anonymous mapping is MAP_SHARED: the children's writes reach the caller
    acc = np.frombuffer(mmap.mmap(-1, 8 * max(1, len(plan))), dtype=np.float64)
    draw = functools.partial(_curve_points, net, mode, batches, eval_set.n, plan, acc, w)
    pids = []
    try:
        for k in range(1, w):
            pids.append(_fork(functools.partial(draw, k)))
        draw(0)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        failed = [pid for pid in pids if os.waitpid(pid, 0)[1]]  # reap every child
    if failed:
        raise ChildProcessError(f"curve worker {failed[0]} ended without a result")
    return curve + [(count, float(a)) for (count, _), a in zip(plan, acc)]


def _curve_plan(net: MlpNetwork, norms: list[np.ndarray], step: int) -> list[tuple]:
    """The curve's points after the baseline, removing nodes in ascending
    order of norms: (removed count, keep vectors of every node layer)."""
    ranked = _ranked_nodes(norms)
    keep = [np.ones(n, dtype=bool) for n in net.layer_sizes]
    plan = []
    for count in range(step, len(ranked) + 1, step):
        new = [k.copy() for k in keep]
        for _, l, j in ranked[count - step : count]:
            new[l + 1][j] = False
        if not all(k.any() for k in new[1:-1]):
            break
        plan.append((count, new))
        keep = new
    return plan


def _curve_points(
    net: MlpNetwork, mode: Mode, batches: list, n: int, plan: list[tuple],
    acc: np.ndarray, w: int, k: int,
) -> None:
    """Write acc[i], the accuracy at plan[i], for i = k, k + w, ..., from net's layers.

    Each point is cut by _cut from the previous point's layers, and each
    eval batch of trainer.eval_batches, the loop behind evaluate, re-runs
    only the layers from the first one that cut sliced on its cached
    activations (batches, updated in place). Every GEMM thus has a
    per-point apply_mask + evaluate rebuild's operands and shape, and
    trainer.accuracy, evaluate's sum, gives every accuracy its bits.
    """
    keep = [np.ones(size, dtype=bool) for size in net.layer_sizes]
    layers = net.layers
    for i in range(k, len(plan), w):
        new = plan[i][1]
        layers, first = _cut(net, mode, layers, keep, new)
        keep = new
        suffix = MlpNetwork(layers[first - 1 :])
        for zs, _ in batches:
            zs[first:] = forward_batch(suffix, zs[first - 1])[1:]
        acc[i] = accuracy(batches, n)


def _fork(task) -> int:
    """Run task in a forked child and return its pid. The child exits 0
    once task returns; if task raises, it prints the traceback to stderr
    and exits 1.

    The child inherits the caller's memory, BLAS threads and any installed
    tracer wrappers, and leaves through os._exit, so no exit handler runs
    twice and no output the caller buffered is written twice.
    """
    pid = os.fork()
    if pid == 0:
        try:
            task()
            os._exit(0)
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(1)
    return pid


def curve_workers() -> int:
    """Curve workers for analyze: usable cores divided by BLAS threads.

    BLAS threads are read as OpenBLAS reads them: from OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS or OMP_NUM_THREADS, the first one set to a positive
    count, each parsed as C atoi parses it: leading whitespace, a sign, then
    the ASCII digits that follow, 0 if there are none. With no positive count
    BLAS may use every usable core, so one worker, the caller, runs. So do
    systems without os.fork or os.sched_getaffinity. Workers times BLAS
    threads never exceed the usable cores.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    counts = (re.match(r"[ \t\n\v\f\r]*([+-]?[0-9]+)?", os.environ.get(v, ""))[1]
              for v in BLAS_THREADS_ENV)
    threads = next((int(c) for c in counts if c and int(c) > 0), 0)
    return max(1, len(os.sched_getaffinity(0)) // threads) if threads else 1


def match_count_mask(norms: list[np.ndarray], n_remove: int) -> list[np.ndarray]:
    """Keep vectors removing exactly the n_remove smallest of group_norms' norms.

    Nodes whose removal would empty their layer are skipped in favor of the
    next-smallest candidates.
    """
    if n_remove < 0:
        raise ValueError(f"n_remove must be >= 0, got {n_remove}")
    hidden = [len(layer) for layer in norms]
    keep = [np.ones(n, dtype=bool) for n in hidden]
    removed = 0
    for _, l, j in _ranked_nodes(norms):
        if removed == n_remove:
            break
        if keep[l].sum() == 1:
            continue
        keep[l][j] = False
        removed += 1
    if removed < n_remove:
        raise ValueError(
            f"cannot remove {n_remove} of {sum(hidden)} hidden nodes while "
            f"keeping one per layer"
        )
    return keep
