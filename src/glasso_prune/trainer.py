"""Minibatch SGD with momentum on the regularized cross-entropy loss.

Per update: v <- momentum * v - lr * (mean CE gradient + regularizer
gradient), params <- params + v. The CE gradient (network.batch_gradients)
is averaged over the minibatch while the regularizer gradient enters once
at full strength. _sgd_step is the one place the parameters change.
An epoch's train loss and accuracy are running means over its minibatches,
each taken at the weights before that minibatch's step, so they cost no
extra forward pass; the loss adds the penalty at the epoch-end weights.
Epoch shuffles come from a counter-based RNG keyed on (seed, epoch), so a
run is fully reproducible. accuracy, the one hit-count sum, scores evaluate
and every curve point. The SGD loop computes in float32 and returns its best
snapshot as that float32 network, so the model file stores it as trained and
every evaluation after the loop, the validation accuracy that chose it
included, computes on the same values in the same dtype.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from .datasets import Dataset
from .errors import ShapeMismatchError, TrainingDiverged
from .network import (
    LayerParams, MlpNetwork, batch_gradients, count_hits, cross_entropy, forward_batch,
    softmax_terms, zero_layers,
)
from .regularization import Mode, below_theta, group_norms, regularizer_gradient, regularizer_value


# beta_coupling = true trains with beta = COUPLED_BETA_RATIO * alpha
COUPLED_BETA_RATIO = 0.1
TRAIN_DTYPE = np.float32
# Rows per eval_batches forward pass. Row counts can move a GEMM's last bit, so
# evaluate, mean_loss and every forced-removal curve point batch through it.
EVAL_BATCH = 512


@dataclass(kw_only=True)
class TrainConfig:
    # Every key training reads, with its default; ExperimentConfig inherits
    # them, so these are also the config-file keys of the same names.
    mode: str
    alpha: float = 0.0
    beta: float = 0.0
    beta_coupling: bool = False
    epochs: int = 20
    batch_size: int = 128
    learning_rate: float = 0.1
    momentum: float = 0.9
    lr_decay: float = 1.0
    seed: int = 0
    theta: float = 1e-2  # group norm below this counts a node as disposable

    def __post_init__(self):
        if self.beta_coupling and self.beta != 0:
            raise ValueError("key 'beta' must be 0 when key 'beta_coupling' sets it from alpha")
        mode = Mode(self.mode)
        if self.alpha < 0 or self.beta < 0:
            raise ValueError(f"alpha and beta must be nonnegative, got {self.alpha}, {self.beta}")
        if mode is Mode.L2_ALL and self.alpha != 0:
            raise ValueError("alpha must be 0 in L2_ALL mode (no grouped penalty)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError(
                f"epochs and batch_size must be >= 1, got {self.epochs}, {self.batch_size}"
            )
        # zero is allowed so a no-op schedule stays expressible
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 < self.lr_decay <= 1:
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.seed < 0:
            raise ValueError(f"key 'seed' must be nonnegative, got {self.seed}")
        below_theta([], self.theta)  # theta's one check


@dataclass
class EpochReport:
    """One history.jsonl record: the fields are its keys, in file order."""

    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float
    disposable: list[int] = field(default_factory=list)

    def to_json_line(self) -> str:
        return json.dumps(asdict(self))


@dataclass
class TrainResult:
    best_network: MlpNetwork
    best_epoch: int
    best_val_accuracy: float  # of best_network, the largest in history
    history: list[EpochReport]


def disposable_counts(norms: list[np.ndarray], threshold: float) -> list[int]:
    """Hidden nodes per layer of group_norms' norms that fall below the threshold."""
    return [int(np.sum(below)) for below in below_theta(norms, threshold)]


def eval_batches(net: MlpNetwork, dataset: Dataset):
    """Check shapes, then yield (forward_batch activations, labels) for
    consecutive EVAL_BATCH-row slices of a dataset.

    Training never calls this on the train set: its epoch report comes
    from the SGD steps.
    """
    check_shapes(net, dataset)
    for start in range(0, dataset.n, EVAL_BATCH):
        stop = start + EVAL_BATCH
        yield forward_batch(net, dataset.features[start:stop]), dataset.labels[start:stop]


def accuracy(batches, n: int) -> float:
    """Fraction of n samples whose argmax logit matches the label, over (activations, labels)."""
    return sum(count_hits(zs[-1], labels) for zs, labels in batches) / n


def evaluate(net: MlpNetwork, dataset: Dataset) -> float:
    """Fraction of samples whose argmax logit matches the label."""
    return accuracy(eval_batches(net, dataset), dataset.n)


def mean_loss(net: MlpNetwork, dataset: Dataset) -> float:
    """Mean cross-entropy of a fixed network, no regularizer term.

    evaluate gives its accuracy. The trainer's epoch report does not use
    it (see the module docstring).
    """
    total = 0.0
    for zs, labels in eval_batches(net, dataset):
        shifted, _, sums = softmax_terms(zs[-1])
        total += float(np.sum(cross_entropy(shifted, sums, labels)))
    return total / dataset.n


def check_shapes(net: MlpNetwork, dataset: Dataset) -> None:
    """Raise ValueError if the dataset is empty, ShapeMismatchError if it does not fit net."""
    if dataset.n == 0:
        raise ValueError("dataset is empty: no samples to train on or evaluate")
    if dataset.dim != net.layers[0].n_in:
        raise ShapeMismatchError(
            f"dataset dim {dataset.dim} does not match network input "
            f"{net.layers[0].n_in}"
        )
    if int(dataset.labels.max()) >= net.layers[-1].n_out:
        raise ShapeMismatchError(
            f"label {int(dataset.labels.max())} out of range for "
            f"{net.layers[-1].n_out} output nodes"
        )


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    # Philox is counter-based; keying on (seed, epoch) decouples the
    # shuffle sequence from everything else in the run.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, epoch])))


def _sgd_step(
    net: MlpNetwork, velocity: list[LayerParams], grads: list[LayerParams],
    lr: float, momentum: float,
) -> None:
    """v <- momentum * v - lr * g, then p <- p + v, in place on every array (g included)."""
    for layer, vel, grad in zip(net.layers, velocity, grads):
        arrays = ((layer.weights, vel.weights, grad.weights), (layer.bias, vel.bias, grad.bias))
        for p, v, g in arrays:
            g *= lr
            v *= momentum
            v -= g
            p += v


def train(
    net: MlpNetwork,
    train_set: Dataset,
    val_set: Dataset,
    cfg: TrainConfig,
    log_path=None,
) -> TrainResult:
    """Run the full training schedule and return the best-validation snapshot.

    The input network is only read: training operates on a float32 copy,
    and the snapshot is returned in float32, so a caller that keeps no
    reference to the input lets it be freed once the copy is made. The
    snapshot starts empty: epoch 1 always takes it, since epochs >= 1.
    When log_path is given, one EpochReport JSON line is appended per epoch.
    An overflow raises no numpy warning: TrainingDiverged is its one report.
    """
    check_shapes(net, train_set)
    check_shapes(net, val_set)
    mode = Mode(cfg.mode)
    beta = COUPLED_BETA_RATIO * cfg.alpha if cfg.beta_coupling else cfg.beta
    net = net.copy(TRAIN_DTYPE)
    velocity = zero_layers(net)
    history: list[EpochReport] = []
    best_net = None
    best_epoch = 0
    best_val = -1.0
    lr = cfg.learning_rate
    with (open(log_path, "w", encoding="utf-8", newline="") if log_path else nullcontext() as log,
          np.errstate(over="ignore", invalid="ignore")):
        for epoch in range(1, cfg.epochs + 1):
            perm = _epoch_rng(cfg.seed, epoch).permutation(train_set.n)
            ce_sum = 0.0
            hit_sum = 0
            for batch_no, start in enumerate(range(0, train_set.n, cfg.batch_size)):
                idx = perm[start : start + cfg.batch_size]
                loss, hits, grads = batch_gradients(
                    net, train_set.features[idx], train_set.labels[idx]
                )
                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, batch {batch_no}"
                    )
                ce_sum += loss * len(idx)
                hit_sum += hits
                regularizer_gradient(net, mode, cfg.alpha, beta, grads)
                _sgd_step(net, velocity, grads, lr, cfg.momentum)
                del grads  # so the next batch_gradients is not allocated beside it
            norms = group_norms(net, mode)
            report = EpochReport(
                epoch=epoch,
                train_loss=ce_sum / train_set.n
                + regularizer_value(net, mode, norms, cfg.alpha, beta),
                train_acc=hit_sum / train_set.n,
                val_acc=evaluate(net, val_set),
                disposable=disposable_counts(norms, cfg.theta),
            )
            # a step can diverge after its minibatch loss passed the check above
            if not np.isfinite(report.train_loss):
                raise TrainingDiverged(f"non-finite train loss at the end of epoch {epoch}")
            history.append(report)
            if log:
                log.write(report.to_json_line() + "\n")
                log.flush()
            # >= so ties go to the latest epoch: with equal validation
            # accuracy the later snapshot has had more time to shrink
            # group norms, which is the model worth keeping.
            if report.val_acc >= best_val:
                best_val = report.val_acc
                best_epoch = epoch
                best_net = net.copy()
            lr *= cfg.lr_decay
    return TrainResult(best_net, best_epoch, best_val, history)
