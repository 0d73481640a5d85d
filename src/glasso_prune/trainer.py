"""Minibatch SGD with momentum on the regularized cross-entropy loss.

Per update: v <- momentum * v - lr * (mean CE gradient + regularizer
gradient), params <- params + v. The CE gradient (network.batch_gradients)
is averaged over the minibatch while the regularizer gradient enters once
at full strength.
An epoch's train loss and accuracy are running means over its minibatches,
each taken at the weights before that minibatch's step, so they cost no
extra forward pass; the loss adds the penalty at the epoch-end weights.
Epoch shuffles come from a counter-based RNG keyed on (seed, epoch), so a
run is fully reproducible from its config.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datasets import Dataset
from .errors import DataFormatError, ShapeMismatchError, TrainingDiverged
from .network import (
    GradientSet, MlpNetwork, batch_gradients, cross_entropy, forward_batch, softmax_terms,
)
from .regularization import Mode, RegularizerSpec, below_theta, regularizer_gradient, regularizer_value


# beta_coupling = true trains with beta = COUPLED_BETA_RATIO * alpha
COUPLED_BETA_RATIO = 0.1


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
        # Mode and RegularizerSpec check mode, alpha and beta
        self.regularizer_spec()
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
        if not 0 < self.theta < np.inf:
            raise ValueError(f"theta must be positive and finite, got {self.theta}")

    def regularizer_spec(self) -> RegularizerSpec:
        """The run's penalty, with beta already coupled to alpha if asked."""
        beta = COUPLED_BETA_RATIO * self.alpha if self.beta_coupling else self.beta
        return RegularizerSpec(mode=Mode.from_string(self.mode), alpha=self.alpha, beta=beta)


@dataclass
class EpochReport:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_accuracy: float
    disposable_per_layer: list[int] = field(default_factory=list)

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "epoch": self.epoch,
                "train_loss": self.train_loss,
                "train_acc": self.train_accuracy,
                "val_acc": self.val_accuracy,
                "disposable": self.disposable_per_layer,
            }
        )

    @classmethod
    def from_json_line(cls, line: str) -> "EpochReport":
        """Parse one history line; a missing key or wrong type raises."""
        doc = json.loads(line)
        epoch, disposable = doc["epoch"], doc["disposable"]
        metrics = [doc[key] for key in ("train_loss", "train_acc", "val_acc")]
        if not _is_int(epoch):
            raise TypeError(f"'epoch' must be an integer, got {epoch!r}")
        if not all(isinstance(m, (int, float)) and not isinstance(m, bool) for m in metrics):
            raise TypeError(f"train_loss, train_acc and val_acc must be numbers, got {metrics!r}")
        if not (isinstance(disposable, list) and all(_is_int(c) and c >= 0 for c in disposable)):
            raise TypeError(
                f"'disposable' must be a list of non-negative integers, got {disposable!r}"
            )
        return cls(
            epoch=epoch,
            train_loss=float(metrics[0]),
            train_accuracy=float(metrics[1]),
            val_accuracy=float(metrics[2]),
            disposable_per_layer=disposable,
        )


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass
class TrainResult:
    best_network: MlpNetwork
    best_epoch: int
    history: list[EpochReport]


def load_history(path) -> list[EpochReport]:
    """Parse a history.jsonl file; a malformed line raises DataFormatError.

    Each line is decoded as UTF-8 on its own, so a line that is not UTF-8
    is reported by number like any other malformed line.
    """
    reports = []
    for i, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
            if line.strip():
                reports.append(EpochReport.from_json_line(line))
        except (ValueError, KeyError, TypeError) as e:
            raise DataFormatError(
                f"{path}, line {i}: not an epoch record ({type(e).__name__}: {e})"
            ) from None
    return reports


def disposable_counts(net: MlpNetwork, mode: Mode, threshold: float) -> list[int]:
    """Hidden nodes per layer whose group norm falls below the threshold."""
    return [int(np.sum(below)) for below in below_theta(net, mode, threshold)]


class _EvalBuffers(threading.local):
    """Per-thread activation buffers for evaluation forward passes.

    One flat float64 buffer per layer slot, replaced by a larger one only
    when a request outgrows it, so a pass over a dataset, and the passes
    over ever narrower pruned networks, reuse the same memory instead of
    allocating (and page-faulting in) fresh arrays for every batch.
    """

    def __init__(self):
        self.flat: list[np.ndarray] = []

    def views(self, rows: int, widths: list[int]) -> list[np.ndarray]:
        """C-ordered (rows, width) views, one per slot, valid until the next call."""
        self.flat += [np.empty(0)] * (len(widths) - len(self.flat))
        views = []
        for slot, width in enumerate(widths):
            if self.flat[slot].size < rows * width:
                self.flat[slot] = np.empty(rows * width)
            views.append(self.flat[slot][: rows * width].reshape(rows, width))
        return views


_eval_buffers = _EvalBuffers()


def _logit_batches(net: MlpNetwork, dataset: Dataset, batch_size: int):
    """Yield (logits, labels) for consecutive batches of a non-empty dataset.

    The logits live in this thread's _EvalBuffers and are overwritten by
    the next batch, so a consumer must finish with each batch before
    asking for the next one and must not keep the array; evaluate and
    mean_loss reduce each batch to numbers first. Training never calls
    this on the train set: its epoch report comes from the SGD steps.
    """
    if dataset.n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    _check_shapes(net, dataset)
    widths = [p.n_out for p in net.layers]
    for start in range(0, dataset.n, batch_size):
        stop = min(start + batch_size, dataset.n)
        out = _eval_buffers.views(stop - start, widths)
        logits = forward_batch(net, dataset.features[start:stop], out=out)[-1]
        yield logits, dataset.labels[start:stop]


def evaluate(net: MlpNetwork, dataset: Dataset, batch_size: int = 512) -> float:
    """Fraction of samples whose argmax logit matches the label."""
    hits = 0
    for logits, labels in _logit_batches(net, dataset, batch_size):
        hits += int(np.sum(np.argmax(logits, axis=1) == labels))
    return hits / dataset.n


def mean_loss(net: MlpNetwork, dataset: Dataset, batch_size: int = 512) -> tuple[float, float]:
    """Mean cross-entropy (no regularizer term) and accuracy, in one pass.

    The accuracy equals evaluate(net, dataset, batch_size) exactly. This is
    the loss of a fixed network; the trainer's epoch report does not use
    it (see the module docstring).
    """
    total = 0.0
    hits = 0
    for logits, labels in _logit_batches(net, dataset, batch_size):
        shifted, _, sums = softmax_terms(logits)
        total += float(np.sum(cross_entropy(shifted, sums, labels)))
        hits += int(np.sum(np.argmax(logits, axis=1) == labels))
    return total / dataset.n, hits / dataset.n


def _check_shapes(net: MlpNetwork, dataset: Dataset) -> None:
    if dataset.dim != net.layers[0].n_in:
        raise ShapeMismatchError(
            f"dataset dim {dataset.dim} does not match network input "
            f"{net.layers[0].n_in}"
        )
    if dataset.n and int(dataset.labels.max()) >= net.layers[-1].n_out:
        raise ShapeMismatchError(
            f"label {int(dataset.labels.max())} out of range for "
            f"{net.layers[-1].n_out} output nodes"
        )


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    # Philox is counter-based; keying on (seed, epoch) decouples the
    # shuffle sequence from everything else in the run.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, epoch])))


def train(
    net: MlpNetwork,
    train_set: Dataset,
    val_set: Dataset,
    cfg: TrainConfig,
    log_path=None,
) -> TrainResult:
    """Run the full training schedule and return the best-validation snapshot.

    The input network is left untouched; training operates on a copy. When
    log_path is given, one EpochReport JSON line is appended per epoch.
    """
    _check_shapes(net, train_set)
    _check_shapes(net, val_set)
    spec = cfg.regularizer_spec()
    net = net.copy()
    velocity = GradientSet.zeros_like(net)
    history: list[EpochReport] = []
    best_net = net.copy()
    best_epoch = 0
    best_val = -1.0
    lr = cfg.learning_rate
    log_file = open(log_path, "w", encoding="utf-8", newline="") if log_path else None
    try:
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
                regularizer_gradient(net, spec, grads)
                for l, p in enumerate(net.layers):
                    vw, vb = velocity.d_weights[l], velocity.d_biases[l]
                    gw, gb = grads.d_weights[l], grads.d_biases[l]
                    gw *= lr
                    gb *= lr
                    vw *= cfg.momentum
                    vw -= gw
                    vb *= cfg.momentum
                    vb -= gb
                    p.weights += vw
                    p.bias += vb
            report = EpochReport(
                epoch=epoch,
                train_loss=ce_sum / train_set.n + regularizer_value(net, spec),
                train_accuracy=hit_sum / train_set.n,
                val_accuracy=evaluate(net, val_set),
                disposable_per_layer=(
                    disposable_counts(net, spec.mode, cfg.theta) if spec.mode.grouped else []
                ),
            )
            history.append(report)
            if log_file:
                log_file.write(report.to_json_line() + "\n")
                log_file.flush()
            # >= so ties go to the latest epoch: with equal validation
            # accuracy the later snapshot has had more time to shrink
            # group norms, which is the model worth keeping.
            if report.val_accuracy >= best_val:
                best_val = report.val_accuracy
                best_epoch = epoch
                best_net = net.copy()
            lr *= cfg.lr_decay
    finally:
        if log_file:
            log_file.close()
    return TrainResult(best_network=best_net, best_epoch=best_epoch, history=history)
