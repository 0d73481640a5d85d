"""Deterministic dataset loading and synthesis.

All loaders return a Dataset whose features are an (n, dim) float64 array
and whose labels are int64 class indices below num_classes. Loaders fail
loudly on malformed input; nothing is silently truncated.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError

IDX_IMAGE_MAGIC = 0x00000803  # u8 tensor, 3 dimensions
IDX_LABEL_MAGIC = 0x00000801  # u8 vector, 1 dimension


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DataFormatError(f"features must be 2-d, got shape {self.features.shape}")
        if self.labels.ndim != 1 or len(self.labels) != len(self.features):
            raise DataFormatError(
                f"labels shape {self.labels.shape} does not match "
                f"{len(self.features)} samples"
            )
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DataFormatError(
                f"labels must lie in [0, {self.num_classes}), "
                f"got range [{self.labels.min()}, {self.labels.max()}]"
            )

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _read_u32_be(data: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(data):
        raise DataFormatError(f"{path}: truncated header at byte {offset}")
    return struct.unpack_from(">I", data, offset)[0]


def _read_idx(path: str, magic: int, kind: str) -> tuple[list[int], np.ndarray]:
    """(dims, u8 items) of an IDX file; the magic's low byte counts the dims.

    kind names the items in the error for a payload of the wrong length.
    """
    data = Path(path).read_bytes()
    found = _read_u32_be(data, 0, path)
    if found != magic:
        raise DataFormatError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
    ndim = magic & 0xFF
    dims = [_read_u32_be(data, 4 + 4 * i, path) for i in range(ndim)]
    body = data[4 + 4 * ndim :]
    if len(body) != math.prod(dims):
        raise DataFormatError(f"{path}: expected {math.prod(dims)} {kind} bytes, got {len(body)}")
    return dims, np.frombuffer(body, dtype=np.uint8)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair (the MNIST container format).

    Pixels are scaled to [0, 1] by /255.
    """
    images_path, labels_path = str(images_path), str(labels_path)
    (count, rows, cols), pixels = _read_idx(images_path, IDX_IMAGE_MAGIC, "pixel")
    (lab_count,), labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "label")
    if lab_count != count:
        raise DataFormatError(
            f"count mismatch: {images_path} has {count} images but "
            f"{labels_path} has {lab_count} labels"
        )
    if count == 0 or rows * cols == 0:
        raise DataFormatError(f"{images_path}: no data in {count} images of {rows}x{cols} pixels")
    features = (pixels.astype(np.float64) / 255.0).reshape(count, rows * cols)
    return Dataset(features, labels, int(labels.max()) + 1)


def _csv_rows(path: str, text: str):
    """Yield (row number, cells) for each CSV row of text, the first numbered 1.

    A row that csv cannot read, such as one with a cell past
    csv.field_size_limit() or, on Python 3.10, a NUL, raises DataFormatError.
    """
    row_no = 0
    try:
        for row_no, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
            yield row_no, row
    except csv.Error as e:
        raise DataFormatError(f"{path}: row {row_no + 1} is not valid CSV ({e})") from None


def load_csv(path, label_column: str) -> Dataset:
    """Numeric CSV with a header row; the one column named label_column
    holds integer labels, and a header naming it twice is rejected.

    Every cell must be a finite number: nan and inf are rejected, not
    carried into training. The file is UTF-8 text, with or without a
    byte-order mark; any other file is rejected with the row (counting the
    header as row 1) where decoding fails.
    """
    path = str(path)
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        row_no = raw.count(b"\n", 0, e.start) + 1
        raise DataFormatError(
            f"{path}: row {row_no} is not UTF-8 text ({e.reason})"
        ) from None
    rows = _csv_rows(path, text.removeprefix("\ufeff"))
    try:
        _, header = next(rows)
    except StopIteration:
        raise DataFormatError(f"{path}: empty file") from None
    repeats = header.count(label_column)
    if repeats == 0:
        raise DataFormatError(
            f"{path}: label column {label_column!r} not in header {header}"
        )
    if repeats > 1:
        raise DataFormatError(
            f"{path}: label column {label_column!r} appears {repeats} times in header {header}"
        )
    if len(header) == 1:
        raise DataFormatError(f"{path}: no feature columns besides {label_column!r}")
    label_idx = header.index(label_column)
    features, labels = [], []
    for row_no, row in rows:
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
            )
        try:
            values = [float(c) for c in row]
        except ValueError:
            raise DataFormatError(
                f"{path}: row {row_no} contains a non-numeric cell"
            ) from None
        for name, value in zip(header, values):
            if not math.isfinite(value):
                raise DataFormatError(
                    f"{path}: row {row_no} column {name!r} is not finite ({value})"
                )
        label = values.pop(label_idx)
        if label != int(label):
            raise DataFormatError(
                f"{path}: row {row_no} label {label} is not an integer"
            )
        if not 0 <= label < 2**63:  # a class index that fits the labels' int64
            raise DataFormatError(f"{path}: row {row_no} label {label} is outside [0, 2**63)")
        features.append(values)
        labels.append(int(label))
    if not features:
        raise DataFormatError(f"{path}: no data rows")
    labels_arr = np.array(labels, dtype=np.int64)
    return Dataset(np.array(features), labels_arr, int(labels_arr.max()) + 1)


def check_synth_sizes(num_classes: int, dim: int, n_per_class: int) -> None:
    """Raise ValueError, naming the first failing config key, unless 'synth_classes'
    is >= 2 and 'synth_dim' and 'synth_per_class' are >= 1.
    """
    for key, value, least in (("synth_classes", num_classes, 2), ("synth_dim", dim, 1),
                              ("synth_per_class", n_per_class, 1)):
        if value < least:
            raise ValueError(f"key {key!r} must be >= {least}, got {value}")


def synth_gaussians(
    num_classes: int,
    dim: int,
    n_per_class: int,
    separation: float,
    seed: int,
) -> Dataset:
    """Isotropic unit-noise Gaussian blobs on near-orthogonal directions.

    Class k is centered at separation * u_k. When num_classes <= dim the
    directions are exactly orthonormal (QR of a seeded Gaussian matrix);
    otherwise they are normalized Gaussian draws.
    """
    check_synth_sizes(num_classes, dim, n_per_class)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, num_classes))
    if num_classes <= dim:
        q, _ = np.linalg.qr(g)
        directions = q.T  # (num_classes, dim), orthonormal rows
    else:
        directions = g.T / np.linalg.norm(g.T, axis=1, keepdims=True)
    features = np.empty((num_classes * n_per_class, dim))
    labels = np.empty(num_classes * n_per_class, dtype=np.int64)
    for k in range(num_classes):
        block = slice(k * n_per_class, (k + 1) * n_per_class)
        features[block] = separation * directions[k] + rng.standard_normal(
            (n_per_class, dim)
        )
        labels[block] = k
    return Dataset(features, labels, num_classes)


def check_split_fractions(fractions: list[float]) -> None:
    """Raise ValueError unless config key 'split_fractions' holds three positives summing to 1."""
    if len(fractions) != 3:
        raise ValueError(f"key 'split_fractions' needs exactly three values, got {fractions}")
    if min(fractions) <= 0:
        raise ValueError(f"key 'split_fractions' must all be positive, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"key 'split_fractions' must sum to 1, got sum {sum(fractions)!r}")


def split(
    ds: Dataset, fractions: list[float], seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded shuffle, then contiguous train/val/test cut.

    Sizes are round(n * fraction) for train and val, remainder for test.
    No split may be empty, and every class must appear in the train split.
    """
    check_split_fractions(fractions)
    perm = np.random.default_rng(seed).permutation(ds.n)
    n_train = int(round(ds.n * fractions[0]))
    n_val = int(round(ds.n * fractions[1]))
    cuts = [perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]]
    if min(map(len, cuts)) == 0:
        raise ValueError(f"key 'split_fractions' {fractions} leaves a split empty: "
                         f"train/val/test sizes {'/'.join(str(len(c)) for c in cuts)}")
    parts = [Dataset(ds.features[c], ds.labels[c], ds.num_classes) for c in cuts]
    train_classes = set(parts[0].labels.tolist())
    missing = [k for k in range(ds.num_classes) if k not in train_classes]
    if missing:
        raise ValueError(f"classes {missing} are absent from the train split")
    return parts[0], parts[1], parts[2]


def standardize(train: Dataset, *others: Dataset) -> tuple[Dataset, ...]:
    """Shift and scale every split by the train split's per-feature statistics.

    Mean and std come from train alone, so held-out splits leak nothing
    into the transform. A feature that is constant in train is only
    shifted: its computed std can be a rounding residue rather than 0.
    """
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    std[np.ptp(train.features, axis=0) == 0] = 1.0
    return tuple(
        Dataset((d.features - mean) / std, d.labels, d.num_classes)
        for d in (train, *others)
    )
