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


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair (the MNIST container format).

    Pixels are scaled to [0, 1] by /255.
    """
    images_path, labels_path = str(images_path), str(labels_path)
    img = Path(images_path).read_bytes()
    magic = _read_u32_be(img, 0, images_path)
    if magic != IDX_IMAGE_MAGIC:
        raise DataFormatError(
            f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}"
        )
    count = _read_u32_be(img, 4, images_path)
    rows = _read_u32_be(img, 8, images_path)
    cols = _read_u32_be(img, 12, images_path)
    payload = img[16:]
    if len(payload) != count * rows * cols:
        raise DataFormatError(
            f"{images_path}: expected {count * rows * cols} pixel bytes, "
            f"got {len(payload)}"
        )
    features = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    features = features.reshape(count, rows * cols)

    lab = Path(labels_path).read_bytes()
    magic = _read_u32_be(lab, 0, labels_path)
    if magic != IDX_LABEL_MAGIC:
        raise DataFormatError(
            f"{labels_path}: bad magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}"
        )
    lab_count = _read_u32_be(lab, 4, labels_path)
    lab_payload = lab[8:]
    if len(lab_payload) != lab_count:
        raise DataFormatError(
            f"{labels_path}: expected {lab_count} label bytes, got {len(lab_payload)}"
        )
    if lab_count != count:
        raise DataFormatError(
            f"count mismatch: {images_path} has {count} images but "
            f"{labels_path} has {lab_count} labels"
        )
    labels = np.frombuffer(lab_payload, dtype=np.uint8).astype(np.int64)

    num_classes = int(labels.max()) + 1 if count else 1
    return Dataset(features, labels, num_classes)


def load_csv(path, label_column: str) -> Dataset:
    """Numeric CSV with a header row; one column holds integer labels.

    Every cell must be a finite number: nan and inf are rejected, not
    carried into training. A file that is not UTF-8 text is rejected with
    the row (counting the header as row 1) where decoding fails.
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
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError(f"{path}: empty file") from None
    if label_column not in header:
        raise DataFormatError(
            f"{path}: label column {label_column!r} not in header {header}"
        )
    label_idx = header.index(label_column)
    features, labels = [], []
    for row_no, row in enumerate(reader, start=2):
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
        features.append(values)
        labels.append(int(label))
    if not features:
        raise DataFormatError(f"{path}: no data rows")
    labels_arr = np.array(labels, dtype=np.int64)
    return Dataset(np.array(features), labels_arr, int(labels_arr.max()) + 1)


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
    if num_classes < 2 or dim < 1:
        raise ValueError(f"need num_classes >= 2 and dim >= 1, got {num_classes}, {dim}")
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


def split(
    ds: Dataset, fractions: tuple[float, float, float], seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded shuffle, then contiguous train/val/test cut.

    Sizes are round(n * fraction) for train and val, remainder for test.
    Every class must appear in the train split.
    """
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ValueError(f"fractions must be three positive values, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got sum {sum(fractions)!r}")
    perm = np.random.default_rng(seed).permutation(ds.n)
    n_train = int(round(ds.n * fractions[0]))
    n_val = int(round(ds.n * fractions[1]))
    cuts = [perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]]
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
