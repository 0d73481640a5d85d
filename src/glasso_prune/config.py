"""Experiment configuration: a flat, typed key=value file or JSON object.

Config files are UTF-8, with or without a byte-order mark.
Grammar: one `key = value` pair per line; blank lines and lines starting
with '#' are skipped. Lists (layer_sizes, split_fractions) are comma
separated, no item empty. A file whose first non-space character is '{' is parsed as a
JSON object with the same keys instead. Unknown keys are rejected, numbers
must be finite (and integral for integer keys), and all nested invariants
are checked at parse time, so a bad config never reaches the trainer.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from .datasets import (
    Dataset, check_split_fractions, check_synth_sizes, load_csv, load_idx, split, standardize,
    synth_gaussians,
)
from .errors import ConfigError, DataFormatError
from .network import check_layer_sizes
from .trainer import TrainConfig


def _to_str(s):
    if not isinstance(s, str):
        raise TypeError(f"expected a string, got {s!r}")
    return s


def _to_bool(s):
    if isinstance(s, bool):
        return s
    if s in ("true", "1", "yes"):
        return True
    if s in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _to_int(s):
    # JSON may hand over 3.0 for an integer key, but never 3.5, inf or true
    if isinstance(s, float) and not s.is_integer():
        raise ValueError(f"expected an integer, got {s!r}")
    if isinstance(s, bool) or not isinstance(s, (int, float, str)):
        raise TypeError(f"expected an integer, got {s!r}")
    return int(s)


def _to_float(s):
    if isinstance(s, bool) or not isinstance(s, (int, float, str)):
        raise TypeError(f"expected a number, got {s!r}")
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {s!r}")
    return value


def _list_of(convert):
    def to_list(s):
        if isinstance(s, str):
            s = s.split(",")  # an empty item fails its conversion
        elif not isinstance(s, list):
            raise TypeError(f"expected a list or comma separated values, got {s!r}")
        return [convert(x) for x in s]

    return to_list


@dataclass(kw_only=True)
class ExperimentConfig(TrainConfig):
    # The training keys, and their checks, are inherited from TrainConfig.
    # Fields without a default are the required keys. The field order, the
    # inherited training keys first, is the key order of to_dict(), and so
    # of manifest.json.
    dataset: str
    synth_classes: int = 10
    synth_dim: int = 64
    synth_per_class: int = 300
    synth_separation: float = 4.0
    idx_images: str = ""
    idx_labels: str = ""
    standardize: bool = False
    csv_path: str = ""
    csv_label_column: str = ""
    data_seed: int = 42
    split_fractions: list[float] = field(default_factory=lambda: [0.8, 0.1, 0.1])
    layer_sizes: list[int]
    output_dir: str = ""
    emit_bundle: bool = False

    def __post_init__(self):
        if self.dataset not in ("synth", "idx", "csv"):
            raise ConfigError(
                f"key 'dataset' must be one of synth/idx/csv, got {self.dataset!r}"
            )
        if self.dataset == "idx" and not (self.idx_images and self.idx_labels):
            raise ConfigError("dataset idx requires keys 'idx_images' and 'idx_labels'")
        if self.dataset == "csv" and not (self.csv_path and self.csv_label_column):
            raise ConfigError("dataset csv requires keys 'csv_path' and 'csv_label_column'")
        # the library's checks and TrainConfig's, each message naming its key
        try:
            check_layer_sizes(self.layer_sizes)
            if self.data_seed < 0:
                raise ValueError(f"key 'data_seed' must be nonnegative, got {self.data_seed}")
            check_synth_sizes(self.synth_classes, self.synth_dim, self.synth_per_class)
            check_split_fractions(self.split_fractions)
            super().__post_init__()
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def load_splits(self) -> tuple[Dataset, Dataset, Dataset]:
        if self.dataset == "synth":
            full = synth_gaussians(
                self.synth_classes,
                self.synth_dim,
                self.synth_per_class,
                self.synth_separation,
                self.data_seed,
            )
        elif self.dataset == "idx":
            full = load_idx(self.idx_images, self.idx_labels)
        else:
            full = load_csv(self.csv_path, self.csv_label_column)
        self.check_fit(full)  # before split, whose class scan is as long as the class count
        # a loader counts max label + 1 classes, so a label no row has is the file's fault
        absent = sorted(set(range(full.num_classes)) - set(full.labels.tolist()))
        if absent:
            source = self.csv_path if self.dataset == "csv" else self.idx_labels
            raise DataFormatError(f"{source}: no row has label {absent}")
        splits = split(full, self.split_fractions, self.data_seed)
        if self.standardize:
            return standardize(*splits)
        return splits

    def check_fit(self, data: Dataset) -> None:
        """Raise ConfigError unless layer_sizes fits data's dimension and classes."""
        if data.dim != self.layer_sizes[0] or data.num_classes > self.layer_sizes[-1]:
            raise ConfigError(
                f"key 'layer_sizes' {self.layer_sizes} does not fit the data: "
                f"dimension {data.dim}, {data.num_classes} classes"
            )

    def to_dict(self) -> dict:
        """Complete resolved key set; echoing this reproduces the run."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


_TYPE_CONVERTERS = {
    str: _to_str,
    bool: _to_bool,
    int: _to_int,
    float: _to_float,
    list[int]: _list_of(_to_int),
    list[float]: _list_of(_to_float),
}
_CONVERTERS = {
    key: _TYPE_CONVERTERS[hint] for key, hint in get_type_hints(ExperimentConfig).items()
}
_REQUIRED = [
    f.name for f in fields(ExperimentConfig)
    if f.default is MISSING and f.default_factory is MISSING
]


def convert_value(key: str, value, name: str):
    """value (text, or a JSON value) converted to key's type; name prefixes errors."""
    if key not in _CONVERTERS:
        raise ConfigError(f"{name}: unknown key {key!r}")
    try:
        return _CONVERTERS[key](value)
    except (ValueError, TypeError, OverflowError) as e:
        raise ConfigError(f"{name}: key {key!r}: {e}") from None


def _parse_kv_lines(text: str, name: str) -> dict:
    raw = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{name}:{line_no}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{name}:{line_no}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def parse_config_text(text: str, name: str = "<config>") -> ExperimentConfig:
    def unique_keys(pairs):
        raw = {}
        for key, value in pairs:
            if key in raw:
                raise ConfigError(f"{name}: duplicate key {key!r}")
            raw[key] = value
        return raw

    if text.lstrip().startswith("{"):
        try:
            raw = json.loads(text, object_pairs_hook=unique_keys)
        except (json.JSONDecodeError, RecursionError) as e:
            raise ConfigError(f"{name}: invalid JSON: {e}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{name}: JSON config must be an object")
    else:
        raw = _parse_kv_lines(text, name)

    values = {key: convert_value(key, value, name) for key, value in raw.items()}
    for required in _REQUIRED:
        if required not in values:
            raise ConfigError(f"{name}: missing required key {required!r}")
    try:
        return ExperimentConfig(**values)
    except ConfigError as e:
        raise ConfigError(f"{name}: {e}") from None


def parse_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    return parse_config_text(text.removeprefix("\ufeff"), str(path))
