"""Machine-readable diagnostics: norm histograms, pruning curves,
disposable-node trajectories, and retained-node profiles.

Everything is written as CSV/JSON data files rather than rendered plots,
so outputs are byte-deterministic and test-friendly. diagnostics builds
a model's norm outputs, as rows by output name, from the group_norms pass
its caller takes; analyze ranks pruning's forced-removal curve by that
same pass. write_csv writes every CSV table, sweep's summary.csv
included, and write_json every JSON file. Histograms are binned in log10
of the group norm; exact zeros fall in the underflow row from 0.0.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .pruning import make_mask
from .regularization import Mode
from .trainer import EpochReport

# output name -> header of its CSV file, in the order write_bundle writes them
CSV_HEADERS = {
    "histogram": "bin_lo,bin_hi,layer,count",
    "curve": "removed,accuracy",
    "disposable": "epoch,layer,count",
    "retained": "layer,kept,total",
}
HISTOGRAM_HEADER, CURVE_HEADER, DISPOSABLE_HEADER, RETAINED_HEADER = CSV_HEADERS.values()

POOLED_LAYER = 0  # layer id for the all-hidden-layers histogram rows

# histogram bins: HIST_BINS equal steps in log10(norm) over [-8, 2]
HIST_LOG10_MIN = -8.0
HIST_LOG10_MAX = 2.0
HIST_BINS = 50

# band of bimodality_gap and gap.json: criterion 4's fixed band, which
# does not follow theta
GAP_BAND_LO = 1e-2
GAP_BAND_HI = 1e-1


def norm_histogram(norms: list[np.ndarray]) -> list[tuple[float, float, int, int]]:
    """The rows of histogram.csv from group_norms' norms: (bin_lo, bin_hi, layer, count).

    The pooled layer comes first, then each hidden layer. Each layer has an
    underflow row from 0.0, HIST_BINS log10 bins and an overflow row to inf.
    """
    width = (HIST_LOG10_MAX - HIST_LOG10_MIN) / HIST_BINS
    logs = np.linspace(HIST_LOG10_MIN, HIST_LOG10_MAX, HIST_BINS + 1)
    edges = [0.0, *(10.0 ** logs).tolist(), np.inf]
    rows = []
    for layer, layer_norms in enumerate([np.concatenate(norms), *norms], start=POOLED_LAYER):
        with np.errstate(divide="ignore"):  # an exact zero's log10 is -inf, an underflow
            bins = np.floor((np.log10(layer_norms) - HIST_LOG10_MIN) / width)
        # slot 0 is the underflow row, slot HIST_BINS + 1 the overflow row
        slots = np.clip(bins + 1, 0, HIST_BINS + 1).astype(np.int64)
        counts = np.bincount(slots, minlength=HIST_BINS + 2).tolist()
        rows += [(lo, hi, layer, c) for lo, hi, c in zip(edges, edges[1:], counts)]
    return rows


def bimodality_gap(norms: list[np.ndarray]) -> float:
    """Fraction of group_norms' norms inside [GAP_BAND_LO, GAP_BAND_HI].

    A trained network whose norms split cleanly into a prunable cluster
    and a retained cluster leaves almost no mass in this band, which is
    what makes the pruning threshold easy to place.
    """
    pooled = np.concatenate(norms)
    inside = np.sum((pooled >= GAP_BAND_LO) & (pooled <= GAP_BAND_HI))
    return float(inside / len(pooled))


# a model's outputs: those of its group norms alone, and the curve, which needs data
NORM_OUTPUTS = ("histogram", "gap", "retained")
MODEL_OUTPUTS = (*NORM_OUTPUTS, "curve")


def diagnostics(norms: list[np.ndarray], mode: Mode, theta: float, chosen) -> dict:
    """The chosen NORM_OUTPUTS of norms, one network's group_norms, as {name:
    rows}, with retained.csv at theta and gap mapping to its JSON document,
    which mode only labels; other names are skipped."""
    outputs = {}
    if "histogram" in chosen:
        outputs["histogram"] = norm_histogram(norms)
    if "gap" in chosen:
        outputs["gap"] = {
            "mode": mode.value,
            "band_lo": GAP_BAND_LO,
            "band_hi": GAP_BAND_HI,
            "gap_fraction": bimodality_gap(norms),
            "hidden_nodes": sum(len(layer_norms) for layer_norms in norms),
        }
    if "retained" in chosen:  # (layer, kept, total), as a theta prune keeps them
        keep = make_mask(norms, theta)
        outputs["retained"] = [(l, int(k.sum()), int(k.size)) for l, k in enumerate(keep, 1)]
    return outputs


def disposable_rows(history: list[EpochReport]) -> list[tuple[int, int, int]]:
    """The rows of disposable.csv: (epoch, layer, count) per epoch and hidden layer."""
    return [(r.epoch, l, count) for r in history for l, count in enumerate(r.disposable, 1)]


def fmt_float(x) -> str:
    """Shortest decimal that parses back to the same float."""
    return repr(float(x))


def write_bundle(outputs: dict, out_dir) -> list[Path]:
    """Write the given outputs into out_dir, the CSV tables in CSV_HEADERS
    order, then gap.json; names not given are skipped. Returns written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, header in CSV_HEADERS.items():
        if name in outputs:
            path = out_dir / f"{name}.csv"
            write_csv(path, header.split(","), outputs[name])
            written.append(path)
    if "gap" in outputs:
        write_json(out_dir / "gap.json", outputs["gap"])
        written.append(out_dir / "gap.json")
    return written


def write_csv(path, header: list, rows) -> None:
    """Write header and rows by csv.writer: floats as fmt_float, a cell with a comma quoted."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        for r in [header, *rows]:
            writer.writerow([fmt_float(x) if isinstance(x, float | np.floating) else x for x in r])


def write_json(path, doc) -> None:
    """Write doc as indented JSON with a final newline."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(json.dumps(doc, indent=2) + "\n")


def _read_rows(path, header: str, types: tuple) -> list[tuple]:
    """Parse a table written by write_bundle back into rows of the given types."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: missing header {header!r}")
    return [
        tuple(t(cell) for t, cell in zip(types, line.split(","), strict=True))
        for line in lines[1:]
    ]


def read_histogram_csv(path) -> list[tuple[float, float, int, int]]:
    """Parse histogram.csv rows back into (bin_lo, bin_hi, layer, count)."""
    return _read_rows(path, HISTOGRAM_HEADER, (float, float, int, int))


def read_curve_csv(path) -> list[tuple[int, float]]:
    return _read_rows(path, CURVE_HEADER, (int, float))
