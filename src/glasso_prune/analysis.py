"""Machine-readable diagnostics: norm histograms, pruning curves,
disposable-node trajectories, and retained-node profiles.

Everything is written as CSV/JSON data files rather than rendered plots,
so outputs are byte-deterministic and test-friendly. Histograms are binned
in log10 of the group norm; exact zeros fall into the underflow bucket.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .network import MlpNetwork
from .regularization import Mode, group_norms
from .trainer import EpochReport

HISTOGRAM_HEADER = "bin_lo,bin_hi,layer,count"
CURVE_HEADER = "removed,accuracy"
DISPOSABLE_HEADER = "epoch,layer,count"
RETAINED_HEADER = "layer,kept,total"

POOLED_LAYER = 0  # layer id for the all-hidden-layers histogram rows

# histogram bins: HIST_BINS equal steps in log10(norm) over [-8, 2]
HIST_LOG10_MIN = -8.0
HIST_LOG10_MAX = 2.0
HIST_BINS = 50

# band of bimodality_gap and gap.json: criterion 4's fixed band, which
# does not follow theta
GAP_BAND_LO = 1e-2
GAP_BAND_HI = 1e-1


@dataclass
class LayerHistogram:
    layer: int  # POOLED_LAYER for the pooled rows, else 1..L-1
    underflow: int
    counts: np.ndarray
    overflow: int

    @property
    def total(self) -> int:
        return self.underflow + int(np.sum(self.counts)) + self.overflow


@dataclass
class NormHistogram:
    layers: list[LayerHistogram]  # pooled first, then per hidden layer


def _bin_norms(norms: np.ndarray) -> tuple[int, np.ndarray, int]:
    width = (HIST_LOG10_MAX - HIST_LOG10_MIN) / HIST_BINS
    counts = np.zeros(HIST_BINS, dtype=np.int64)
    under = over = 0
    for n in norms:
        if n <= 0.0:
            under += 1
            continue
        i = int(np.floor((np.log10(n) - HIST_LOG10_MIN) / width))
        if i < 0:
            under += 1
        elif i >= HIST_BINS:
            over += 1
        else:
            counts[i] += 1
    return under, counts, over


def norm_histogram(net: MlpNetwork, mode: Mode) -> NormHistogram:
    """Group-norm histogram per hidden layer plus a pooled set of rows."""
    per_layer = group_norms(net, mode)
    layers = [LayerHistogram(POOLED_LAYER, *_bin_norms(np.concatenate(per_layer)))]
    for l, norms in enumerate(per_layer, start=1):
        layers.append(LayerHistogram(l, *_bin_norms(norms)))
    return NormHistogram(layers)


def bimodality_gap(
    net: MlpNetwork,
    mode: Mode,
    band_lo: float = GAP_BAND_LO,
    band_hi: float = GAP_BAND_HI,
) -> float:
    """Fraction of hidden-node group norms inside [band_lo, band_hi].

    A trained network whose norms split cleanly into a prunable cluster
    and a retained cluster leaves almost no mass in this band, which is
    what makes the pruning threshold easy to place.
    """
    if not 0 < band_lo < band_hi:
        raise ValueError(f"need 0 < band_lo < band_hi, got {band_lo}, {band_hi}")
    norms = np.concatenate(group_norms(net, mode))
    inside = np.sum((norms >= band_lo) & (norms <= band_hi))
    return float(inside / len(norms))


@dataclass
class AnalysisBundle:
    """Collected diagnostics; None fields are skipped by write_bundle."""

    histogram: NormHistogram | None = None
    pruning_curve: list[tuple[int, float]] | None = None
    history: list[EpochReport] | None = None
    retained_profile: list[tuple[int, int, int]] | None = None  # (layer, kept, total)
    gap_report: dict | None = None


def fmt_float(x) -> str:
    """Shortest decimal that parses back to the same float."""
    return repr(float(x))


def _write_text(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        for line in lines:
            f.write(line + "\n")


def write_bundle(bundle: AnalysisBundle, out_dir) -> list[Path]:
    """Write the bundle's data files into out_dir; returns written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    if bundle.histogram is not None:
        hist = bundle.histogram
        edges = 10.0 ** np.linspace(HIST_LOG10_MIN, HIST_LOG10_MAX, HIST_BINS + 1)
        lines = [HISTOGRAM_HEADER]
        for lh in hist.layers:
            lines.append(f"0.0,{fmt_float(edges[0])},{lh.layer},{lh.underflow}")
            for i, count in enumerate(lh.counts):
                lines.append(f"{fmt_float(edges[i])},{fmt_float(edges[i + 1])},{lh.layer},{int(count)}")
            lines.append(f"{fmt_float(edges[-1])},inf,{lh.layer},{lh.overflow}")
        path = out_dir / "histogram.csv"
        _write_text(path, lines)
        written.append(path)

    if bundle.pruning_curve is not None:
        lines = [CURVE_HEADER]
        for removed, acc in bundle.pruning_curve:
            lines.append(f"{int(removed)},{fmt_float(acc)}")
        path = out_dir / "curve.csv"
        _write_text(path, lines)
        written.append(path)

    if bundle.history is not None:
        lines = [DISPOSABLE_HEADER]
        for report in bundle.history:
            for l, count in enumerate(report.disposable_per_layer, start=1):
                lines.append(f"{report.epoch},{l},{int(count)}")
        path = out_dir / "disposable.csv"
        _write_text(path, lines)
        written.append(path)

    if bundle.retained_profile is not None:
        lines = [RETAINED_HEADER]
        for layer, kept, total in bundle.retained_profile:
            lines.append(f"{int(layer)},{int(kept)},{int(total)}")
        path = out_dir / "retained.csv"
        _write_text(path, lines)
        written.append(path)

    if bundle.gap_report is not None:
        path = out_dir / "gap.json"
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(json.dumps(bundle.gap_report, indent=2) + "\n")
        written.append(path)

    return written


def read_histogram_csv(path) -> list[tuple[float, float, int, int]]:
    """Parse histogram.csv rows back into (bin_lo, bin_hi, layer, count)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != HISTOGRAM_HEADER:
        raise ValueError(f"{path}: missing header {HISTOGRAM_HEADER!r}")
    rows = []
    for line in lines[1:]:
        lo, hi, layer, count = line.split(",")
        rows.append((float(lo), float(hi), int(layer), int(count)))
    return rows


def read_curve_csv(path) -> list[tuple[int, float]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CURVE_HEADER:
        raise ValueError(f"{path}: missing header {CURVE_HEADER!r}")
    return [
        (int(line.split(",")[0]), float(line.split(",")[1])) for line in lines[1:]
    ]
