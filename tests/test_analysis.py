import json

import numpy as np
import pytest

from glasso_prune.analysis import (
    CSV_HEADERS,
    CURVE_HEADER,
    DISPOSABLE_HEADER,
    GAP_BAND_HI,
    GAP_BAND_LO,
    HIST_BINS,
    HIST_LOG10_MAX,
    HIST_LOG10_MIN,
    HISTOGRAM_HEADER,
    POOLED_LAYER,
    RETAINED_HEADER,
    bimodality_gap,
    disposable_rows,
    norm_histogram,
    read_curve_csv,
    read_histogram_csv,
    write_bundle,
    write_csv,
)
from glasso_prune.pruning import make_mask
from glasso_prune.trainer import EpochReport, disposable_counts

UNIT_NORMS = [np.ones(4), np.ones(4)]


def spread_norms(seed, sizes=(6, 5)):
    """Per-layer group norms, log-uniform over [1e-4, 10]."""
    rng = np.random.default_rng(seed)
    return [10.0 ** rng.uniform(-4, 1, n) for n in sizes]


def counts_by_layer(rows):
    by_layer = {}
    for _, _, layer, count in rows:
        by_layer.setdefault(layer, []).append(count)
    return by_layer


def test_all_unit_norms_land_in_one_bin():
    rows = norm_histogram(UNIT_NORMS)
    pooled = [row for row in rows if row[2] == POOLED_LAYER]
    assert rows[: len(pooled)] == pooled  # pooled rows come first
    assert len(pooled) == HIST_BINS + 2
    assert pooled[0][:2] == (0.0, 10.0**HIST_LOG10_MIN) and pooled[0][3] == 0
    assert pooled[-1][1] == np.inf and pooled[-1][3] == 0
    filled = [row for row in pooled if row[3] > 0]
    assert len(filled) == 1
    lo, hi, _, count = filled[0]
    assert count == 8 and lo <= 1.0 < hi


def test_histogram_mass_conservation():
    for seed in range(3):
        by_layer = counts_by_layer(norm_histogram(spread_norms(seed)))
        assert list(by_layer) == [POOLED_LAYER, 1, 2]
        assert all(len(counts) == HIST_BINS + 2 for counts in by_layer.values())
        assert sum(by_layer[POOLED_LAYER]) == 11
        assert [sum(by_layer[1]), sum(by_layer[2])] == [6, 5]
        # the pooled row is the sum of the per-layer rows of the same bin
        assert by_layer[POOLED_LAYER] == [a + b for a, b in zip(by_layer[1], by_layer[2])]


def test_exact_zero_norm_goes_to_underflow():
    rows = norm_histogram([np.array([0.5, 0.3, 0.0, 1.2])])
    assert rows[0] == (0.0, 10.0**HIST_LOG10_MIN, POOLED_LAYER, 1)
    assert counts_by_layer(rows)[1][0] == 1


def test_overflow_bucket():
    rows = norm_histogram([np.array([1e10, 0.5, 0.3, 0.2])])
    lo, hi, layer, count = rows[HIST_BINS + 1]  # the pooled overflow row
    assert (lo, hi, layer) == (10.0**HIST_LOG10_MAX, np.inf, POOLED_LAYER)
    assert count == 1


def loop_bin_counts(norms):
    """Reference binning, one norm at a time: underflow, HIST_BINS bins, overflow."""
    width = (HIST_LOG10_MAX - HIST_LOG10_MIN) / HIST_BINS
    counts = [0] * (HIST_BINS + 2)
    for n in norms:
        i = -1 if n <= 0.0 else int(np.floor((np.log10(n) - HIST_LOG10_MIN) / width))
        counts[min(max(i, -1), HIST_BINS) + 1] += 1
    return counts


def test_histogram_matches_loop_binning():
    # every bin edge, both float neighbours of each, exact zeros, norms far
    # outside the binned range and log-uniform draws
    edges = 10.0 ** np.linspace(HIST_LOG10_MIN, HIST_LOG10_MAX, HIST_BINS + 1)
    draws = 10.0 ** np.random.default_rng(0).uniform(-10, 4, 450)
    values = np.concatenate(
        [edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf), [0.0, 1e-12, 1e5], draws]
    )
    per_layer = [values[:-150], values[-150:]]
    by_layer = counts_by_layer(norm_histogram(per_layer))
    assert by_layer[POOLED_LAYER] == loop_bin_counts(np.concatenate(per_layer))
    for l, norms in enumerate(per_layer, start=1):
        assert by_layer[l] == loop_bin_counts(norms)


def test_gap_zero_when_all_norms_large():
    assert bimodality_gap(UNIT_NORMS) == 0.0


def test_gap_full_band_is_one():
    # every norm inside the fixed band, both edges included
    assert bimodality_gap([np.linspace(GAP_BAND_LO, GAP_BAND_HI, 4)] * 2) == 1.0


def test_gap_matches_loop_count():
    # norms on both band edges, their outer float neighbours, inside the band
    # and decades away from it, against a loop count over [1e-2, 1e-1]
    outside = [np.nextafter(GAP_BAND_LO, 0), np.nextafter(GAP_BAND_HI, 1), 1e-5, 1.0]
    scales = [[GAP_BAND_LO, GAP_BAND_HI, 0.05, 0.02], outside]
    for seed in range(3):
        spread = np.random.default_rng(seed).uniform(0.5, 2.0, 6)
        per_layer = [spread * 10.0 ** np.linspace(-3.5, 1.5, 6), np.array(scales[seed % 2])]
        norms = np.concatenate(per_layer)
        count = sum(1 for n in norms if 1e-2 <= n <= 1e-1)
        assert 0 < count < len(norms)
        assert bimodality_gap(per_layer) == pytest.approx(
            count / len(norms), abs=1e-15
        )


def test_write_bundle_empty_curve_header_only(tmp_path):
    write_bundle({"curve": []}, tmp_path)
    assert (tmp_path / "curve.csv").read_text() == CURVE_HEADER + "\n"


def test_write_bundle_headers_bit_exact(tmp_path):
    bundle = {
        "histogram": norm_histogram(spread_norms(5, (5,))),
        "curve": [(0, 0.9), (2, 0.85)],
        "disposable": disposable_rows([
            EpochReport(1, 0.6, 0.7, 0.65, [2]),
            EpochReport(2, 0.5, 0.8, 0.7, [3]),
        ]),
        "retained": [(1, 3, 5)],
        "gap": {"gap_fraction": 0.01},
    }
    written = write_bundle(bundle, tmp_path)
    assert sorted(p.name for p in written) == [
        "curve.csv",
        "disposable.csv",
        "gap.json",
        "histogram.csv",
        "retained.csv",
    ]
    assert (tmp_path / "histogram.csv").read_text().splitlines()[0] == HISTOGRAM_HEADER
    assert (tmp_path / "curve.csv").read_text().splitlines()[0] == CURVE_HEADER
    assert (tmp_path / "disposable.csv").read_text().splitlines()[0] == DISPOSABLE_HEADER
    assert (tmp_path / "retained.csv").read_text().splitlines()[0] == RETAINED_HEADER
    assert HISTOGRAM_HEADER == "bin_lo,bin_hi,layer,count"
    assert CURVE_HEADER == "removed,accuracy"
    assert DISPOSABLE_HEADER == "epoch,layer,count"
    assert RETAINED_HEADER == "layer,kept,total"


def test_write_bundle_fixed_order_skips_names_not_given(tmp_path):
    # the CSV tables in CSV_HEADERS order, then gap.json, whatever the
    # mapping's insertion order; a name not given writes no file
    rows = {
        "gap": {"gap_fraction": 0.5},
        "retained": [(1, 2, 3)],
        "curve": [(0, 1.0)],
        "histogram": [(0.0, 1.0, 0, 4)],
        "disposable": [(1, 1, 0)],
    }
    written = write_bundle(rows, tmp_path / "all")
    assert [p.name for p in written] == [
        "histogram.csv", "curve.csv", "disposable.csv", "retained.csv", "gap.json",
    ]
    assert list(CSV_HEADERS) == ["histogram", "curve", "disposable", "retained"]
    some = {name: rows[name] for name in ("retained", "gap", "curve")}
    written = write_bundle(some, tmp_path / "some")
    assert [p.name for p in written] == ["curve.csv", "retained.csv", "gap.json"]
    assert sorted(p.name for p in (tmp_path / "some").iterdir()) == [
        "curve.csv", "gap.json", "retained.csv",
    ]
    for name in ("curve.csv", "retained.csv", "gap.json"):
        assert (tmp_path / "some" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()
    assert write_bundle({}, tmp_path / "none") == []


def test_write_bundle_lf_endings(tmp_path):
    write_bundle({"histogram": norm_histogram(spread_norms(6, (5,)))}, tmp_path)
    raw = (tmp_path / "histogram.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_write_csv_formats_floats_and_quotes_text_cells(tmp_path):
    # a float32 cell is written as the float64 it widens to, a numpy integer
    # as its digits, and a cell holding commas is quoted
    write_csv(tmp_path / "t.csv", ["a", "b", "c", "d"],
              [(np.float32(0.1), np.int64(3), 1.5, "8,4,3")])
    assert (tmp_path / "t.csv").read_bytes() == b'a,b,c,d\n0.10000000149011612,3,1.5,"8,4,3"\n'


def test_write_bundle_deterministic_bytes(tmp_path):
    norms = spread_norms(7, (6, 4))
    bundle = {
        "histogram": norm_histogram(norms),
        "curve": [(0, 1 / 3), (5, 0.1)],
        "gap": {"gap_fraction": bimodality_gap(norms)},
    }
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_bundle(bundle, d1)
    write_bundle(bundle, d2)
    for name in ("histogram.csv", "curve.csv", "gap.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_histogram_csv_roundtrip(tmp_path):
    hist = norm_histogram(spread_norms(8, (6, 4)))
    write_bundle({"histogram": hist}, tmp_path)
    rows = read_histogram_csv(tmp_path / "histogram.csv")
    assert rows == hist
    by_layer = counts_by_layer(rows)
    assert [sum(by_layer[l]) for l in (POOLED_LAYER, 1, 2)] == [10, 6, 4]


def test_curve_csv_roundtrip(tmp_path):
    curve = [(0, 0.91), (100, 0.905), (200, 0.4)]
    write_bundle({"curve": curve}, tmp_path)
    assert read_curve_csv(tmp_path / "curve.csv") == curve


def test_curve_csv_header_checked(tmp_path):
    bad = tmp_path / "curve.csv"
    bad.write_text("wrong,header\n0,1.0\n")
    with pytest.raises(ValueError):
        read_curve_csv(bad)


def test_disposable_rows_per_epoch_and_layer(tmp_path):
    history = [
        EpochReport(1, 0.5, 0.6, 0.55, [2, 0]),
        EpochReport(2, 0.4, 0.7, 0.60, [3, 1]),
    ]
    write_bundle({"disposable": disposable_rows(history)}, tmp_path)
    lines = (tmp_path / "disposable.csv").read_text().splitlines()
    assert lines == [
        DISPOSABLE_HEADER,
        "1,1,2",
        "1,2,0",
        "2,1,3",
        "2,2,1",
    ]


def test_gap_json_readable(tmp_path):
    write_bundle({"gap": {"gap_fraction": 0.25}}, tmp_path)
    doc = json.loads((tmp_path / "gap.json").read_text())
    assert doc["gap_fraction"] == 0.25


def test_final_disposable_equals_mask_removals():
    # when no layer floor triggers, "disposable" and "removed at theta"
    # are the same censorship of the same norms
    for seed in range(3):
        norms = spread_norms(seed)
        counts = disposable_counts(norms, 1e-2)
        removed = [int((~k).sum()) for k in make_mask(norms, 1e-2)]
        assert 0 < sum(counts) and all(c < len(n) for c, n in zip(counts, norms))
        assert counts == removed
