import json

import numpy as np
import pytest

from glasso_prune.analysis import (
    CURVE_HEADER,
    DISPOSABLE_HEADER,
    HISTOGRAM_HEADER,
    POOLED_LAYER,
    RETAINED_HEADER,
    AnalysisBundle,
    bimodality_gap,
    norm_histogram,
    read_curve_csv,
    read_histogram_csv,
    write_bundle,
)
from glasso_prune.network import init_network
from glasso_prune.pruning import make_mask
from glasso_prune.regularization import Mode, group_norms
from glasso_prune.trainer import EpochReport, disposable_counts


def unit_norm_net():
    net = init_network([3, 4, 4, 2], seed=0)
    # make every outgoing column a unit vector
    for l in (1, 2):
        w = net.layers[l].weights
        w[:] = 0.0
        for j in range(w.shape[1]):
            w[0, j] = 1.0
    return net


def test_all_unit_norms_land_in_one_bin():
    hist = norm_histogram(unit_norm_net(), Mode.GLASSO_OUT)
    pooled = hist.layers[0]
    assert pooled.layer == POOLED_LAYER
    assert pooled.underflow == 0
    assert pooled.overflow == 0
    assert (pooled.counts > 0).sum() == 1
    assert pooled.counts.sum() == 8


def test_histogram_mass_conservation():
    for seed in range(3):
        net = init_network([3, 6, 5, 2], seed=seed)
        hist = norm_histogram(net, Mode.GLASSO_OUT)
        total_groups = sum(net.hidden_sizes)
        assert hist.layers[0].total == total_groups
        per_layer_sum = sum(lh.total for lh in hist.layers[1:])
        assert per_layer_sum == total_groups


def test_exact_zero_norm_goes_to_underflow():
    net = init_network([3, 4, 2], seed=1)
    net.layers[1].weights[:, 2] = 0.0
    hist = norm_histogram(net, Mode.GLASSO_OUT)
    assert hist.layers[0].underflow == 1


def test_overflow_bucket():
    net = init_network([3, 4, 2], seed=2)
    net.layers[1].weights[:, 0] = 1e10
    hist = norm_histogram(net, Mode.GLASSO_OUT)
    assert hist.layers[0].overflow >= 1


def test_gap_zero_when_all_norms_large():
    assert bimodality_gap(unit_norm_net(), Mode.GLASSO_OUT) == 0.0


def test_gap_full_band_is_one():
    net = init_network([3, 5, 2], seed=3)
    assert bimodality_gap(net, Mode.GLASSO_OUT, 1e-300, 1e300) == 1.0


def test_gap_matches_loop_count():
    net = init_network([3, 6, 4, 2], seed=4)
    lo, hi = 0.3, 0.8
    norms = np.concatenate(group_norms(net, Mode.GLASSO_OUT))
    count = sum(1 for n in norms if lo <= n <= hi)
    assert bimodality_gap(net, Mode.GLASSO_OUT, lo, hi) == pytest.approx(
        count / len(norms), abs=1e-15
    )


def test_gap_band_validation():
    net = init_network([3, 4, 2], seed=0)
    with pytest.raises(ValueError):
        bimodality_gap(net, Mode.GLASSO_OUT, 0.0, 1.0)
    with pytest.raises(ValueError):
        bimodality_gap(net, Mode.GLASSO_OUT, 0.5, 0.1)


def test_write_bundle_empty_curve_header_only(tmp_path):
    write_bundle(AnalysisBundle(pruning_curve=[]), tmp_path)
    assert (tmp_path / "curve.csv").read_text() == CURVE_HEADER + "\n"


def test_write_bundle_headers_bit_exact(tmp_path):
    net = init_network([3, 5, 2], seed=5)
    bundle = AnalysisBundle(
        histogram=norm_histogram(net, Mode.GLASSO_OUT),
        pruning_curve=[(0, 0.9), (2, 0.85)],
        history=[
            EpochReport(1, 0.6, 0.7, 0.65, [2]),
            EpochReport(2, 0.5, 0.8, 0.7, [3]),
        ],
        retained_profile=[(1, 3, 5)],
        gap_report={"gap_fraction": 0.01},
    )
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


def test_write_bundle_lf_endings(tmp_path):
    net = init_network([3, 5, 2], seed=6)
    write_bundle(AnalysisBundle(histogram=norm_histogram(net, Mode.GLASSO_OUT)), tmp_path)
    raw = (tmp_path / "histogram.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_write_bundle_deterministic_bytes(tmp_path):
    net = init_network([3, 6, 4, 2], seed=7)
    bundle = AnalysisBundle(
        histogram=norm_histogram(net, Mode.GLASSO_OUT),
        pruning_curve=[(0, 1 / 3), (5, 0.1)],
        gap_report={"gap_fraction": bimodality_gap(net, Mode.GLASSO_OUT)},
    )
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_bundle(bundle, d1)
    write_bundle(bundle, d2)
    for name in ("histogram.csv", "curve.csv", "gap.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_histogram_csv_roundtrip(tmp_path):
    net = init_network([3, 6, 4, 2], seed=8)
    hist = norm_histogram(net, Mode.GLASSO_OUT)
    write_bundle(AnalysisBundle(histogram=hist), tmp_path)
    rows = read_histogram_csv(tmp_path / "histogram.csv")
    by_layer = {}
    for _, _, layer, count in rows:
        by_layer[layer] = by_layer.get(layer, 0) + count
    assert by_layer[POOLED_LAYER] == sum(net.hidden_sizes)
    for l, width in enumerate(net.hidden_sizes, start=1):
        assert by_layer[l] == width


def test_curve_csv_roundtrip(tmp_path):
    curve = [(0, 0.91), (100, 0.905), (200, 0.4)]
    write_bundle(AnalysisBundle(pruning_curve=curve), tmp_path)
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
    write_bundle(AnalysisBundle(history=history), tmp_path)
    lines = (tmp_path / "disposable.csv").read_text().splitlines()
    assert lines == [
        DISPOSABLE_HEADER,
        "1,1,2",
        "1,2,0",
        "2,1,3",
        "2,2,1",
    ]


def test_gap_json_readable(tmp_path):
    write_bundle(AnalysisBundle(gap_report={"gap_fraction": 0.25}), tmp_path)
    doc = json.loads((tmp_path / "gap.json").read_text())
    assert doc["gap_fraction"] == 0.25


def test_final_disposable_equals_mask_removals():
    # when no layer floor triggers, "disposable" and "removed at theta"
    # are the same censorship of the same norms
    for seed in range(3):
        net = init_network([4, 6, 5, 3], seed=seed)
        net.layers[1].weights[:, :2] *= 1e-6
        counts = disposable_counts(net, Mode.GLASSO_OUT, 1e-2)
        mask = make_mask(net, Mode.GLASSO_OUT, 1e-2)
        removed = [int((~k).sum()) for k in mask.keep]
        assert counts == removed
