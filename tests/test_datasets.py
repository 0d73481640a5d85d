import csv
import struct

import numpy as np
import numpy.testing as npt
import pytest

from glasso_prune.config import parse_config_text
from glasso_prune.datasets import (
    Dataset,
    load_csv,
    load_idx,
    split,
    synth_gaussians,
)
from glasso_prune.errors import DataFormatError


def write_idx_pair(tmp_path, images, labels):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "imgs.idx"
    lab_path = tmp_path / "labs.idx"
    img_path.write_bytes(
        struct.pack(">IIII", 0x00000803, n, rows, cols) + images.tobytes()
    )
    lab_path.write_bytes(struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes())
    return img_path, lab_path


def nearest_centroid_accuracy(ds):
    centroids = np.stack(
        [ds.features[ds.labels == k].mean(axis=0) for k in range(ds.num_classes)]
    )
    dists = ((ds.features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(np.argmin(dists, axis=1) == ds.labels))


def test_dataset_invariants():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), num_classes=2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), num_classes=2)
    ds = Dataset(np.zeros((2, 2)), np.array([0, 1]), num_classes=2)
    assert ds.n == 2
    assert ds.dim == 2


def test_idx_hand_built_pair(tmp_path):
    images = [[[0, 51], [102, 255]], [[255, 0], [0, 0]]]
    img_path, lab_path = write_idx_pair(tmp_path, images, [3, 1])
    ds = load_idx(img_path, lab_path)
    npt.assert_allclose(
        ds.features,
        [[0.0, 51 / 255, 102 / 255, 1.0], [1.0, 0.0, 0.0, 0.0]],
        atol=1e-15,
    )
    npt.assert_array_equal(ds.labels, [3, 1])
    assert ds.num_classes == 4


def test_idx_pixel_255_is_one(tmp_path):
    img_path, lab_path = write_idx_pair(tmp_path, [[[255]]], [0])
    ds = load_idx(img_path, lab_path)
    assert ds.features[0, 0] == 1.0


def test_idx_wrong_magic_names_both(tmp_path):
    img_path, lab_path = write_idx_pair(tmp_path, [[[1]]], [0])
    bad = bytearray(img_path.read_bytes())
    bad[:4] = struct.pack(">I", 0x00000999)
    img_path.write_bytes(bytes(bad))
    with pytest.raises(DataFormatError) as err:
        load_idx(img_path, lab_path)
    msg = str(err.value)
    assert "803" in msg
    assert "999" in msg


def test_idx_truncated_payload(tmp_path):
    img_path, lab_path = write_idx_pair(tmp_path, [[[1, 2], [3, 4]]], [0])
    img_path.write_bytes(img_path.read_bytes()[:-2])
    with pytest.raises(DataFormatError):
        load_idx(img_path, lab_path)


def test_idx_count_mismatch(tmp_path):
    img_path, lab_path = write_idx_pair(tmp_path, [[[1]], [[2]]], [0])
    with pytest.raises(DataFormatError):
        load_idx(img_path, lab_path)


@pytest.mark.parametrize(
    "images, labels, message",
    [(np.zeros((0, 2, 2)), [], "no data in 0 images of 2x2 pixels"),
     (np.zeros((3, 0, 0)), [0, 1, 0], "no data in 3 images of 0x0 pixels")],
    ids=["no-images", "no-pixels"],
)
def test_idx_without_samples_or_features_names_the_file(tmp_path, images, labels, message):
    img_path, lab_path = write_idx_pair(tmp_path, images, labels)
    with pytest.raises(DataFormatError) as err:
        load_idx(img_path, lab_path)
    assert str(err.value) == f"{img_path}: {message}"


def idx_splits(img_path, lab_path, standardize):
    cfg = parse_config_text(
        f"dataset = idx\nidx_images = {img_path}\nidx_labels = {lab_path}\n"
        f"standardize = {str(standardize).lower()}\nlayer_sizes = 4,3,2\n"
        "mode = glasso_out\nsplit_fractions = 0.5,0.25,0.25\ndata_seed = 3\n"
    )
    return cfg.load_splits()


def varied_images(n=20, seed=0):
    # distinct 2x2 images; pixel (0, 0) is constant so one feature has std 0
    images = np.random.default_rng(seed).integers(0, 256, (n, 2, 2), dtype=np.uint8)
    images[:, 0, 0] = 7
    return images


def test_idx_standardize(tmp_path):
    img_path, lab_path = write_idx_pair(tmp_path, varied_images(), [0, 1] * 10)
    train, val, test = idx_splits(img_path, lab_path, standardize=True)
    npt.assert_allclose(train.features.mean(axis=0), 0.0, atol=1e-12)
    npt.assert_allclose(train.features.std(axis=0)[1:], 1.0, atol=1e-12)
    # a constant feature is shifted but not blown up by a rounding residue
    npt.assert_allclose(train.features[:, 0], 0.0, atol=1e-12)
    assert (train.n, val.n, test.n) == (10, 5, 5)


def test_idx_standardize_uses_train_split_only(tmp_path):
    images = varied_images()
    img_path, lab_path = write_idx_pair(tmp_path, images, [0, 1] * 10)
    raw_test = idx_splits(img_path, lab_path, standardize=False)[2]
    flat = images.reshape(len(images), -1) / 255.0
    victim = int(np.flatnonzero((flat == raw_test.features[0]).all(axis=1))[0])
    before = idx_splits(img_path, lab_path, standardize=True)

    images[victim] = 255 - images[victim]
    write_idx_pair(tmp_path, images, [0, 1] * 10)
    after = idx_splits(img_path, lab_path, standardize=True)
    assert after[0].features.tobytes() == before[0].features.tobytes()
    assert after[2].features.tobytes() != before[2].features.tobytes()


def test_csv_standardize(tmp_path):
    # standardize means the same thing for every dataset, not only idx
    rng = np.random.default_rng(1)
    path = tmp_path / "d.csv"
    rows = [f"{100 + a},{b - 50},{k % 2}" for k, (a, b) in enumerate(rng.normal(size=(20, 2)))]
    path.write_text("a,b,y\n" + "\n".join(rows) + "\n")
    cfg = parse_config_text(
        f"dataset = csv\ncsv_path = {path}\ncsv_label_column = y\nstandardize = true\n"
        "layer_sizes = 2,3,2\nmode = glasso_out\nsplit_fractions = 0.5,0.25,0.25\n"
    )
    train, val, test = cfg.load_splits()
    npt.assert_allclose(train.features.mean(axis=0), 0.0, atol=1e-12)
    npt.assert_allclose(train.features.std(axis=0), 1.0, atol=1e-12)
    assert np.abs(test.features).max() < 5  # raw values sit near 100 and -50


def test_csv_two_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n1,2,0\n3,4,1\n")
    ds = load_csv(path, "y")
    npt.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
    npt.assert_array_equal(ds.labels, [0, 1])
    assert ds.num_classes == 2


def test_csv_missing_label_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n1,2,0\n")
    with pytest.raises(DataFormatError) as err:
        load_csv(path, "z")
    assert "z" in str(err.value)


def test_csv_label_column_only_names_the_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y\n0\n1\n")
    with pytest.raises(DataFormatError) as err:
        load_csv(path, "y")
    assert str(err.value) == f"{path}: no feature columns besides 'y'"


def test_csv_label_column_named_twice_names_the_column(tmp_path):
    # the second 'label' column would otherwise train as a copy of the label
    path = tmp_path / "d.csv"
    path.write_text("label,a,label\n0,1,0\n1,2,1\n")
    with pytest.raises(DataFormatError) as err:
        load_csv(path, "label")
    assert str(err.value) == (
        f"{path}: label column 'label' appears 2 times in header ['label', 'a', 'label']"
    )


def test_csv_ragged_row_names_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n1,2,0\n3,4\n")
    with pytest.raises(DataFormatError) as err:
        load_csv(path, "y")
    assert "3" in str(err.value)  # 1-based row number of the bad line


@pytest.mark.parametrize("row", [1, 3], ids=["header", "data-row"])
def test_csv_cell_past_the_field_limit_names_file_and_row(tmp_path, row):
    # csv.reader's own error, not a traceback: a cell longer than csv.field_size_limit()
    long_cell = "1" * (csv.field_size_limit() + 1)
    lines = ["a,b,y", "1,2,0", "3,4,1", "5,6,0"]
    lines[row - 1] = f"{long_cell},{lines[row - 1]}"
    path = tmp_path / "d.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as err:
        load_csv(path, "y")
    reason = f"field larger than field limit ({csv.field_size_limit()})"
    assert str(err.value) == f"{path}: row {row} is not valid CSV ({reason})"


def test_csv_non_utf8_names_file_and_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"a,b,y\n1,2,0\n3,\xff,1\n5,6,0\n")
    with pytest.raises(DataFormatError) as err:
        load_csv(path, "y")
    assert str(err.value).startswith(f"{path}: row 3 is not UTF-8")


BOM = "\ufeff".encode("utf-8")


@pytest.mark.parametrize("bom", [b"", BOM], ids=["plain", "bom"])
def test_csv_label_first_reads_with_or_without_bom(tmp_path, bom):
    path = tmp_path / "d.csv"
    path.write_bytes(bom + b"label,a,b\n0,1,2\n1,3,4\n")
    ds = load_csv(path, "label")
    npt.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
    npt.assert_array_equal(ds.labels, [0, 1])


def test_csv_non_utf8_row_counts_the_header_after_a_bom(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(BOM + b"a,b,y\n1,2,0\n3,\xff,1\n")
    with pytest.raises(DataFormatError) as err:
        load_csv(path, "y")
    assert str(err.value) == f"{path}: row 3 is not UTF-8 text (invalid start byte)"


def test_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n1,fish,0\n")
    with pytest.raises(DataFormatError):
        load_csv(path, "y")


def test_csv_write_then_read_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    feats = rng.standard_normal((10, 3))
    labels = rng.integers(0, 4, 10)
    path = tmp_path / "round.csv"
    with open(path, "w", newline="") as f:
        f.write("f0,f1,f2,label\n")
        for row, lab in zip(feats, labels):
            f.write(",".join(repr(float(v)) for v in row) + f",{lab}\n")
    ds = load_csv(path, "label")
    npt.assert_array_equal(ds.features, feats)
    npt.assert_array_equal(ds.labels, labels)


def test_synth_zero_separation_near_chance():
    ds = synth_gaussians(4, 8, 250, 0.0, seed=9)
    acc = nearest_centroid_accuracy(ds)
    assert abs(acc - 0.25) < 0.15


def test_synth_high_separation_nearest_centroid():
    ds = synth_gaussians(4, 32, 100, 10.0, seed=10)
    assert nearest_centroid_accuracy(ds) > 0.99


def test_synth_deterministic():
    a = synth_gaussians(3, 5, 20, 2.0, seed=11)
    b = synth_gaussians(3, 5, 20, 2.0, seed=11)
    npt.assert_array_equal(a.features, b.features)
    npt.assert_array_equal(a.labels, b.labels)


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_gaussians(1, 4, 10, 1.0, seed=0)
    with pytest.raises(ValueError):
        synth_gaussians(2, 0, 10, 1.0, seed=0)


@pytest.mark.parametrize("n_per_class", [0, -1])
def test_synth_rejects_fewer_than_one_sample_per_class(n_per_class):
    with pytest.raises(ValueError) as err:
        synth_gaussians(3, 4, n_per_class, 1.0, seed=0)
    assert str(err.value) == f"key 'synth_per_class' must be >= 1, got {n_per_class}"


def test_synth_shapes_and_balance():
    ds = synth_gaussians(3, 7, 15, 2.0, seed=12)
    assert ds.features.shape == (45, 7)
    for k in range(3):
        assert int((ds.labels == k).sum()) == 15


def test_split_sizes():
    ds = synth_gaussians(2, 4, 50, 5.0, seed=15)
    tr, va, te = split(ds, (0.8, 0.1, 0.1), seed=15)
    assert (tr.n, va.n, te.n) == (80, 10, 10)


def test_split_deterministic():
    ds = synth_gaussians(3, 4, 30, 3.0, seed=16)
    a = split(ds, (0.6, 0.2, 0.2), seed=16)
    b = split(ds, (0.6, 0.2, 0.2), seed=16)
    for x, y in zip(a, b):
        npt.assert_array_equal(x.features, y.features)
        npt.assert_array_equal(x.labels, y.labels)


def test_split_union_is_original_multiset():
    ds = synth_gaussians(3, 4, 30, 3.0, seed=17)
    tr, va, te = split(ds, (0.5, 0.25, 0.25), seed=17)
    rebuilt = np.concatenate([tr.features, va.features, te.features])
    labels = np.concatenate([tr.labels, va.labels, te.labels])
    order_a = np.lexsort(np.concatenate([rebuilt, labels[:, None]], axis=1).T)
    original = np.concatenate([ds.features, ds.labels[:, None]], axis=1)
    order_b = np.lexsort(original.T)
    combined = np.concatenate([rebuilt, labels[:, None]], axis=1)
    npt.assert_array_equal(combined[order_a], original[order_b])


def test_split_fraction_validation():
    ds = synth_gaussians(2, 4, 20, 3.0, seed=18)
    with pytest.raises(ValueError):
        split(ds, (1.0, 0.0, 0.0), seed=0)
    with pytest.raises(ValueError):
        split(ds, (0.5, 0.2, 0.2), seed=0)


def test_split_rejects_class_missing_from_train():
    # four samples, two classes, a one-sample train split: train holds exactly one class
    ds = Dataset(
        np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 1, 1, 1]), num_classes=2
    )
    with pytest.raises(ValueError, match="absent from the train split"):
        split(ds, (0.25, 0.5, 0.25), seed=0)


@pytest.mark.parametrize("fractions,sizes", [([0.7, 0.1, 0.2], "3/0/1"),
                                             ([0.1, 0.7, 0.2], "0/3/1")],
                         ids=["empty-val", "empty-train"])
def test_split_rejects_empty_part(fractions, sizes):
    # the empty-part rule comes before the train-class rule, so an empty
    # train split is named as empty, not as missing every class
    ds = synth_gaussians(2, 4, 2, 3.0, seed=19)
    with pytest.raises(ValueError) as err:
        split(ds, fractions, seed=0)
    assert str(err.value) == (f"key 'split_fractions' {fractions} leaves a split empty: "
                              f"train/val/test sizes {sizes}")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_csv_non_finite_label_rejected(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text(f"a,b,y\n1,2,0\n3,4,{cell}\n")
    with pytest.raises(DataFormatError) as err:
        load_csv(path, "y")
    assert "row 3" in str(err.value) and "'y'" in str(err.value)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_csv_non_finite_feature_rejected(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text(f"a,b,y\n1,2,0\n3,{cell},1\n")
    with pytest.raises(DataFormatError) as err:
        load_csv(path, "y")
    assert "row 3" in str(err.value) and "'b'" in str(err.value)
