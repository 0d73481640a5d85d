import struct

import numpy as np
import pytest

from glasso_prune.errors import ModelFormatError
from glasso_prune.linalg import as_matrix, as_vector
from glasso_prune.model_io import (
    MAGIC,
    VERSION,
    load_model,
    model_bytes,
    model_from_bytes,
    save_model,
)
from glasso_prune.network import LayerParams, MlpNetwork, init_network


def networks_equal(a, b):
    if len(a.layers) != len(b.layers):
        return False
    return all(
        np.array_equal(pa.weights, pb.weights) and np.array_equal(pa.bias, pb.bias)
        for pa, pb in zip(a.layers, b.layers)
    )


def test_roundtrip_bytes_identical():
    for sizes, seed in (([4, 8, 3], 0), ([2, 5, 5, 2], 1), ([1, 1, 1], 2)):
        net = init_network(sizes, seed)
        blob = model_bytes(net)
        again = model_bytes(model_from_bytes(blob))
        assert blob == again


def test_roundtrip_preserves_values():
    net = init_network([3, 7, 4], seed=5)
    net.layers[0].bias[:] = [np.pi, -1e-300, 0.1, 7e200, 0.0, -0.0, 2.5]
    back = model_from_bytes(model_bytes(net))
    assert networks_equal(net, back)


def test_byte_layout_hand_assembled():
    w1 = as_matrix([[1.5, -2.0]])
    b1 = as_vector([0.25])
    w2 = as_matrix([[3.0]])
    b2 = as_vector([-4.0])
    net = MlpNetwork([LayerParams(w1, b1), LayerParams(w2, b2)])

    expected = MAGIC
    expected += struct.pack("<II", VERSION, 2)
    expected += struct.pack("<II", 1, 2) + struct.pack("<2d", 1.5, -2.0)
    expected += struct.pack("<d", 0.25)
    expected += struct.pack("<II", 1, 1) + struct.pack("<d", 3.0)
    expected += struct.pack("<d", -4.0)
    assert model_bytes(net) == expected


def test_save_load_file(tmp_path):
    net = init_network([4, 6, 2], seed=3)
    path = tmp_path / "net.glnn"
    save_model(net, path)
    assert networks_equal(net, load_model(path))


def test_wrong_magic_names_both():
    blob = b"XXXX" + model_bytes(init_network([2, 2, 2], 0))[4:]
    with pytest.raises(ModelFormatError) as err:
        model_from_bytes(blob)
    assert "GLNN" in str(err.value)
    assert "XXXX" in str(err.value)


def test_unsupported_version():
    blob = bytearray(model_bytes(init_network([2, 2, 2], 0)))
    blob[4:8] = struct.pack("<I", 99)
    with pytest.raises(ModelFormatError):
        model_from_bytes(bytes(blob))


def test_truncated_payload():
    blob = model_bytes(init_network([3, 4, 2], 0))
    with pytest.raises(ModelFormatError):
        model_from_bytes(blob[:-5])


def test_trailing_bytes_rejected():
    blob = model_bytes(init_network([3, 4, 2], 0))
    with pytest.raises(ModelFormatError):
        model_from_bytes(blob + b"\x00")


def test_weights_little_endian_f64():
    net = MlpNetwork(
        [
            LayerParams(as_matrix([[1.0], [2.0]]), as_vector([0.0, 0.0])),
            LayerParams(as_matrix([[0.5, 0.5]]), as_vector([0.0])),
        ]
    )
    blob = model_bytes(net)
    # first weight starts after magic, version, L, rows, cols
    offset = 4 + 4 + 4 + 4 + 4
    (first,) = struct.unpack_from("<d", blob, offset)
    assert first == 1.0


def test_row_major_order():
    w = as_matrix([[1.0, 2.0], [3.0, 4.0]])
    net = MlpNetwork(
        [
            LayerParams(w, as_vector([0.0, 0.0])),
            LayerParams(as_matrix([[1.0, 1.0]]), as_vector([0.0])),
        ]
    )
    blob = model_bytes(net)
    offset = 4 + 4 + 4 + 4 + 4
    vals = struct.unpack_from("<4d", blob, offset)
    assert vals == (1.0, 2.0, 3.0, 4.0)


def test_loaded_network_validates():
    # a GLNN whose recorded shapes do not chain must be rejected
    bad = MAGIC + struct.pack("<II", VERSION, 2)
    bad += struct.pack("<II", 1, 2) + struct.pack("<2d", 1.0, 1.0) + struct.pack("<d", 0.0)
    bad += struct.pack("<II", 1, 3) + struct.pack("<3d", 1.0, 1.0, 1.0) + struct.pack("<d", 0.0)
    with pytest.raises(ModelFormatError):
        model_from_bytes(bad)


def test_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_model(tmp_path / "absent.glnn")


def test_save_is_deterministic(tmp_path):
    net = init_network([3, 4, 2], seed=1)
    p1, p2 = tmp_path / "a.glnn", tmp_path / "b.glnn"
    save_model(net, p1)
    save_model(net, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("rows,cols", [(0, 2), (2, 0), (0, 0)])
def test_zero_width_layer_rejected(rows, cols):
    # second layer hand-built with a zero dimension; a 0x0 layer carries
    # no payload at all, so only the header check can catch it
    blob = MAGIC + struct.pack("<II", VERSION, 2)
    blob += struct.pack("<II", 2, 2) + struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
    blob += struct.pack("<2d", 0.0, 0.0)
    blob += struct.pack("<II", rows, cols)
    blob += struct.pack(f"<{rows * cols}d", *[1.0] * (rows * cols))
    blob += struct.pack(f"<{rows}d", *[0.0] * rows)
    with pytest.raises(ModelFormatError) as err:
        model_from_bytes(blob)
    assert "zero width" in str(err.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["weight", "bias"])
def test_non_finite_parameter_rejected(value, where):
    net = init_network([3, 4, 2], seed=2)
    p = net.layers[1]
    if where == "weight":
        p.weights[1, 2] = value
    else:
        p.bias[0] = value
    with pytest.raises(ModelFormatError) as err:
        model_from_bytes(model_bytes(net), "m.glnn")
    assert "layer 2" in str(err.value) and "non-finite" in str(err.value)
