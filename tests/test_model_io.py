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

DTYPES = (np.float32, np.float64)
# struct codes and sizes of the two element types
ELEMENT = {np.float32: ("f", 4), np.float64: ("d", 8)}
# magic, version, element size, L
HEADER = 16


def same_bits(a, b):
    return a.dtype == b.dtype and all(
        pa.weights.tobytes() == pb.weights.tobytes() and pa.bias.tobytes() == pb.bias.tobytes()
        for pa, pb in zip(a.layers, b.layers)
    )


def v1_bytes(net):
    """A version 1 file, assembled field by field: no element size, f8 values."""
    blob = MAGIC + struct.pack("<II", 1, net.num_layers)
    for p in net.layers:
        rows, cols = p.weights.shape
        blob += struct.pack("<II", rows, cols)
        blob += struct.pack(f"<{rows * cols}d", *p.weights.ravel())
        blob += struct.pack(f"<{rows}d", *p.bias)
    return blob


def test_roundtrip_bytes_identical():
    for dtype in DTYPES:
        for sizes, seed in (([4, 8, 3], 0), ([2, 5, 5, 2], 1), ([1, 1, 1], 2)):
            net = init_network(sizes, seed).copy(dtype)
            blob = model_bytes(net)
            back = model_from_bytes(blob)
            assert back.dtype == dtype
            assert model_bytes(back) == blob


def test_writing_and_reading_copy_no_array_twice(traced_peak):
    # the file is joined from the arrays' own buffers and read through a view,
    # so each direction allocates about one network's worth of bytes
    net = init_network([16, 1024, 1024, 4], 0).copy(np.float32)
    blob = model_bytes(net)
    assert traced_peak(model_bytes, net) < 1.5 * len(blob)
    params = sum(p.weights.nbytes + p.bias.nbytes for p in net.layers)
    assert traced_peak(model_from_bytes, blob) < 1.5 * params


def test_roundtrip_preserves_values():
    net = init_network([3, 7, 4], seed=5)
    net.layers[0].bias[:] = [np.pi, -1e-300, 0.1, 7e200, 0.0, -0.0, 2.5]
    assert same_bits(net, model_from_bytes(model_bytes(net)))
    net32 = init_network([3, 7, 4], seed=5).copy(np.float32)
    tiny = np.finfo(np.float32).smallest_subnormal
    net32.layers[0].bias[:] = [np.pi, -tiny, 0.1, 3e38, 0.0, -0.0, 2.5]
    assert same_bits(net32, model_from_bytes(model_bytes(net32)))


def test_byte_layout_hand_assembled():
    w1 = as_matrix([[1.5, -2.0]])
    b1 = as_vector([0.25])
    w2 = as_matrix([[3.0]])
    b2 = as_vector([-4.0])
    assert VERSION == 2
    for dtype in DTYPES:
        code, size = ELEMENT[dtype]
        net = MlpNetwork([LayerParams(w1, b1), LayerParams(w2, b2)]).copy(dtype)
        expected = MAGIC
        expected += struct.pack("<III", VERSION, size, 2)
        expected += struct.pack("<II", 1, 2) + struct.pack(f"<2{code}", 1.5, -2.0)
        expected += struct.pack(f"<{code}", 0.25)
        expected += struct.pack("<II", 1, 1) + struct.pack(f"<{code}", 3.0)
        expected += struct.pack(f"<{code}", -4.0)
        assert model_bytes(net) == expected
        assert same_bits(model_from_bytes(expected), net)


def test_version_1_loads_as_float64():
    net = MlpNetwork(
        [
            LayerParams(as_matrix([[1.5, -2.0]]), as_vector([0.25])),
            LayerParams(as_matrix([[3.0]]), as_vector([-4.0])),
        ]
    )
    blob = MAGIC + struct.pack("<II", 1, 2)
    blob += struct.pack("<II", 1, 2) + struct.pack("<2d", 1.5, -2.0) + struct.pack("<d", 0.25)
    blob += struct.pack("<II", 1, 1) + struct.pack("<d", 3.0) + struct.pack("<d", -4.0)
    assert v1_bytes(net) == blob
    assert same_bits(model_from_bytes(blob), net)


def test_save_load_file(tmp_path):
    for dtype in DTYPES:
        net = init_network([4, 6, 2], seed=3).copy(dtype)
        path = tmp_path / "net.glnn"
        save_model(net, path)
        assert same_bits(net, load_model(path))


def test_wrong_magic_names_both():
    blob = b"XXXX" + model_bytes(init_network([2, 2, 2], 0))[4:]
    with pytest.raises(ModelFormatError) as err:
        model_from_bytes(blob)
    assert "GLNN" in str(err.value)
    assert "XXXX" in str(err.value)


def test_unsupported_version():
    for version in (0, 3, 99):
        blob = bytearray(model_bytes(init_network([2, 2, 2], 0)))
        blob[4:8] = struct.pack("<I", version)
        with pytest.raises(ModelFormatError, match=f"unsupported version {version}"):
            model_from_bytes(bytes(blob))


@pytest.mark.parametrize("size", [0, 1, 2, 16, 2**32 - 1])
def test_unknown_element_size_rejected(size):
    blob = bytearray(model_bytes(init_network([2, 2, 2], 0)))
    blob[8:12] = struct.pack("<I", size)
    with pytest.raises(ModelFormatError, match=f"element size {size}"):
        model_from_bytes(bytes(blob), "m.glnn")


def test_truncated_payload():
    for dtype in DTYPES:
        blob = model_bytes(init_network([3, 4, 2], 0).copy(dtype))
        with pytest.raises(ModelFormatError):
            model_from_bytes(blob[:-5])


def test_trailing_bytes_rejected():
    for dtype in DTYPES:
        blob = model_bytes(init_network([3, 4, 2], 0).copy(dtype))
        with pytest.raises(ModelFormatError):
            model_from_bytes(blob + b"\x00")


def test_weights_little_endian_f64():
    net = MlpNetwork(
        [
            LayerParams(as_matrix([[1.0], [2.0]]), as_vector([0.0, 0.0])),
            LayerParams(as_matrix([[0.5, 0.5]]), as_vector([0.0])),
        ]
    )
    # first weight starts after the file header and the layer's rows, cols
    offset = HEADER + 4 + 4
    (first,) = struct.unpack_from("<d", model_bytes(net), offset)
    assert first == 1.0
    (first,) = struct.unpack_from("<f", model_bytes(net.copy(np.float32)), offset)
    assert first == 1.0


def test_row_major_order():
    w = as_matrix([[1.0, 2.0], [3.0, 4.0]])
    net = MlpNetwork(
        [
            LayerParams(w, as_vector([0.0, 0.0])),
            LayerParams(as_matrix([[1.0, 1.0]]), as_vector([0.0])),
        ]
    )
    offset = HEADER + 4 + 4
    for dtype in DTYPES:
        code, _ = ELEMENT[dtype]
        vals = struct.unpack_from(f"<4{code}", model_bytes(net.copy(dtype)), offset)
        assert vals == (1.0, 2.0, 3.0, 4.0)


def test_loaded_network_validates():
    # a GLNN whose recorded shapes do not chain must be rejected
    bad = MAGIC + struct.pack("<III", VERSION, 8, 2)
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
    blob = MAGIC + struct.pack("<III", VERSION, 8, 2)
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
    for dtype in DTYPES:
        net = init_network([3, 4, 2], seed=2).copy(dtype)
        p = net.layers[1]
        if where == "weight":
            p.weights[1, 2] = value
        else:
            p.bias[0] = value
        with pytest.raises(ModelFormatError) as err:
            model_from_bytes(model_bytes(net), "m.glnn")
        assert "layer 2" in str(err.value) and "non-finite" in str(err.value)
    with pytest.raises(ModelFormatError, match="non-finite"):
        model_from_bytes(v1_bytes(net.copy(np.float64)), "m.glnn")
