"""Property tests for the two parsers that read untrusted files.

A config parser must either return a config or raise ConfigError, and the
GLNN loader must either return a network or raise ModelFormatError:
anything else surfaces at the CLI as a traceback instead of exit 2 or 4.
Examples are derandomized and capped, so every run checks the same inputs.
"""

import json
import math
import struct

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from glasso_prune.config import _CONVERTERS, ExperimentConfig, parse_config_text
from glasso_prune.errors import ConfigError, ModelFormatError
from glasso_prune.model_io import model_bytes, model_from_bytes
from glasso_prune.network import LayerParams, MlpNetwork, init_network

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
)

KEYS = sorted(_CONVERTERS)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=12)
    | st.sampled_from(["synth", "glasso_out", "l2", "8,16,3", "0.8,0.1,0.1", "true"]),
    lambda inner: st.lists(inner, max_size=5),
    max_leaves=8,
)

kv_values = st.text(max_size=12) | st.sampled_from(
    ["synth", "glasso_in", "8,16,3", "8,0,3", "0.8,0.1,0.1", "nan", "-inf", "1e999", "2.5"]
)


def parses_or_config_error(text):
    try:
        cfg = parse_config_text(text)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
    values = cfg.to_dict()
    numbers = [v for v in values.values() if isinstance(v, float)]
    assert all(math.isfinite(v) for v in numbers + values["split_fractions"])
    assert min(cfg.layer_sizes) >= 1


@FUZZ
@given(st.text(max_size=200))
def test_config_arbitrary_text(text):
    parses_or_config_error(text)


@FUZZ
@given(st.dictionaries(st.sampled_from(KEYS), json_values, max_size=4))
def test_config_json_objects_over_known_keys(doc):
    base = {"dataset": "synth", "layer_sizes": [4, 3, 2], "mode": "glasso_out"}
    parses_or_config_error(json.dumps(dict(base, **doc)))
    parses_or_config_error(json.dumps(doc))


@FUZZ
@given(st.dictionaries(st.sampled_from(KEYS), kv_values, max_size=4))
def test_config_kv_lines_over_known_keys(doc):
    base = {"dataset": "synth", "layer_sizes": "4,3,2", "mode": "glasso_out"}
    lines = [f"{k} = {v}" for k, v in dict(base, **doc).items()]
    parses_or_config_error("\n".join(lines))


def loads_or_format_error(blob):
    try:
        net = model_from_bytes(blob)
    except ModelFormatError:
        return
    assert isinstance(net, MlpNetwork)
    for p in net.layers:
        assert np.isfinite(p.weights).all() and np.isfinite(p.bias).all()


# version 1, then version 2 with each element size
HEADERS = [b"GLNN\x01\x00\x00\x00", b"GLNN\x02\x00\x00\x00\x04\x00\x00\x00",
           b"GLNN\x02\x00\x00\x00\x08\x00\x00\x00"]


@FUZZ
@given(st.binary(max_size=200))
def test_glnn_arbitrary_bytes(blob):
    loads_or_format_error(blob)
    for header in HEADERS:
        loads_or_format_error(header + blob)


NET = init_network([3, 2, 2], seed=0)
# (blob, struct code, element size) for an f8 and an f4 file
BLOBS = [(model_bytes(NET), "d", 8), (model_bytes(NET.copy(np.float32)), "f", 4)]


def float_offsets(size):
    """Byte offsets of the parameters: after the 16-byte file header, each
    layer has an 8-byte shape header, then 2x3 + 2 and 2x2 + 2 elements."""
    second = 16 + 8 + 8 * size
    return [16 + 8 + size * i for i in range(8)] + [second + 8 + size * i for i in range(6)]


@FUZZ
@given(
    st.sampled_from(BLOBS),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=6),
    st.integers(0, 10**6),
    st.binary(max_size=16),
)
def test_glnn_mutated_valid_blob(valid, edits, cut, tail):
    blob = bytearray(valid[0])
    for pos, value in edits:
        blob[pos % len(blob)] = value
    loads_or_format_error(bytes(blob))
    loads_or_format_error(bytes(blob[: cut % (len(blob) + 1)]) + tail)


@FUZZ
@given(st.data(), st.sampled_from(BLOBS))
def test_glnn_parameters_replaced(data, valid):
    valid_blob, code, size = valid
    values = st.floats(width=32) if size == 4 else st.floats()
    float_edits = data.draw(
        st.lists(st.tuples(st.sampled_from(float_offsets(size)), values), min_size=1, max_size=3)
    )
    blob = bytearray(valid_blob)
    for pos, value in float_edits:
        blob[pos : pos + size] = struct.pack(f"<{code}", value)
    loads_or_format_error(bytes(blob))


@st.composite
def networks(draw):
    """A float64 or float32 network of finite values of its own width."""
    width = draw(st.sampled_from([64, 32]))
    finite = st.floats(allow_nan=False, allow_infinity=False, width=width)
    dtype = np.float64 if width == 64 else np.float32
    sizes = draw(st.lists(st.integers(1, 4), min_size=3, max_size=5))
    layers = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        w = draw(st.lists(finite, min_size=n_in * n_out, max_size=n_in * n_out))
        b = draw(st.lists(finite, min_size=n_out, max_size=n_out))
        layers.append(
            LayerParams(np.reshape(np.array(w, dtype), (n_out, n_in)), np.array(b, dtype))
        )
    return MlpNetwork(layers)


@FUZZ
@given(networks())
def test_glnn_roundtrip_is_exact(net):
    blob = model_bytes(net)
    back = model_from_bytes(blob)
    assert model_bytes(back) == blob
    assert back.dtype == net.dtype
    for p, q in zip(net.layers, back.layers):
        assert p.weights.tobytes() == q.weights.tobytes()
        assert p.bias.tobytes() == q.bias.tobytes()
