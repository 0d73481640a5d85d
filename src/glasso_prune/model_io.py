"""Model serialization: the GLNN binary format.

GLNN version 2 layout (all integers little-endian u32, all floats
little-endian IEEE 754 of the element size, 4 or 8 bytes):

    magic "GLNN" | version=2 | element size | L | L records of
        rows | cols | rows*cols weights (row-major) | rows biases

A network is written in its own dtype, so a float32 network takes 4-byte
elements and loads back as float32. Version 1 files, which have no
element-size field and always store 8-byte floats, still load, as
float64. Writing the same network twice produces byte-identical files.
Loading rejects an unknown version or element size, truncation, trailing
bytes, zero-width layers, shapes that do not chain, and non-finite
weights or biases.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ModelFormatError
from .network import LayerParams, MlpNetwork

MAGIC = b"GLNN"
VERSION = 2
# element size in bytes -> the dtype a network of that size computes in
_ELEMENT_DTYPES = {4: np.dtype(np.float32), 8: np.dtype(np.float64)}


def model_bytes(net: MlpNetwork) -> bytes:
    """Serialize a network to the GLNN wire format, in its own dtype.

    The arrays' own buffers are joined: each is copied once, into the result.
    """
    wire = net.dtype.newbyteorder("<")
    parts = [MAGIC, struct.pack("<III", VERSION, wire.itemsize, net.num_layers)]
    for p in net.layers:
        parts.append(struct.pack("<II", *p.weights.shape))
        parts.append(np.ascontiguousarray(p.weights, dtype=wire))
        parts.append(np.ascontiguousarray(p.bias, dtype=wire))
    return b"".join(parts)


def save_model(net: MlpNetwork, path) -> None:
    Path(path).write_bytes(model_bytes(net))


class _Reader:
    def __init__(self, data: bytes, name: str):
        self.data = memoryview(data)
        self.name = name
        self.pos = 0

    def take(self, n: int) -> memoryview:
        """The next n bytes, as a view into the data, not a copy."""
        if self.pos + n > len(self.data):
            raise ModelFormatError(
                f"{self.name}: truncated at byte {self.pos}, "
                f"needed {n} more of {len(self.data)}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _element_dtype(r: _Reader) -> np.dtype:
    """The parameter dtype the header after the magic declares."""
    version = r.u32()
    if version == 1:
        return _ELEMENT_DTYPES[8]
    if version != VERSION:
        raise ModelFormatError(f"{r.name}: unsupported version {version}")
    size = r.u32()
    if size not in _ELEMENT_DTYPES:
        raise ModelFormatError(
            f"{r.name}: element size {size}, expected one of {sorted(_ELEMENT_DTYPES)}"
        )
    return _ELEMENT_DTYPES[size]


def model_from_bytes(data: bytes, name: str = "<bytes>") -> MlpNetwork:
    r = _Reader(data, name)
    magic = r.take(4)
    if magic != MAGIC:
        raise ModelFormatError(f"{name}: bad magic {bytes(magic)!r}, expected {MAGIC!r}")
    dtype = _element_dtype(r)
    wire = dtype.newbyteorder("<")
    num_layers = r.u32()
    layers = []
    for _ in range(num_layers):
        rows = r.u32()
        cols = r.u32()
        if rows == 0 or cols == 0:
            raise ModelFormatError(
                f"{name}: layer {len(layers) + 1} has zero width ({rows}x{cols})"
            )
        w = np.frombuffer(r.take(wire.itemsize * rows * cols), dtype=wire)
        b = np.frombuffer(r.take(wire.itemsize * rows), dtype=wire)
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ModelFormatError(
                f"{name}: layer {len(layers) + 1} has a non-finite weight or bias"
            )
        layers.append(LayerParams(w.astype(dtype).reshape(rows, cols), b.astype(dtype)))
    if r.pos != len(data):
        raise ModelFormatError(f"{name}: {len(data) - r.pos} trailing bytes")
    try:
        return MlpNetwork(layers)
    except ValueError as e:
        raise ModelFormatError(f"{name}: {e}") from None


def load_model(path) -> MlpNetwork:
    path = Path(path)
    return model_from_bytes(path.read_bytes(), str(path))
