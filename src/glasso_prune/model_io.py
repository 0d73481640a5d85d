"""Model serialization: the GLNN binary format.

GLNN layout (all integers little-endian u32, all floats little-endian
f64):

    magic "GLNN" | version=1 | L | L records of
        rows | cols | rows*cols weights (row-major) | rows biases

A float32 network is written widened to f64, which is exact, and every
model loads as float64. Writing the same network twice produces
byte-identical files. Loading rejects truncation, trailing bytes,
zero-width layers, shapes that do not chain, and non-finite weights or
biases.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ModelFormatError
from .network import LayerParams, MlpNetwork

MAGIC = b"GLNN"
VERSION = 1


def model_bytes(net: MlpNetwork) -> bytes:
    """Serialize a network to the GLNN wire format."""
    parts = [MAGIC, struct.pack("<II", VERSION, net.num_layers)]
    for p in net.layers:
        rows, cols = p.weights.shape
        parts.append(struct.pack("<II", rows, cols))
        parts.append(np.ascontiguousarray(p.weights, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(p.bias, dtype="<f8").tobytes())
    return b"".join(parts)


def save_model(net: MlpNetwork, path) -> None:
    Path(path).write_bytes(model_bytes(net))


class _Reader:
    def __init__(self, data: bytes, name: str):
        self.data = data
        self.name = name
        self.pos = 0

    def take(self, n: int) -> bytes:
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


def model_from_bytes(data: bytes, name: str = "<bytes>") -> MlpNetwork:
    r = _Reader(data, name)
    magic = r.take(4)
    if magic != MAGIC:
        raise ModelFormatError(f"{name}: bad magic {magic!r}, expected {MAGIC!r}")
    version = r.u32()
    if version != VERSION:
        raise ModelFormatError(f"{name}: unsupported version {version}")
    num_layers = r.u32()
    layers = []
    for _ in range(num_layers):
        rows = r.u32()
        cols = r.u32()
        if rows == 0 or cols == 0:
            raise ModelFormatError(
                f"{name}: layer {len(layers) + 1} has zero width ({rows}x{cols})"
            )
        w = np.frombuffer(r.take(8 * rows * cols), dtype="<f8").reshape(rows, cols)
        b = np.frombuffer(r.take(8 * rows), dtype="<f8")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ModelFormatError(
                f"{name}: layer {len(layers) + 1} has a non-finite weight or bias"
            )
        layers.append(LayerParams(w.copy(), b.copy()))
    if r.pos != len(data):
        raise ModelFormatError(f"{name}: {len(data) - r.pos} trailing bytes")
    try:
        return MlpNetwork(layers)
    except ValueError as e:
        raise ModelFormatError(f"{name}: {e}") from None


def load_model(path) -> MlpNetwork:
    path = Path(path)
    return model_from_bytes(path.read_bytes(), str(path))
