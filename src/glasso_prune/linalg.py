"""Dense linear-algebra and scalar-function kernels.

Matrices are 2-d numpy arrays in row-major (C) order, vectors are 1-d
arrays, both float32 or float64: those two dtypes are kept as given, and
anything else is coerced to float64. Inputs are never modified, except the
array a caller passes as `out`, which receives the result.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError


_KEPT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _as_float(a) -> np.ndarray:
    a = np.asarray(a)
    return a if a.dtype in _KEPT_DTYPES else a.astype(np.float64)


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d float32 or float64 array, rejecting anything else."""
    m = _as_float(a)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-d matrix, got shape {m.shape}")
    return np.ascontiguousarray(m)


def as_vector(a) -> np.ndarray:
    """Coerce to a 1-d float32 or float64 array, rejecting anything else."""
    v = _as_float(a)
    if v.ndim != 1:
        raise ShapeMismatchError(f"expected a 1-d vector, got shape {v.shape}")
    return np.ascontiguousarray(v)


def sigmoid(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise logistic function, stable for large |v|.

    exp() is only ever called on -|v|, so it saturates to 0/1 without
    overflow warnings. With e = exp(-|v|), v >= 0 gives 1 / (1 + e) and
    v < 0 gives e / (1 + e): the same operands per element as splitting
    on the sign, without gathering and scattering through a boolean mask.
    The numerator is max(e, v >= 0), which is 1 or e because e <= 1, and
    NaN where e is NaN. The result, in v's dtype, goes into out when given
    (out=v works in place), else into a new array.
    """
    v = _as_float(v)
    e = np.abs(v)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, v >= 0, out=out)
    e += 1.0
    out /= e
    return out


def norms(m: np.ndarray, axis: int, dtype=None) -> np.ndarray:
    """Euclidean norm along axis (0: of every column, 1: of every row).

    Uses np.linalg.norm's own formula, so the bits match it. The squares
    and their sums are taken in dtype (by default m's own), each element
    widened as it is squared, so no widened copy of m is made.
    """
    return np.sqrt(np.add.reduce(np.square(m, dtype=dtype), axis=axis))
