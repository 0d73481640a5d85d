"""Dense linear-algebra and scalar-function kernels.

Matrices are 2-d float64 numpy arrays in row-major (C) order, vectors are
1-d float64 arrays. Everything here is a pure function; inputs are never
modified.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d float64 array, rejecting anything else."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-d matrix, got shape {m.shape}")
    return np.ascontiguousarray(m)


def as_vector(a) -> np.ndarray:
    """Coerce to a 1-d float64 array, rejecting anything else."""
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeMismatchError(f"expected a 1-d vector, got shape {v.shape}")
    return np.ascontiguousarray(v)


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product m @ v with an explicit shape check."""
    if m.ndim != 2 or v.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeMismatchError(
            f"matvec shape mismatch: matrix {m.shape} x vector {v.shape}"
        )
    return m @ v


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, stable for large |v|.

    exp() is only ever called on -|v|, so it saturates to 0/1 without
    overflow warnings. With e = exp(-|v|), v >= 0 gives 1 / (1 + e) and
    v < 0 gives e / (1 + e): the same operands per element as splitting
    on the sign, without gathering and scattering through a boolean mask.
    """
    v = np.asarray(v, dtype=np.float64)
    e = np.abs(v)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(v >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-subtraction."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, target: int) -> tuple[float, np.ndarray]:
    """Cross-entropy of softmax(logits) against a class index.

    Returns (loss, gradient) where the gradient is softmax(logits) minus
    the one-hot target, so its entries sum to zero.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= target < logits.shape[0]:
        raise IndexError(
            f"target {target} out of range for {logits.shape[0]} classes"
        )
    shifted = logits - np.max(logits)
    log_norm = np.log(np.sum(np.exp(shifted)))
    loss = float(log_norm - shifted[target])
    grad = np.exp(shifted - log_norm)
    grad[target] -= 1.0
    return loss, grad


def column_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of every column."""
    return np.linalg.norm(m, axis=0)


def row_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row."""
    return np.linalg.norm(m, axis=1)
