"""Gradient variance and second-moment statistics.

The paper tracks the variance of first-order gradients as a cheap proxy for
the Hessian's largest eigenvalue (Fig. 4, citing Accordion [27]); Δ(gᵢ) is
then the relative change of the smoothed statistic between consecutive
iterations (Eqn. 2).
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np


class RunningVariance:
    """Welford online mean/variance over scalar observations."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def update(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))


def _as_flat(grads) -> np.ndarray:
    """Accept either a named-array mapping or an already-flat vector."""
    if isinstance(grads, np.ndarray):
        return grads.ravel()
    flat_parts = [np.asarray(g).ravel() for g in grads.values()]
    if not flat_parts:
        return np.zeros(0)
    return np.concatenate(flat_parts)


def gradient_second_moment(grads) -> float:
    """Mean squared gradient entry, E[g^2], across all parameters.

    ``grads`` may be a named mapping or a flat gradient vector.
    """
    flat = _as_flat(grads)
    if flat.size == 0:
        return 0.0
    return float(np.mean(flat**2))


def gradient_variance(grads) -> float:
    """Variance of gradient entries across the whole model, Var[g].

    ``grads`` may be a named mapping or a flat gradient vector.
    """
    flat = _as_flat(grads)
    if flat.size < 2:
        return 0.0
    return float(flat.var())


def gradient_norm(grads) -> float:
    """Global L2 norm of the gradient, ||∇F||₂.

    ``grads`` may be a named mapping or a flat gradient vector.
    """
    flat = _as_flat(grads)
    return float(np.sqrt(np.sum(flat**2)))


_STATISTICS = ("variance", "second_moment", "norm")


def batch_gradient_statistic(matrix: np.ndarray, statistic: str) -> np.ndarray:
    """Per-worker scalar gradient statistics over an ``(N, D)`` matrix.

    Returns one float64 value per row: ``"variance"`` (``row.var()``),
    ``"second_moment"`` (``mean(row**2)``) or ``"norm"`` (``‖row‖₂``) —
    the Δ(gᵢ) inputs of all workers in one call on the SelSync hot path.

    The matrix is walked in groups of whole rows of about
    :data:`~repro.engine.fused_optim.BLOCK` elements (one row at a time
    when a row is longer), through one block-sized float64 scratch buffer:
    a float32 matrix is cast block by block, and no ``(N, D)`` temporary is
    made.  Every reduction still sees whole rows in numpy's own operation
    order, so the result is bit-identical to ``np.var`` / ``np.mean`` /
    ``np.sum`` over the float64 matrix.
    """
    from repro.engine.fused_optim import BLOCK

    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"expected an (N, D) matrix, got shape {matrix.shape}")
    if statistic not in _STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    n_rows, n_cols = matrix.shape
    out = np.empty(n_rows, dtype=np.float64)
    count = np.intp(n_cols)
    group = max(1, BLOCK // max(n_cols, 1))
    scratch = np.empty((min(group, n_rows), n_cols), dtype=np.float64)
    for lo in range(0, n_rows, group):
        rows = matrix[lo : lo + group]
        buf = scratch[: rows.shape[0]]
        if rows.dtype != np.float64:
            np.copyto(buf, rows)
            rows = buf
        if statistic == "variance":
            mean = np.add.reduce(rows, axis=1, keepdims=True)
            np.true_divide(mean, count, out=mean, casting="unsafe")
            rows = np.subtract(rows, mean, out=buf)
        np.square(rows, out=buf)
        total = np.add.reduce(buf, axis=1, out=out[lo : lo + group])
        if statistic == "norm":
            np.sqrt(total, out=total)
        else:
            np.true_divide(total, count, out=total, casting="unsafe")
    return out


def per_layer_norms(grads: Mapping[str, np.ndarray]) -> Dict[str, float]:
    """Per-parameter-tensor L2 norms (layer-wise diagnostics)."""
    return {name: float(np.linalg.norm(np.asarray(g).ravel())) for name, g in grads.items()}
