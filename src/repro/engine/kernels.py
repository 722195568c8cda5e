"""Elementwise kernels shared by the per-worker layers and the batched executor.

Each kernel makes as few passes over its operand as it can and allocates no
temporary it does not return, while staying bit-identical (float64 and
float32) to the plain NumPy expression it replaces:

* :func:`relu` / :func:`relu_backward` — ``np.where(x > 0, x, 0)`` and
  ``np.where(y > 0, grad, 0)`` as a SIMD ``fmax`` and a sign-bit mask on the
  integer view, with no boolean mask kept between the passes.
* :func:`layer_norm` / :func:`layer_norm_backward` — the normalisation over
  the last axis with ``x - mean`` computed once (``np.var`` recomputes the
  mean and the deviations) and the backward evaluated in place, in the same
  operation order as the textbook expression.

The kernels only depend on NumPy, so :mod:`repro.nn.layers` can import them
without pulling the rest of the engine into its import cycle.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

# Float dtype -> (same-width signed integer dtype, sign-bit shift).
_INT_VIEWS = {
    np.dtype(np.float64): (np.int64, 63),
    np.dtype(np.float32): (np.int32, 31),
}


def relu(x: np.ndarray) -> np.ndarray:
    """``max(x, 0)`` with NaN and ``-0.0`` mapped to ``+0.0``.

    ``fmax`` ignores NaN (returns the 0) and may keep ``-0.0``; adding
    ``+0.0`` turns ``-0.0`` into ``+0.0`` and leaves every other value
    unchanged, so the result equals ``np.where(x > 0, x, 0)`` bit for bit.
    """
    y = np.fmax(x, 0.0)
    y += 0.0
    return y


def relu_backward(y: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """``np.where(y > 0, grad, 0)`` for a :func:`relu` output ``y``.

    ``y`` is ``+0.0`` or positive, so its integer view is ``0`` or positive
    and ``-view >> (bits - 1)`` is an all-ones mask exactly where ``y > 0``.
    ANDing the gradient's bits with it keeps NaN, inf and ``-0.0`` gradients
    bit for bit.  Mixed dtypes fall back to ``np.where``.
    """
    views = _INT_VIEWS.get(y.dtype)
    if views is None or grad.dtype != y.dtype or grad.shape != y.shape:
        return np.where(y > 0, grad, grad.dtype.type(0))
    int_dtype, shift = views
    bits = np.negative(y.view(int_dtype))
    bits >>= shift
    bits &= grad.view(int_dtype)
    return bits.view(y.dtype)


def _mean_last(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)`` in numpy's own operation order.

    The divide by an ``intp`` count runs in float64 and casts back, which
    is what numpy's ``_mean``/``_var`` do (for float32 this differs from a
    plain ``/= d``).
    """
    total = np.add.reduce(x, axis=-1, keepdims=True)
    return np.true_divide(total, np.intp(x.shape[-1]), out=total, casting="unsafe")


def layer_norm(x: np.ndarray, eps: float) -> Tuple[np.ndarray, np.ndarray]:
    """``(x_hat, inv_std)`` of a normalisation over the last axis.

    Bit-identical to ``(x - x.mean(-1)) * (1 / sqrt(x.var(-1) + eps))``:
    the deviations are computed once and reused for the variance and for
    ``x_hat``, which is scaled in place.
    """
    x_hat = np.subtract(x, _mean_last(x))
    var = _mean_last(np.square(x_hat))
    var += eps
    inv_std = np.sqrt(var, out=var)
    np.divide(1.0, inv_std, out=inv_std)
    x_hat *= inv_std
    return x_hat, inv_std


def layer_norm_backward(
    dxhat: np.ndarray, x_hat: np.ndarray, inv_std: np.ndarray
) -> np.ndarray:
    """Input gradient of :func:`layer_norm`, written into ``dxhat``.

    Evaluates ``inv_std / d * (d * dxhat - sum(dxhat) - x_hat * sum(dxhat *
    x_hat))`` (sums over the last axis) operation by operation with one
    scratch array; ``dxhat`` (the caller's own ``grad * gamma``) is
    overwritten and returned.
    """
    d = x_hat.shape[-1]
    scratch = np.multiply(dxhat, x_hat)
    proj = np.add.reduce(scratch, axis=-1, keepdims=True)
    total = np.add.reduce(dxhat, axis=-1, keepdims=True)
    dxhat *= d
    dxhat -= total
    np.multiply(x_hat, proj, out=scratch)
    dxhat -= scratch
    dxhat *= inv_std / d
    return dxhat
