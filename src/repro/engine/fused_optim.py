"""Fused whole-cluster optimizer updates.

When every worker runs the same optimizer family with identical
hyperparameters (the lockstep simulator's normal configuration), the N
per-worker flat updates collapse further into a handful of ``(N, D)``
matrix operations: the velocity buffers of all workers are rows of one
matrix, exactly like the parameter and gradient buffers.

Per-worker optimizers stay fully functional — their state is *re-bound*
onto the fused rows, so mixing fused steps (the trainers' hot path) with
individual ``optimizer.step()`` calls (SSP's sequential path, tests) keeps
one consistent state.

Each step is one cache-blocked pass: the ``(N, D)`` matrices are walked in
tiles of at most :data:`BLOCK` elements, and every elementwise operation of
the update runs on one tile (plus a block-sized scratch buffer) before the
next tile is touched, instead of streaming several ``(N, D)`` temporaries
through memory.  All operations are elementwise, so the result is
bit-identical to the unblocked matrix arithmetic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.worker_matrix import WorkerMatrix

#: Elements per tile of a blocked update (256 KiB of float64 per operand).
BLOCK = 32 * 1024

Tile = Tuple[slice, slice]
_TILES: Dict[Tuple[int, int, int], List[Tile]] = {}


def tiles(n_rows: int, n_cols: int, block: Optional[int] = None) -> List[Tile]:
    """``(rows, cols)`` slices of at most ``block`` elements covering a matrix.

    Narrow matrices are cut into groups of whole rows; rows of ``block`` or
    more columns are cut along the row, one row at a time — the layout a
    broadcast ``(1, D)`` gradient needs.  ``block`` defaults to
    :data:`BLOCK`.
    """
    block = block or BLOCK
    key = (n_rows, n_cols, block)
    cached = _TILES.get(key)
    if cached is None:
        cached = []
        if n_cols >= block:
            for row in range(n_rows):
                for lo in range(0, n_cols, block):
                    cached.append((slice(row, row + 1), slice(lo, min(lo + block, n_cols))))
        elif n_cols > 0:
            step = block // n_cols
            for lo in range(0, n_rows, step):
                cached.append((slice(lo, min(lo + step, n_rows)), slice(0, n_cols)))
        _TILES[key] = cached
    return cached


def _grad_rows(matrix: WorkerMatrix, grads: Optional[np.ndarray]) -> np.ndarray:
    """Each worker's own gradient rows, or one ``(1, D)`` row for all."""
    if grads is None:
        return matrix.grads
    return np.asarray(grads, dtype=matrix.dtype).reshape(1, -1)


class FusedSGDUpdate:
    """All workers' SGD steps as a few fused ``(N, D)`` matrix operations."""

    def __init__(self, workers: Sequence[object], matrix: WorkerMatrix) -> None:
        self._workers = list(workers)
        self._optimizers = [w.optimizer for w in workers]
        self._matrix = matrix
        ref = self._optimizers[0]
        self.momentum = ref.momentum
        self.weight_decay = ref.weight_decay
        self.nesterov = ref.nesterov
        if self.momentum:
            self.velocity = np.zeros_like(matrix.params)
            for row, opt in zip(self.velocity, self._optimizers):
                opt.rebind_velocity(row)
        else:
            self.velocity = None
        # Block-sized temporaries, viewed in each tile's shape.
        self._scratch = np.empty((2, BLOCK), dtype=matrix.dtype)

    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls, workers: Sequence[object], matrix: WorkerMatrix
    ) -> Optional["FusedSGDUpdate"]:
        """Build a fused updater, or None when workers aren't uniform SGD."""
        from repro.optim.sgd import SGD

        optimizers = [getattr(w, "optimizer", None) for w in workers]
        if not optimizers or any(type(o) is not SGD for o in optimizers):
            return None
        ref = optimizers[0]
        for opt in optimizers[1:]:
            if (
                opt.momentum != ref.momentum
                or opt.weight_decay != ref.weight_decay
                or opt.nesterov != ref.nesterov
            ):
                return None
        if any(o._trainable_mask is not None for o in optimizers):
            return None
        return cls(workers, matrix)

    # ------------------------------------------------------------------ #
    def apply(
        self,
        lr: Optional[float] = None,
        grads: Optional[np.ndarray] = None,
    ) -> bool:
        """One optimizer step for every worker.

        ``grads=None`` uses each worker's own gradient row; a flat ``(D,)``
        vector applies the same (aggregated) gradient to every replica.
        Returns False when the fused step cannot run (diverged per-worker
        learning rates) and the caller must fall back to the loop.
        """
        optimizers = self._optimizers
        if lr is not None:
            for opt in optimizers:
                opt.set_lr(lr)
        lr_value = optimizers[0].lr
        if any(opt.lr != lr_value for opt in optimizers[1:]):
            return False

        params = self._matrix.params
        grad_rows = _grad_rows(self._matrix, grads)
        wd, momentum, nesterov = self.weight_decay, self.momentum, self.nesterov
        for rows, cols in tiles(*params.shape):
            p = params[rows, cols]
            g = grad_rows[rows if grads is None else slice(None), cols]
            d_p, step = self._scratch[:, : p.size].reshape((2,) + p.shape)
            if wd:
                # g + wd·p, with the operands swapped: addition commutes.
                np.multiply(p, wd, out=d_p)
                d_p += g
            else:
                d_p = g
            if momentum:
                buf = self.velocity[rows, cols]
                buf *= momentum
                buf += d_p
                if nesterov:
                    np.multiply(buf, momentum, out=step)
                    step += d_p
                    step_dir = step
                else:
                    step_dir = buf
            else:
                step_dir = d_p
            np.multiply(step_dir, lr_value, out=step)
            p -= step

        for opt in optimizers:
            opt._step_count += 1
        for worker in self._workers:
            worker.steps_taken += 1
        return True


class FusedAdamUpdate:
    """All workers' Adam steps as a few fused ``(N, D)`` matrix operations.

    The first/second moment buffers of every worker are rows of two ``(N, D)``
    matrices (the exact analog of :class:`FusedSGDUpdate`'s velocity matrix);
    each per-worker :class:`~repro.optim.adam.Adam` is re-bound onto its rows,
    so fused steps and individual ``optimizer.step()`` calls (SSP's sequential
    path, tests) share one consistent state.  The arithmetic mirrors
    ``Adam._update_flat`` operation for operation, so a fused step is
    bit-identical to the per-worker loop.
    """

    def __init__(self, workers: Sequence[object], matrix: WorkerMatrix) -> None:
        self._workers = list(workers)
        self._optimizers = [w.optimizer for w in workers]
        self._matrix = matrix
        ref = self._optimizers[0]
        self.beta1 = ref.beta1
        self.beta2 = ref.beta2
        self.eps = ref.eps
        self.weight_decay = ref.weight_decay
        self.m = np.zeros_like(matrix.params)
        self.v = np.zeros_like(matrix.params)
        for m_row, v_row, opt in zip(self.m, self.v, self._optimizers):
            opt.rebind_moments(m_row, v_row)
        self._scratch = np.empty((3, BLOCK), dtype=matrix.dtype)

    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls, workers: Sequence[object], matrix: WorkerMatrix
    ) -> Optional["FusedAdamUpdate"]:
        """Build a fused updater, or None when workers aren't uniform Adam."""
        from repro.optim.adam import Adam

        optimizers = [getattr(w, "optimizer", None) for w in workers]
        if not optimizers or any(type(o) is not Adam for o in optimizers):
            return None
        ref = optimizers[0]
        for opt in optimizers[1:]:
            if (
                opt.beta1 != ref.beta1
                or opt.beta2 != ref.beta2
                or opt.eps != ref.eps
                or opt.weight_decay != ref.weight_decay
            ):
                return None
        if any(o._trainable_mask is not None for o in optimizers):
            return None
        return cls(workers, matrix)

    # ------------------------------------------------------------------ #
    def apply(
        self,
        lr: Optional[float] = None,
        grads: Optional[np.ndarray] = None,
    ) -> bool:
        """One Adam step for every worker (see :meth:`FusedSGDUpdate.apply`).

        Returns False when the fused step cannot run (diverged per-worker
        learning rates or bias-correction timesteps, e.g. after SSP stepped
        workers individually) and the caller must fall back to the loop.
        """
        optimizers = self._optimizers
        if lr is not None:
            for opt in optimizers:
                opt.set_lr(lr)
        lr_value = optimizers[0].lr
        if any(opt.lr != lr_value for opt in optimizers[1:]):
            return False
        t_value = optimizers[0]._t
        if any(opt._t != t_value for opt in optimizers[1:]):
            return False

        params = self._matrix.params
        grad_rows = _grad_rows(self._matrix, grads)
        t = t_value + 1
        for opt in optimizers:
            opt._t = t
        wd, beta1, beta2, eps = self.weight_decay, self.beta1, self.beta2, self.eps
        correction1 = 1.0 - beta1**t
        correction2 = 1.0 - beta2**t
        for rows, cols in tiles(*params.shape):
            p = params[rows, cols]
            g = grad_rows[rows if grads is None else slice(None), cols]
            d_p, step, denom = self._scratch[:, : p.size].reshape((3,) + p.shape)
            if wd:
                np.multiply(p, wd, out=d_p)
                d_p += g
            else:
                d_p = g
            m = self.m[rows, cols]
            m *= beta1
            np.multiply(d_p, 1.0 - beta1, out=step)
            m += step
            v = self.v[rows, cols]
            v *= beta2
            np.square(d_p, out=step)
            step *= 1.0 - beta2
            v += step
            # lr · m̂ / (√v̂ + eps), evaluated left to right like the
            # unblocked expression.
            np.divide(m, correction1, out=step)
            step *= lr_value
            np.divide(v, correction2, out=denom)
            np.sqrt(denom, out=denom)
            denom += eps
            step /= denom
            p -= step

        for opt in optimizers:
            opt._step_count += 1
        for worker in self._workers:
            worker.steps_taken += 1
        return True


def build_fused_update(workers: Sequence[object], matrix: WorkerMatrix):
    """Fused whole-cluster updater for a uniform worker set, or None.

    Tries each fused optimizer family in turn; trainers treat the result
    uniformly through its ``apply(lr=..., grads=...) -> bool`` interface.
    """
    fused = FusedSGDUpdate.build(workers, matrix)
    if fused is None:
        fused = FusedAdamUpdate.build(workers, matrix)
    return fused
