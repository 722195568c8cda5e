"""Grid-stacked sweep execution: all S grid points as one (S·N, D) matrix.

A δ-sweep runs the *same* workload — same model architecture, same seeds,
same data order, same batch shapes — S times, varying only the
synchronization policy (δ threshold, aggregation mode, sync period).  The
sequential :func:`repro.harness.sweep.grid_sweep` therefore re-does S
identical forward/backward passes per global step.  Because every layer of
the :class:`~repro.engine.replica_exec.BatchedReplicaExecutor` treats the
replica (leading) axis purely batch-wise, rows are computationally
independent: stacking the S per-point ``(N, D)`` worker matrices into one
``(S·N, D)`` matrix and running *one* fused pass per step produces
bit-identical per-row results while amortizing all per-layer framework
overhead across the whole grid.

:class:`StackedSweepMatrix` owns that stacked storage.  Each grid point's
:class:`~repro.cluster.cluster.StackedSliceCluster` adopts an N-row slice of
it (the donated-storage path introduced for the shared-memory replica pool),
so aggregation, Δ(gᵢ) tracking, fused optimizer state and parameter-server
pushes all stay per-slice — each block evolves exactly as its sequential run
would.  Only the gradient computation is coordinated: the first slice to
request a global step triggers the fused pass for every row; the remaining
slices read their cached row ranges.

Memory safety: ``max_stacked_rows`` splits the S·N rows into independent
slabs, each driven by its own chunk executor.  Chunk boundaries need not
align to slice boundaries — rows are independent, so chunked execution is
bit-identical to unchunked.

Not supported (validated up front with actionable errors):

* model families outside the batched executor (use the sequential sweep);
* transformers with *active* dropout — shared-stream mask blocks are laid
  out per cluster, not per stacked row (the paper-scale transformer preset
  trains with ``dropout=0.0``);
* the multiprocessing replica pool (``pool_workers > 0``) — sharding the
  stacked matrix across pool processes is a planned follow-on.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.engine.replica_exec import BatchedReplicaExecutor
from repro.engine.worker_matrix import WorkerMatrix

__all__ = ["StackedSweepMatrix"]


class StackedSweepMatrix:
    """S stacked replica blocks of N workers each, as one (S·N, D) matrix.

    Lifecycle (driven by :func:`repro.harness.sweep.run_sweep_stacked`):

    1. construct with the grid size S and cluster size N;
    2. each slice cluster calls :meth:`slice_storage` during its own
       construction — the first call allocates the stacked storage (the flat
       layout D is only known once a reference model exists);
    3. :meth:`build_executors` builds one chunk executor per
       ``max_stacked_rows`` slab;
    4. every global step, each slice's ``compute_gradients_all`` calls
       :meth:`gradients_for_slice`; the first caller of a step triggers the
       fused pass for all rows, later callers read their cached ranges.

    The lockstep contract: all S slices must request gradients exactly once
    per global step (the interleaved :meth:`~repro.algorithms.base.
    BaseTrainer.run_stepwise` driver guarantees this); a slice running ahead
    raises rather than silently reading stale rows.
    """

    def __init__(
        self,
        num_slices: int,
        num_workers: int,
        max_stacked_rows: Optional[int] = None,
        verify_batches: bool = False,
    ) -> None:
        if num_slices < 1:
            raise ValueError(f"num_slices must be >= 1, got {num_slices}")
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if max_stacked_rows is not None and max_stacked_rows < 1:
            raise ValueError(
                f"max_stacked_rows must be >= 1 or None, got {max_stacked_rows}"
            )
        self.num_slices = int(num_slices)
        self.num_workers = int(num_workers)
        self.total_rows = self.num_slices * self.num_workers
        self.max_stacked_rows = None if max_stacked_rows is None else int(max_stacked_rows)
        self.verify_batches = bool(verify_batches)
        self.spec = None
        self.params: Optional[np.ndarray] = None
        self.grads: Optional[np.ndarray] = None
        self._claimed = [False] * self.num_slices
        self._executors: List[Tuple[int, int, BatchedReplicaExecutor]] = []
        self._losses = np.zeros(self.total_rows)
        self._norms = np.zeros(self.total_rows)
        self._slice_steps = [0] * self.num_slices
        self._computed_step = 0
        self._step_block: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._step_block_mask: Optional[np.ndarray] = None
        self._slice_masks: List[Optional[np.ndarray]] = [None] * self.num_slices

    # ------------------------------------------------------------------ #
    # storage
    # ------------------------------------------------------------------ #
    def slice_storage(self, slice_index: int, spec) -> Tuple[np.ndarray, np.ndarray]:
        """Donated (N, D) param/grad row views for one grid slice.

        The first call allocates the full (S·N, D) storage from ``spec``;
        later calls must present the same layout (every grid point shares
        one model architecture by construction).  Each slice may claim its
        rows only once.
        """
        if not 0 <= slice_index < self.num_slices:
            raise ValueError(
                f"slice_index {slice_index} out of range [0, {self.num_slices})"
            )
        if self.spec is None:
            self.spec = spec
            self.params = np.zeros((self.total_rows, spec.total_size), dtype=spec.dtype)
            self.grads = np.zeros_like(self.params)
        elif (
            spec.total_size != self.spec.total_size
            or np.dtype(spec.dtype) != np.dtype(self.spec.dtype)
        ):
            raise ValueError(
                "all stacked slices must share one flat layout; got "
                f"D={spec.total_size} dtype={np.dtype(spec.dtype)} vs "
                f"D={self.spec.total_size} dtype={np.dtype(self.spec.dtype)}"
            )
        if self._claimed[slice_index]:
            raise ValueError(f"slice {slice_index} already claimed its rows")
        self._claimed[slice_index] = True
        lo = slice_index * self.num_workers
        hi = lo + self.num_workers
        return self.params[lo:hi], self.grads[lo:hi]

    # ------------------------------------------------------------------ #
    # executors
    # ------------------------------------------------------------------ #
    def build_executors(self, module) -> None:
        """Build one chunk executor per ``max_stacked_rows`` slab of rows.

        ``module`` is any slice's already-adopted replica — the executor
        reads only its architecture; the parameter views come from this
        matrix's chunk sub-matrices.  Raises if the model family is not
        batchable (the caller should use the sequential sweep) or trains
        with active dropout (shared-stream masks are per-cluster blocks
        that do not tile across stacked slices).
        """
        from repro.engine.dropout_stream import module_has_active_dropout

        if self.spec is None or not all(self._claimed):
            missing = [i for i, claimed in enumerate(self._claimed) if not claimed]
            raise RuntimeError(
                f"cannot build executors before every slice claimed its rows "
                f"(missing slices: {missing})"
            )
        if module_has_active_dropout(module):
            raise ValueError(
                "stacked sweep execution does not support models with active "
                "dropout (shared dropout mask blocks are laid out per cluster, "
                "not per stacked row); train with dropout=0.0 or run the "
                "sequential sweep"
            )
        self._executors = []
        chunk = self.max_stacked_rows or self.total_rows
        for lo in range(0, self.total_rows, chunk):
            hi = min(lo + chunk, self.total_rows)
            sub = WorkerMatrix(
                hi - lo, self.spec, params=self.params[lo:hi], grads=self.grads[lo:hi]
            )
            executor, reason = BatchedReplicaExecutor.compile(sub, module)
            if executor is None:
                raise ValueError(
                    f"model {type(module).__name__!r} is not supported by the "
                    f"batched replica executor ({reason}); stacked sweeps require "
                    "a batchable model — run the sequential sweep instead"
                )
            self._executors.append((lo, hi, executor))

    # ------------------------------------------------------------------ #
    # elastic per-slice masks (repro.faults)
    # ------------------------------------------------------------------ #
    def set_slice_mask(self, slice_index: int, mask) -> None:
        """Mark rows of one slice as crashed (``False`` = inactive).

        ``None`` (or an all-``True`` mask) clears the slice's mask.  Masked
        rows still ride along in the fused pass — batched matmul shapes stay
        fixed — but their gradient rows are zeroed and their losses / norms
        reported as 0 when the slice reads its step, so nothing from a
        crashed row reaches the slice's aggregation.  Set the mask before
        the slice requests the step it should apply to.
        """
        if not 0 <= slice_index < self.num_slices:
            raise ValueError(
                f"slice_index {slice_index} out of range [0, {self.num_slices})"
            )
        if mask is None:
            self._slice_masks[slice_index] = None
            return
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.num_workers,):
            raise ValueError(
                f"mask must have shape ({self.num_workers},), got {mask.shape}"
            )
        if mask.all():
            self._slice_masks[slice_index] = None
            return
        if not mask.any():
            raise ValueError(
                f"slice {slice_index} mask would deactivate every worker"
            )
        self._slice_masks[slice_index] = mask.copy()

    def _apply_slice_mask(self, slice_index: int) -> None:
        """Zero a masked slice's crashed rows after the fused pass."""
        mask = self._slice_masks[slice_index]
        if mask is None:
            return
        rows = slice_index * self.num_workers + np.flatnonzero(~mask)
        self.grads[rows] = 0.0
        self._losses[rows] = 0.0
        self._norms[rows] = 0.0

    def _fill_masked_batches(self, slice_index: int, batches) -> List:
        """Substitute a placeholder batch at this slice's crashed slots."""
        mask = self._slice_masks[slice_index]
        if mask is None:
            return list(batches)
        placeholder = batches[int(np.flatnonzero(mask)[0])]
        if placeholder is None:
            raise ValueError(
                f"slice {slice_index} presented no batch for its first active "
                "worker; crashed slots may be None but active slots must not be"
            )
        return [b if b is not None else placeholder for b in batches]

    # ------------------------------------------------------------------ #
    # the fused step
    # ------------------------------------------------------------------ #
    def gradients_for_slice(
        self, slice_index: int, batches: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-worker (losses, grad-norms) for one slice at its next step.

        The first slice requesting a new global step triggers the fused
        computation for *all* rows, tiling its batch block across the S
        slices — valid because every slice's loaders are seeded identically,
        so all slices consume the same batch sequence (``verify_batches``
        asserts this, at the cost of an extra comparison per call).
        """
        if not self._executors:
            raise RuntimeError("build_executors must run before the first step")
        if len(batches) != self.num_workers:
            raise ValueError(
                f"expected {self.num_workers} worker batches, got {len(batches)}"
            )
        batches = self._fill_masked_batches(slice_index, batches)
        self._slice_steps[slice_index] += 1
        step = self._slice_steps[slice_index]
        if step == self._computed_step + 1:
            with telemetry.span("stacked.fused_step") as fused:
                fused.set("slices", self.num_slices)
                self._compute(batches, trigger_mask=self._slice_masks[slice_index])
            self._computed_step = step
            if telemetry.metrics_enabled():
                telemetry.count("repro_stacked_slice_reads_total", kind="fused")
        elif step != self._computed_step:
            raise RuntimeError(
                f"stacked slices fell out of lockstep: slice {slice_index} "
                f"requested step {step} but step {self._computed_step} is current"
            )
        else:
            if telemetry.metrics_enabled():
                telemetry.count("repro_stacked_slice_reads_total", kind="cached")
            if self.verify_batches:
                self._check_batches(slice_index, batches)
        self._apply_slice_mask(slice_index)
        lo = slice_index * self.num_workers
        hi = lo + self.num_workers
        return self._losses[lo:hi], self._norms[lo:hi]

    def _stack_block(
        self, batches: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One (N, batch, ...) input/target block, cast like the executor."""
        executor = self._executors[0][2]
        if executor.token_input:
            x = np.stack([np.asarray(b[0]) for b in batches])
        else:
            x = np.stack(
                [np.asarray(b[0], dtype=np.dtype(self.spec.dtype)) for b in batches]
            )
        targets = np.stack([np.asarray(b[1]) for b in batches])
        return x, targets

    def _compute(
        self,
        batches: Sequence[Tuple[np.ndarray, np.ndarray]],
        trigger_mask: Optional[np.ndarray] = None,
    ) -> None:
        x, targets = self._stack_block(batches)
        # Tile the N-worker block S times along the replica axis: row r of
        # the stacked pass sees batches[r % N], i.e. every slice sees the
        # identical batch sequence its sequential run would.
        reps = (self.num_slices,) + (1,) * (x.ndim - 1)
        x_full = np.tile(x, reps)
        t_full = np.tile(targets, (self.num_slices,) + (1,) * (targets.ndim - 1))
        for lo, hi, executor in self._executors:
            losses = executor.step_stacked(x_full[lo:hi], t_full[lo:hi])
            if losses is None:
                raise RuntimeError(
                    "fused stacked step rejected the batch block "
                    f"(shape {x_full.shape}, dtype {x_full.dtype}); the lockstep "
                    "contract guarantees uniform shapes, so this indicates a bug"
                )
            self._losses[lo:hi] = losses
        # One fused norm reduction over all S·N gradient rows — identical
        # per row to each slice executor's own grad_norms().
        g = self.grads
        self._norms[:] = np.sqrt(np.einsum("ij,ij->i", g, g))
        self._step_block = (x, targets) if self.verify_batches else None
        self._step_block_mask = trigger_mask if self.verify_batches else None

    def _check_batches(
        self, slice_index: int, batches: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> None:
        x, targets = self._stack_block(batches)
        ref_x, ref_t = self._step_block
        # Crashed slots hold placeholder batches, which legitimately differ
        # across slices with different fault masks — compare only the slots
        # both the triggering slice and this slice had active.
        both = np.ones(self.num_workers, dtype=bool)
        if self._step_block_mask is not None:
            both &= self._step_block_mask
        mask = self._slice_masks[slice_index]
        if mask is not None:
            both &= mask
        if not (
            np.array_equal(x[both], ref_x[both])
            and np.array_equal(targets[both], ref_t[both])
        ):
            raise RuntimeError(
                f"slice {slice_index} presented different batches than the "
                f"slice that computed step {self._computed_step}; stacked "
                "sweeps require identically seeded loaders across grid points"
            )
