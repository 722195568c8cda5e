"""A simulated training worker: model replica + optimizer + local data view.

Workers do real numerical work (forward, backward, optimizer updates on the
NumPy models); only *time* is simulated.  The training algorithms in
:mod:`repro.algorithms` and :mod:`repro.core` orchestrate workers through
this interface, which mirrors the per-worker body of Alg. 1.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.data.loader import DataLoader
from repro.nn.losses import cross_entropy_with_logits
from repro.nn.module import Module
from repro.optim.optimizer import Optimizer


class Worker:
    """One simulated worker with its own replica, optimizer and data stream."""

    def __init__(
        self,
        worker_id: int,
        model: Module,
        optimizer: Optimizer,
        loader: DataLoader,
        task: str = "classification",
    ) -> None:
        if worker_id < 0:
            raise ValueError(f"worker_id must be non-negative, got {worker_id}")
        if task not in ("classification", "language_modeling"):
            raise ValueError(f"unknown task {task!r}")
        self.worker_id = int(worker_id)
        self.model = model
        self.optimizer = optimizer
        self.loader = loader
        self.task = task
        self.steps_taken = 0
        self.last_loss: Optional[float] = None
        self._last_grad_norm: Optional[float] = None
        # True while last_grad_norm is still to be computed from the row.
        self._grad_norm_from_row = False

    @property
    def last_grad_norm(self) -> Optional[float]:
        """L2 norm of the worker's most recent gradient (None before any).

        In-process gradient computations only record that a new gradient
        sits in the worker's row (:meth:`record_gradient`); the norm
        ``sqrt(g @ g)`` is taken from the row on the first read and then
        cached, so steps whose norm nobody reads (only checkpoints do) skip
        a full pass over the gradient.  Assigning a value — the replica
        pool's child-side norms, a checkpoint restore — stores it as is.
        """
        if self._grad_norm_from_row:
            grad = self.model.grad_vector
            self._last_grad_norm = float(np.sqrt(grad @ grad))
            self._grad_norm_from_row = False
        return self._last_grad_norm

    @last_grad_norm.setter
    def last_grad_norm(self, value: Optional[float]) -> None:
        self._last_grad_norm = value
        self._grad_norm_from_row = False

    def record_gradient(self, loss: float) -> None:
        """Note a fresh gradient in the worker's row and its loss."""
        self.last_loss = float(loss)
        self._grad_norm_from_row = True

    # ------------------------------------------------------------------ #
    # core training ops
    # ------------------------------------------------------------------ #
    def next_batch(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sample the next local mini-batch (Alg. 1, line 6)."""
        return self.loader.next_batch()

    def compute_gradients(
        self, batch: Optional[Tuple[np.ndarray, np.ndarray]] = None
    ) -> Tuple[float, Dict[str, np.ndarray]]:
        """Forward + backward on one mini-batch; returns (loss, gradient dict).

        Gradients are left on the module (``Parameter.grad``) *and* returned
        as a copy, because the SelSync trainer needs them both to apply the
        local update and to measure Δ(gᵢ).  Internal callers on the hot path
        use :meth:`compute_gradients_flat` instead, which skips the dict
        snapshot entirely.
        """
        loss, _ = self.compute_gradients_flat(batch)
        return loss, self.model.gradient_dict()

    def compute_gradients_flat(
        self, batch: Optional[Tuple[np.ndarray, np.ndarray]] = None
    ) -> Tuple[float, np.ndarray]:
        """Forward + backward; returns (loss, live flat gradient view).

        The returned vector aliases the worker's gradient buffer (a row of
        the cluster's WorkerMatrix): it is valid until the next
        ``zero_grad``/backward and must be copied if kept longer.
        """
        if batch is None:
            batch = self.next_batch()
        inputs, targets = batch
        self.model.zero_grad()
        with telemetry.span("engine.forward"):
            logits = self.model.forward(inputs)
        with telemetry.span("engine.backward"):
            loss, dlogits = cross_entropy_with_logits(logits, targets)
            self.model.backward(dlogits)
        self.record_gradient(loss)
        return loss, self.model.grad_vector

    def apply_update(
        self,
        grads: Optional[Mapping[str, np.ndarray]] = None,
        lr: Optional[float] = None,
    ) -> None:
        """Apply one optimizer step (Alg. 1, line 9).

        ``grads`` defaults to the gradients already on the module; passing an
        explicit dict applies aggregated gradients instead (GA mode).
        """
        if lr is not None:
            self.optimizer.set_lr(lr)
        self.optimizer.step(grads)
        self.steps_taken += 1

    def train_step(self, lr: Optional[float] = None) -> float:
        """Convenience: compute local gradients and apply them immediately."""
        loss, _ = self.compute_gradients()
        self.apply_update(lr=lr)
        return loss

    # ------------------------------------------------------------------ #
    # state exchange
    # ------------------------------------------------------------------ #
    @property
    def param_vector(self) -> np.ndarray:
        """Live flat view of the replica's parameters (WorkerMatrix row)."""
        return self.model.param_vector

    @property
    def grad_vector(self) -> np.ndarray:
        """Live flat view of the replica's accumulated gradients."""
        return self.model.grad_vector

    def get_state(self) -> Dict[str, np.ndarray]:
        return self.model.state_dict()

    def set_state(self, state) -> None:
        """Load a replica state: a named dict or an already-flat vector."""
        if isinstance(state, np.ndarray):
            self.model.load_param_vector(state)
        else:
            self.model.load_state_dict(state)

    def state_delta(self, reference: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Difference between the local replica and a reference state (SSP pushes)."""
        current = self.model.state_dict()
        return {name: current[name] - np.asarray(reference[name]) for name in current}

    def state_delta_vector(self, reference: np.ndarray) -> np.ndarray:
        """Flat difference between the local replica and a reference vector."""
        params = self.model.param_vector
        return params - np.asarray(reference, dtype=params.dtype).ravel()

    @property
    def epoch_progress(self) -> float:
        return self.loader.epoch_progress
