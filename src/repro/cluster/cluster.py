"""Lockstep simulated cluster: construction and shared bookkeeping.

``SimulatedCluster`` wires together everything a training algorithm needs:

* ``num_workers`` :class:`~repro.cluster.worker.Worker` replicas built from a
  model factory, each with its own optimizer, RNG stream and data partition,
* a :class:`~repro.comm.parameter_server.ParameterServer` initialized from a
  broadcast of worker 0's parameters (so every replica starts identical, as
  in BSP),
* an :class:`~repro.comm.backend.InProcessBackend` for collectives,
* a :class:`~repro.cluster.clock.SimulatedClock` charged through the compute
  and communication cost models so algorithms can report simulated wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.cluster.clock import SimulatedClock
from repro.cluster.compute_model import ComputeCostModel, PAPER_WORKLOADS, WorkloadSpec
from repro.cluster.heterogeneity import HomogeneousSpeed, WorkerSpeedModel
from repro.cluster.worker import Worker
from repro.comm.backend import InProcessBackend
from repro.comm.cost_model import CommunicationCostModel
from repro.comm.parameter_server import ParameterServer
from repro.engine import (
    BatchedReplicaExecutor,
    WorkerMatrix,
    build_fused_update,
    resolve_dtype,
    resolve_transport_dtype,
)
from repro.data.loader import DataLoader
from repro.data.partition import DefaultPartitioner, Partitioner
from repro.metrics.evaluation import EvalResult, evaluate_model
from repro.nn.module import Module
from repro.optim.optimizer import Optimizer
from repro.utils.rng import spawn_rngs


@dataclass
class ClusterConfig:
    """Configuration of the simulated cluster.

    ``workload`` selects the cost-model spec (defaults to the ResNet101 spec)
    so that simulated times reflect paper-scale model sizes even though the
    replicas themselves are small analogs.

    ``dtype`` selects the engine compute dtype: ``"float64"`` (default, the
    seed's bit-exact regime) or ``"float32"`` (the paper clusters' numerical
    regime; roughly half the memory traffic per step).

    ``transport_dtype`` selects the simulated *wire* format for model
    payloads independently of the compute dtype: ``None`` keeps the
    canonical float32 wire, ``"float16"`` prices half-precision transfers
    (halving every sync round on the simulated clock), ``"float64"`` a
    double-precision wire.  Only byte accounting changes — the replicas
    still train in the compute dtype.

    ``pool_workers`` enables the shared-memory multiprocessing replica pool
    (:mod:`repro.parallel`): the worker matrix is backed by shared memory
    and forward/backward is sharded over ``pool_workers`` OS processes (one
    per replica group), bit-identically in float64 to the single-process
    engine.  ``0`` (the default) keeps everything in-process.
    ``pool_start_method`` picks the multiprocessing start method
    (``"fork"`` / ``"spawn"`` / ``"forkserver"``; ``None`` = platform
    default, preferring fork).

    ``telemetry`` names a JSONL trace-sink path: building the cluster turns
    span tracing on (:mod:`repro.telemetry`) with finished spans appended
    to that file, and ``close()`` flushes it.  ``None`` (the default) keeps
    the allocation-free no-op fast path; the ``REPRO_TRACE_FILE``
    environment variable is the process-wide equivalent.
    """

    num_workers: int = 4
    batch_size: int = 32
    seed: int = 0
    task: str = "classification"
    workload: str = "resnet101"
    topology: str = "ps"
    dtype: str = "float64"
    transport_dtype: Optional[str] = None
    pool_workers: int = 0
    pool_start_method: Optional[str] = None
    eval_batch_size: int = 512
    eval_max_batches: Optional[int] = 8
    top_k: Optional[int] = None
    speed_model: WorkerSpeedModel = field(default_factory=HomogeneousSpeed)
    telemetry: Optional[str] = None

    def __post_init__(self) -> None:
        if self.telemetry is not None and not isinstance(self.telemetry, str):
            raise ValueError(
                f"telemetry must be a trace-file path or None, got {self.telemetry!r}"
            )
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.task not in ("classification", "language_modeling"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.workload not in PAPER_WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; available: {sorted(PAPER_WORKLOADS)}"
            )
        # Raises on unsupported dtypes (anything outside float32/float64).
        resolve_dtype(self.dtype)
        # Raises on unsupported transport dtypes (None -> float32 wire).
        resolve_transport_dtype(self.transport_dtype)
        if self.pool_workers < 0:
            raise ValueError(f"pool_workers must be >= 0, got {self.pool_workers}")
        if self.pool_workers or self.pool_start_method is not None:
            # Raises on unknown / unavailable start methods.
            from repro.parallel.pool import resolve_start_method

            resolve_start_method(self.pool_start_method)


class SimulatedCluster:
    """N workers + parameter server + cost models, trained in lockstep."""

    def __init__(
        self,
        model_factory: Callable[[np.random.Generator], Module],
        optimizer_factory: Callable[[Module], Optimizer],
        train_dataset,
        test_dataset,
        config: ClusterConfig,
        partitioner: Optional[Partitioner] = None,
        worker_batch_size: Optional[int] = None,
    ) -> None:
        self.config = config
        if config.telemetry is not None:
            telemetry.configure(tracing=True, trace_file=config.telemetry)
        self.train_dataset = train_dataset
        self.test_dataset = test_dataset
        self.partitioner = partitioner or DefaultPartitioner(seed=config.seed)
        n = config.num_workers
        batch_size = worker_batch_size or config.batch_size

        rngs = spawn_rngs(config.seed, n + 1)
        # Engine compute dtype: every buffer built below (worker matrix rows,
        # optimizer state, the parameter-server state) uses this dtype.
        self.dtype = resolve_dtype(config.dtype)
        # Build worker 0's model first and copy its weights to every other
        # replica, mirroring the initial pullFromPS of Alg. 1 (line 3).
        reference_model = model_factory(rngs[0])
        reference_model.flatten_parameters(dtype=self.dtype)
        initial_state = reference_model.state_dict()

        partition = self.partitioner.partition(len(train_dataset), n)
        self.partition_result = partition

        # All worker replicas live as rows of one (N, D) matrix: parameters
        # and gradients are zero-copy views into it, so aggregation,
        # broadcast and Δ(gᵢ) tracking are single vectorized operations.
        spec = reference_model.flat_spec
        self._shared_storage = None
        self.matrix = self._build_matrix(spec)

        self.workers: List[Worker] = []
        for worker_id in range(n):
            model = model_factory(rngs[worker_id])
            self.matrix.adopt(worker_id, model)
            model.load_param_vector(reference_model.param_vector)
            optimizer = optimizer_factory(model)
            loader = DataLoader(
                train_dataset,
                indices=partition.worker_indices[worker_id],
                batch_size=batch_size,
                shuffle_each_epoch=self.partitioner.shuffle_each_epoch,
                seed=config.seed * 1000 + worker_id,
            )
            self.workers.append(
                Worker(worker_id, model, optimizer, loader, task=config.task)
            )

        self.ps = ParameterServer(
            initial_state,
            num_workers=n,
            dtype=self.dtype,
            transport_dtype=config.transport_dtype,
        )
        # Shared per-step dropout stream for any model with active dropout:
        # the batched executor replays its (N, ...) mask blocks, and
        # replica-pool children stay mask-identical without IPC.
        from repro.engine import (
            SharedDropoutStream,
            attach_shared_dropout,
            module_has_active_dropout,
        )

        self.dropout_stream = None
        self._dropout_tick = 0
        model0 = self.workers[0].model
        if module_has_active_dropout(model0):
            self.dropout_stream = SharedDropoutStream(config.seed, n)
            # Arm the stream at tick 0 so direct training-mode forwards
            # (e.g. Worker.train_step outside a trainer) work immediately;
            # every cluster gradient computation advances to a fresh tick.
            self.dropout_stream.set_step(self._dropout_tick)
            for worker_id, worker in enumerate(self.workers):
                attach_shared_dropout(worker.model, self.dropout_stream, worker_slot=worker_id)
        # Fused all-replica forward/backward compiled from the model tree
        # (None plus the compiler's reason when some module has no batched
        # kernel; compute_gradients_all then runs the per-worker loop).
        self.replica_exec, self.exec_reason = BatchedReplicaExecutor.compile(
            self.matrix, model0
        )
        # Fused all-worker optimizer stepping when every worker runs the
        # same SGD or Adam configuration (None otherwise; apply_local_updates
        # then loops over the per-worker optimizers).
        self.fused_update = build_fused_update(self.workers, self.matrix)
        # Multiprocessing replica pool: one process per replica group shards
        # forward/backward over the shared matrix; aggregation, tracking and
        # optimizer stepping stay on this (parent) process.
        self.pool = None
        if config.pool_workers:
            from repro.parallel.pool import ReplicaPool

            self.pool = ReplicaPool(
                self._shared_storage,
                [worker.model for worker in self.workers],
                num_groups=config.pool_workers,
                start_method=config.pool_start_method,
                use_executor=self.replica_exec is not None,
                dropout_seed=(
                    self.dropout_stream.seed if self.dropout_stream is not None else None
                ),
            )
        self.backend = InProcessBackend(
            world_size=n, transport_dtype=config.transport_dtype
        )
        self.clock = SimulatedClock(num_workers=n)
        self.comm_model = CommunicationCostModel(
            topology=config.topology, transport_dtype=config.transport_dtype
        )
        self.workload_spec: WorkloadSpec = PAPER_WORKLOADS[config.workload]
        self.compute_model = ComputeCostModel(self.workload_spec)
        self.speed_model = config.speed_model
        self._eval_rng = rngs[n]
        self.global_step = 0
        # Elasticity state (repro.faults): crashed workers leave the active
        # mask, dropping their rows from the fused engine and every
        # aggregation; straggler bursts scale per-worker compute speed.
        # All-True / all-ones is the fast path — every masked branch below
        # is a strict no-op then.
        self.active_mask = np.ones(n, dtype=bool)
        self.fault_speed_scale = np.ones(n, dtype=np.float64)

    @property
    def exec_path(self) -> str:
        """How gradients are computed: ``pool``, ``batched`` or ``per_worker``."""
        if self.pool is not None:
            return "pool"
        return "batched" if self.replica_exec is not None else "per_worker"

    # ------------------------------------------------------------------ #
    # matrix construction (extension point)
    # ------------------------------------------------------------------ #
    def _build_matrix(self, spec) -> WorkerMatrix:
        """Build the cluster's ``(N, D)`` worker matrix for ``spec``.

        The flat layout is only known once the reference model has been
        built, so this runs mid-``__init__`` — it is the extension point for
        alternative storage owners: with ``pool_workers`` the rows live in
        parent-owned shared memory (replica-pool children map the same
        segments zero-copy), and :class:`StackedSliceCluster` overrides this
        to adopt donated row slices of a sweep-wide stacked matrix.
        """
        n = self.config.num_workers
        if self.config.pool_workers:
            from repro.parallel.shm import SharedMatrixStorage

            self._shared_storage = SharedMatrixStorage(n, spec.total_size, spec.dtype)
            return WorkerMatrix(
                n, spec, params=self._shared_storage.params, grads=self._shared_storage.grads
            )
        return WorkerMatrix(n, spec)

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def num_workers(self) -> int:
        return self.config.num_workers

    @property
    def batch_size(self) -> int:
        return self.workers[0].loader.batch_size

    @property
    def num_active(self) -> int:
        """Number of workers currently in the active set."""
        return int(self.active_mask.sum())

    @property
    def active_indices(self) -> np.ndarray:
        """Worker ids currently in the active set, ascending."""
        return np.flatnonzero(self.active_mask)

    @property
    def primary_worker(self) -> Worker:
        """The first active worker (worker 0 unless it crashed).

        Algorithms that track a reference replica (BSP's PS mirror, SelSync's
        GA checkpoint) use this instead of ``workers[0]`` so a crashed
        worker 0 never becomes the reference.
        """
        if self.active_mask[0]:
            return self.workers[0]
        return self.workers[int(self.active_indices[0])]

    @property
    def active_params(self) -> np.ndarray:
        """Parameter rows of the active workers.

        The live full matrix when every worker is active (the common case —
        zero-copy), a gathered ``(num_active, D)`` copy under an elastic mask.
        """
        if self.active_mask.all():
            return self.matrix.params
        return self.matrix.params[self.active_mask]

    @property
    def active_grads(self) -> np.ndarray:
        """Gradient rows of the active workers (see :attr:`active_params`)."""
        if self.active_mask.all():
            return self.matrix.grads
        return self.matrix.grads[self.active_mask]

    # ------------------------------------------------------------------ #
    # elasticity (repro.faults)
    # ------------------------------------------------------------------ #
    def deactivate_worker(self, worker_id: int) -> None:
        """Drop a worker from the active set (a crash).

        Its parameter and gradient rows freeze in place: the fused engine,
        optimizer stepping, aggregation and broadcast all skip the row until
        :meth:`reactivate_worker`.
        """
        self._check_worker_id(worker_id)
        if self.pool is not None:
            raise RuntimeError(
                "the replica pool does not support elastic worker masks; "
                "run fault scenarios in-process (pool_workers=0)"
            )
        if not self.active_mask[worker_id]:
            raise ValueError(f"worker {worker_id} is already inactive")
        if self.num_active == 1:
            raise ValueError("cannot deactivate the last active worker")
        # Pin the lazily computed gradient norm: the fused step overwrites
        # a crashed row with a placeholder gradient and then zeroes it.
        worker = self.workers[worker_id]
        worker.last_grad_norm = worker.last_grad_norm
        self.active_mask[worker_id] = False

    def reactivate_worker(self, worker_id: int) -> None:
        """Return a crashed worker to the active set (a rejoin)."""
        self._check_worker_id(worker_id)
        if self.active_mask[worker_id]:
            raise ValueError(f"worker {worker_id} is already active")
        self.active_mask[worker_id] = True

    def _check_worker_id(self, worker_id: int) -> None:
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(
                f"worker_id must be in [0, {self.num_workers}), got {worker_id}"
            )

    def next_batches(self) -> List:
        """One local mini-batch per worker; ``None`` at crashed slots.

        Crashed workers' loaders do not advance, so their data stream
        resumes exactly where it stopped when they rejoin.
        """
        return [
            worker.next_batch() if self.active_mask[worker.worker_id] else None
            for worker in self.workers
        ]

    # ------------------------------------------------------------------ #
    # checkpoint / restore (repro.faults)
    # ------------------------------------------------------------------ #
    def checkpoint(self):
        """Snapshot the full cluster state as contiguous copies.

        Returns a :class:`~repro.faults.checkpoint.ClusterCheckpoint`; see
        :meth:`restore`.
        """
        from repro.faults.checkpoint import snapshot_cluster

        return snapshot_cluster(self)

    def restore(self, ckpt) -> None:
        """Write a checkpoint back in place — bit-identical continuation."""
        from repro.faults.checkpoint import restore_cluster

        restore_cluster(self, ckpt)

    def steps_per_epoch(self) -> int:
        """Global steps per pass over the full training set (BSP semantics)."""
        return max(len(self.train_dataset) // (self.batch_size * self.num_workers), 1)

    # ------------------------------------------------------------------ #
    # gradient computation
    # ------------------------------------------------------------------ #
    def _next_dropout_tick(self) -> int:
        """Advance the shared dropout stream by one gradient computation."""
        self._dropout_tick += 1
        if self.dropout_stream is not None:
            self.dropout_stream.set_step(self._dropout_tick)
        return self._dropout_tick

    def compute_gradients_all(self, batches) -> List[float]:
        """Forward + backward for every worker; returns per-worker losses.

        With a replica pool the pass is sharded across the pool's processes
        (gradients land in the shared matrix rows).  In-process, it uses the
        engine's fused batched-replica executor when available (one set of
        batched matmuls for the whole cluster, gradients written straight
        into the matrix rows), otherwise the per-worker loop.  ``batches``
        holds one ``(inputs, targets)`` pair per worker.
        """
        tick = self._next_dropout_tick()
        if not self.active_mask.all():
            return self._compute_gradients_masked(batches)
        with telemetry.span("cluster.gradients"):
            if self.pool is not None:
                losses, norms = self.pool.compute_all(batches, tick=tick)
                for worker, loss, norm in zip(self.workers, losses, norms):
                    worker.last_loss = float(loss)
                    worker.last_grad_norm = float(norm)
                return [float(l) for l in losses]
            if self.replica_exec is not None:
                losses = self.replica_exec.step(batches)
                if losses is not None:
                    for worker, loss in zip(self.workers, losses):
                        worker.record_gradient(loss)
                    return [float(l) for l in losses]
            return [
                worker.compute_gradients_flat(batch)[0]
                for worker, batch in zip(self.workers, batches)
            ]

    def _compute_gradients_masked(self, batches) -> List[float]:
        """Gradients for the active workers only; returns their losses.

        ``batches`` is full-length with ``None`` at crashed slots (see
        :meth:`next_batches`).  The fused executor still runs all N rows —
        crashed slots compute against a placeholder batch so the batched
        matmul shapes stay fixed — but their gradient rows are zeroed
        afterwards and their losses dropped, so nothing from a crashed row
        ever reaches an aggregation.
        """
        if self.pool is not None:
            raise RuntimeError(
                "the replica pool does not support elastic worker masks; "
                "run fault scenarios in-process (pool_workers=0)"
            )
        mask = self.active_mask
        active = np.flatnonzero(mask)
        with telemetry.span("cluster.gradients"):
            if self.replica_exec is not None:
                placeholder = batches[int(active[0])]
                filled = [b if b is not None else placeholder for b in batches]
                losses = self.replica_exec.step(filled)
                if losses is not None:
                    self.matrix.grads[~mask] = 0.0
                    out: List[float] = []
                    for worker_id in active:
                        self.workers[worker_id].record_gradient(losses[worker_id])
                        out.append(float(losses[worker_id]))
                    return out
            return [
                self.workers[worker_id].compute_gradients_flat(batches[worker_id])[0]
                for worker_id in active
            ]

    def compute_gradients_worker(self, worker: Worker, batch=None) -> float:
        """Forward + backward for a single worker (SSP's round-robin path).

        The batch is always sampled on the parent (loader state lives here),
        then computed remotely when a replica pool is active — the worker's
        shared parameter row is already current, and its gradient row
        receives the result.
        """
        if batch is None:
            batch = worker.next_batch()
        tick = self._next_dropout_tick()
        with telemetry.span("cluster.gradients"):
            if self.pool is not None:
                loss, norm = self.pool.compute_one(worker.worker_id, batch, tick=tick)
                worker.last_loss = loss
                worker.last_grad_norm = norm
                return loss
            return worker.compute_gradients_flat(batch)[0]

    def apply_local_updates(
        self, lr: Optional[float] = None, grads: Optional[np.ndarray] = None
    ) -> None:
        """One optimizer step on every worker (fused matrix form when possible).

        ``grads=None`` applies each worker's own gradients; a flat ``(D,)``
        vector applies the same aggregated gradient to every replica.
        """
        with telemetry.span("cluster.update"):
            if (
                self.active_mask.all()
                and self.fused_update is not None
                and self.fused_update.apply(lr=lr, grads=grads)
            ):
                return
            # Per-worker optimizers alias the fused state rows, so the loop
            # (also the elastic-mask path: crashed rows stay frozen) keeps
            # one consistent state with the fused step.
            for worker_id in np.flatnonzero(self.active_mask):
                self.workers[worker_id].apply_update(grads=grads, lr=lr)

    # ------------------------------------------------------------------ #
    # simulated-time charging
    # ------------------------------------------------------------------ #
    def charge_compute_step(self, batch_size: Optional[int] = None) -> np.ndarray:
        """Charge one parallel compute phase; returns per-worker durations."""
        b = batch_size or self.batch_size
        # The speed model is always consulted (stateful models advance their
        # RNG once per step); fault bursts then compound multiplicatively.
        speeds = self.speed_model.speed_factors(self.num_workers, self.global_step)
        if not np.all(self.fault_speed_scale == 1.0):
            speeds = speeds * self.fault_speed_scale
        durations = self.compute_model.step_seconds_batch(b, speeds)
        if not self.active_mask.all():
            durations = np.where(self.active_mask, durations, 0.0)
        self.clock.advance_all(durations, bucket="compute")
        return durations

    def charge_sync(self) -> float:
        """Charge one full-model aggregation round (barrier + transfer)."""
        seconds = self.comm_model.sync_seconds(
            self.workload_spec.model_bytes, self.num_active
        )
        self.clock.barrier_and_add(seconds, bucket="communication")
        if telemetry.metrics_enabled():
            # Modeled aggregate wire volume: every active worker pushes its
            # update and pulls the averaged state, in the wire format.
            telemetry.count(
                "repro_comm_wire_bytes_total",
                2.0
                * self.workload_spec.model_bytes
                * self.comm_model.wire_scale
                * self.num_active,
                kind="sync",
            )
        return seconds

    def charge_flags_allgather(self) -> float:
        """Charge the SelSync synchronization-status all-gather."""
        seconds = self.comm_model.flags_seconds(self.num_active)
        self.clock.barrier_and_add(seconds, bucket="communication")
        if telemetry.metrics_enabled():
            n = self.num_active
            telemetry.count(
                "repro_comm_wire_bytes_total",
                max((n - 1) / 8.0, 1.0) * n,
                kind="flags",
            )
        return seconds

    def charge_p2p(self, num_bytes: float) -> float:
        """Charge a point-to-point transfer (data injection, SSP pushes)."""
        seconds = self.comm_model.p2p_seconds(num_bytes)
        self.clock.barrier_and_add(seconds, bucket="communication")
        if telemetry.metrics_enabled():
            telemetry.count("repro_comm_wire_bytes_total", float(num_bytes), kind="p2p")
        return seconds

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def evaluate_state(self, state) -> EvalResult:
        """Evaluate a (global) parameter state on the held-out test set.

        ``state`` may be a named dict or an already-flat parameter vector.
        """
        model = self.workers[0].model
        backup = model.param_vector.copy()
        if isinstance(state, np.ndarray):
            model.load_param_vector(state)
        else:
            model.load_state_dict(state)
        try:
            result = evaluate_model(
                model,
                self.test_dataset,
                task=self.config.task,
                batch_size=self.config.eval_batch_size,
                max_batches=self.config.eval_max_batches,
                top_k=self.config.top_k,
            )
        finally:
            model.load_param_vector(backup)
        return result

    def evaluate_worker_average(self) -> EvalResult:
        """Evaluate the average of all current worker replicas.

        This is the model a semi-synchronous method would obtain if it
        synchronized right now; it is the checkpoint metric used in the
        convergence curves (Figs. 9, 10, 12).
        """
        return self.evaluate_state(self.average_worker_vector())

    def evaluate_global(self) -> EvalResult:
        """Evaluate the parameter-server state."""
        return self.evaluate_state(self.ps.pull())

    # ------------------------------------------------------------------ #
    # misc helpers
    # ------------------------------------------------------------------ #
    def broadcast_state(self, state) -> None:
        """Load a global state into every replica by one matrix row assignment.

        ``state`` may be a named dict or an already-flat parameter vector.
        """
        if not isinstance(state, np.ndarray):
            state = self.matrix.spec.flatten_tree(state)
        if self.active_mask.all():
            self.matrix.broadcast(state)
            return
        # Elastic mask: only active rows receive the global state; crashed
        # rows stay frozen until their rejoin restores them.
        vector = np.asarray(state, dtype=self.matrix.dtype).ravel()
        if vector.size != self.matrix.spec.total_size:
            raise ValueError(
                f"broadcast vector has length {vector.size}, "
                f"expected {self.matrix.spec.total_size}"
            )
        self.matrix.params[self.active_mask] = vector

    def average_worker_states(self) -> Dict[str, np.ndarray]:
        """Named replica average (one fused mean over the worker matrix).

        Under an elastic mask the mean runs over the active rows only.
        """
        if self.active_mask.all():
            return self.matrix.mean_state_dict()
        mean = self.matrix.params[self.active_mask].mean(axis=0)
        return self.matrix.spec.unflatten(mean)

    def average_worker_vector(self) -> np.ndarray:
        """Flat replica average — the engine-level form of PA aggregation."""
        if self.active_mask.all():
            return self.matrix.mean_params()
        return self.matrix.params[self.active_mask].mean(axis=0)

    def replica_divergence(self) -> float:
        """Mean L2 distance of worker replicas from their average (drift diagnostic)."""
        return self.matrix.divergence()

    # ------------------------------------------------------------------ #
    # batched per-layer statistics (repro.stats over matrix slices)
    # ------------------------------------------------------------------ #
    def layer_gradient_norms(self) -> Dict[str, np.ndarray]:
        """Per-layer gradient L2 norms for every worker: ``{name: (N,)}``.

        Computed from ``ParamSpec`` column slices of the gradient matrix in
        one fused reduction per layer — no per-worker unflatten.
        """
        from repro.stats.layer_stats import matrix_layer_norms

        return matrix_layer_norms(self.matrix.grads, self.matrix.spec)

    def layer_parameter_norms(self) -> Dict[str, np.ndarray]:
        """Per-layer parameter L2 norms for every worker: ``{name: (N,)}``."""
        from repro.stats.layer_stats import matrix_layer_norms

        return matrix_layer_norms(self.matrix.params, self.matrix.spec)

    def layer_gradient_sample(self, name: str, max_samples: Optional[int] = None):
        """Pooled gradient entries of one layer across all workers (KDE input)."""
        from repro.stats.layer_stats import layer_sample

        return layer_sample(self.matrix.grads, self.matrix.spec, name, max_samples=max_samples)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down the replica pool and release shared-memory segments.

        Idempotent and safe to skip: the pool and the storage both carry GC
        finalizers, so abandoned clusters clean up after themselves — but
        explicit closing releases OS resources deterministically (the
        harness closes every cluster it builds).
        """
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self.config.telemetry is not None:
            telemetry.flush()
        if self._shared_storage is not None:
            # Unlinks the segment names; the parent's own views (the matrix,
            # every model and optimizer buffer) stay valid until GC.
            self._shared_storage.close()
            self._shared_storage = None

    def __enter__(self) -> "SimulatedCluster":
        """Context-manager entry; pairs pool/shm ownership with a scope."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: always :meth:`close` (idempotent)."""
        self.close()


class StackedSliceCluster(SimulatedCluster):
    """One grid point of a stacked sweep, living as an N-row slice of a
    sweep-wide ``(S·N, D)`` matrix.

    Built by :func:`repro.harness.sweep.run_sweep_stacked`: each of the S
    grid points gets a full :class:`SimulatedCluster` — its own workers,
    loaders, parameter server, backend and clock — but parameter/gradient
    storage is donated by a
    :class:`~repro.engine.sweep_exec.StackedSweepMatrix`, and gradient
    computation defers to the coordinator's fused pass over all S·N rows.
    Everything a sync policy touches (aggregation, Δ(gᵢ) statistics, fused
    optimizer state, PS pushes) operates on this slice's rows only, so the
    slice evolves exactly as its sequential run would.
    """

    def __init__(self, *args, stacked_matrix=None, slice_index: int = 0, **kwargs) -> None:
        if stacked_matrix is None:
            raise ValueError("StackedSliceCluster requires a stacked_matrix")
        # Set before super().__init__: _build_matrix runs mid-construction.
        self._stacked_matrix = stacked_matrix
        self._slice_index = int(slice_index)
        super().__init__(*args, **kwargs)

    @property
    def exec_path(self) -> str:
        return "stacked"

    def _build_matrix(self, spec) -> WorkerMatrix:
        if self.config.pool_workers:
            raise ValueError(
                "stacked sweep execution is incompatible with the replica pool "
                "(pool_workers must be 0); sharding the stacked matrix across "
                "pool processes is a planned follow-on"
            )
        params, grads = self._stacked_matrix.slice_storage(self._slice_index, spec)
        return WorkerMatrix(self.config.num_workers, spec, params=params, grads=grads)

    def compute_gradients_all(self, batches) -> List[float]:
        """Per-worker losses for this slice, served by the fused stacked pass.

        The first slice to request a given global step triggers one fused
        forward/backward over all S·N rows; later slices read their cached
        row ranges.  The shared dropout stream still advances one tick per
        gradient computation, keeping tick parity with the sequential path.
        """
        self._next_dropout_tick()
        if not self.active_mask.all():
            # Elastic fault mask: crashed rows are zeroed by the stacked
            # matrix and only active losses are returned, matching the
            # in-process masked path.
            self._stacked_matrix.set_slice_mask(self._slice_index, self.active_mask)
            losses, norms = self._stacked_matrix.gradients_for_slice(
                self._slice_index, batches
            )
            out: List[float] = []
            for worker_id in np.flatnonzero(self.active_mask):
                worker = self.workers[worker_id]
                worker.last_loss = float(losses[worker_id])
                worker.last_grad_norm = float(norms[worker_id])
                out.append(float(losses[worker_id]))
            return out
        self._stacked_matrix.set_slice_mask(self._slice_index, None)
        losses, norms = self._stacked_matrix.gradients_for_slice(
            self._slice_index, batches
        )
        for worker, loss, norm in zip(self.workers, losses, norms):
            worker.last_loss = float(loss)
            worker.last_grad_norm = float(norm)
        return [float(l) for l in losses]
