"""Workload presets and the experiment runner.

A :class:`WorkloadPreset` captures one row of §IV-A's "DNNs and
hyperparameters": which model analog, which dataset analog, optimizer,
learning-rate schedule, batch size and evaluation metric.  Presets are scaled
so a 16-worker simulated run finishes in seconds-to-minutes on a CPU while
keeping the paper's structural distinctions (skip connections vs plain
stacks, classification vs language modelling, SGD vs Adam, decayed vs fixed
learning rates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro import telemetry
from repro.algorithms.base import BaseTrainer, TrainingResult
from repro.algorithms.bsp import BSPTrainer
from repro.algorithms.fedavg import FedAvgTrainer
from repro.algorithms.localsgd import LocalSGDTrainer
from repro.algorithms.ssp import SSPTrainer
from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.core.config import SelSyncConfig
from repro.core.selsync import SelSyncTrainer
from repro.data.datasets import DatasetBundle, build_dataset
from repro.data.injection import adjusted_batch_size
from repro.data.partition import DefaultPartitioner, Partitioner, SelSyncPartitioner
from repro.nn.models import MLP, AlexNetLike, ResNetLike, TransformerLM, VGGLike
from repro.nn.module import Module
from repro.optim.adam import Adam
from repro.optim.sgd import SGD
from repro.optim.optimizer import Optimizer
from repro.optim.schedules import ConstantLR, IntervalDecay, LRSchedule, MultiStepDecay
from repro.compression.base import Compressor
from repro.compression.trainer import CompressedBSPTrainer


@dataclass
class WorkloadPreset:
    """One of the paper's four training workloads, scaled for simulation."""

    name: str
    dataset_name: str
    task: str
    model_factory: Callable[[np.random.Generator], Module]
    optimizer_factory: Callable[[Module], Optimizer]
    lr_schedule_factory: Callable[[int], LRSchedule]
    batch_size: int
    top_k: Optional[int] = None
    workload_spec: str = "resnet101"
    dataset_kwargs: Dict = field(default_factory=dict)


def _resnet_preset() -> WorkloadPreset:
    return WorkloadPreset(
        name="resnet101",
        dataset_name="cifar10",
        task="classification",
        model_factory=lambda rng: ResNetLike(
            input_dim=64, num_classes=10, width=96, depth=6, rng=rng
        ),
        optimizer_factory=lambda m: SGD(m, lr=0.05, momentum=0.9, weight_decay=4e-4),
        # Paper: decay by 10x after epochs 110 and 150 (of 165); scaled to the
        # run length as 2/3 and 10/11 of the iteration budget.
        lr_schedule_factory=lambda total: MultiStepDecay(
            0.05, milestones=[int(total * 0.66), int(total * 0.9)], gamma=0.1
        ),
        batch_size=32,
        workload_spec="resnet101",
    )


def _vgg_preset() -> WorkloadPreset:
    return WorkloadPreset(
        name="vgg11",
        dataset_name="cifar100",
        task="classification",
        model_factory=lambda rng: VGGLike(
            input_dim=64, num_classes=100, feature_widths=(128, 128, 96), head_width=192, rng=rng
        ),
        optimizer_factory=lambda m: SGD(m, lr=0.04, momentum=0.9, weight_decay=5e-4),
        lr_schedule_factory=lambda total: MultiStepDecay(
            0.04, milestones=[int(total * 0.55), int(total * 0.8)], gamma=0.1
        ),
        batch_size=32,
        workload_spec="vgg11",
    )


def _alexnet_preset() -> WorkloadPreset:
    return WorkloadPreset(
        name="alexnet",
        dataset_name="imagenet1k",
        task="classification",
        model_factory=lambda rng: AlexNetLike(
            input_dim=96, num_classes=200, hidden_dim=192, dropout=0.1, rng=rng
        ),
        optimizer_factory=lambda m: Adam(m, lr=1e-3),
        lr_schedule_factory=lambda total: ConstantLR(1e-3),
        batch_size=64,
        top_k=5,
        workload_spec="alexnet",
        dataset_kwargs={"num_classes": 200, "input_dim": 96},
    )


def _transformer_preset() -> WorkloadPreset:
    return WorkloadPreset(
        name="transformer",
        dataset_name="wikitext103",
        task="language_modeling",
        model_factory=lambda rng: TransformerLM(
            vocab_size=200, d_model=32, num_heads=2, num_layers=2, dim_feedforward=64,
            dropout=0.0, rng=rng,
        ),
        optimizer_factory=lambda m: SGD(m, lr=0.5, momentum=0.0),
        lr_schedule_factory=lambda total: IntervalDecay(
            0.5, interval=max(total // 10, 1), gamma=0.8
        ),
        batch_size=16,
        workload_spec="transformer",
        dataset_kwargs={"bptt": 16, "vocab_size": 200},
    )


def _deep_mlp_preset() -> WorkloadPreset:
    """Deep-narrow MLP analog for large-N scale sweeps (not a paper workload).

    Per-layer framework overhead grows with depth while the raw matmul work
    stays tiny, so this preset makes N = 64–256 δ-sweeps affordable on a CPU
    — the regime the batched ``(N, D)`` engine exists for.  The cost model
    reuses the ResNet101 spec so simulated times stay paper-scale.
    """
    return WorkloadPreset(
        name="deep_mlp",
        dataset_name="cifar10",
        task="classification",
        model_factory=lambda rng: MLP((32, 48, 48, 48, 48, 10), rng=rng),
        optimizer_factory=lambda m: SGD(m, lr=0.05, momentum=0.9),
        lr_schedule_factory=lambda total: MultiStepDecay(
            0.05, milestones=[int(total * 0.66), int(total * 0.9)], gamma=0.1
        ),
        batch_size=4,
        workload_spec="resnet101",
        dataset_kwargs={"input_dim": 32},
    )


WORKLOAD_PRESETS: Dict[str, Callable[[], WorkloadPreset]] = {
    "resnet101": _resnet_preset,
    "vgg11": _vgg_preset,
    "alexnet": _alexnet_preset,
    "transformer": _transformer_preset,
    "deep_mlp": _deep_mlp_preset,
}


def build_workload(name: str) -> WorkloadPreset:
    """Return the preset for one of the paper's workloads."""
    key = name.lower()
    if key not in WORKLOAD_PRESETS:
        raise KeyError(f"unknown workload {name!r}; available: {sorted(WORKLOAD_PRESETS)}")
    return WORKLOAD_PRESETS[key]()


def build_cluster(
    preset: WorkloadPreset,
    num_workers: int = 4,
    seed: int = 0,
    partitioner: Optional[Partitioner] = None,
    bundle: Optional[DatasetBundle] = None,
    batch_size: Optional[int] = None,
    topology: str = "ps",
    dtype: str = "float64",
    transport_dtype: Optional[str] = None,
    pool_workers: int = 0,
    pool_start_method: Optional[str] = None,
    eval_max_batches: Optional[int] = 4,
    cluster_factory: Optional[Callable[..., SimulatedCluster]] = None,
    telemetry: Optional[str] = None,
) -> SimulatedCluster:
    """Construct the simulated cluster for a workload preset.

    ``cluster_factory`` substitutes an alternative cluster constructor
    called with the exact :class:`SimulatedCluster` keyword arguments — the
    stacked sweep executor uses this to build
    :class:`~repro.cluster.cluster.StackedSliceCluster` slices.
    ``telemetry`` names a JSONL trace-sink path: span tracing turns on for
    the process and the cluster flushes the file on ``close()``.
    """
    bundle = bundle or build_dataset(preset.dataset_name, seed=seed, **preset.dataset_kwargs)
    config = ClusterConfig(
        num_workers=num_workers,
        batch_size=batch_size or preset.batch_size,
        seed=seed,
        task=preset.task,
        workload=preset.workload_spec,
        topology=topology,
        dtype=dtype,
        transport_dtype=transport_dtype,
        pool_workers=pool_workers,
        pool_start_method=pool_start_method,
        top_k=preset.top_k,
        eval_max_batches=eval_max_batches,
        telemetry=telemetry,
    )
    factory = cluster_factory or SimulatedCluster
    return factory(
        model_factory=preset.model_factory,
        optimizer_factory=preset.optimizer_factory,
        train_dataset=bundle.train,
        test_dataset=bundle.test,
        config=config,
        partitioner=partitioner or SelSyncPartitioner(seed=seed),
        worker_batch_size=batch_size or preset.batch_size,
    )


def make_trainer(
    algorithm: str,
    cluster: SimulatedCluster,
    preset: WorkloadPreset,
    total_iterations: int,
    eval_every: int = 50,
    **kwargs,
) -> BaseTrainer:
    """Instantiate a trainer by name.

    ``algorithm`` is one of ``"bsp"``, ``"selsync"``, ``"fedavg"``, ``"ssp"``,
    ``"local_sgd"`` or ``"compressed_bsp"``; algorithm-specific options are
    passed as keyword arguments (e.g. ``delta=0.3``, ``participation=0.5``,
    ``staleness=100``, ``sync_period=8``, ``compressor=TopKCompressor()``).
    For SelSync every :class:`~repro.core.config.SelSyncConfig` field is
    accepted (``aggregation``, ``statistic``, ``sync_on_first_step``, …), or
    pass a fully built ``config=SelSyncConfig(...)``.
    """
    schedule = preset.lr_schedule_factory(total_iterations)
    key = algorithm.lower()
    if key == "bsp":
        return BSPTrainer(cluster, lr_schedule=schedule, eval_every=eval_every)
    if key == "selsync":
        config = kwargs.pop("config", None)
        if config is None:
            config = SelSyncConfig(
                delta=kwargs.pop("delta", 0.25),
                aggregation=kwargs.pop("aggregation", "param"),
                ewma_window=kwargs.pop("ewma_window", 25),
                statistic=kwargs.pop("statistic", "variance"),
                sync_on_first_step=kwargs.pop("sync_on_first_step", True),
                injection_alpha=kwargs.pop("injection_alpha", None),
                injection_beta=kwargs.pop("injection_beta", None),
            )
        return SelSyncTrainer(
            cluster, config=config, lr_schedule=schedule, eval_every=eval_every, **kwargs
        )
    if key == "fedavg":
        return FedAvgTrainer(
            cluster,
            participation=kwargs.pop("participation", 1.0),
            sync_factor=kwargs.pop("sync_factor", 0.25),
            lr_schedule=schedule,
            eval_every=eval_every,
        )
    if key == "ssp":
        return SSPTrainer(
            cluster,
            staleness=kwargs.pop("staleness", 100),
            lr_schedule=schedule,
            eval_every=eval_every,
        )
    if key in ("local_sgd", "localsgd"):
        return LocalSGDTrainer(
            cluster,
            sync_period=kwargs.pop("sync_period", 10),
            lr_schedule=schedule,
            eval_every=eval_every,
        )
    if key == "compressed_bsp":
        compressor = kwargs.pop("compressor", None)
        if not isinstance(compressor, Compressor):
            raise ValueError("compressed_bsp requires a `compressor` keyword argument")
        return CompressedBSPTrainer(
            cluster, compressor=compressor, lr_schedule=schedule, eval_every=eval_every
        )
    raise KeyError(f"unknown algorithm {algorithm!r}")


@dataclass
class ExperimentResult:
    """A training result annotated with its workload and algorithm labels.

    ``exec_path`` says how gradients were computed (``batched``,
    ``per_worker``, ``pool`` or ``stacked``); ``exec_reason`` is the batched
    compiler's rejection reason when the run fell back to the per-worker
    loop.
    """

    workload: str
    algorithm: str
    result: TrainingResult
    exec_path: str
    exec_reason: Optional[str] = None

    @classmethod
    def from_run(
        cls, preset: WorkloadPreset, trainer: BaseTrainer, result: TrainingResult
    ) -> "ExperimentResult":
        """Label ``result`` with the path its cluster ran, and count that path."""
        cluster = trainer.cluster
        telemetry.count("repro_exec_path_total", path=cluster.exec_path)
        return cls(
            workload=preset.name,
            algorithm=trainer.describe(),
            result=result,
            exec_path=cluster.exec_path,
            exec_reason=cluster.exec_reason,
        )

    @property
    def exec_meta(self) -> Dict[str, str]:
        """The record-meta stamp: the path, plus the reason when there is one."""
        meta = {"exec_path": self.exec_path}
        if self.exec_reason is not None:
            meta["exec_reason"] = self.exec_reason
        return meta


def run_experiment(
    workload: str,
    algorithm: str,
    num_workers: int = 4,
    iterations: int = 200,
    seed: int = 0,
    eval_every: int = 50,
    partitioner: Optional[Partitioner] = None,
    use_default_partitioning: bool = False,
    convergence=None,
    batch_size: Optional[int] = None,
    dtype: str = "float64",
    transport_dtype: Optional[str] = None,
    pool_workers: int = 0,
    pool_start_method: Optional[str] = None,
    injection: Optional[Dict[str, float]] = None,
    telemetry_file: Optional[str] = None,
    fault_schedule=None,
    fault_seed: Optional[int] = None,
    failure_rate: float = 0.0,
    straggler_fraction: float = 0.0,
    mttr: int = 5,
    fault_slowdown: float = 3.0,
    fault_checkpoint_every: Optional[int] = None,
    **algorithm_kwargs,
) -> ExperimentResult:
    """Build a cluster and run one algorithm on one workload end to end.

    ``dtype`` selects the engine compute dtype (``"float64"`` default,
    ``"float32"`` for the reduced-precision mode); ``transport_dtype``
    prices an alternative wire format on the simulated clock (``"float16"``
    halves every sync transfer without touching the arithmetic).
    ``pool_workers`` shards forward/backward over that many OS processes via
    the shared-memory replica pool (``0`` = in-process;
    ``pool_start_method`` picks fork/spawn).  ``injection`` activates the
    non-IID data-injection path: a dict with keys ``alpha``, ``beta`` (and
    optionally ``delta``) sets the SelSync (α, β, δ) tuple and adjusts the
    per-worker batch size to b′ per Eqn. (3).  ``telemetry_file`` enables
    span tracing with a JSONL sink at that path (see :mod:`repro.telemetry`).

    Fault injection (:mod:`repro.faults`): pass an explicit
    ``fault_schedule`` (a :class:`~repro.faults.schedule.FaultSchedule`),
    or a seeded fault process via ``fault_seed`` / ``failure_rate`` /
    ``straggler_fraction`` / ``mttr`` / ``fault_slowdown``.  Crashed workers
    drop out of the fused compute and every aggregation, rejoin from the
    latest cluster checkpoint (cadence ``fault_checkpoint_every``; the
    step-0 snapshot always exists) and re-sync their parameters through the
    simulated wire.  Supported for lockstep trainers (``bsp``, ``selsync``,
    ``local_sgd``) running in-process (``pool_workers=0``).
    """
    preset = build_workload(workload)
    faults_armed = (
        fault_schedule is not None or failure_rate > 0.0 or straggler_fraction > 0.0
    )
    if faults_armed:
        if algorithm.lower() not in ("bsp", "selsync", "local_sgd", "localsgd"):
            raise ValueError(
                f"fault injection supports lockstep algorithms "
                f"(bsp, selsync, local_sgd), got {algorithm!r}"
            )
        if pool_workers:
            raise ValueError(
                "fault injection and the replica pool are mutually exclusive "
                "(set pool_workers=0): elastic worker masks are in-process only"
            )
        if fault_schedule is None:
            from repro.faults import FaultSchedule

            fault_schedule = FaultSchedule.generate(
                num_workers,
                iterations,
                seed=fault_seed if fault_seed is not None else 0,
                failure_rate=failure_rate,
                straggler_fraction=straggler_fraction,
                mttr=mttr,
                slowdown=fault_slowdown,
            )
    if use_default_partitioning and partitioner is None:
        partitioner = DefaultPartitioner(seed=seed)

    effective_batch = batch_size or preset.batch_size
    if injection is not None:
        alpha = injection["alpha"]
        beta = injection["beta"]
        effective_batch = adjusted_batch_size(
            batch_size or preset.batch_size, alpha, beta, num_workers
        )
        algorithm_kwargs.setdefault("injection_alpha", alpha)
        algorithm_kwargs.setdefault("injection_beta", beta)
        if "delta" in injection:
            algorithm_kwargs.setdefault("delta", injection["delta"])

    if telemetry_file is not None:
        # Turn tracing on before the setup span so cluster construction is
        # itself covered by the trace.
        telemetry.configure(tracing=True, trace_file=telemetry_file)
    with telemetry.span("run.setup"):
        cluster = build_cluster(
            preset,
            num_workers=num_workers,
            seed=seed,
            partitioner=partitioner,
            batch_size=effective_batch,
            dtype=dtype,
            transport_dtype=transport_dtype,
            pool_workers=pool_workers,
            pool_start_method=pool_start_method,
            telemetry=telemetry_file,
        )
        try:
            trainer = make_trainer(
                algorithm, cluster, preset, total_iterations=iterations,
                eval_every=eval_every, **algorithm_kwargs,
            )
        except BaseException:
            cluster.close()
            raise
        controller = None
        if faults_armed:
            from repro.faults import FaultController

            try:
                controller = FaultController(
                    cluster, fault_schedule, checkpoint_every=fault_checkpoint_every
                )
            except BaseException:
                cluster.close()
                raise
            trainer.attach_fault_controller(controller)
    try:
        result = trainer.run(iterations, convergence=convergence)
    finally:
        # Releases the replica pool's processes and shared-memory segments
        # deterministically; a no-op for in-process clusters.
        cluster.close()
    if controller is not None:
        result.extras["fault_crashes"] = float(controller.crash_count)
        result.extras["fault_rejoins"] = float(controller.rejoin_count)
        result.extras["fault_stragglers"] = float(controller.straggler_count)
    return ExperimentResult.from_run(preset, trainer, result)
