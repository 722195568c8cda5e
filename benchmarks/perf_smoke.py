"""Engine micro-benchmark: simulator steps/sec for BSP and SelSync.

Unlike the figure benchmarks (which regenerate paper results), this file
tracks the *simulator's own* per-step overhead — the quantity the flat-buffer
engine optimizes — so future PRs can see the perf trajectory.  It is gated
behind ``--run-perf`` to keep tier-1 fast:

    PYTHONPATH=src python -m pytest benchmarks/perf_smoke.py --run-perf -q -s

The run merges sections into ``BENCH_engine.json`` at the repo root:

* ``current_steps_per_sec`` — BSP / SelSync on the deep-narrow N=8 MLP loop,
  gated at >= 3x over the recorded pre-engine seed baseline;
* ``dtype_mode`` — float32 vs float64 BSP steps/sec on a compute-dominated
  N=8 MLP (wide layers, so BLAS width rather than Python overhead sets the
  pace), gated at float32 >= 1.5x float64;
* ``fused_adam`` — BSP steps/sec with every worker on Adam (the fused (N, D)
  moment-matrix path) in both dtypes, recorded for trend tracking;
* ``paper_models`` — BSP steps/sec at N=4 on the resnet101, vgg11 and
  alexnet presets, gated on every model running the batched executor.

Every section records the host it was measured on (``host``: cpu count,
BLAS vendor, version and threads, numpy; :func:`host_fingerprint`) — under
``config`` for the top-level smoke rows.

``--run-scale`` additionally (or independently) merges a ``scale_sweep``
section: BSP steps/sec for N in {8, 64, 128, 256} on the MLP and
transformer analogs, plus the batched-vs-per-worker transformer contrast at
N=8 (gated at >= 3x — the transformer ``BatchedReplicaExecutor`` milestone).
The sweep is heavier than the smoke, so per-PR CI runs only ``--run-perf``
and the nightly workflow runs ``--run-scale``:

    PYTHONPATH=src python -m pytest benchmarks/perf_smoke.py --run-scale -q -s

``--run-pool`` merges a ``pool`` section: the multiprocessing replica pool
vs the single-process engine on the per-worker-fallback ConvNet loop at
N=64 (the models-too-heavy-to-batch scenario the pool targets), gated at
>= 1.5x with ``pool_workers=4`` when the host has enough cores.  A
bit-identical parity check always runs.  Nightly CI owns this section:

    PYTHONPATH=src python -m pytest benchmarks/perf_smoke.py --run-pool -q -s

``--run-telemetry`` merges a ``telemetry`` section: the deep-narrow BSP loop
measured with the telemetry helpers monkeypatched out (baseline), with the
shipped disabled no-op path, and with tracing + metrics fully enabled, gated
at disabled <= 2% and enabled <= 10% overhead versus baseline.  Runs in the
per-PR perf job:

    PYTHONPATH=src python -m pytest benchmarks/perf_smoke.py --run-telemetry -q -s

``--run-scenarios`` runs the paper-scale δ-sweep suite from the declarative
scenario registry (``benchmarks/scenario_suite.py``), recording sweep
outputs in ``BENCH_scenarios.json`` next to this file's
``BENCH_engine.json``.  ``--stacked`` additionally runs the suite's
stacked-vs-sequential contrast (the fused ``(S·N, D)`` sweep executor
against S sequential runs, with exact-parity gating), merging a
``stacked_sweep`` section into ``BENCH_scenarios.json``.  Standalone
invocation accepts the same flags:

    PYTHONPATH=src python -m benchmarks.perf_smoke --run-scenarios --stacked
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

#: Benchmark configuration: N=8 workers on an 8-layer MLP analog.  Deep and
#: narrow on purpose — per-tensor framework overhead (the engine's target) is
#: proportional to layer count, while the raw matmul work stays small.
NUM_WORKERS = 8
BATCH_SIZE = 16
MLP_SIZES = (32, 48, 48, 48, 48, 48, 48, 8)
DELTA = 0.05
STEPS = 200
WARMUP = 20
REPEATS = 5

#: Dtype-mode configuration: same N=8 cluster, but wide layers so the step is
#: compute-dominated and the float32/float64 contrast measures arithmetic
#: width instead of Python overhead.
DTYPE_MLP_SIZES = (64, 512, 512, 8)
DTYPE_BATCH_SIZE = 32
DTYPE_STEPS = 100
DTYPE_WARMUP = 10
DTYPE_REPEATS = 3

#: Steps/sec of this exact harness at the pre-refactor seed commit
#: (8f9a305, dict-of-named-arrays hot path), recorded when the engine
#: landed.  Used as the denominator for the speedup gate below.
BASELINE_STEPS_PER_SEC = {"bsp": 208.0, "selsync": 194.6}

#: Scale-sweep configuration.  Small per-step tensors on purpose (like the
#: deep-narrow MLP above): the sweep measures how the engine's per-step
#: framework cost scales with the cluster size, and large-N clusters are
#: exactly where per-worker Python overhead used to dominate.
SCALE_WORKERS = (8, 64, 128, 256)
SCALE_MLP_SIZES = (32, 48, 48, 8)
SCALE_MLP_BATCH = 4
SCALE_LM = dict(
    vocab_size=32, d_model=16, num_heads=2, num_layers=3, dim_feedforward=32, max_len=64
)
SCALE_LM_BATCH = 2
SCALE_LM_BPTT = 8
#: Measured steps shrink with N (per-step cost grows roughly linearly).
SCALE_STEPS = {8: 40, 64: 16, 128: 10, 256: 6}
SCALE_WARMUP = {8: 6, 64: 3, 128: 2, 256: 2}
SCALE_REPEATS = 2

#: Replica-pool benchmark configuration.  ConvNet at N=64 with the batched
#: executor disabled everywhere: per-replica convolution cost dominates the
#: step, which is exactly the workload the process pool exists to shard.
POOL_WORKERS = 4
POOL_N = 64
POOL_BATCH = 8
POOL_IMAGE = 8
POOL_CHANNELS = (4, 8)
POOL_CLASSES = 4
POOL_STEPS = 12
POOL_WARMUP = 2
POOL_REPEATS = 2

#: Telemetry-overhead configuration: the deep-narrow N=8 BSP MLP loop run in
#: three modes, interleaved within each repeat so machine drift hits every
#: mode equally.  "baseline" monkeypatches the telemetry helpers out entirely
#: (not even a flag check at the call sites), "disabled" is the shipped
#: default (flag-check no-op path), "enabled" turns on tracing + metrics with
#: spans buffered in memory (no sink I/O).
TELEMETRY_STEPS = 150
TELEMETRY_WARMUP = 15
TELEMETRY_REPEATS = 5
#: Acceptance gates: disabled telemetry <= 2% below baseline, enabled <= 10%.
TELEMETRY_DISABLED_GATE = 0.02
TELEMETRY_ENABLED_GATE = 0.10

#: Paper-model configuration: the figure workloads' presets at the figures'
#: cluster size, trained with BSP on the default (batched) path.
PAPER_MODELS = ("resnet101", "vgg11", "alexnet")
PAPER_WORKERS = 4
PAPER_STEPS = 60
PAPER_WARMUP = 5
PAPER_REPEATS = 3

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _merge_into_result_file(sections: dict) -> dict:
    """Overwrite ``sections`` inside BENCH_engine.json, keeping the others.

    The perf smoke and the scale sweep run in different CI jobs; each owns
    its own top-level sections and must not clobber the other's.
    """
    report = {}
    if RESULT_PATH.exists():
        try:
            report = json.loads(RESULT_PATH.read_text())
        except json.JSONDecodeError:
            report = {}
    report.update(sections)
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def build_cluster(
    seed: int = 0,
    dtype: str = "float64",
    optimizer: str = "sgd",
    mlp_sizes=MLP_SIZES,
    batch_size: int = BATCH_SIZE,
):
    from repro.cluster.cluster import ClusterConfig, SimulatedCluster
    from repro.data.datasets import make_classification_splits
    from repro.data.partition import SelSyncPartitioner
    from repro.nn.models import MLP
    from repro.optim.adam import Adam
    from repro.optim.sgd import SGD

    train, test = make_classification_splits(
        2048, 256, mlp_sizes[-1], mlp_sizes[0], class_sep=3.0, noise=0.6, seed=seed
    )
    config = ClusterConfig(
        num_workers=NUM_WORKERS, batch_size=batch_size, seed=seed, dtype=dtype
    )
    if optimizer == "sgd":
        optimizer_factory = lambda m: SGD(m, lr=0.05, momentum=0.9)  # noqa: E731
    else:
        optimizer_factory = lambda m: Adam(m, lr=1e-3)  # noqa: E731
    return SimulatedCluster(
        model_factory=lambda rng: MLP(mlp_sizes, rng=rng),
        optimizer_factory=optimizer_factory,
        train_dataset=train,
        test_dataset=test,
        config=config,
        partitioner=SelSyncPartitioner(seed=seed),
    )


def build_scale_mlp_cluster(num_workers: int, seed: int = 0):
    from repro.cluster.cluster import ClusterConfig, SimulatedCluster
    from repro.data.datasets import make_classification_splits
    from repro.data.partition import SelSyncPartitioner
    from repro.nn.models import MLP
    from repro.optim.sgd import SGD

    samples = max(2 * num_workers * SCALE_MLP_BATCH, 2048)
    train, test = make_classification_splits(
        samples, 256, SCALE_MLP_SIZES[-1], SCALE_MLP_SIZES[0], class_sep=3.0, noise=0.6, seed=seed
    )
    config = ClusterConfig(num_workers=num_workers, batch_size=SCALE_MLP_BATCH, seed=seed)
    return SimulatedCluster(
        model_factory=lambda rng: MLP(SCALE_MLP_SIZES, rng=rng),
        optimizer_factory=lambda m: SGD(m, lr=0.05, momentum=0.9),
        train_dataset=train,
        test_dataset=test,
        config=config,
        partitioner=SelSyncPartitioner(seed=seed),
    )


def build_scale_lm_cluster(num_workers: int, seed: int = 0):
    from repro.cluster.cluster import ClusterConfig, SimulatedCluster
    from repro.data.datasets import make_sequence_splits
    from repro.data.partition import SelSyncPartitioner
    from repro.nn.models import TransformerLM
    from repro.optim.sgd import SGD

    tokens = max(2 * num_workers * SCALE_LM_BATCH * SCALE_LM_BPTT, 4096)
    train, test = make_sequence_splits(
        tokens, 512, SCALE_LM["vocab_size"], bptt=SCALE_LM_BPTT, seed=seed
    )
    config = ClusterConfig(
        num_workers=num_workers,
        batch_size=SCALE_LM_BATCH,
        seed=seed,
        task="language_modeling",
        workload="transformer",
    )
    return SimulatedCluster(
        model_factory=lambda rng: TransformerLM(dropout=0.0, rng=rng, **SCALE_LM),
        optimizer_factory=lambda m: SGD(m, lr=0.1),
        train_dataset=train,
        test_dataset=test,
        config=config,
        partitioner=SelSyncPartitioner(seed=seed),
    )


def _make_trainer(name: str, cluster):
    if name == "bsp":
        from repro.algorithms.bsp import BSPTrainer

        return BSPTrainer(cluster, eval_every=10_000)
    from repro.core.config import SelSyncConfig
    from repro.core.selsync import SelSyncTrainer

    return SelSyncTrainer(cluster, SelSyncConfig(delta=DELTA), eval_every=10_000)


def _time_trainer(cluster, trainer, steps: int, warmup: int) -> float:
    for _ in range(warmup):
        trainer.train_step()
        trainer.global_step += 1
        cluster.global_step = trainer.global_step
    start = time.perf_counter()
    for _ in range(steps):
        trainer.train_step()
        trainer.global_step += 1
        cluster.global_step = trainer.global_step
    return steps / (time.perf_counter() - start)


def measure_steps_per_sec(name: str) -> float:
    """Best-of-``REPEATS`` steady-state training steps per wall-clock second."""
    best = 0.0
    for _ in range(REPEATS):
        cluster = build_cluster()
        trainer = _make_trainer(name, cluster)
        best = max(best, _time_trainer(cluster, trainer, STEPS, WARMUP))
    return best


def measure_variant(dtype: str, optimizer: str, mlp_sizes, batch_size: int) -> float:
    """Best-of-``DTYPE_REPEATS`` BSP steps/sec for one engine configuration."""
    best = 0.0
    for _ in range(DTYPE_REPEATS):
        cluster = build_cluster(
            dtype=dtype, optimizer=optimizer, mlp_sizes=mlp_sizes, batch_size=batch_size
        )
        trainer = _make_trainer("bsp", cluster)
        best = max(best, _time_trainer(cluster, trainer, DTYPE_STEPS, DTYPE_WARMUP))
    return best


def measure_scale_point(build, num_workers: int, disable_executor: bool = False) -> float:
    """Best-of-``SCALE_REPEATS`` BSP steps/sec for one cluster size."""
    best = 0.0
    for _ in range(SCALE_REPEATS):
        cluster = build(num_workers)
        if disable_executor:
            cluster.replica_exec = None
        trainer = _make_trainer("bsp", cluster)
        best = max(
            best,
            _time_trainer(
                cluster, trainer, SCALE_STEPS[num_workers], SCALE_WARMUP[num_workers]
            ),
        )
    return best


def run_scale_sweep() -> dict:
    """N in {8..256} BSP steps/sec on the MLP and transformer analogs."""
    mlp = {
        str(n): measure_scale_point(build_scale_mlp_cluster, n) for n in SCALE_WORKERS
    }
    transformer = {
        str(n): measure_scale_point(build_scale_lm_cluster, n) for n in SCALE_WORKERS
    }
    # Batched-executor contrast: the same transformer cluster forced onto the
    # per-worker fallback loop at N=8 (the milestone's gate denominator).
    per_worker_n8 = measure_scale_point(
        build_scale_lm_cluster, 8, disable_executor=True
    )
    return {
        "config": {
            "workers": list(SCALE_WORKERS),
            "mlp_sizes": list(SCALE_MLP_SIZES),
            "mlp_batch_size": SCALE_MLP_BATCH,
            "transformer": dict(SCALE_LM),
            "transformer_batch_size": SCALE_LM_BATCH,
            "transformer_bptt": SCALE_LM_BPTT,
            "steps": {str(n): SCALE_STEPS[n] for n in SCALE_WORKERS},
            "repeats": SCALE_REPEATS,
        },
        "host": host_fingerprint(),
        "steps_per_sec": {"mlp": mlp, "transformer": transformer},
        "transformer_per_worker_n8_steps_per_sec": per_worker_n8,
        "transformer_batched_speedup_n8": transformer["8"] / per_worker_n8,
    }


def build_pool_cluster(num_workers: int = POOL_N, pool_workers: int = 0, seed: int = 0):
    from repro.cluster.cluster import ClusterConfig, SimulatedCluster
    from repro.data.datasets import make_image_splits
    from repro.data.partition import SelSyncPartitioner
    from repro.nn.models import ConvNet
    from repro.optim.sgd import SGD

    samples = max(2 * num_workers * POOL_BATCH, 2048)
    train, test = make_image_splits(
        samples, 256, POOL_CLASSES, in_channels=1, image_size=POOL_IMAGE, seed=seed
    )
    config = ClusterConfig(
        num_workers=num_workers, batch_size=POOL_BATCH, seed=seed, pool_workers=pool_workers
    )
    cluster = SimulatedCluster(
        model_factory=lambda rng: ConvNet(
            in_channels=1,
            num_classes=POOL_CLASSES,
            image_size=POOL_IMAGE,
            channels=POOL_CHANNELS,
            rng=rng,
        ),
        optimizer_factory=lambda m: SGD(m, lr=0.05, momentum=0.9),
        train_dataset=train,
        test_dataset=test,
        config=config,
        partitioner=SelSyncPartitioner(seed=seed),
    )
    # Per-worker-fallback contrast: both sides run the per-replica loop (the
    # models-too-heavy-to-batch regime), in-process vs sharded over the pool.
    cluster.replica_exec = None
    if cluster.pool is not None:
        cluster.pool.set_use_executor(False)
    return cluster


def measure_pool_point(pool_workers: int) -> float:
    """Best-of-``POOL_REPEATS`` BSP steps/sec for one pool configuration."""
    best = 0.0
    for _ in range(POOL_REPEATS):
        cluster = build_pool_cluster(pool_workers=pool_workers)
        try:
            trainer = _make_trainer("bsp", cluster)
            best = max(best, _time_trainer(cluster, trainer, POOL_STEPS, POOL_WARMUP))
        finally:
            cluster.close()
    return best


def check_pool_parity(steps: int = 3) -> bool:
    """Bit-identical float64 parity of the pooled vs single-process loop."""
    import numpy as np

    matrices = []
    for pool_workers in (0, POOL_WORKERS):
        cluster = build_pool_cluster(pool_workers=pool_workers, seed=1)
        try:
            trainer = _make_trainer("bsp", cluster)
            for _ in range(steps):
                trainer.train_step()
                trainer.global_step += 1
                cluster.global_step = trainer.global_step
            matrices.append(cluster.matrix.params.copy())
        finally:
            cluster.close()
    return bool(np.array_equal(matrices[0], matrices[1]))


def run_pool_benchmark() -> dict:
    import os

    single = measure_pool_point(0)
    pooled = measure_pool_point(POOL_WORKERS)
    return {
        "config": {
            "num_workers": POOL_N,
            "pool_workers": POOL_WORKERS,
            "batch_size": POOL_BATCH,
            "image_size": POOL_IMAGE,
            "channels": list(POOL_CHANNELS),
            "steps": POOL_STEPS,
            "repeats": POOL_REPEATS,
            "cpu_count": os.cpu_count(),
        },
        "host": host_fingerprint(),
        "steps_per_sec": {
            "convnet_fallback_single_process": single,
            f"convnet_fallback_pool_{POOL_WORKERS}": pooled,
        },
        "pool_speedup": pooled / single,
        "parity_bit_identical": check_pool_parity(),
    }


def run_telemetry_benchmark() -> dict:
    """Baseline / disabled / enabled telemetry steps/sec on the BSP loop."""
    from repro import telemetry

    def run_once() -> float:
        cluster = build_cluster()
        trainer = _make_trainer("bsp", cluster)
        return _time_trainer(cluster, trainer, TELEMETRY_STEPS, TELEMETRY_WARMUP)

    def run_baseline() -> float:
        # The instrumented hot paths call these module attributes, so
        # swapping them out measures the loop as if never instrumented.
        saved = (telemetry.span, telemetry.count, telemetry.observe, telemetry.gauge)
        telemetry.span = lambda name: telemetry.NULL_SPAN
        telemetry.count = telemetry.observe = telemetry.gauge = lambda *a, **k: None
        try:
            return run_once()
        finally:
            telemetry.span, telemetry.count, telemetry.observe, telemetry.gauge = saved

    def run_enabled() -> float:
        telemetry.configure(tracing=True, metrics=True, trace_file=None)
        try:
            return run_once()
        finally:
            telemetry.reset()

    best = {"baseline": 0.0, "disabled": 0.0, "enabled": 0.0}
    for _ in range(TELEMETRY_REPEATS):
        best["baseline"] = max(best["baseline"], run_baseline())
        telemetry.reset()
        best["disabled"] = max(best["disabled"], run_once())
        best["enabled"] = max(best["enabled"], run_enabled())
    disabled_overhead = max(0.0, (best["baseline"] - best["disabled"]) / best["baseline"])
    enabled_overhead = max(0.0, (best["baseline"] - best["enabled"]) / best["baseline"])
    return {
        "config": {
            "num_workers": NUM_WORKERS,
            "batch_size": BATCH_SIZE,
            "mlp_sizes": list(MLP_SIZES),
            "steps": TELEMETRY_STEPS,
            "warmup": TELEMETRY_WARMUP,
            "repeats": TELEMETRY_REPEATS,
        },
        "host": host_fingerprint(),
        "steps_per_sec": best,
        "disabled_overhead": disabled_overhead,
        "enabled_overhead": enabled_overhead,
    }


def host_fingerprint() -> dict:
    """The host a measurement belongs to: cores, BLAS build and threads, numpy."""
    import os

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "cpu_count": os.cpu_count(),
        "blas": str(blas.get("name", "unknown")),
        "blas_version": str(blas.get("version", "unknown")),
        "blas_threads": next(
            (os.environ[v] for v in thread_vars if os.environ.get(v)), "default"
        ),
        "numpy": numpy.__version__,
    }


def run_paper_models() -> dict:
    """Best-of-``PAPER_REPEATS`` BSP steps/sec and execution path per model."""
    from repro.harness.experiment import build_cluster as build_preset_cluster
    from repro.harness.experiment import build_workload

    steps_per_sec, exec_path = {}, {}
    for name in PAPER_MODELS:
        preset = build_workload(name)
        best = 0.0
        for _ in range(PAPER_REPEATS):
            cluster = build_preset_cluster(preset, num_workers=PAPER_WORKERS, seed=0)
            trainer = _make_trainer("bsp", cluster)
            best = max(best, _time_trainer(cluster, trainer, PAPER_STEPS, PAPER_WARMUP))
            exec_path[name] = cluster.exec_path
            cluster.close()
        steps_per_sec[name] = best
    return {
        "config": {
            "num_workers": PAPER_WORKERS,
            "steps": PAPER_STEPS,
            "warmup": PAPER_WARMUP,
            "repeats": PAPER_REPEATS,
        },
        "host": host_fingerprint(),
        "steps_per_sec": steps_per_sec,
        "exec_path": exec_path,
    }


def run_benchmark() -> dict:
    current = {name: measure_steps_per_sec(name) for name in ("bsp", "selsync")}
    dtype_mode = {
        dtype: measure_variant(dtype, "sgd", DTYPE_MLP_SIZES, DTYPE_BATCH_SIZE)
        for dtype in ("float64", "float32")
    }
    fused_adam = {
        dtype: measure_variant(dtype, "adam", MLP_SIZES, BATCH_SIZE)
        for dtype in ("float64", "float32")
    }
    host = host_fingerprint()
    return {
        "config": {
            "num_workers": NUM_WORKERS,
            "batch_size": BATCH_SIZE,
            "mlp_sizes": list(MLP_SIZES),
            "delta": DELTA,
            "steps": STEPS,
            "warmup": WARMUP,
            "repeats": REPEATS,
            "dtype_mlp_sizes": list(DTYPE_MLP_SIZES),
            "dtype_batch_size": DTYPE_BATCH_SIZE,
            "dtype_steps": DTYPE_STEPS,
            "dtype_repeats": DTYPE_REPEATS,
            "host": host,
        },
        "baseline_steps_per_sec": BASELINE_STEPS_PER_SEC,
        "current_steps_per_sec": current,
        "speedup_over_baseline": {
            name: current[name] / BASELINE_STEPS_PER_SEC[name] for name in current
        },
        "dtype_mode": {
            "host": host,
            "steps_per_sec": dtype_mode,
            "float32_speedup_over_float64": dtype_mode["float32"] / dtype_mode["float64"],
        },
        "fused_adam": {
            "host": host,
            "steps_per_sec": fused_adam,
            "float32_speedup_over_float64": fused_adam["float32"] / fused_adam["float64"],
        },
        "paper_models": run_paper_models(),
    }


@pytest.mark.perf
def test_perf_smoke(request):
    if not request.config.getoption("--run-perf"):
        pytest.skip("perf smoke runs only with --run-perf")
    report = run_benchmark()
    _merge_into_result_file(report)
    lines = [
        f"{name}: {report['current_steps_per_sec'][name]:.0f} steps/s "
        f"({report['speedup_over_baseline'][name]:.2f}x over seed baseline)"
        for name in report["current_steps_per_sec"]
    ]
    dtype_mode = report["dtype_mode"]
    lines.append(
        "dtype mode (wide MLP): "
        + ", ".join(
            f"{d}: {dtype_mode['steps_per_sec'][d]:.0f} steps/s"
            for d in ("float64", "float32")
        )
        + f" ({dtype_mode['float32_speedup_over_float64']:.2f}x)"
    )
    fused_adam = report["fused_adam"]
    lines.append(
        "fused Adam: "
        + ", ".join(
            f"{d}: {fused_adam['steps_per_sec'][d]:.0f} steps/s"
            for d in ("float64", "float32")
        )
        + f" ({fused_adam['float32_speedup_over_float64']:.2f}x)"
    )
    paper = report["paper_models"]
    lines.append(
        f"paper models (BSP, N={PAPER_WORKERS}): "
        + ", ".join(
            f"{name}: {paper['steps_per_sec'][name]:.0f} steps/s ({paper['exec_path'][name]})"
            for name in PAPER_MODELS
        )
    )
    print("\n" + "\n".join(lines) + f"\n[saved to {RESULT_PATH}]")
    # One compute path: every paper model runs the batched executor.
    assert paper["exec_path"] == {name: "batched" for name in PAPER_MODELS}
    # The engine milestone's acceptance gate: >= 3x over the seed hot path.
    assert report["speedup_over_baseline"]["selsync"] >= 3.0
    assert report["speedup_over_baseline"]["bsp"] >= 3.0
    # The dtype milestone's acceptance gate: float32 >= 1.5x float64 on the
    # compute-dominated N=8 MLP loop.
    assert dtype_mode["float32_speedup_over_float64"] >= 1.5


@pytest.mark.perf
def test_telemetry_overhead(request):
    if not request.config.getoption("--run-telemetry"):
        pytest.skip("telemetry overhead benchmark runs only with --run-telemetry")
    report = run_telemetry_benchmark()
    _merge_into_result_file({"telemetry": report})
    sps = report["steps_per_sec"]
    print(
        f"\ntelemetry overhead on the N={NUM_WORKERS} BSP loop: "
        f"baseline {sps['baseline']:.0f} steps/s, "
        f"disabled {sps['disabled']:.0f} ({report['disabled_overhead'] * 100:.1f}% slower), "
        f"enabled {sps['enabled']:.0f} ({report['enabled_overhead'] * 100:.1f}% slower)"
        f"\n[merged into {RESULT_PATH}]"
    )
    # The telemetry milestone's acceptance gates: the disabled no-op path
    # costs <= 2% of the uninstrumented loop, full tracing + metrics <= 10%.
    assert report["disabled_overhead"] <= TELEMETRY_DISABLED_GATE
    assert report["enabled_overhead"] <= TELEMETRY_ENABLED_GATE


@pytest.mark.perf
@pytest.mark.pool
def test_pool_throughput(request):
    if not request.config.getoption("--run-pool"):
        pytest.skip("pool benchmark runs only with --run-pool")
    import os

    report = run_pool_benchmark()
    _merge_into_result_file({"pool": report})
    sps = report["steps_per_sec"]
    single = sps["convnet_fallback_single_process"]
    pooled = sps[f"convnet_fallback_pool_{POOL_WORKERS}"]
    print(
        f"\nConvNet N={POOL_N} per-worker fallback: single-process "
        f"{single:.1f} steps/s vs pool_workers={POOL_WORKERS} {pooled:.1f} steps/s "
        f"({report['pool_speedup']:.2f}x, {report['config']['cpu_count']} cores)"
        f"\n[merged into {RESULT_PATH}]"
    )
    # The parity contract always holds, regardless of core count.
    assert report["parity_bit_identical"]
    # The pool milestone's acceptance gate: >= 1.5x the single-process
    # fallback loop with 4 pool processes.  Physically impossible without
    # parallel hardware, so the gate only arms on multi-core hosts (CI
    # nightly runners have >= 4 vCPUs); the measured numbers are recorded
    # either way.  os.cpu_count() may return None (unknown host): skip too.
    cores = os.cpu_count() or 0
    if cores >= POOL_WORKERS:
        assert report["pool_speedup"] >= 1.5
    else:
        print(f"pool speedup gate skipped: {cores} cores < {POOL_WORKERS} pool workers")


@pytest.mark.perf
def test_scale_sweep(request):
    if not request.config.getoption("--run-scale"):
        pytest.skip("scale sweep runs only with --run-scale")
    sweep = run_scale_sweep()
    _merge_into_result_file({"scale_sweep": sweep})
    lines = []
    for model in ("mlp", "transformer"):
        curve = ", ".join(
            f"N={n}: {sweep['steps_per_sec'][model][str(n)]:.1f}" for n in SCALE_WORKERS
        )
        lines.append(f"{model} steps/s — {curve}")
    lines.append(
        f"transformer batched vs per-worker at N=8: "
        f"{sweep['steps_per_sec']['transformer']['8']:.1f} vs "
        f"{sweep['transformer_per_worker_n8_steps_per_sec']:.1f} steps/s "
        f"({sweep['transformer_batched_speedup_n8']:.2f}x)"
    )
    print("\n" + "\n".join(lines) + f"\n[merged into {RESULT_PATH}]")
    # The transformer-executor milestone's acceptance gate: the batched path
    # >= 3x the per-worker fallback on the N=8 BSP loop.
    assert sweep["transformer_batched_speedup_n8"] >= 3.0


def _standalone_main(argv=None) -> int:
    """Standalone entry: ``python -m benchmarks.perf_smoke [--run-...]``.

    With no flags every perf section runs (the historical behaviour) and the
    merged report prints as JSON.  ``--run-scenarios`` additionally (or
    exclusively) runs the paper-scale scenario sweep suite
    (``benchmarks/scenario_suite.py``), which records its outputs in
    ``BENCH_scenarios.json`` next to ``BENCH_engine.json``.
    """
    import argparse

    parser = argparse.ArgumentParser(prog="benchmarks.perf_smoke", description=__doc__)
    parser.add_argument("--run-perf", action="store_true", help="engine perf smoke sections")
    parser.add_argument("--run-scale", action="store_true", help="large-N scale sweep")
    parser.add_argument("--run-pool", action="store_true", help="replica-pool benchmark")
    parser.add_argument(
        "--run-telemetry",
        action="store_true",
        help="telemetry overhead benchmark (merges telemetry into BENCH_engine.json)",
    )
    parser.add_argument(
        "--run-scenarios", action="store_true", help="paper-scale scenario sweeps"
    )
    parser.add_argument(
        "--stacked",
        action="store_true",
        help=(
            "with --run-scenarios: also run the stacked-vs-sequential contrast "
            "(merges stacked_sweep into BENCH_scenarios.json)"
        ),
    )
    parser.add_argument(
        "--write-results",
        action="store_true",
        help="persist scenario reports to benchmarks/results/scenarios/",
    )
    args = parser.parse_args(argv)
    run_all = not (
        args.run_perf
        or args.run_scale
        or args.run_pool
        or args.run_telemetry
        or args.run_scenarios
    )

    report = {}
    if args.run_perf or run_all:
        report.update(run_benchmark())
    if args.run_scale or run_all:
        report["scale_sweep"] = run_scale_sweep()
    if args.run_pool or run_all:
        report["pool"] = run_pool_benchmark()
    if args.run_telemetry or run_all:
        report["telemetry"] = run_telemetry_benchmark()
    if report:
        print(json.dumps(report, indent=2))
    if args.run_scenarios:
        from benchmarks.scenario_suite import main as run_scenario_suite

        run_scenario_suite(write_results=args.write_results, stacked=args.stacked)
    return 0


if __name__ == "__main__":  # standalone: python -m benchmarks.perf_smoke
    raise SystemExit(_standalone_main())
