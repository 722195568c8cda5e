"""Parameter sweeps over experiment configurations.

:func:`grid_sweep` is the generic Cartesian-product driver used by the
scenario runner (:mod:`repro.scenarios.runner`) and directly by ad-hoc
experiments: it calls an arbitrary function for every combination of the
grid values and collects the outputs in a :class:`SweepResult`, keyed by
the parameter assignment that produced them.

:func:`run_sweep_stacked` is the fused alternative for policy sweeps over a
single workload: instead of S sequential :func:`~repro.harness.experiment.
run_experiment` calls it stacks all S grid points into one ``(S·N, D)``
matrix (:class:`~repro.engine.sweep_exec.StackedSweepMatrix`) and drives
one batched forward/backward per global step across the whole grid,
producing a bit-identical :class:`SweepResult` in float64.  Both entry
points share :func:`validate_grid`, so they reject empty grids and
grid/fixed collisions identically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Trainer families :func:`run_sweep_stacked` can drive.  The stacked
#: coordinator tiles one slice's batches across all grid points, which is
#: only sound for lockstep algorithms (every worker consumes exactly one
#: batch per global step).  BSP is reachable as the SelSync δ=0 endpoint
#: under the exact-endpoint configuration; SSP/FedAvg are not lockstep.
STACKED_ALGORITHMS = frozenset({"selsync", "local_sgd", "localsgd"})

#: Grid keys that only change the synchronization *policy* of a run.  Keys
#: affecting the data stream or batch shapes (injection parameters, batch
#: size) must not vary across stacked slices — every slice must consume the
#: identical batch sequence for the fused tiling to be valid.
STACKABLE_GRID_KEYS = frozenset(
    {"delta", "aggregation", "ewma_window", "statistic", "sync_on_first_step", "sync_period"}
)

#: Workload presets whose models the batched replica executor supports
#: (exact-type checks: MLP and the dropout-free TransformerLM).  Other
#: presets fall back to the per-worker loop sequentially, which a stacked
#: run cannot do.
STACKED_WORKLOADS = frozenset({"deep_mlp", "transformer"})


@dataclass
class SweepResult:
    """All runs of a grid sweep, keyed by their parameter assignments.

    Each entry of :attr:`runs` is ``{"params": {...}, "output": ...}`` in
    grid order (the rightmost grid key varies fastest, like nested loops).
    """

    runs: List[Dict[str, Any]] = field(default_factory=list)

    def append(self, params: Mapping[str, Any], output: Any) -> None:
        """Record one run: its parameter assignment and the function output."""
        self.runs.append({"params": dict(params), "output": output})

    def __len__(self) -> int:
        return len(self.runs)

    def best(self, key: Callable[[Any], float], maximize: bool = True) -> Dict[str, Any]:
        """Run whose output maximizes (or minimizes) ``key``.

        ``key`` maps one run's output to a comparable score;
        ``maximize=False`` selects the minimum instead (e.g. perplexity or
        final loss).  Raises :class:`ValueError` on an empty result, which
        can only happen when runs were never appended — both sweep entry
        points (:func:`grid_sweep` and :func:`run_sweep_stacked`) reject
        empty grids up front through :func:`validate_grid`.
        """
        if not self.runs:
            raise ValueError("sweep produced no runs")
        chooser = max if maximize else min
        return chooser(self.runs, key=lambda run: key(run["output"]))

    def outputs(self) -> List[Any]:
        """The bare outputs in run order (parameter assignments dropped)."""
        return [run["output"] for run in self.runs]


def validate_grid(
    grid: Mapping[str, Sequence[Any]],
    fixed: Mapping[str, Any] | None = None,
) -> Tuple[Dict[str, List[Any]], Dict[str, Any]]:
    """Normalize and validate a sweep grid; returns ``(grid, fixed)`` dicts.

    Shared by both sweep entry points (:func:`grid_sweep` and
    :func:`run_sweep_stacked`): an empty grid, a grid entry with no values
    (either would silently produce zero runs, breaking the
    :meth:`SweepResult.best` non-emptiness guarantee) and a key appearing in
    both ``grid`` and ``fixed`` (which would otherwise surface as a
    confusing ``TypeError: multiple values`` mid-sweep) are all rejected
    with :class:`ValueError` up front.  Grid values are materialized into
    lists so iterator-valued entries are not consumed by the checks.
    """
    if not grid:
        raise ValueError("grid must contain at least one parameter")
    fixed = dict(fixed or {})
    collisions = set(grid) & set(fixed)
    if collisions:
        raise ValueError(
            f"parameters {sorted(collisions)} appear in both grid and fixed"
        )
    grid = {name: list(values) for name, values in grid.items()}
    for name, values in grid.items():
        if not values:
            raise ValueError(f"grid entry {name!r} has no values")
    return grid, fixed


def grid_combinations(grid: Mapping[str, List[Any]]) -> List[Dict[str, Any]]:
    """All parameter assignments of a validated grid, in grid order.

    Grid order means the rightmost key varies fastest, like nested loops —
    the order both sweep entry points emit runs in.
    """
    names = list(grid.keys())
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(grid[name] for name in names))
    ]


def grid_sweep(
    fn: Callable[..., Any],
    grid: Mapping[str, Sequence[Any]],
    fixed: Mapping[str, Any] | None = None,
) -> SweepResult:
    """Run ``fn`` for every combination of the values in ``grid``.

    ``fixed`` keyword arguments are passed to every call unchanged; see
    :func:`validate_grid` for the up-front rejections (empty grids, empty
    entries, grid/fixed collisions).
    """
    grid, fixed = validate_grid(grid, fixed)
    result = SweepResult()
    for params in grid_combinations(grid):
        output = fn(**fixed, **params)
        result.append(params, output)
    return result


def run_sweep_stacked(
    workload: str,
    algorithm: str,
    grid: Mapping[str, Sequence[Any]],
    fixed: Mapping[str, Any] | None = None,
    *,
    num_workers: int = 4,
    iterations: int = 200,
    seed: int = 0,
    eval_every: int = 50,
    batch_size: Optional[int] = None,
    dtype: str = "float64",
    transport_dtype: Optional[str] = None,
    max_stacked_rows: Optional[int] = None,
    verify_batches: bool = False,
) -> SweepResult:
    """Run a policy sweep as one fused (S·N, D) stacked computation.

    Produces the same :class:`SweepResult` (of
    :class:`~repro.harness.experiment.ExperimentResult` outputs, in grid
    order) that ``grid_sweep(run_experiment, ...)`` would — bit-identically
    in float64 — but computes every grid point's forward/backward in one
    batched pass per global step.  Each grid point still gets a full
    simulated cluster (its own workers, loaders, parameter server, backend,
    clock and trainer); only parameter/gradient storage and the gradient
    computation are fused, via :class:`~repro.engine.sweep_exec.
    StackedSweepMatrix` and interleaved
    :meth:`~repro.algorithms.base.BaseTrainer.run_stepwise` generators.

    Restrictions (raise :class:`ValueError` up front): ``algorithm`` must be
    lockstep (:data:`STACKED_ALGORITHMS`), grid keys must be pure sync-policy
    knobs (:data:`STACKABLE_GRID_KEYS`), and ``workload`` must be batchable
    (:data:`STACKED_WORKLOADS`).  ``max_stacked_rows`` caps the rows per
    fused slab (bit-identical to unchunked); ``verify_batches`` re-checks
    every slice's batches against the fused block each step (a test knob —
    it roughly doubles batch-assembly cost).
    """
    from repro.cluster.cluster import StackedSliceCluster
    from repro.data.datasets import build_dataset
    from repro.engine.sweep_exec import StackedSweepMatrix
    from repro.harness.experiment import (
        ExperimentResult,
        build_cluster,
        build_workload,
        make_trainer,
    )

    grid, fixed = validate_grid(grid, fixed)
    key = algorithm.lower()
    if key not in STACKED_ALGORITHMS:
        raise ValueError(
            f"algorithm {algorithm!r} cannot run stacked; lockstep algorithms "
            f"only: {sorted(STACKED_ALGORITHMS)}"
        )
    unstackable = set(grid) - STACKABLE_GRID_KEYS
    if unstackable:
        raise ValueError(
            f"grid keys {sorted(unstackable)} cannot vary across stacked "
            f"slices (policy-only keys: {sorted(STACKABLE_GRID_KEYS)}); "
            "run the sequential sweep instead"
        )
    preset = build_workload(workload)
    if preset.name not in STACKED_WORKLOADS:
        raise ValueError(
            f"workload {workload!r} is not supported by the batched replica "
            f"executor (stackable workloads: {sorted(STACKED_WORKLOADS)}); "
            "run the sequential sweep instead"
        )

    combos = grid_combinations(grid)
    stacked = StackedSweepMatrix(
        num_slices=len(combos),
        num_workers=num_workers,
        max_stacked_rows=max_stacked_rows,
        verify_batches=verify_batches,
    )
    # One dataset bundle shared by every slice: sequential runs each rebuild
    # it from the same seed, so sharing the (read-only) arrays is exact.
    bundle = build_dataset(preset.dataset_name, seed=seed, **preset.dataset_kwargs)

    clusters = []
    trainers = []
    try:
        for index, params in enumerate(combos):
            def _factory(_index=index, **kwargs):
                return StackedSliceCluster(
                    stacked_matrix=stacked, slice_index=_index, **kwargs
                )

            cluster = build_cluster(
                preset,
                num_workers=num_workers,
                seed=seed,
                bundle=bundle,
                batch_size=batch_size,
                dtype=dtype,
                transport_dtype=transport_dtype,
                cluster_factory=_factory,
            )
            clusters.append(cluster)
            trainers.append(
                make_trainer(
                    key,
                    cluster,
                    preset,
                    total_iterations=iterations,
                    eval_every=eval_every,
                    **{**fixed, **params},
                )
            )
        stacked.build_executors(clusters[0].workers[0].model)

        steppers = [trainer.run_stepwise(iterations) for trainer in trainers]
        results: List[Any] = [None] * len(steppers)
        active = list(range(len(steppers)))
        while active:
            still_running = []
            for index in active:
                try:
                    next(steppers[index])
                    still_running.append(index)
                except StopIteration as stop:
                    results[index] = stop.value
            active = still_running
    finally:
        for cluster in clusters:
            cluster.close()

    sweep = SweepResult()
    for params, trainer, result in zip(combos, trainers, results):
        sweep.append(
            params,
            ExperimentResult.from_run(preset, trainer, result),
        )
    return sweep
