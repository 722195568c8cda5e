"""The single executor for registered scenarios.

:func:`run_scenario` takes a scenario (or a registry name), executes it
through :func:`repro.harness.experiment.run_experiment` (training kinds) or
the analytic cost model (throughput kind), and returns a
:class:`ScenarioReport`: structured per-run records that serialize to JSON
for artifact tracking, the raw :class:`~repro.algorithms.base.TrainingResult`
objects for assertions, and ready-made :mod:`repro.harness.reporting` tables.

δ-sweep scenarios with ``verify_endpoints=True`` additionally run the
existing :class:`~repro.algorithms.bsp.BSPTrainer` and a never-syncing
:class:`~repro.algorithms.localsgd.LocalSGDTrainer` as *anchors* and record
whether the sweep's δ=0 and δ=max runs reproduce them exactly — final loss,
final metric and the full evaluation history.  This pins the registry's
large-N sweeps to the trainers the unit suite already trusts.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro import telemetry
from repro.algorithms.base import TrainingResult
from repro.harness.reporting import format_table, results_to_rows, table1_headers
from repro.harness.sweep import grid_sweep, run_sweep_stacked
from repro.metrics.convergence import ConvergenceDetector
from repro.scenarios.registry import Scenario, get_scenario
from repro.scenarios.spec import (
    ComparisonScenario,
    FaultScenario,
    ScenarioError,
    SweepScenario,
    ThroughputScenario,
)

__all__ = [
    "RunCancelled",
    "ScenarioRecord",
    "ScenarioReport",
    "result_metrics",
    "run_scenario",
]


class RunCancelled(Exception):
    """A scenario run was cancelled cooperatively between runs.

    Raised by :func:`run_scenario` when the ``cancel_check`` callback
    returns ``True`` at a checkpoint (before each grid point, comparison
    method or endpoint anchor).  The experiment service's task manager maps
    this to the job lifecycle's CANCELLED state."""


def _check_cancelled(cancel_check: Optional[Any]) -> None:
    if cancel_check is not None and cancel_check():
        raise RunCancelled("scenario run cancelled by cancel_check")


@dataclass
class ScenarioRecord:
    """One run (or one analytic point) of a scenario, as plain data.

    ``phases`` is the opt-in per-phase wall-clock breakdown (phase name →
    seconds) captured around this run when :mod:`repro.telemetry` tracing is
    active; ``None`` — the default when telemetry is off — keeps the record
    shape byte-identical to pre-telemetry artifacts.  ``meta`` says how a
    training run executed (``exec_path``, plus ``exec_reason`` when the
    batched compiler rejected the model); analytic records carry none.
    """

    params: Dict[str, Any]
    label: str
    metrics: Dict[str, float]
    phases: Optional[Dict[str, float]] = None
    meta: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        payload: Dict[str, Any] = {
            "params": dict(self.params),
            "label": self.label,
            "metrics": dict(self.metrics),
        }
        if self.phases is not None:
            payload["phases"] = dict(self.phases)
        if self.meta is not None:
            payload["meta"] = dict(self.meta)
        return payload


@dataclass
class ScenarioReport:
    """Everything one scenario execution produced.

    ``records`` are JSON-serializable summaries (one per run);
    ``results`` keeps the raw :class:`~repro.algorithms.base.TrainingResult`
    objects keyed like the records for exact assertions; ``endpoints`` holds
    the anchor records and parity verdicts of ``verify_endpoints`` sweeps.
    """

    name: str
    title: str
    kind: str
    meta: Dict[str, Any] = field(default_factory=dict)
    records: List[ScenarioRecord] = field(default_factory=list)
    results: Dict[str, TrainingResult] = field(default_factory=dict)
    endpoints: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (drops the raw ``results`` objects)."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "title": self.title,
            "kind": self.kind,
            "meta": dict(self.meta),
            "records": [record.to_dict() for record in self.records],
        }
        if self.endpoints:
            payload["endpoints"] = self.endpoints
        return payload

    def series(self, param: str, metric: str) -> Dict[Any, float]:
        """One ``{param value -> metric}`` series across the records."""
        return {
            record.params[param]: record.metrics[metric]
            for record in self.records
            if param in record.params and metric in record.metrics
        }

    def table(self) -> str:
        """Human-readable report table(s), one :func:`format_table` per kind."""
        if self.kind == "comparison":
            return self._comparison_table()
        if self.kind == "throughput":
            return self._throughput_table()
        return self._sweep_table()

    # ------------------------------------------------------------------ #
    @staticmethod
    def _format_param(name: str, value: Any) -> Any:
        # The 1e9 δ sentinel means "beyond any observed Δ(gᵢ)" — print it as
        # the local-SGD extreme it represents, like Fig. 6 in the paper.
        if name == "delta" and isinstance(value, float) and value >= 1e9:
            return "∞ (local SGD)"
        return value

    def _sweep_table(self) -> str:
        param_names = sorted({name for r in self.records for name in r.params})
        metric_names = ["lssr", "best_metric", "final_loss", "sim_time_seconds", "wall_seconds"]
        rows = []
        for record in self.records:
            cells: List[Any] = [
                self._format_param(name, record.params.get(name, "-"))
                for name in param_names
            ]
            for metric in metric_names:
                value = record.metrics.get(metric)
                cells.append("-" if value is None else round(value, 4))
            rows.append(cells)
        title = self.title
        sweep_wall = self.meta.get("sweep_wall_seconds")
        if sweep_wall is not None:
            title = f"{title} (sweep wall {sweep_wall:.1f}s)"
        return format_table(param_names + metric_names, rows, title=title)

    def _comparison_table(self) -> str:
        tables = []
        for workload in self.meta.get("workloads", []):
            results = {
                label: self.results[f"{workload}/{label}"]
                for label in self.meta.get("methods", [])
                if f"{workload}/{label}" in self.results
            }
            if not results:
                continue
            rows = results_to_rows(results, baseline_key=self.meta["baseline"])
            tables.append(
                format_table(table1_headers(), rows, title=f"{self.title} — {workload}")
            )
        return "\n\n".join(tables)

    def _throughput_table(self) -> str:
        workloads = list(self.meta.get("workloads", []))
        curves: Dict[str, Dict[int, float]] = {name: {} for name in workloads}
        for record in self.records:
            curves[record.params["workload"]][record.params["workers"]] = record.metrics[
                "relative_throughput"
            ]
        rows = [
            [n] + [round(curves[name][n], 2) for name in workloads]
            for n in self.meta.get("worker_counts", [])
        ]
        return format_table(["workers"] + workloads, rows, title=self.title)


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #
def result_metrics(result: TrainingResult) -> Dict[str, float]:
    """The serializable per-run summary shared by every training record.

    Public because the :mod:`repro.api` façade builds single-run records in
    exactly this shape, so local and service-submitted runs serialize
    identically."""
    metrics = {
        "iterations": float(result.iterations),
        "lssr": result.lssr,
        "best_metric": result.best_metric,
        "final_metric": result.final_metric,
        "final_loss": result.final_loss,
        "sim_time_seconds": result.sim_time_seconds,
        "communication_bytes": result.communication_bytes,
    }
    for key, value in result.extras.items():
        metrics.setdefault(key, float(value))
    return metrics


def _exact_match(result: TrainingResult, anchor: TrainingResult) -> bool:
    """Bit-exact trajectory equality: final numbers plus every eval point.

    Simulated time is excluded on purpose — SelSync charges the per-step
    flags all-gather that BSP / local SGD never pay, so clocks differ even
    when the parameter trajectories are identical.
    """
    if result.final_loss != anchor.final_loss:
        return False
    if result.final_metric != anchor.final_metric:
        return False
    if len(result.history) != len(anchor.history):
        return False
    return all(
        a.step == b.step and a.metric == b.metric and a.loss == b.loss
        for a, b in zip(result.history, anchor.history)
    )


def _run_sweep(
    scenario: SweepScenario,
    iterations: int,
    num_workers: int,
    seed: int,
    cancel_check=None,
) -> ScenarioReport:
    from repro.harness.experiment import run_experiment

    eval_every = scenario.resolved_eval_every(iterations)
    common = dict(
        num_workers=num_workers,
        iterations=iterations,
        seed=seed,
        eval_every=eval_every,
        batch_size=scenario.batch_size,
        dtype=scenario.dtype,
        transport_dtype=scenario.transport_dtype,
        pool_workers=scenario.pool_workers,
        pool_start_method=scenario.pool_start_method,
    )
    report = ScenarioReport(
        name=scenario.name,
        title=scenario.title,
        kind=scenario.kind,
        meta={
            "workload": scenario.workload,
            "algorithm": scenario.algorithm,
            "num_workers": num_workers,
            "iterations": iterations,
            "seed": seed,
            "eval_every": eval_every,
            "grid": {key: list(values) for key, values in scenario.grid.items()},
            "fixed": dict(scenario.fixed),
            "dtype": scenario.dtype,
            "transport_dtype": scenario.transport_dtype,
            "pool_workers": scenario.pool_workers,
            "stacked": scenario.stacked,
            "max_stacked_rows": scenario.max_stacked_rows,
            "tags": list(scenario.tags),
        },
    )

    run_walls: List[float] = []
    run_phases: List[Optional[Dict[str, float]]] = []
    sweep_phase_start = telemetry.phase_snapshot()
    sweep_start = time.perf_counter()
    if scenario.stacked:
        # One fused computation has no between-run checkpoint; check once.
        _check_cancelled(cancel_check)
        sweep = run_sweep_stacked(
            scenario.workload,
            scenario.algorithm,
            scenario.grid,
            scenario.fixed,
            num_workers=num_workers,
            iterations=iterations,
            seed=seed,
            eval_every=eval_every,
            batch_size=scenario.batch_size,
            dtype=scenario.dtype,
            transport_dtype=scenario.transport_dtype,
            max_stacked_rows=scenario.max_stacked_rows,
        )
        # One fused computation covered every grid point; attribute an equal
        # share of the sweep's wall-clock to each run's record.  Phase time
        # is likewise shared, so it lives in meta["phases"] only.
        run_walls = [(time.perf_counter() - sweep_start) / len(sweep.runs)] * len(
            sweep.runs
        )
        run_phases = [None] * len(sweep.runs)
    else:

        def one_run(**params):
            _check_cancelled(cancel_check)
            start = time.perf_counter()
            phase_start = telemetry.phase_snapshot()
            out = run_experiment(
                scenario.workload,
                scenario.algorithm,
                **common,
                **scenario.fixed,
                **params,
            )
            run_phases.append(telemetry.phase_delta(phase_start) or None)
            run_walls.append(time.perf_counter() - start)
            return out

        sweep = grid_sweep(one_run, scenario.grid)
    report.meta["sweep_wall_seconds"] = time.perf_counter() - sweep_start
    sweep_phases = telemetry.phase_delta(sweep_phase_start)
    if sweep_phases:
        report.meta["phases"] = sweep_phases

    for run, wall, phases in zip(sweep.runs, run_walls, run_phases):
        out = run["output"]
        key = "/".join(f"{k}={v}" for k, v in run["params"].items())
        report.results[key] = out.result
        metrics = result_metrics(out.result)
        metrics["wall_seconds"] = wall
        report.records.append(
            ScenarioRecord(
                params=dict(run["params"]),
                label=out.algorithm,
                metrics=metrics,
                phases=phases,
                meta=out.exec_meta,
            )
        )

    if scenario.verify_endpoints:
        report.endpoints = _verify_delta_endpoints(scenario, report, common, cancel_check)
    return report


def _verify_delta_endpoints(
    scenario: SweepScenario,
    report: ScenarioReport,
    common: Dict[str, Any],
    cancel_check=None,
) -> Dict[str, Any]:
    """Anchor the δ-sweep's extremes on the existing BSP / local-SGD trainers."""
    from repro.harness.experiment import run_experiment

    deltas = list(scenario.grid["delta"])
    lo, hi = min(deltas), max(deltas)
    _check_cancelled(cancel_check)
    bsp_start = time.perf_counter()
    bsp = run_experiment(scenario.workload, "bsp", **common)
    bsp_wall = time.perf_counter() - bsp_start
    _check_cancelled(cancel_check)
    local_start = time.perf_counter()
    local = run_experiment(
        scenario.workload,
        "local_sgd",
        sync_period=common["iterations"] + 1,
        **common,
    )
    local_wall = time.perf_counter() - local_start
    delta_lo = report.results[f"delta={lo}"]
    delta_hi = report.results[f"delta={hi}"]
    bsp_metrics = result_metrics(bsp.result)
    bsp_metrics["wall_seconds"] = bsp_wall
    local_metrics = result_metrics(local.result)
    local_metrics["wall_seconds"] = local_wall
    endpoints = {
        "bsp": {
            "delta": lo,
            "record": ScenarioRecord(
                params={"anchor": "bsp"}, label=bsp.algorithm,
                metrics=bsp_metrics, meta=bsp.exec_meta,
            ).to_dict(),
            "matches_sweep_endpoint": _exact_match(delta_lo, bsp.result),
        },
        "local_sgd": {
            "delta": hi,
            "record": ScenarioRecord(
                params={"anchor": "local_sgd"}, label=local.algorithm,
                metrics=local_metrics, meta=local.exec_meta,
            ).to_dict(),
            "matches_sweep_endpoint": _exact_match(delta_hi, local.result),
        },
    }
    report.results["anchor/bsp"] = bsp.result
    report.results["anchor/local_sgd"] = local.result
    return endpoints


def _run_comparison(
    scenario: ComparisonScenario,
    iterations: int,
    num_workers: int,
    seed: int,
    cancel_check=None,
) -> ScenarioReport:
    from repro.harness.experiment import build_workload, run_experiment

    eval_every = scenario.resolved_eval_every(iterations)
    report = ScenarioReport(
        name=scenario.name,
        title=scenario.title,
        kind=scenario.kind,
        meta={
            "workloads": list(scenario.workloads),
            "methods": list(scenario.methods),
            "baseline": scenario.baseline,
            "num_workers": num_workers,
            "iterations": iterations,
            "seed": seed,
            "eval_every": eval_every,
            "tags": list(scenario.tags),
        },
    )
    for workload in scenario.workloads:
        higher_is_better = build_workload(workload).task != "language_modeling"
        for label, (algorithm, kwargs) in scenario.methods.items():
            _check_cancelled(cancel_check)
            convergence = None
            if scenario.use_convergence:
                convergence = ConvergenceDetector(
                    higher_is_better=higher_is_better,
                    patience=scenario.convergence_patience,
                    min_delta=scenario.convergence_min_delta,
                )
            phase_start = telemetry.phase_snapshot()
            out = run_experiment(
                workload,
                algorithm,
                num_workers=num_workers,
                iterations=iterations,
                seed=seed,
                eval_every=eval_every,
                convergence=convergence,
                dtype=scenario.dtype,
                transport_dtype=scenario.transport_dtype,
                pool_workers=scenario.pool_workers,
                pool_start_method=scenario.pool_start_method,
                **kwargs,
            )
            report.results[f"{workload}/{label}"] = out.result
            report.records.append(
                ScenarioRecord(
                    params={"workload": workload, "method": label},
                    label=out.algorithm,
                    metrics=result_metrics(out.result),
                    phases=telemetry.phase_delta(phase_start) or None,
                    meta=out.exec_meta,
                )
            )
    return report


def _run_fault(
    scenario: FaultScenario,
    iterations: int,
    num_workers: int,
    seed: int,
    cancel_check=None,
) -> ScenarioReport:
    """Execute a fault scenario twice and enforce its reliability gates.

    Records deliberately omit wall-clock timings — the deterministic-replay
    gate compares the two runs' serialized records byte for byte, and only
    seeded quantities (losses, metrics, simulated seconds, byte counts) are
    replayable.
    """
    from repro.harness.experiment import run_experiment

    eval_every = scenario.resolved_eval_every(iterations)
    schedule = scenario.build_schedule(num_workers, iterations)
    report = ScenarioReport(
        name=scenario.name,
        title=scenario.title,
        kind=scenario.kind,
        meta={
            "workload": scenario.workload,
            "algorithm": scenario.algorithm,
            "num_workers": num_workers,
            "iterations": iterations,
            "seed": seed,
            "eval_every": eval_every,
            "fault_seed": scenario.fault_seed,
            "failure_rate": scenario.failure_rate,
            "straggler_fraction": scenario.straggler_fraction,
            "mttr": scenario.mttr,
            "slowdown": scenario.slowdown,
            "checkpoint_every": scenario.checkpoint_every,
            "continuity_factor": scenario.continuity_factor,
            "fault_events": schedule.to_dicts(),
            "tags": list(scenario.tags),
        },
    )

    results: List[TrainingResult] = []
    for attempt in ("run", "replay"):
        _check_cancelled(cancel_check)
        out = run_experiment(
            scenario.workload,
            scenario.algorithm,
            num_workers=num_workers,
            iterations=iterations,
            seed=seed,
            eval_every=eval_every,
            batch_size=scenario.batch_size,
            dtype=scenario.dtype,
            transport_dtype=scenario.transport_dtype,
            fault_schedule=schedule,
            fault_checkpoint_every=scenario.checkpoint_every,
            **scenario.fixed,
        )
        results.append(out.result)
        report.results[attempt] = out.result
        report.records.append(
            ScenarioRecord(
                params={"attempt": attempt},
                label=out.algorithm,
                metrics=result_metrics(out.result),
                meta=out.exec_meta,
            )
        )

    deterministic = report.records[0].to_dict()["metrics"] == (
        report.records[1].to_dict()["metrics"]
    )
    continuity, continuity_detail = _check_loss_continuity(
        results[0], schedule, scenario.continuity_factor
    )
    report.meta["gates"] = {
        "deterministic_replay": deterministic,
        "loss_continuity": continuity,
        "continuity_detail": continuity_detail,
    }
    if not deterministic:
        raise ScenarioError(
            f"scenario {scenario.name!r}: deterministic-replay gate failed — two "
            "runs with the same fault seed produced different records"
        )
    if not continuity:
        raise ScenarioError(
            f"scenario {scenario.name!r}: loss-continuity gate failed — "
            f"{continuity_detail}"
        )
    return report


def _check_loss_continuity(result, schedule, factor: float):
    """All eval losses finite; each crash degrades loss by at most ``factor``."""
    import math

    history = result.history
    for point in history:
        if not math.isfinite(point.loss):
            return False, f"non-finite eval loss {point.loss} at step {point.step}"
    crash_steps = [e.step for e in schedule if e.kind == "crash"]
    for crash_step in crash_steps:
        before = [p for p in history if p.step <= crash_step]
        after = [p for p in history if p.step > crash_step]
        if not before or not after:
            continue
        pre, post = before[-1].loss, after[0].loss
        if post > factor * pre:
            return False, (
                f"eval loss jumped from {pre:.6g} (step {before[-1].step}) to "
                f"{post:.6g} (step {after[0].step}) across the crash at step "
                f"{crash_step} (allowed factor {factor})"
            )
    return True, "ok"


def _run_throughput(scenario: ThroughputScenario) -> ScenarioReport:
    from repro.cluster.compute_model import PAPER_WORKLOADS
    from repro.comm.cost_model import CommunicationCostModel
    from repro.metrics.throughput import throughput_curve

    comm = CommunicationCostModel(topology=scenario.topology)
    report = ScenarioReport(
        name=scenario.name,
        title=scenario.title,
        kind=scenario.kind,
        meta={
            "workloads": list(scenario.workloads),
            "worker_counts": list(scenario.worker_counts),
            "topology": scenario.topology,
            "tags": list(scenario.tags),
        },
    )
    for workload in scenario.workloads:
        spec = PAPER_WORKLOADS[workload]
        curve = throughput_curve(
            spec, list(scenario.worker_counts), spec.base_batch_size, comm
        )
        for workers, value in curve.items():
            report.records.append(
                ScenarioRecord(
                    params={"workload": workload, "workers": int(workers)},
                    label=workload,
                    metrics={"relative_throughput": float(value)},
                )
            )
    return report


def run_scenario(
    scenario: Union[str, Scenario],
    iterations: Optional[int] = None,
    num_workers: Optional[int] = None,
    seed: Optional[int] = None,
    stacked: Optional[bool] = None,
    max_stacked_rows: Optional[int] = None,
    fault_seed: Optional[int] = None,
    cancel_check=None,
    record_to=None,
) -> ScenarioReport:
    """Execute a scenario (by object or registry name) and return its report.

    ``iterations`` / ``num_workers`` / ``seed`` override the scenario's
    defaults without mutating it — the benchmark suite uses this to scale
    the same registered scenario between smoke and full-scale runs.
    ``stacked`` / ``max_stacked_rows`` likewise switch a sweep scenario
    between the sequential runner and the fused ``(S·N, D)`` executor (see
    :func:`repro.harness.sweep.run_sweep_stacked`); the override re-runs the
    scenario's own validation, so an unstackable scenario is rejected with a
    :class:`ScenarioError` before any training starts.  Overrides are
    rejected for analytic throughput scenarios, which have no training loop
    to resize, and ``stacked`` overrides for non-sweep kinds.

    ``fault_seed`` re-seeds a fault scenario's generated schedule (rejected
    for other kinds); explicit-event schedules ignore it by construction.

    ``cancel_check`` is an optional zero-argument callable polled between
    runs (each grid point, comparison method and endpoint anchor); when it
    returns ``True`` the execution stops by raising :class:`RunCancelled`.
    The experiment service uses this for cooperative job cancellation.

    ``record_to`` (a path or :class:`~repro.results.store.ResultsStore`)
    appends the finished report to the persistent run store (see
    :func:`repro.results.record_report`), making it queryable via
    ``repro scenario history``.  Cancelled or failed runs append nothing.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if isinstance(scenario, ThroughputScenario):
        if iterations is not None or num_workers is not None or seed is not None:
            raise ScenarioError(
                f"scenario {scenario.name!r} is analytic; iterations/num_workers/"
                "seed overrides do not apply"
            )
    if stacked is not None or max_stacked_rows is not None:
        if not isinstance(scenario, SweepScenario):
            raise ScenarioError(
                f"scenario {scenario.name!r} is a {scenario.kind} scenario; "
                "stacked execution applies to sweep scenarios only"
            )
        overrides: Dict[str, Any] = {}
        if stacked is not None:
            overrides["stacked"] = bool(stacked)
        if max_stacked_rows is not None:
            overrides["max_stacked_rows"] = int(max_stacked_rows)
        # replace() re-runs __post_init__, i.e. the stackability validation.
        scenario = dataclasses.replace(scenario, **overrides)
    if fault_seed is not None:
        if not isinstance(scenario, FaultScenario):
            raise ScenarioError(
                f"scenario {scenario.name!r} is a {scenario.kind} scenario; "
                "fault_seed overrides apply to fault scenarios only"
            )
        # replace() re-runs __post_init__, i.e. the schedule validation.
        scenario = dataclasses.replace(scenario, fault_seed=int(fault_seed))
    if isinstance(scenario, ThroughputScenario):
        report = _run_throughput(scenario)
    else:
        iterations = scenario.iterations if iterations is None else int(iterations)
        num_workers = scenario.num_workers if num_workers is None else int(num_workers)
        seed = scenario.seed if seed is None else int(seed)
        if iterations < 1:
            raise ScenarioError(f"iterations override must be >= 1, got {iterations}")
        if num_workers < 1:
            raise ScenarioError(f"num_workers override must be >= 1, got {num_workers}")
        if seed < 0:
            raise ScenarioError(f"seed override must be >= 0, got {seed}")
        if isinstance(scenario, SweepScenario):
            report = _run_sweep(scenario, iterations, num_workers, seed, cancel_check)
        elif isinstance(scenario, ComparisonScenario):
            report = _run_comparison(scenario, iterations, num_workers, seed, cancel_check)
        elif isinstance(scenario, FaultScenario):
            report = _run_fault(scenario, iterations, num_workers, seed, cancel_check)
        else:
            raise ScenarioError(f"unsupported scenario type {type(scenario).__name__}")
    if record_to is not None:
        from repro.results import record_report

        record_report(record_to, report)
    return report
