#!/usr/bin/env python3
"""Scenario benchmark: registered scenarios end to end, plus a per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload fig6-resnet101 --seed 0 --seconds 1 --trace 0

One process runs one training run at a time (a closed loop with one
client) through ``repro.api.run(RunRequest(kind="scenario", ...))`` on the
default execution path, repeating the scenario until ``--seconds`` have
passed (at least once).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` adds one traced execution with every probe of
:mod:`pbench.spans` installed, then one untraced execution as the overhead
baseline, and reports the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans, digests and per-run results are written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from pbench import checks, host, spans  # noqa: E402
from pbench.workloads import END_TO_END, PER_LAYER, WORKLOADS, Workload  # noqa: E402


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def import_api():
    """``repro.api`` from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found at {package}")
    sys.path.insert(0, str(SRC))
    import repro.api

    if not Path(repro.api.__file__).resolve().is_relative_to(package):
        raise SystemExit(f"perfbench: imported repro from {repro.api.__file__}, not {package}")
    return repro.api


def source_hash() -> str:
    """Hash of the program source, keying the digest ledger."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # bytes vs KiB


@dataclass
class Execution:
    """One scenario execution and what was recorded around it."""

    wall: float
    ops: List[checks.Operation]
    tracer: spans.Tracer
    missing: List[spans.Probe]
    clocks: list = field(default_factory=list)  # SimulatedClock of each cluster built
    batched_calls: int = 0  # gradient calls on a cluster with replica_exec set

    @property
    def setup(self) -> float:
        return sum(self.tracer.durations(spans.SETUP_PROBE.metric))

    @property
    def steps(self) -> float:
        return sum(op.steps for op in self.ops)


def execute(api, workload: Workload, seed: int, probes) -> Execution:
    tracer = spans.Tracer()
    execution = Execution(wall=0.0, ops=[], tracer=tracer, missing=[])

    def on_cluster(args, cluster) -> None:
        execution.clocks.append(cluster.clock)

    def on_gradients(args, result) -> None:
        if getattr(args[0], "replica_exec", None) is not None:
            execution.batched_calls += 1

    observers = {
        "cluster.setup": on_cluster,
        "engine.grad": on_gradients,
        "engine.grad_worker": on_gradients,
    }
    request = api.RunRequest(kind="scenario", scenario=workload.scenario, seed=seed)
    with spans.probes_installed(tracer, probes, observers) as missing:
        with tracer.span(spans.ROOT) as root:
            result = api.run(request)
    execution.wall = tracer.ends[root] - tracer.starts[root]
    execution.missing = missing
    execution.ops = checks.operations(result.records, result.endpoints)
    return execution


def layer_metrics(traced: Execution, untraced_wall: float) -> Dict[str, float]:
    totals = spans.layer_totals(traced.tracer)
    metrics: Dict[str, float] = {}
    for prefix in dict.fromkeys(probe.metric for probe in spans.PROBES):
        seconds, calls = totals.get(prefix, (0.0, 0))
        metrics[f"{prefix}_s"] = seconds
        metrics[f"{prefix}_calls"] = calls
    grad_calls = metrics["engine.grad_calls"] + metrics["engine.grad_worker_calls"]
    metrics["engine.batched_share"] = traced.batched_calls / grad_calls if grad_calls else 0.0
    metrics["cluster.sim_compute_s"] = sum(c.buckets["compute"] for c in traced.clocks)
    metrics["cluster.sim_comm_s"] = sum(c.buckets["communication"] for c in traced.clocks)
    metrics["comm.bytes"] = sum(float(op.metrics["communication_bytes"]) for op in traced.ops)
    metrics["comm.sync_share"] = checks.sync_share(traced.ops)
    metrics["harness.other_s"] = totals[spans.ROOT][0]
    metrics["trace.wall_s"] = traced.wall
    metrics["trace.overhead"] = traced.wall / untraced_wall - 1.0
    return metrics


def layers_account_for_wall(traced: Execution) -> bool:
    """Layer self times plus the root's own time must equal the traced wall."""
    accounted = sum(seconds for seconds, _ in spans.layer_totals(traced.tracer).values())
    return abs(accounted - traced.wall) <= 1e-6 * max(1.0, traced.wall)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    api = import_api()
    fingerprint = host.fingerprint()
    print("host " + json.dumps(fingerprint, sort_keys=True), flush=True)

    deadline = time.perf_counter() + args.seconds
    untraced = [execute(api, workload, args.seed, [spans.SETUP_PROBE])]
    # Peak of one execution, the way a user runs a scenario, so the figure
    # does not depend on how many executions fit in the window.
    first_peak_mb = peak_rss_mb()
    while time.perf_counter() < deadline:
        untraced.append(execute(api, workload, args.seed, [spans.SETUP_PROBE]))
    executions = list(untraced)
    if args.trace:
        traced = execute(api, workload, args.seed, spans.PROBES)
        # The first execution of a process pays cold-start costs (first-touch
        # page faults, lazy imports), so the overhead baseline is one more
        # untraced execution after the traced one, warm like it.
        baseline = execute(api, workload, args.seed, [spans.SETUP_PROBE])
        executions += [traced, baseline]

    ledger_id = hashlib.sha256(
        (source_hash() + json.dumps(fingerprint, sort_keys=True)).encode()
    ).hexdigest()[:16]
    ledger = checks.DigestLedger(OUT / f"digests-{ledger_id}.json")
    correct = True
    attempted = failed = 0
    run_log = []
    for number, execution in enumerate(executions):
        kind = "traced" if args.trace and number == len(untraced) else "untraced"
        print(f"execution {number} {kind} wall={execution.wall:.4f}s setup={execution.setup:.4f}s "
              f"steps={execution.steps:g}")
        if len(execution.ops) != workload.runs:
            print(f"execution {number}: {len(execution.ops)} runs, expected {workload.runs}")
            correct = False
        for op in execution.ops:
            key = f"{workload.name}/seed={args.seed}/{op.key}"
            reasons = checks.failure_reasons(op, ledger.reference(key))
            ledger.remember(key, op.digest)
            attempted += 1
            failed += bool(reasons)
            status = "FAILED: " + "; ".join(reasons) if reasons else "ok"
            print(f"run {number} {op.key} digest={op.digest} {status}")
            run_log.append({"execution": number, "run": op.key, "digest": op.digest,
                            "failures": reasons})
    ledger.save()

    if args.trace:
        for probe in traced.missing:
            print(f"probe target missing: {probe.module}.{probe.qualname}")
        if not layers_account_for_wall(traced):
            print("layer self times do not add up to the traced wall time")
            correct = False
        metrics = layer_metrics(traced, baseline.wall)
        units = PER_LAYER
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as handle:
            for record in traced.tracer.records():
                handle.write(json.dumps(record) + "\n")
    else:
        metrics = {
            "wall_s": statistics.median(e.wall for e in untraced),
            "setup_s": statistics.median(e.setup for e in untraced),
            "steps_per_s": statistics.median(e.steps / (e.wall - e.setup) for e in untraced),
            "peak_rss_mb": first_peak_mb,
        }
        units = END_TO_END

    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(
        json.dumps(
            {"workload": workload.name, "scenario": workload.scenario, "seed": args.seed,
             "host": fingerprint, "executions": len(executions), "metrics": metrics,
             "runs": run_log},
            indent=1,
        ),
        encoding="utf-8",
    )
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
