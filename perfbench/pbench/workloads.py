"""The benchmark's workloads and the metrics it reports.

Each workload is one registered scenario run through ``repro.api.run`` on
the default execution path (in-process, no replica pool, not stacked,
float64).  ``runs`` is the number of training runs one execution makes:
scenario records plus endpoint anchors.  ``why`` is the line
``BENCHMARK.json`` carries; ``perfbench/README.md`` has the full rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from pbench.spans import PROBES


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    runs: int
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig6-resnet101",
            "fig6-delta-sweep",
            6,
            "Fig. 6 headline: resnet101 analog on the per-worker loop, 6 deltas x 200 steps, "
            "sync rare; engine.grad and optim.update dominate, so one-compute-path work shows here",
        ),
        Workload(
            "table1-resnet101",
            "table1-comparison",
            6,
            "Table I: BSP, FedAvg, SSP, SelSync on one model, so a gain for one algorithm that "
            "costs another shows; ssp(s=100) diverges to NaN on every seed tried: 1 failed run of 6",
        ),
        Workload(
            "deep-mlp-n256",
            "deep-mlp-delta-n256",
            7,
            "Paper-scale batched path, N=256: cluster.setup, the fused optim.update and the "
            "256-row core.delta_stat rival compute, so setup and tracker changes show here",
        ),
        Workload(
            "transformer-n64",
            "transformer-delta-n64",
            7,
            "Only batched-attention workload, N=64; metrics.eval and data.build are large here, "
            "so eval and data changes show while optimizer changes predict no change",
        ),
    )
}

#: End-to-end metrics (untraced run): name -> unit.
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run): name -> unit.  Every probe gives a self
#: time and a call count; the rest are derived from spans and records.
PER_LAYER: Dict[str, str] = {}
for _prefix in dict.fromkeys(probe.metric for probe in PROBES):
    PER_LAYER[f"{_prefix}_s"] = "s"
    PER_LAYER[f"{_prefix}_calls"] = "count"
PER_LAYER.update(
    {
        "cluster.sim_compute_s": "sim_s",
        "cluster.sim_comm_s": "sim_s",
        "engine.batched_share": "ratio",
        "comm.bytes": "B",
        "comm.sync_share": "ratio",
        "harness.other_s": "s",
        "trace.wall_s": "s",
        "trace.overhead": "ratio",
    }
)
