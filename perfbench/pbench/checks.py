"""Output checks: one operation per training run, and the rules that fail it.

An operation is one scenario record or one endpoint anchor of a
``repro.api.RunResult``.  A run fails when its final loss is not finite,
its LSSR lies outside [0, 1], its endpoint-parity verdict is false, or its
trajectory digest differs from an earlier run with the same seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

#: Record metrics that measure the host, not the trajectory.
WALL_CLOCK_FIELDS = frozenset({"wall_seconds"})


def trajectory_digest(metrics: Mapping[str, float]) -> str:
    """Hash of a record's float64 metrics, bit for bit, minus wall-clock fields."""
    digest = hashlib.sha256()
    for key in sorted(metrics):
        if key not in WALL_CLOCK_FIELDS:
            digest.update(f"{key}={float(metrics[key]).hex()};".encode())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class Operation:
    """One training run of a scenario execution."""

    key: str
    metrics: Mapping[str, float]
    parity: Optional[bool] = None  # endpoint-parity verdict, anchors only

    @property
    def digest(self) -> str:
        return trajectory_digest(self.metrics)

    @property
    def steps(self) -> float:
        return float(self.metrics["iterations"])


def operations(records: List[Mapping[str, Any]], endpoints: Mapping[str, Any]) -> List[Operation]:
    """The operations of one ``RunResult`` (its ``records`` and ``endpoints``)."""
    ops = [
        Operation(json.dumps(record["params"], sort_keys=True), record["metrics"])
        for record in records
    ]
    for anchor in sorted(endpoints):
        entry = endpoints[anchor]
        ops.append(
            Operation(
                f"anchor={anchor}",
                entry["record"]["metrics"],
                parity=bool(entry["matches_sweep_endpoint"]),
            )
        )
    return ops


def failure_reasons(op: Operation, reference_digest: Optional[str] = None) -> List[str]:
    """Why ``op`` failed; empty when it passed.

    ``reference_digest`` is the digest of an earlier run with the same seed,
    when one exists.
    """
    reasons = []
    loss = float(op.metrics["final_loss"])
    if not math.isfinite(loss):
        reasons.append(f"final_loss={loss}")
    lssr = float(op.metrics["lssr"])
    if not 0.0 <= lssr <= 1.0:  # also rejects NaN
        reasons.append(f"lssr={lssr}")
    if op.parity is False:
        reasons.append("endpoint parity false")
    if reference_digest is not None and op.digest != reference_digest:
        reasons.append(f"digest {op.digest} != {reference_digest} for the same seed")
    return reasons


def sync_share(ops: List[Operation]) -> float:
    """Synchronized steps over all steps, from each run's LSSR."""
    steps = synced = 0.0
    for op in ops:
        lssr = float(op.metrics["lssr"])
        if 0.0 <= lssr <= 1.0:
            steps += op.steps
            synced += op.steps * (1.0 - lssr)
    return synced / steps if steps else 0.0


class DigestLedger:
    """Trajectory digests of earlier runs, keyed by workload, seed and run.

    The ledger is one JSON file per (program source, host) hash, so a run
    is only ever compared with runs of the same code on the same host.
    """

    def __init__(self, path) -> None:
        self.path = path
        try:
            with open(path, encoding="utf-8") as handle:
                self.digests: Dict[str, str] = json.load(handle)
        except FileNotFoundError:
            self.digests = {}

    def reference(self, key: str) -> Optional[str]:
        return self.digests.get(key)

    def remember(self, key: str, digest: str) -> None:
        self.digests.setdefault(key, digest)

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.digests, sort_keys=True, indent=0), encoding="utf-8")
        tmp.replace(self.path)
