"""Outside-in span tracing: wrap public ``repro`` functions, keep spans in memory.

The benchmark never edits the program.  A :class:`Probe` names one public
function or method of a ``repro`` module; :func:`probes_installed` swaps it
for a wrapper that records a span (name, start, end, parent) in a
:class:`Tracer` and restores the original on exit.  Self time is a span's
duration minus the durations of its direct children, so the self times of a
span tree add up to its root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Name of the root span the benchmark opens around one ``repro.api.run`` call.
ROOT = "harness.run"


@dataclass(frozen=True)
class Probe:
    """One wrapped function: the layer metric it feeds and where it lives."""

    metric: str  # span name and metric prefix, e.g. "engine.grad"
    module: str  # module whose namespace (or class) holds the function
    qualname: str  # "function" or "Class.method" inside ``module``


#: The layer boundaries the traced run records.  Module-level functions are
#: patched in the namespace that calls them (``build_dataset`` as bound in
#: ``repro.harness.experiment``), methods on the class that defines them.
PROBES: Tuple[Probe, ...] = (
    Probe("cluster.setup", "repro.harness.experiment", "build_cluster"),
    Probe("data.build", "repro.harness.experiment", "build_dataset"),
    Probe("data.batches", "repro.cluster.cluster", "SimulatedCluster.next_batches"),
    Probe("engine.grad", "repro.cluster.cluster", "SimulatedCluster.compute_gradients_all"),
    Probe(
        "engine.grad_worker", "repro.cluster.cluster", "SimulatedCluster.compute_gradients_worker"
    ),
    Probe("optim.update", "repro.cluster.cluster", "SimulatedCluster.apply_local_updates"),
    Probe("core.delta_stat", "repro.core.selsync", "batch_gradient_statistic"),
    Probe("core.ewma", "repro.core.gradient_tracker", "GradientChangeTracker.update_scalar"),
    Probe("comm.ps_push", "repro.comm.parameter_server", "ParameterServer.push_matrix_parameters"),
    Probe("comm.ps_push", "repro.comm.parameter_server", "ParameterServer.push_matrix_gradients"),
    Probe("comm.allreduce", "repro.comm.backend", "InProcessBackend.allreduce_matrix"),
    Probe("comm.allgather_bits", "repro.comm.backend", "InProcessBackend.allgather_bits"),
    Probe("comm.broadcast", "repro.cluster.cluster", "SimulatedCluster.broadcast_state"),
    Probe("metrics.eval", "repro.cluster.cluster", "SimulatedCluster.evaluate_state"),
)

#: The one probe the untraced run keeps: it times ``build_cluster`` for
#: ``setup_s``, a handful of calls per scenario.
SETUP_PROBE = PROBES[0]

#: Called after a wrapped function returns, with its arguments and result.
Observer = Callable[[tuple, object], None]


class Tracer:
    """Spans held in parallel lists; the open spans form a stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(float("nan"))
        self._open.append(index)
        self.starts.append(self._clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = self._clock()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def wrap(self, name: str, fn: Callable, observe: Optional[Observer] = None) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def durations(self, name: str) -> List[float]:
        """Inclusive durations of every span called ``name``."""
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def records(self) -> List[Dict[str, object]]:
        """The spans as JSON-ready dicts (times relative to the first span)."""
        origin = self.starts[0] if self.starts else 0.0
        return [
            {"id": i, "name": n, "parent": p, "start": s - origin, "end": e - origin}
            for i, (n, p, s, e) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            )
        ]


def self_times(parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(starts, ends)]
    for child, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[child] - starts[child]
    return own


def layer_totals(tracer: Tracer) -> Dict[str, Tuple[float, int]]:
    """``{span name: (summed self time, call count)}`` over the whole trace."""
    totals: Dict[str, Tuple[float, int]] = {}
    own = self_times(tracer.parents, tracer.starts, tracer.ends)
    for name, seconds in zip(tracer.names, own):
        total, calls = totals.get(name, (0.0, 0))
        totals[name] = (total + seconds, calls + 1)
    return totals


def _resolve(probe: Probe) -> Optional[Tuple[object, str]]:
    """The namespace object that owns the probe's attribute, or ``None``."""
    try:
        owner: object = importlib.import_module(probe.module)
    except ImportError:
        return None
    *path, attr = probe.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not isinstance(vars(owner).get(attr), types.FunctionType):
        return None
    return owner, attr


@contextmanager
def probes_installed(
    tracer: Tracer,
    probes: Sequence[Probe],
    observers: Optional[Mapping[str, Observer]] = None,
) -> Iterator[List[Probe]]:
    """Wrap every probe's function for the duration of the block.

    Yields the probes whose target no longer exists, so a renamed function
    is reported instead of silently reading zero.
    """
    observers = observers or {}
    installed: List[Tuple[object, str, Callable]] = []
    missing: List[Probe] = []
    try:
        for probe in probes:
            target = _resolve(probe)
            if target is None:
                missing.append(probe)
                continue
            owner, attr = target
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrap(probe.metric, original, observers.get(probe.metric)))
            installed.append((owner, attr, original))
        yield missing
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)
