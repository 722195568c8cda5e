"""Tests for the scenario benchmark's own code (``perfbench/``).

Run with ``python -m pytest perfbench/tests -q``; no scenario is executed.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from pbench import checks, host, spans  # noqa: E402
from pbench.workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def _load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


class FakeClock:
    """Returns the scripted times in order."""

    def __init__(self, *times: float) -> None:
        self._times = iter(times)

    def __call__(self) -> float:
        return next(self._times)


def _metrics(**overrides):
    metrics = {
        "iterations": 10.0,
        "lssr": 0.5,
        "final_loss": 1.25,
        "communication_bytes": 100.0,
        "wall_seconds": 0.5,
    }
    metrics.update(overrides)
    return metrics


# --------------------------------------------------------------------------- #
# self-time arithmetic
# --------------------------------------------------------------------------- #
def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a.child [2, 3]; root > b [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    own = spans.self_times(parents, starts, ends)
    assert own == [3.0, 2.0, 1.0, 4.0]
    assert sum(own) == ends[0] - starts[0]


def test_tracer_records_parents_and_layer_totals():
    tracer = spans.Tracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0))
    with tracer.span("root"):
        with tracer.span("layer"):
            with tracer.span("inner"):
                pass
        with tracer.span("layer"):
            pass
    assert tracer.parents == [-1, 0, 1, 0]
    totals = spans.layer_totals(tracer)
    assert totals["root"] == (3.0, 1)
    assert totals["layer"] == (2.0 + 4.0, 2)
    assert totals["inner"] == (1.0, 1)
    assert sum(s for s, _ in totals.values()) == 10.0
    assert tracer.durations("layer") == [3.0, 4.0]


def test_tracer_rejects_out_of_order_close():
    tracer = spans.Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_probes_wrap_restore_and_report_missing(monkeypatch):
    module = types.ModuleType("fake_layer")

    def work(x):
        return x + 1

    class Engine:
        def step(self, x):
            return module.work(x) * 2

    module.work = work
    module.Engine = Engine
    original_step = vars(Engine)["step"]
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    probes = [
        spans.Probe("engine.step", "fake_layer", "Engine.step"),
        spans.Probe("data.work", "fake_layer", "work"),
        spans.Probe("gone", "fake_layer", "Engine.renamed"),
    ]
    seen = []
    tracer = spans.Tracer()
    with spans.probes_installed(
        tracer, probes, {"engine.step": lambda args, result: seen.append(result)}
    ) as missing:
        assert Engine().step(1) == 4
    assert [p.qualname for p in missing] == ["Engine.renamed"]
    assert tracer.names == ["engine.step", "data.work"]
    assert tracer.parents == [-1, 0]
    assert seen == [4]
    assert vars(Engine)["step"] is original_step and module.work is work


def test_every_probe_resolves_against_the_program():
    pytest.importorskip("repro")
    unresolved = [p for p in spans.PROBES if spans._resolve(p) is None]
    assert unresolved == []


def test_layer_metrics_account_for_traced_wall():
    runner = _load_runner()
    tracer = spans.Tracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0))
    with tracer.span(spans.ROOT) as root:
        with tracer.span("cluster.setup"):
            with tracer.span("data.build"):
                pass
        with tracer.span("engine.grad"):
            pass
        with tracer.span("engine.grad"):
            pass
    clock = types.SimpleNamespace(buckets={"compute": 3.0, "communication": 1.5})
    ops = [checks.Operation("a", _metrics(lssr=0.0)), checks.Operation("b", _metrics(lssr=1.0))]
    traced = runner.Execution(
        wall=tracer.ends[root] - tracer.starts[root], ops=ops, tracer=tracer, missing=[],
        clocks=[clock], batched_calls=1,
    )
    metrics = runner.layer_metrics(traced, untraced_wall=8.0)
    assert set(metrics) == set(PER_LAYER)
    assert metrics["data.build_s"] == 1.0
    assert metrics["cluster.setup_s"] == 2.0  # build_cluster minus the nested dataset build
    assert metrics["engine.grad_s"] == 3.0 and metrics["engine.grad_calls"] == 2
    assert metrics["engine.batched_share"] == 0.5
    assert metrics["harness.other_s"] == 4.0
    layers = sum(v for k, v in metrics.items() if k.endswith("_s") and k in {
        f"{p.metric}_s" for p in spans.PROBES})
    assert layers + metrics["harness.other_s"] == metrics["trace.wall_s"] == 10.0
    assert metrics["trace.overhead"] == 0.25
    assert metrics["comm.sync_share"] == 0.5 and metrics["comm.bytes"] == 200.0
    assert metrics["cluster.sim_compute_s"] == 3.0
    assert runner.layers_account_for_wall(traced)


# --------------------------------------------------------------------------- #
# failure rules and digests
# --------------------------------------------------------------------------- #
def test_passing_run_has_no_failures():
    assert checks.failure_reasons(checks.Operation("ok", _metrics())) == []


def test_nan_loss_fails_the_run():
    op = checks.Operation("ssp", _metrics(final_loss=math.nan))
    assert checks.failure_reasons(op) == ["final_loss=nan"]


@pytest.mark.parametrize("lssr", [-0.1, 1.5, math.nan])
def test_lssr_outside_unit_interval_fails_the_run(lssr):
    reasons = checks.failure_reasons(checks.Operation("x", _metrics(lssr=lssr)))
    assert len(reasons) == 1 and reasons[0].startswith("lssr=")


def test_false_endpoint_verdict_fails_the_anchor():
    records = [{"params": {"delta": 0.0}, "label": "s", "metrics": _metrics()}]
    endpoints = {
        "local_sgd": {"record": {"metrics": _metrics()}, "matches_sweep_endpoint": True},
        "bsp": {"record": {"metrics": _metrics()}, "matches_sweep_endpoint": False},
    }
    ops = checks.operations(records, endpoints)
    assert [op.key for op in ops] == ['{"delta": 0.0}', "anchor=bsp", "anchor=local_sgd"]
    assert [bool(checks.failure_reasons(op)) for op in ops] == [False, True, False]


def test_digest_is_bit_exact_and_ignores_wall_clock():
    base = checks.trajectory_digest(_metrics())
    assert checks.trajectory_digest(_metrics(wall_seconds=99.0)) == base
    assert checks.trajectory_digest(_metrics(final_loss=math.nextafter(1.25, 2.0))) != base
    op = checks.Operation("x", _metrics(final_loss=1.5))
    reasons = checks.failure_reasons(op, reference_digest=base)
    assert len(reasons) == 1 and "same seed" in reasons[0]


def test_digest_ledger_round_trip(tmp_path):
    path = tmp_path / "out" / "digests.json"
    ledger = checks.DigestLedger(path)
    assert ledger.reference("k") is None
    ledger.remember("k", "aaa")
    ledger.remember("k", "bbb")  # the first digest stays the reference
    ledger.save()
    assert checks.DigestLedger(path).reference("k") == "aaa"


# --------------------------------------------------------------------------- #
# host fingerprint and the BENCHMARK.json contract
# --------------------------------------------------------------------------- #
def test_fingerprint_fields(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    fp = host.fingerprint()
    assert set(fp) == {"cpu_count", "python", "numpy", "blas", "blas_version", "thread_env"}
    assert fp["cpu_count"] >= 1
    assert fp["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert fp["thread_env"]["OMP_NUM_THREADS"] is None
    assert set(fp["thread_env"]) == set(host.THREAD_ENV)
    json.dumps(fp)


def test_blas_info_without_dict_config():
    old_numpy = types.SimpleNamespace(show_config=lambda: None)
    assert host.blas_info(old_numpy) == {"name": "unknown", "version": "unknown"}


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["paths"] == [BENCH_DIR.name]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
