"""Runs that explain their path: record stamps, the path counter, span coverage."""

from collections import Counter

import numpy as np

from repro import telemetry
from repro.api import RunRequest, run
from repro.harness.experiment import run_experiment
from repro.nn.models import ResNetLike
from repro.scenarios.runner import ScenarioRecord
from tests.conftest import make_small_cluster


def span_counts() -> Counter:
    return Counter(span["name"] for span in telemetry.get_tracer().drain())


class TestRecordStamps:
    def test_experiment_record_carries_exec_path(self):
        out = run(RunRequest(
            kind="experiment", workload="resnet101", algorithm="bsp",
            num_workers=2, iterations=2, eval_every=2,
        ))
        assert out.records[0]["meta"] == {"exec_path": "batched"}
        assert out.to_dict()["records"][0]["meta"] == {"exec_path": "batched"}

    def test_sweep_records_carry_exec_path(self):
        out = run(RunRequest(
            kind="sweep", workload="vgg11", algorithm="selsync",
            grid={"delta": [0.1, 0.3]}, num_workers=2, iterations=2, eval_every=2,
        ))
        assert [r["meta"]["exec_path"] for r in out.records] == ["batched", "batched"]

    def test_record_meta_is_optional(self):
        assert "meta" not in ScenarioRecord(params={}, label="x", metrics={}).to_dict()

    def test_rejected_model_records_reason(self, monkeypatch):
        import repro.harness.experiment as experiment

        class CustomResNet(ResNetLike):
            pass

        preset = experiment._resnet_preset()
        preset.model_factory = lambda rng: CustomResNet(
            input_dim=64, num_classes=10, width=16, depth=2, rng=rng
        )
        monkeypatch.setitem(experiment.WORKLOAD_PRESETS, "resnet101", lambda: preset)
        out = run_experiment("resnet101", "bsp", num_workers=2, iterations=2, eval_every=2)
        assert out.exec_path == "per_worker"
        assert "CustomResNet" in out.exec_reason
        assert out.exec_meta == {"exec_path": "per_worker", "exec_reason": out.exec_reason}

    def test_stacked_sweep_is_stamped_stacked(self):
        out = run(RunRequest(
            kind="sweep", workload="deep_mlp", algorithm="selsync",
            grid={"delta": [0.1, 0.3]}, num_workers=2, iterations=2, eval_every=2,
            stacked=True,
        ))
        assert {r["meta"]["exec_path"] for r in out.records} == {"stacked"}

    def test_exec_path_counter(self):
        telemetry.configure(metrics=True)
        run_experiment("alexnet", "bsp", num_workers=2, iterations=2, eval_every=2)
        counter = telemetry.get_metrics().counter("repro_exec_path_total")
        assert counter.value(path="batched") == 1.0
        assert "repro_exec_path_total" in telemetry.get_metrics().render()


class TestSpanCoverage:
    def test_ssp_worker_steps_emit_cluster_gradients(self):
        telemetry.configure(tracing=True)
        run_experiment("resnet101", "ssp", num_workers=2, iterations=6, eval_every=6)
        counts = span_counts()
        # One SSP step computes each worker's gradient in turn: every one of
        # those computations, and its forward/backward, gets a span.
        assert counts["trainer.step"] > 0
        assert counts["cluster.gradients"] == 2 * counts["trainer.step"]
        assert counts["engine.forward"] == counts["cluster.gradients"]
        assert counts["engine.backward"] == counts["cluster.gradients"]

    def test_per_worker_loop_emits_forward_and_backward(self):
        cluster = make_small_cluster(num_workers=3)
        cluster.replica_exec = None
        telemetry.configure(tracing=True)
        cluster.compute_gradients_all([w.next_batch() for w in cluster.workers])
        counts = span_counts()
        assert counts["engine.forward"] == 3
        assert counts["engine.backward"] == 3
        assert np.all(np.isfinite(cluster.matrix.grads))
