"""The registry-driven batched compiler: coverage, rejections, golden runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import BatchedReplicaExecutor, WorkerMatrix
from repro.harness.experiment import (
    WORKLOAD_PRESETS,
    build_cluster,
    build_workload,
    make_trainer,
)
from repro.nn.layers import Dropout, Linear, ReLU, ResidualMLPBlock
from repro.nn.models import ResNetLike
from repro.nn.module import Sequential


def matrix_for(model, num_workers=1):
    model.flatten_parameters()
    matrix = WorkerMatrix(num_workers, model.flat_spec)
    matrix.adopt(0, model)
    return matrix


class TestPresetsCompile:
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_PRESETS))
    def test_every_preset_runs_batched(self, workload):
        cluster = build_cluster(build_workload(workload), num_workers=2, seed=0)
        try:
            assert cluster.exec_path == "batched", cluster.exec_reason
            assert cluster.exec_reason is None
        finally:
            cluster.close()

    def test_nested_sequential_with_residual_blocks(self):
        rng = np.random.default_rng(0)
        model = Sequential(
            Linear(6, 8, rng=rng),
            Sequential(ResidualMLPBlock(8, rng=rng), ReLU()),
            Linear(8, 3, rng=rng),
        )
        executor, reason = BatchedReplicaExecutor.compile(matrix_for(model), model)
        assert reason is None and executor is not None


class TestRejections:
    def test_subclass_is_rejected_with_reason(self):
        class CustomResNet(ResNetLike):
            pass

        model = CustomResNet(input_dim=4, num_classes=3, width=8, depth=1)
        executor, reason = BatchedReplicaExecutor.compile(matrix_for(model), model)
        assert executor is None
        assert "CustomResNet" in reason and "<root>" in reason

    def test_unknown_leaf_names_its_path(self):
        from repro.nn.layers import Sigmoid

        model = Sequential(Linear(4, 4), Sequential(Sigmoid()), Linear(4, 2))
        executor, reason = BatchedReplicaExecutor.compile(matrix_for(model), model)
        assert executor is None
        assert "Sigmoid" in reason and "1.0" in reason

    def test_private_dropout_is_rejected(self):
        model = Sequential(Linear(4, 4), Dropout(0.5), Linear(4, 2))
        executor, reason = BatchedReplicaExecutor.compile(matrix_for(model), model)
        assert executor is None
        assert "dropout at 1" in reason

    def test_inactive_dropout_compiles_away(self):
        model = Sequential(Linear(4, 4), Dropout(0.0), Linear(4, 2))
        executor, reason = BatchedReplicaExecutor.compile(matrix_for(model), model)
        assert reason is None
        assert len(executor._layers) == 2

    def test_uncovered_parameters_are_rejected(self):
        from repro.nn.module import Parameter

        model = Sequential(Linear(4, 2))
        model.extra = Parameter(np.zeros(3))
        executor, reason = BatchedReplicaExecutor.compile(matrix_for(model), model)
        assert executor is None
        assert "3 parameters" in reason

    def test_build_keeps_returning_none(self):
        model = Sequential(Linear(4, 4), Dropout(0.5), Linear(4, 2))
        assert BatchedReplicaExecutor.build(matrix_for(model), model) is None


# Final loss and best metric of 30-step N=4 runs at seed 0, captured on the
# per-worker path before the residual and VGG models were batched.
GOLDEN = {
    ("resnet101", "bsp"): ("0x1.81ac28f560277p-2", "0x1.c280000000000p-1"),
    ("resnet101", "selsync"): ("0x1.82d14d0e627e6p-2", "0x1.bb00000000000p-1"),
    ("vgg11", "bsp"): ("0x1.237aeb167f9f5p+2", "0x1.9555555555555p-6"),
    ("vgg11", "selsync"): ("0x1.2521969628855p+2", "0x1.8aaaaaaaaaaabp-6"),
}
ALGORITHM_KWARGS = {"bsp": {}, "selsync": {"delta": 0.3}}


def train(workload, algorithm, per_worker=False):
    preset = build_workload(workload)
    cluster = build_cluster(preset, num_workers=4, seed=0)
    if per_worker:
        cluster.replica_exec = None
    trainer = make_trainer(
        algorithm, cluster, preset, total_iterations=30, eval_every=15,
        **ALGORITHM_KWARGS[algorithm],
    )
    try:
        return trainer.run(30), cluster.matrix.params.copy()
    finally:
        cluster.close()


class TestGoldenTrajectories:
    @pytest.mark.parametrize("workload,algorithm", sorted(GOLDEN))
    def test_batched_run_matches_golden_and_per_worker_oracle(self, workload, algorithm):
        result, params = train(workload, algorithm)
        oracle, oracle_params = train(workload, algorithm, per_worker=True)
        # Bit for bit against the per-worker loop on this host ...
        np.testing.assert_array_equal(params, oracle_params)
        assert result.final_loss == oracle.final_loss
        # ... and against the recorded trajectory.  The tolerance only
        # absorbs BLAS kernel differences between hosts; any change to the
        # arithmetic moves these by many orders of magnitude more.
        loss, metric = (float.fromhex(v) for v in GOLDEN[(workload, algorithm)])
        assert result.final_loss == pytest.approx(loss, rel=1e-9)
        assert result.best_metric == pytest.approx(metric, rel=1e-9)
