"""Checkpoint/restore round-trip: bit-identical float64 continuation.

The contract the rejoin path rests on: ``trainer.checkpoint()`` →
mutate everything → ``trainer.restore()`` → continue on the *same*
``run_stepwise`` generator must yield exactly the trajectory of an
uninterrupted run, for every lockstep trainer family on both model
families (MLP and transformer analogs).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.checkpoint import restore_cluster, snapshot_cluster
from repro.harness.experiment import build_cluster, build_workload, make_trainer
from tests.conftest import make_small_cluster

pytestmark = pytest.mark.faults

ITERATIONS = 12
CHECKPOINT_AT = 5

ALGORITHM_KWARGS = {
    "bsp": {},
    "ssp": {"staleness": 3},
    "selsync": {"delta": 0.3},
}


def build_trainer(algorithm: str, workload: str):
    preset = build_workload(workload)
    cluster = build_cluster(preset, num_workers=4, seed=0, batch_size=4)
    return make_trainer(
        algorithm,
        cluster,
        preset,
        ITERATIONS,
        eval_every=4,
        **ALGORITHM_KWARGS[algorithm],
    )


def drive(stepper, steps=None):
    """Advance a run_stepwise generator; returns the TrainingResult at the end."""
    remaining = steps
    while remaining is None or remaining > 0:
        try:
            next(stepper)
        except StopIteration as stop:
            return stop.value
        if remaining is not None:
            remaining -= 1
    return None


def scramble(trainer):
    """Corrupt every piece of state the checkpoint claims to cover."""
    cluster = trainer.cluster
    cluster.matrix.params += 1.23
    cluster.matrix.grads[:] = 7.0
    cluster.ps.state_vector[:] += 0.5
    cluster.clock.worker_time += 11.0
    for worker in cluster.workers:
        worker.optimizer.lr = 99.0
        worker.steps_taken += 100
    trainer.global_step += 50


@pytest.mark.parametrize("workload", ["deep_mlp", "transformer"])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHM_KWARGS))
def test_roundtrip_matches_uninterrupted_run(algorithm, workload):
    baseline_trainer = build_trainer(algorithm, workload)
    baseline = baseline_trainer.run(ITERATIONS, eval_every=4)

    trainer = build_trainer(algorithm, workload)
    stepper = trainer.run_stepwise(ITERATIONS, eval_every=4)
    assert drive(stepper, steps=CHECKPOINT_AT) is None
    ckpt = trainer.checkpoint()
    scramble(trainer)
    trainer.restore(ckpt)
    restored = drive(stepper)

    assert restored.final_metric == baseline.final_metric
    assert restored.final_loss == baseline.final_loss
    assert restored.sim_time_seconds == baseline.sim_time_seconds
    assert restored.communication_bytes == baseline.communication_bytes
    assert restored.lssr == baseline.lssr
    assert [p.loss for p in trainer.history] == [
        p.loss for p in baseline_trainer.history
    ]
    np.testing.assert_array_equal(
        trainer.cluster.matrix.params, baseline_trainer.cluster.matrix.params
    )


class TestCheckpointMechanics:
    def test_checkpoint_holds_copies_not_views(self, small_cluster_factory):
        cluster = small_cluster_factory(num_workers=2)
        ckpt = snapshot_cluster(cluster)
        before = ckpt.params.copy()
        cluster.matrix.params += 3.0
        np.testing.assert_array_equal(ckpt.params, before)

    def test_restore_rejects_mismatched_worker_count(self, small_cluster_factory):
        small = small_cluster_factory(num_workers=2)
        big = small_cluster_factory(num_workers=3)
        with pytest.raises(ValueError, match="workers"):
            restore_cluster(big, snapshot_cluster(small))

    def test_cluster_checkpoint_api_roundtrip(self, small_cluster_factory):
        cluster = small_cluster_factory(num_workers=2)
        batches = cluster.next_batches()
        cluster.compute_gradients_all(batches)
        cluster.apply_local_updates()
        cluster.charge_compute_step()
        ckpt = cluster.checkpoint()
        params = cluster.matrix.params.copy()
        elapsed = cluster.clock.elapsed

        cluster.matrix.params[:] = -4.0
        cluster.clock.worker_time += 9.0
        cluster.deactivate_worker(1)
        cluster.restore(ckpt)

        np.testing.assert_array_equal(cluster.matrix.params, params)
        assert cluster.clock.elapsed == elapsed
        assert cluster.active_mask.all()

    def test_restore_resumes_identical_data_stream(self, small_cluster_factory):
        cluster = small_cluster_factory(num_workers=2)
        ckpt = cluster.checkpoint()
        expected = cluster.next_batches()
        cluster.next_batches()  # advance further before restoring
        cluster.restore(ckpt)
        resumed = cluster.next_batches()
        for a, b in zip(expected, resumed):
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])

    def test_lazy_grad_norm_survives_roundtrip(self, small_cluster_factory):
        # In-process steps leave last_grad_norm to be computed from the row
        # on read; a checkpoint reads it, and a restore brings back exactly
        # that value even after the rows have moved on.
        cluster = small_cluster_factory(num_workers=3)
        cluster.compute_gradients_all(cluster.next_batches())
        expected = [
            float(np.sqrt(row @ row)).hex() for row in cluster.matrix.grads
        ]
        ckpt = cluster.checkpoint()
        assert [norm.hex() for norm in ckpt.worker_last_grad_norm] == expected

        cluster.compute_gradients_all(cluster.next_batches())
        moved = [worker.last_grad_norm.hex() for worker in cluster.workers]
        assert moved != expected
        cluster.restore(ckpt)
        assert [w.last_grad_norm.hex() for w in cluster.workers] == expected
        # Restored rows equal the checkpoint's, so the norm is consistent
        # with the gradients it sits beside.
        for worker, row in zip(cluster.workers, ckpt.grads):
            assert worker.last_grad_norm == float(np.sqrt(row @ row))

    def test_lazy_grad_norm_before_any_gradient(self, small_cluster_factory):
        cluster = small_cluster_factory(num_workers=2)
        ckpt = cluster.checkpoint()
        assert ckpt.worker_last_grad_norm == [None, None]
        cluster.compute_gradients_all(cluster.next_batches())
        cluster.restore(ckpt)
        assert [w.last_grad_norm for w in cluster.workers] == [None, None]
