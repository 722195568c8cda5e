"""The batched backward stops at the first parameterised layer.

``step_stacked`` discards the gradient with respect to the input, so the
executor skips the input-gradient GEMM of its first parameterised layer and
the whole backward of any parameter-free layers before it.  The weight
gradients must equal the full chain's bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import BatchedReplicaExecutor, WorkerMatrix
from repro.harness.experiment import build_cluster, build_workload
from repro.nn.layers import Linear, ReLU
from repro.nn.module import Sequential


def full_backward(executor: BatchedReplicaExecutor) -> None:
    """Turn the head skip off: every layer runs its full backward."""
    executor._head = 0
    executor._head_params_only = False


@pytest.mark.parametrize("workload", ["resnet101", "vgg11", "deep_mlp", "transformer"])
def test_gradients_match_the_full_backward(workload):
    lean = build_cluster(build_workload(workload), num_workers=3, seed=4)
    full = build_cluster(build_workload(workload), num_workers=3, seed=4)
    try:
        assert lean.replica_exec._head_params_only
        full_backward(full.replica_exec)
        for _ in range(2):
            losses_lean = lean.compute_gradients_all(lean.next_batches())
            losses_full = full.compute_gradients_all(full.next_batches())
            assert [l.hex() for l in losses_lean] == [l.hex() for l in losses_full]
            np.testing.assert_array_equal(
                lean.matrix.grads.view(np.int64), full.matrix.grads.view(np.int64)
            )
            lean.apply_local_updates(lr=0.05)
            full.apply_local_updates(lr=0.05)
    finally:
        lean.close()
        full.close()


@pytest.mark.parametrize("workload", ["resnet101", "transformer"])
def test_head_input_gradient_is_never_computed(workload, monkeypatch):
    cluster = build_cluster(build_workload(workload), num_workers=2, seed=0)
    try:
        head = cluster.replica_exec._layers[0]

        def forbidden(grad_out):
            raise AssertionError("the head layer's input gradient was computed")

        monkeypatch.setattr(head, "backward", forbidden)
        cluster.compute_gradients_all(cluster.next_batches())
        assert np.isfinite(cluster.matrix.grads).all()
    finally:
        cluster.close()


def test_parameter_free_prefix_is_skipped(monkeypatch):
    rng = np.random.default_rng(0)
    model = Sequential(ReLU(), Linear(6, 8, rng=rng), ReLU(), Linear(8, 3, rng=rng))
    model.flatten_parameters()
    matrix = WorkerMatrix(2, model.flat_spec)
    matrix.adopt(0, model)
    matrix.params[1] = matrix.params[0]
    executor = BatchedReplicaExecutor.build(matrix, model)
    assert executor._head == 1
    prefix, head = executor._layers[:2]

    def forbidden(grad_out):
        raise AssertionError("backward ran where its result is discarded")

    monkeypatch.setattr(prefix, "backward", forbidden)
    monkeypatch.setattr(head, "backward", forbidden)
    x = rng.standard_normal((2, 5, 6))
    targets = rng.integers(0, 3, size=(2, 5))
    executor.step_stacked(x, targets)
    lean = matrix.grads.copy()

    monkeypatch.undo()
    full_backward(executor)
    executor.step_stacked(x, targets)
    np.testing.assert_array_equal(lean.view(np.int64), matrix.grads.view(np.int64))
