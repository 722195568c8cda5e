"""Cache-blocked fused optimizer steps vs the unblocked matrix arithmetic.

The blocked :meth:`FusedSGDUpdate.apply` / :meth:`FusedAdamUpdate.apply`
must reproduce the plain ``(N, D)`` expressions bit for bit: every case
below compares with ``assert_array_equal``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine import FusedAdamUpdate, FusedSGDUpdate, WorkerMatrix
from repro.engine import fused_optim
from repro.engine.fused_optim import tiles
from repro.nn.layers import Linear
from repro.optim.adam import Adam
from repro.optim.sgd import SGD


def make_workers(num_workers, dim, make_optimizer, seed=0):
    """``num_workers`` replicas of a ``dim``-parameter model on one matrix."""
    rng = np.random.default_rng(seed)
    models = [Linear(dim - 1, 1, rng=rng) for _ in range(num_workers)]
    models[0].flatten_parameters()
    matrix = WorkerMatrix(num_workers, models[0].flat_spec)
    workers = []
    for worker_id, model in enumerate(models):
        matrix.adopt(worker_id, model)
        workers.append(SimpleNamespace(optimizer=make_optimizer(model), steps_taken=0))
    matrix.params[...] = rng.standard_normal(matrix.params.shape)
    return workers, matrix


def reference_sgd(params, grads, velocity, lr, momentum, weight_decay, nesterov):
    """The unblocked fused SGD step (one ``(N, D)`` expression per line)."""
    if weight_decay:
        grads = grads + weight_decay * params
    if momentum:
        velocity *= momentum
        velocity += grads
        step_dir = grads + momentum * velocity if nesterov else velocity
    else:
        step_dir = grads
    params -= lr * step_dir


def reference_adam(params, grads, m, v, t, lr, beta1, beta2, eps, weight_decay):
    """The unblocked fused Adam step."""
    if weight_decay:
        grads = grads + weight_decay * params
    m *= beta1
    m += (1.0 - beta1) * grads
    v *= beta2
    v += (1.0 - beta2) * grads**2
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    params -= lr * m_hat / (np.sqrt(v_hat) + eps)


SHAPES = [
    pytest.param(1, 7, id="N=1,D<block"),
    pytest.param(3, 7, id="D<block"),
    pytest.param(2, 2 * fused_optim.BLOCK + 5, id="D=2*block+5"),
    pytest.param(1, fused_optim.BLOCK, id="N=1,D=block"),
]
SGD_CONFIGS = [
    pytest.param(0.0, 0.0, False, id="plain"),
    pytest.param(0.9, 0.0, False, id="momentum"),
    pytest.param(0.9, 5e-4, False, id="momentum+wd"),
    pytest.param(0.9, 5e-4, True, id="nesterov+wd"),
    pytest.param(0.0, 1e-3, False, id="wd"),
]


def run_sgd_case(num_workers, dim, momentum, weight_decay, nesterov, broadcast, steps=3):
    workers, matrix = make_workers(
        num_workers,
        dim,
        lambda m: SGD(m, lr=0.05, momentum=momentum, weight_decay=weight_decay,
                      nesterov=nesterov),
    )
    fused = FusedSGDUpdate.build(workers, matrix)
    params = matrix.params.copy()
    velocity = np.zeros_like(params)
    rng = np.random.default_rng(1)
    for _ in range(steps):
        matrix.grads[...] = rng.standard_normal(matrix.grads.shape)
        if broadcast:
            grads = rng.standard_normal(dim)
            assert fused.apply(lr=0.05, grads=grads)
            reference_sgd(params, grads.reshape(1, -1), velocity, 0.05, momentum,
                          weight_decay, nesterov)
        else:
            assert fused.apply(lr=0.05)
            reference_sgd(params, matrix.grads, velocity, 0.05, momentum,
                          weight_decay, nesterov)
        np.testing.assert_array_equal(matrix.params, params)
        if momentum:
            np.testing.assert_array_equal(fused.velocity, velocity)


def run_adam_case(num_workers, dim, weight_decay, broadcast, steps=3):
    workers, matrix = make_workers(
        num_workers, dim, lambda m: Adam(m, lr=1e-3, weight_decay=weight_decay)
    )
    fused = FusedAdamUpdate.build(workers, matrix)
    params = matrix.params.copy()
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    rng = np.random.default_rng(2)
    for t in range(1, steps + 1):
        matrix.grads[...] = rng.standard_normal(matrix.grads.shape)
        if broadcast:
            grads = rng.standard_normal(dim)
            assert fused.apply(lr=1e-3, grads=grads)
            reference_adam(params, grads.reshape(1, -1), m, v, t, 1e-3, 0.9, 0.999,
                           1e-8, weight_decay)
        else:
            assert fused.apply(lr=1e-3)
            reference_adam(params, matrix.grads, m, v, t, 1e-3, 0.9, 0.999, 1e-8,
                           weight_decay)
        np.testing.assert_array_equal(matrix.params, params)
        np.testing.assert_array_equal(fused.m, m)
        np.testing.assert_array_equal(fused.v, v)


class TestTiles:
    @pytest.mark.parametrize(
        "n_rows,n_cols,block",
        [(1, 7, 16), (5, 7, 16), (3, 16, 16), (2, 40, 16), (4, 33, 16), (0, 5, 16), (3, 0, 16)],
    )
    def test_tiles_cover_matrix_once_within_block(self, n_rows, n_cols, block):
        hits = np.zeros((n_rows, n_cols), dtype=int)
        for rows, cols in tiles(n_rows, n_cols, block):
            assert hits[rows, cols].size <= block
            hits[rows, cols] += 1
        assert np.all(hits == 1)

    def test_wide_rows_are_cut_one_row_at_a_time(self):
        for rows, _ in tiles(3, 40, 16):
            assert rows.stop - rows.start == 1


class TestBlockedSGD:
    @pytest.mark.parametrize("num_workers,dim", SHAPES)
    @pytest.mark.parametrize("momentum,weight_decay,nesterov", SGD_CONFIGS)
    @pytest.mark.parametrize("broadcast", [False, True], ids=["own-grads", "broadcast"])
    def test_bit_identical_to_unblocked(
        self, num_workers, dim, momentum, weight_decay, nesterov, broadcast
    ):
        run_sgd_case(num_workers, dim, momentum, weight_decay, nesterov, broadcast)

    @pytest.mark.parametrize("num_workers,dim", [(5, 7), (3, 40), (2, 33)])
    @pytest.mark.parametrize("broadcast", [False, True], ids=["own-grads", "broadcast"])
    def test_bit_identical_across_many_small_tiles(
        self, monkeypatch, num_workers, dim, broadcast
    ):
        # A 16-element block exercises row-group tiles (D < block), row
        # splits (D >= block) and ragged tails on tiny matrices.
        monkeypatch.setattr(fused_optim, "BLOCK", 16)
        run_sgd_case(num_workers, dim, 0.9, 5e-4, True, broadcast)


class TestBlockedAdam:
    @pytest.mark.parametrize("num_workers,dim", SHAPES)
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2], ids=["no-wd", "wd"])
    @pytest.mark.parametrize("broadcast", [False, True], ids=["own-grads", "broadcast"])
    def test_bit_identical_to_unblocked(self, num_workers, dim, weight_decay, broadcast):
        run_adam_case(num_workers, dim, weight_decay, broadcast)

    @pytest.mark.parametrize("num_workers,dim", [(5, 7), (3, 40)])
    @pytest.mark.parametrize("broadcast", [False, True], ids=["own-grads", "broadcast"])
    def test_bit_identical_across_many_small_tiles(
        self, monkeypatch, num_workers, dim, broadcast
    ):
        monkeypatch.setattr(fused_optim, "BLOCK", 16)
        run_adam_case(num_workers, dim, 1e-2, broadcast)
