"""Finite-difference gradchecks on the batched replica kernels themselves.

Each kernel of :mod:`repro.engine.replica_exec` is driven directly, in
float64 at small shapes, against central differences of the scalar
``sum(forward(x) * w)`` for a fixed random ``w`` — independently of the
per-worker layers the parity tests compare against.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import replica_exec as rx
from repro.engine.dropout_stream import SharedDropoutStream

EPS = 1e-6
N = 2  # replicas


def numeric_grad(f, arr: np.ndarray) -> np.ndarray:
    """Central differences of scalar ``f()`` with respect to ``arr`` (in place)."""
    grad = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        old = arr[idx]
        arr[idx] = old + EPS
        plus = f()
        arr[idx] = old - EPS
        minus = f()
        arr[idx] = old
        grad[idx] = (plus - minus) / (2 * EPS)
    return grad


def gradcheck(layer, x, params=(), seed=0, rtol=1e-5, atol=1e-7):
    """Check ``layer``'s input gradient and each ``(param, grad)`` view pair."""
    rng = np.random.default_rng(seed)
    out = layer.forward(x)
    w = rng.standard_normal(out.shape)
    dx = layer.backward(w.copy())
    analytic = [grad.copy() for _, grad in params]

    def loss() -> float:
        return float(np.sum(layer.forward(x) * w))

    if np.issubdtype(x.dtype, np.floating):
        np.testing.assert_allclose(dx, numeric_grad(loss, x), rtol=rtol, atol=atol)
    for (param, _), grad in zip(params, analytic):
        np.testing.assert_allclose(grad, numeric_grad(loss, param), rtol=rtol, atol=atol)


def away_from_zero(rng, shape, margin=0.1):
    """Values with ``|x| >= margin``, so ReLU kinks stay out of the FD stencil."""
    x = rng.standard_normal(shape)
    return np.where(x >= 0, x + margin, x - margin)


def linear(rng, d_in, d_out):
    weight = rng.standard_normal((N, d_out, d_in)) * 0.5
    bias = rng.standard_normal((N, d_out)) * 0.1
    weight_grad = np.zeros_like(weight)
    bias_grad = np.zeros_like(bias)
    layer = rx._BatchedLinear(weight, weight_grad, bias, bias_grad)
    return layer, [(weight, weight_grad), (bias, bias_grad)]


def layer_norm(rng, d):
    gamma = 1.0 + 0.1 * rng.standard_normal((N, d))
    beta = 0.1 * rng.standard_normal((N, d))
    gamma_grad, beta_grad = np.zeros_like(gamma), np.zeros_like(beta)
    layer = rx._BatchedLayerNorm(gamma, gamma_grad, beta, beta_grad, eps=1e-5)
    return layer, [(gamma, gamma_grad), (beta, beta_grad)]


class TestDenseKernels:
    @pytest.mark.parametrize("shape", [(N, 3, 4), (N, 2, 3, 4)], ids=["3-D", "4-D"])
    def test_linear(self, shape):
        rng = np.random.default_rng(0)
        layer, params = linear(rng, shape[-1], 5)
        gradcheck(layer, rng.standard_normal(shape), params)

    def test_relu(self):
        rng = np.random.default_rng(1)
        gradcheck(rx._BatchedReLU(), away_from_zero(rng, (N, 3, 4)))

    def test_tanh(self):
        rng = np.random.default_rng(2)
        gradcheck(rx._BatchedTanh(), rng.standard_normal((N, 3, 4)))

    @pytest.mark.parametrize("shape", [(N, 3, 5), (N, 2, 3, 5)], ids=["rank-3", "rank-4"])
    def test_layer_norm(self, shape):
        rng = np.random.default_rng(3)
        layer, params = layer_norm(rng, shape[-1])
        gradcheck(layer, rng.standard_normal(shape), params)

    def test_residual_block(self):
        # x + fc2(relu(fc1(norm(x)))), the ResidualMLPBlock structure.
        rng = np.random.default_rng(4)
        norm, norm_params = layer_norm(rng, 4)
        fc1, fc1_params = linear(rng, 4, 6)
        fc2, fc2_params = linear(rng, 6, 4)
        block = rx._BatchedResidual(rx._BatchedChain([norm, fc1, rx._BatchedReLU(), fc2]))
        gradcheck(block, rng.standard_normal((N, 3, 4)), norm_params + fc1_params + fc2_params)


class TestSpatialKernels:
    def test_conv2d(self):
        rng = np.random.default_rng(5)
        out_c, in_c, k = 3, 2, 3
        w_flat = rng.standard_normal((N, out_c, in_c * k * k)) * 0.3
        bias = rng.standard_normal((N, out_c)) * 0.1
        w_grad, b_grad = np.zeros_like(w_flat), np.zeros_like(bias)
        layer = rx._BatchedConv2d(w_flat, w_grad, bias, b_grad, kernel_size=k, stride=1,
                                  padding=1)
        gradcheck(layer, rng.standard_normal((N, 2, in_c, 4, 4)),
                  [(w_flat, w_grad), (bias, b_grad)])

    def test_max_pool(self):
        # A random permutation keeps every window's maximum unique and far
        # (relative to EPS) from the runner-up.
        rng = np.random.default_rng(6)
        x = rng.permutation(N * 2 * 2 * 4 * 4).reshape(N, 2, 2, 4, 4).astype(np.float64)
        gradcheck(rx._BatchedMaxPool2d(kernel_size=2, stride=2), x)

    def test_global_avg_pool(self):
        rng = np.random.default_rng(7)
        gradcheck(rx._BatchedGlobalAvgPool2d(), rng.standard_normal((N, 2, 3, 4, 4)))


class TestSequenceKernels:
    def test_embedding(self):
        rng = np.random.default_rng(8)
        weight = rng.standard_normal((N, 6, 3))
        weight_grad = np.zeros_like(weight)
        ids = rng.integers(0, 6, size=(N, 2, 4))  # repeated ids accumulate
        gradcheck(rx._BatchedEmbedding(weight, weight_grad), ids, [(weight, weight_grad)])

    @pytest.mark.parametrize("causal", [True, False], ids=["causal", "full"])
    def test_self_attention(self, causal):
        rng = np.random.default_rng(9)
        d_model, heads = 4, 2
        projections, params = [], []
        for _ in range(4):
            layer, layer_params = linear(rng, d_model, d_model)
            projections.append(layer)
            params += layer_params
        attn = rx._BatchedSelfAttention(*projections, num_heads=heads,
                                        d_head=d_model // heads, causal=causal)
        gradcheck(attn, rng.standard_normal((N, 2, 3, d_model)), params)

    def test_dropout_with_fixed_mask(self):
        rng = np.random.default_rng(10)
        stream = SharedDropoutStream(seed=3, num_workers=N)
        stream.set_step(1)  # masks are fixed within a step
        layer = rx._BatchedDropout(stream, layer_id=0, p=0.3, row_offset=0)
        gradcheck(layer, rng.standard_normal((N, 3, 4)))


class TestCrossEntropy:
    @pytest.mark.parametrize("classes", [2, 5])
    def test_batched_cross_entropy(self, classes):
        rng = np.random.default_rng(11)
        logits = rng.standard_normal((N, 3, classes))
        targets = rng.integers(0, classes, size=(N, 3))
        _, grad = rx._batched_cross_entropy(logits.copy(), targets)

        def loss() -> float:
            return float(rx._batched_cross_entropy(logits, targets)[0].sum())

        np.testing.assert_allclose(grad, numeric_grad(loss, logits), rtol=1e-5, atol=1e-8)
