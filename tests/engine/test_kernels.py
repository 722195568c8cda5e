"""Bit-identity of the shared elementwise kernels against plain NumPy.

Equality is checked on the integer views of the float arrays (so ``-0.0``
vs ``+0.0`` and NaN payloads count), never with a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.kernels import layer_norm, layer_norm_backward, relu, relu_backward
from repro.engine.replica_exec import _BatchedLayerNorm, _BatchedReLU
from repro.nn.layers import LayerNorm, ReLU

DTYPES = (np.float64, np.float32)
_INT = {np.dtype(np.float64): np.int64, np.dtype(np.float32): np.int32}


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    int_dtype = _INT[actual.dtype]
    np.testing.assert_array_equal(
        np.ascontiguousarray(actual).view(int_dtype),
        np.ascontiguousarray(expected).view(int_dtype),
    )


def special_values(dtype) -> np.ndarray:
    info = np.finfo(dtype)
    return np.array(
        [
            np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0,
            info.tiny, -info.tiny, info.smallest_subnormal, -info.smallest_subnormal,
            info.max, -info.max, 0.5, -2.5,
        ],
        dtype=dtype,
    )


def mixed_block(dtype, shape=(4, 6, 8), seed=0) -> np.ndarray:
    """Random values with every special value scattered through them."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(dtype)
    flat = x.reshape(-1)
    specials = special_values(dtype)
    flat[rng.choice(flat.size, specials.size, replace=False)] = specials
    return x


class TestReLU:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_forward_matches_where(self, dtype):
        x = mixed_block(dtype)
        assert_bits_equal(relu(x), np.where(x > 0, x, dtype(0)))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_backward_matches_where(self, dtype):
        x = mixed_block(dtype, seed=1)
        grad = mixed_block(dtype, seed=2)
        y = relu(x)
        assert_bits_equal(relu_backward(y, grad), np.where(x > 0, grad, dtype(0)))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_special_values_exhaustively(self, dtype):
        # Every special input paired with every special gradient.
        specials = special_values(dtype)
        x, grad = np.meshgrid(specials, specials, indexing="ij")
        y = relu(x)
        assert_bits_equal(y, np.where(x > 0, x, dtype(0)))
        assert_bits_equal(relu_backward(y, grad), np.where(x > 0, grad, dtype(0)))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_non_contiguous_inputs(self, dtype):
        x = mixed_block(dtype, shape=(6, 10, 8), seed=3)[:, ::2, 1::3]
        grad = mixed_block(dtype, shape=(8, 5, 6), seed=4).transpose(2, 1, 0)[:, :, :3]
        assert not x.flags.c_contiguous and not grad.flags.c_contiguous
        y = relu(x)
        assert_bits_equal(y, np.where(x > 0, x, dtype(0)))
        assert_bits_equal(relu_backward(y, grad), np.where(x > 0, grad, dtype(0)))

    def test_mixed_dtypes_fall_back_to_where(self):
        x = mixed_block(np.float64, seed=5)
        grad = mixed_block(np.float32, seed=6)
        out = relu_backward(relu(x), grad)
        assert_bits_equal(out, np.where(x > 0, grad, np.float32(0)))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_layers_use_the_kernel(self, dtype):
        x = mixed_block(dtype, seed=7)
        grad = mixed_block(dtype, seed=8)
        expected_y = np.where(x > 0, x, dtype(0))
        expected_g = np.where(x > 0, grad, dtype(0))
        for layer in (ReLU(), _BatchedReLU()):
            assert_bits_equal(layer.forward(x), expected_y)
            assert_bits_equal(layer.backward(grad), expected_g)


def old_layer_norm(x, gamma, beta, eps):
    """The textbook expression the kernels replace."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean) * inv_std
    return gamma * x_hat + beta, x_hat, inv_std


def old_layer_norm_backward(grad_out, x_hat, inv_std, gamma):
    d = x_hat.shape[-1]
    dxhat = grad_out * gamma
    return (
        inv_std
        / d
        * (
            d * dxhat
            - dxhat.sum(axis=-1, keepdims=True)
            - x_hat * (dxhat * x_hat).sum(axis=-1, keepdims=True)
        )
    )


class TestLayerNorm:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(5, 12), (3, 4, 12), (2, 3, 4, 12), (7, 33)])
    def test_kernel_matches_mean_var_formula(self, dtype, shape):
        rng = np.random.default_rng(len(shape))
        x = (rng.standard_normal(shape) * 3.0 + 1.5).astype(dtype)
        grad = rng.standard_normal(shape).astype(dtype)
        gamma = (1.0 + 0.1 * rng.standard_normal(shape[-1])).astype(dtype)
        beta = (0.1 * rng.standard_normal(shape[-1])).astype(dtype)
        _, x_hat_ref, inv_std_ref = old_layer_norm(x, gamma, beta, 1e-5)
        x_hat, inv_std = layer_norm(x, 1e-5)
        assert_bits_equal(x_hat, x_hat_ref)
        assert_bits_equal(inv_std, inv_std_ref)
        expected = old_layer_norm_backward(grad, x_hat_ref, inv_std_ref, gamma)
        assert_bits_equal(layer_norm_backward(grad * gamma, x_hat, inv_std), expected)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(6, 10), (2, 6, 10), (2, 3, 6, 10)])
    def test_per_worker_layer(self, dtype, shape):
        rng = np.random.default_rng(11)
        layer = LayerNorm(shape[-1])
        layer.gamma.data = (1.0 + 0.2 * rng.standard_normal(shape[-1])).astype(dtype)
        layer.beta.data = (0.3 * rng.standard_normal(shape[-1])).astype(dtype)
        layer.gamma.grad = np.zeros(shape[-1], dtype=dtype)
        layer.beta.grad = np.zeros(shape[-1], dtype=dtype)
        x = rng.standard_normal(shape).astype(dtype)
        grad = rng.standard_normal(shape).astype(dtype)
        out_ref, x_hat, inv_std = old_layer_norm(x, layer.gamma.data, layer.beta.data, layer.eps)
        assert_bits_equal(layer.forward(x), out_ref)
        expected = old_layer_norm_backward(grad, x_hat, inv_std, layer.gamma.data)
        assert_bits_equal(layer.backward(grad), expected)
        axes = tuple(range(len(shape) - 1))
        assert_bits_equal(layer.gamma.grad, (grad * x_hat).sum(axis=axes))
        assert_bits_equal(layer.beta.grad, grad.sum(axis=axes))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(3, 5, 10), (3, 2, 5, 10)])
    def test_batched_layer(self, dtype, shape):
        rng = np.random.default_rng(12)
        n, d = shape[0], shape[-1]
        gamma = (1.0 + 0.2 * rng.standard_normal((n, d))).astype(dtype)
        beta = (0.3 * rng.standard_normal((n, d))).astype(dtype)
        gamma_grad = np.empty_like(gamma)
        beta_grad = np.empty_like(beta)
        layer = _BatchedLayerNorm(gamma, gamma_grad, beta, beta_grad, eps=1e-5)
        x = rng.standard_normal(shape).astype(dtype)
        grad = rng.standard_normal(shape).astype(dtype)
        affine = (n,) + (1,) * (len(shape) - 2) + (d,)
        out_ref, x_hat, inv_std = old_layer_norm(
            x, gamma.reshape(affine), beta.reshape(affine), 1e-5
        )
        assert_bits_equal(layer.forward(x), out_ref)
        expected = old_layer_norm_backward(grad, x_hat, inv_std, gamma.reshape(affine))
        assert_bits_equal(layer.backward(grad), expected)
        axes = tuple(range(1, len(shape) - 1))
        assert_bits_equal(gamma_grad, (grad * x_hat).sum(axis=axes))
        assert_bits_equal(beta_grad, grad.sum(axis=axes))
