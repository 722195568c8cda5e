"""Vectorized multi-replica execution over the worker matrix.

Because every replica's parameters are rows of one ``(N, D)`` matrix with an
identical layout, the per-layer weights of *all* workers are zero-copy
``(N, ...)`` views into that matrix.  :class:`BatchedReplicaExecutor`
exploits this to run the forward pass, loss and backward pass of the entire
cluster as batched NumPy calls — one fused call per layer instead of one
Python call per layer *per worker* — writing gradients straight into the
gradient matrix rows.

One recursive compiler covers every model: a type registry maps each
supported module type to a batched kernel, and composite modules compile
their children.

* **Leaves**: Linear, ReLU, Tanh, LayerNorm (any rank), Conv2d, MaxPool2d,
  GlobalAvgPool2d, Dropout, Embedding, PositionalEncoding and multi-head
  causal self-attention.
* **Composites**: Sequential, ResidualMLPBlock (``x + f(x)``), the pre-norm
  TransformerEncoderLayer (two residual halves), and the preset models —
  MLP, ConvNet, TransformerLM, ResNetLike, VGGLike and AlexNetLike — each
  compiled as the chain of its registered children.

Feature batches flow as ``(N, batch, features)`` blocks, image batches as
``(N, batch, C, H, W)`` and token batches as ``(N, batch, seq)`` integer
blocks; every contraction runs once for all replicas via ``(N, ...)``
GEMM calls over the weight views, with the per-worker layers' operand
order, so float64 results are bit-identical to the per-worker loop.

All arithmetic runs in the worker matrix's compute dtype (float64 default,
float32 in the reduced-precision mode).  Matching is by exact type: a
subclass may override ``forward``, which a batched kernel would silently
ignore, so such models are rejected with a reason and run the per-worker
loop.  Active dropout batches when its layers draw from a
:class:`~repro.engine.dropout_stream.SharedDropoutStream` (one deterministic
``(N, ...)`` mask block per step and layer); dropout on private per-layer
RNG streams is rejected.

The input gradient of a step is discarded, so the backward pass stops at
the first parameterised layer, which computes only its parameter gradients.
Elementwise work (ReLU, LayerNorm) runs through the shared
:mod:`repro.engine.kernels`.  While tracing is on, every layer pass runs in
an ``engine.layer`` span tagged with its kernel kind.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.engine.kernels import layer_norm, layer_norm_backward, relu, relu_backward
from repro.engine.worker_matrix import WorkerMatrix


class _BatchedLinear:
    """All workers' copies of one Linear layer as (N, out, in) views.

    Accepts ``(N, batch, in)`` blocks (the MLP / conv-head case) and
    ``(N, batch, seq, in)`` sequence blocks (the transformer case).  The
    4-D path folds the sequence axis into the batch axis — one
    ``(batch*seq, in) @ (in, out)`` GEMM per replica, exactly the collapsed
    GEMM the per-worker ``Linear`` issues — keeping the two paths
    bit-identical in float64.
    """

    def __init__(
        self,
        weight: np.ndarray,
        weight_grad: np.ndarray,
        bias: Optional[np.ndarray],
        bias_grad: Optional[np.ndarray],
    ) -> None:
        self.weight = weight          # (N, out, in) view into params matrix
        self.weight_grad = weight_grad
        self.bias = bias              # (N, out) view or None
        self.bias_grad = bias_grad
        self._x: Optional[np.ndarray] = None
        self._seq_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 4:
            self._seq_shape = x.shape[:3]
            x = np.ascontiguousarray(x).reshape(x.shape[0], -1, x.shape[-1])
        else:
            self._seq_shape = None
        self._x = x
        out = np.matmul(x, self.weight.transpose(0, 2, 1))
        if self.bias is not None:
            out += self.bias[:, None, :]
        if self._seq_shape is not None:
            return out.reshape(self._seq_shape + (out.shape[-1],))
        return out

    def backward_params(self, grad_out: np.ndarray) -> np.ndarray:
        """Weight and bias gradients only; returns the folded ``grad_out``."""
        if grad_out.ndim == 4:
            grad_out = np.ascontiguousarray(grad_out).reshape(
                grad_out.shape[0], -1, grad_out.shape[-1]
            )
        # Accumulate-from-zero semantics: one batched write per tensor.
        np.matmul(grad_out.transpose(0, 2, 1), self._x, out=self.weight_grad)
        if self.bias_grad is not None:
            self.bias_grad[...] = grad_out.sum(axis=1)
        return grad_out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_in = np.matmul(self.backward_params(grad_out), self.weight)
        if self._seq_shape is not None:
            return grad_in.reshape(self._seq_shape + (grad_in.shape[-1],))
        return grad_in


class _BatchedReLU:
    def __init__(self) -> None:
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = relu(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return relu_backward(self._out, grad_out)


class _BatchedTanh:
    def __init__(self) -> None:
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * (1.0 - self._out**2)


class _BatchedConv2d:
    """All workers' copies of one Conv2d layer batched over the replica axis.

    Inputs flow as ``(N, B, C, H, W)`` blocks.  The im2col patches of all
    replicas are extracted in one pass over the collapsed ``(N*B, ...)``
    volume (the patch geometry is weight independent), then the per-replica
    convolutions reduce to one batched matmul against the ``(N, out_c, ckk)``
    weight views — exactly the _BatchedLinear trick lifted to patches.
    """

    def __init__(
        self,
        w_flat: np.ndarray,
        w_flat_grad: np.ndarray,
        bias: Optional[np.ndarray],
        bias_grad: Optional[np.ndarray],
        kernel_size: int,
        stride: int,
        padding: int,
    ) -> None:
        self.w_flat = w_flat            # (N, out_c, C*k*k) view into params matrix
        self.w_flat_grad = w_flat_grad
        self.bias = bias                # (N, out_c) view or None
        self.bias_grad = bias_grad
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self._cols: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, ...]] = None
        self._out_hw: Optional[Tuple[int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        from repro.nn.layers import _im2col

        n, b = x.shape[:2]
        k = self.kernel_size
        flat = np.ascontiguousarray(x).reshape((n * b,) + x.shape[2:])
        cols, out_h, out_w = _im2col(flat, k, k, self.stride, self.padding)
        self._cols = cols.reshape(n, b * out_h * out_w, -1)
        self._x_shape = x.shape
        self._out_hw = (out_h, out_w)
        out = np.matmul(self._cols, self.w_flat.transpose(0, 2, 1))
        if self.bias is not None:
            out += self.bias[:, None, :]
        out_c = self.w_flat.shape[1]
        return out.reshape(n, b, out_h, out_w, out_c).transpose(0, 1, 4, 2, 3)

    def backward_params(self, grad_out: np.ndarray) -> np.ndarray:
        """Weight and bias gradients only; returns the ``(N, B·HW, out_c)``
        gradient block."""
        n, b = self._x_shape[:2]
        out_h, out_w = self._out_hw
        out_c = self.w_flat.shape[1]
        g = np.ascontiguousarray(grad_out.transpose(0, 1, 3, 4, 2)).reshape(
            n, b * out_h * out_w, out_c
        )
        # Accumulate-from-zero semantics: one batched write per tensor.
        np.matmul(g.transpose(0, 2, 1), self._cols, out=self.w_flat_grad)
        if self.bias_grad is not None:
            self.bias_grad[...] = g.sum(axis=1)
        return g

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        from repro.nn.layers import _col2im

        n, b, c, h, w = self._x_shape
        out_h, out_w = self._out_hw
        dcols = np.matmul(self.backward_params(grad_out), self.w_flat)
        k = self.kernel_size
        dx = _col2im(
            dcols.reshape(n * b, out_h, out_w, -1),
            (n * b, c, h, w),
            k,
            k,
            self.stride,
            self.padding,
        )
        return dx.reshape(n, b, c, h, w)


class _BatchedMaxPool2d:
    """Max pooling over (N, B, C, H, W): worker-independent, one fused pass."""

    def __init__(self, kernel_size: int, stride: int) -> None:
        self.kernel_size = kernel_size
        self.stride = stride
        self._x_shape: Optional[Tuple[int, ...]] = None
        self._idx: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, b, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        out_h = (h - k) // s + 1
        out_w = (w - k) // s + 1
        flat = np.ascontiguousarray(x).reshape(n * b, c, h, w)
        shape = (n * b, c, out_h, out_w, k, k)
        strides = (
            flat.strides[0],
            flat.strides[1],
            flat.strides[2] * s,
            flat.strides[3] * s,
            flat.strides[2],
            flat.strides[3],
        )
        windows = np.lib.stride_tricks.as_strided(flat, shape=shape, strides=strides)
        windows = windows.reshape(n * b, c, out_h, out_w, k * k)
        idx = windows.argmax(axis=-1)
        out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
        self._x_shape = x.shape
        self._idx = idx
        return out.reshape(n, b, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        n, b, c, h, w = self._x_shape
        k, s = self.kernel_size, self.stride
        idx = self._idx
        out_h, out_w = idx.shape[2], idx.shape[3]
        grad_flat = np.ascontiguousarray(grad_out).reshape(n * b, c, out_h, out_w)
        grad_input = np.zeros((n * b, c, h, w), dtype=grad_flat.dtype)
        rows = idx // k
        cols = idx % k
        bb, ch = np.meshgrid(np.arange(n * b), np.arange(c), indexing="ij")
        for i in range(out_h):
            for j in range(out_w):
                r = i * s + rows[:, :, i, j]
                cc = j * s + cols[:, :, i, j]
                grad_input[bb, ch, r, cc] += grad_flat[:, :, i, j]
        return grad_input.reshape(n, b, c, h, w)


class _BatchedGlobalAvgPool2d:
    """Spatial mean over (N, B, C, H, W) -> (N, B, C)."""

    def __init__(self) -> None:
        self._x_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(3, 4))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        n, b, c, h, w = self._x_shape
        return np.broadcast_to(
            grad_out[:, :, :, None, None] / (h * w), self._x_shape
        ).copy()


class _BatchedDropout:
    """All replicas' masks of one Dropout layer, drawn from the shared stream.

    The stream derives one deterministic mask per (step, layer, replica row);
    this class stacks rows ``[row_offset, row_offset + N)``, so a full-matrix
    executor and a pool child's group executor (and the per-worker fallback,
    which draws single rows) all see the exact same masks.
    """

    def __init__(self, stream, layer_id: int, p: float, row_offset: int) -> None:
        self.stream = stream
        self.layer_id = int(layer_id)
        self.p = float(p)
        self.row_offset = int(row_offset)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = self.stream.mask_block(
            self.layer_id, x.shape[1:], self.p,
            lo=self.row_offset, hi=self.row_offset + x.shape[0],
        )
        if mask.dtype != x.dtype:
            mask = mask.astype(x.dtype)
        self._mask = mask
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._mask


class _BatchedEmbedding:
    """All workers' token-embedding tables as (N, vocab, dim) views."""

    def __init__(self, weight: np.ndarray, weight_grad: np.ndarray) -> None:
        self.weight = weight            # (N, vocab, dim) view into params matrix
        self.weight_grad = weight_grad
        self._ids: Optional[np.ndarray] = None
        self._rows: Optional[np.ndarray] = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        n = self.weight.shape[0]
        if self._rows is None or self._rows.shape[0] != n:
            self._rows = np.arange(n)[:, None, None]
        self._ids = ids                  # (N, B, T) integer token ids
        return self.weight[self._rows, ids]

    def backward_params(self, grad_out: np.ndarray) -> None:
        # Scatter-add per replica; the embedding rows are the only gradient
        # entries not produced by an overwriting matmul, so zero them first
        # (accumulate-from-zero semantics, matching Module.zero_grad()).
        self.weight_grad[...] = 0.0
        np.add.at(self.weight_grad, (self._rows, self._ids), grad_out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.backward_params(grad_out)
        # Token ids carry no gradient.
        return np.zeros(self._ids.shape, dtype=grad_out.dtype)


class _BatchedPositionalEncoding:
    """Worker-independent sinusoidal table added to all replicas at once."""

    def __init__(self, pe: np.ndarray) -> None:
        self.pe = pe                    # (max_len, d_model), float64 master copy
        self._pe_cast: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        seq_len = x.shape[2]
        if seq_len > self.pe.shape[0]:
            # Same explicit failure as the per-worker PositionalEncoding
            # (slicing past the table would otherwise mis-broadcast).
            raise ValueError(
                f"sequence length {seq_len} exceeds positional table {self.pe.shape[0]}"
            )
        pe = self.pe[:seq_len]
        if pe.dtype != x.dtype:
            if self._pe_cast is None or self._pe_cast.dtype != x.dtype:
                self._pe_cast = self.pe.astype(x.dtype)
            pe = self._pe_cast[:seq_len]
        return x + pe

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class _BatchedLayerNorm:
    """All workers' LayerNorm over ``(N, ..., d)`` activations in one pass.

    Any rank works: ``(N, B, d)`` blocks (residual MLPs) and ``(N, B, T, d)``
    sequence blocks (transformers).  The per-replica ``(N, d)`` affine
    parameters broadcast over the middle axes, and their gradients reduce
    over those same axes — the per-worker layer's reduction axes shifted by
    the replica axis.  The normalisation itself is the shared
    :func:`~repro.engine.kernels.layer_norm` kernel, which the per-worker
    layer uses too.
    """

    def __init__(
        self,
        gamma: np.ndarray,
        gamma_grad: np.ndarray,
        beta: np.ndarray,
        beta_grad: np.ndarray,
        eps: float,
    ) -> None:
        self.gamma = gamma              # (N, d) view into params matrix
        self.gamma_grad = gamma_grad
        self.beta = beta                # (N, d) view
        self.beta_grad = beta_grad
        self.eps = eps
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _affine_shape(self, ndim: int) -> Tuple[int, ...]:
        n, d = self.gamma.shape
        return (n,) + (1,) * (ndim - 2) + (d,)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x_hat, inv_std = layer_norm(x, self.eps)
        self._cache = (x_hat, inv_std)
        shape = self._affine_shape(x.ndim)
        out = self.gamma.reshape(shape) * x_hat
        out += self.beta.reshape(shape)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_hat, inv_std = self._cache
        reduce_axes = tuple(range(1, grad_out.ndim - 1))
        self.gamma_grad[...] = (grad_out * x_hat).sum(axis=reduce_axes)
        self.beta_grad[...] = grad_out.sum(axis=reduce_axes)
        dxhat = grad_out * self.gamma.reshape(self._affine_shape(grad_out.ndim))
        return layer_norm_backward(dxhat, x_hat, inv_std)


class _BatchedSelfAttention:
    """Multi-head causal self-attention for every replica in one einsum chain.

    The score / context contractions use the same einsum index patterns as
    the per-worker :class:`~repro.nn.attention.MultiHeadSelfAttention` with a
    leading replica axis, so the float64 arithmetic (including the softmax
    backward across replicas) is bit-identical to the fallback loop.
    """

    def __init__(
        self,
        q_proj: _BatchedLinear,
        k_proj: _BatchedLinear,
        v_proj: _BatchedLinear,
        out_proj: _BatchedLinear,
        num_heads: int,
        d_head: int,
        causal: bool,
    ) -> None:
        self.q_proj = q_proj
        self.k_proj = k_proj
        self.v_proj = v_proj
        self.out_proj = out_proj
        self.num_heads = num_heads
        self.d_head = d_head
        self.causal = causal
        self._cache = None

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        n, b, t, _ = x.shape
        return x.reshape(n, b, t, self.num_heads, self.d_head).transpose(0, 1, 3, 2, 4)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        n, b, h, t, d = x.shape
        return np.ascontiguousarray(x.transpose(0, 1, 3, 2, 4)).reshape(n, b, t, h * d)

    def forward(self, x: np.ndarray) -> np.ndarray:
        q = self._split_heads(self.q_proj.forward(x))
        k = self._split_heads(self.k_proj.forward(x))
        v = self._split_heads(self.v_proj.forward(x))
        scale = 1.0 / np.sqrt(self.d_head)
        # Stacked GEMMs over (N, B, H) slices: identical per-slice shapes to
        # the per-worker attention's matmuls, so float64 results are
        # bit-identical to the fallback loop.
        scores = np.matmul(q, k.swapaxes(-1, -2)) * scale
        if self.causal:
            t = x.shape[2]
            mask = np.triu(np.ones((t, t), dtype=bool), k=1)
            scores = np.where(mask, -1e30, scores)
        shifted = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        attn = e / e.sum(axis=-1, keepdims=True)
        context = np.matmul(attn, v)
        out = self.out_proj.forward(self._merge_heads(context))
        self._cache = (q, k, v, attn, scale)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        q, k, v, attn, scale = self._cache
        d_merged = self.out_proj.backward(grad_out)
        n, b, t, _ = d_merged.shape
        d_context = d_merged.reshape(n, b, t, self.num_heads, self.d_head).transpose(
            0, 1, 3, 2, 4
        )
        d_attn = np.matmul(d_context, v.swapaxes(-1, -2))
        d_v = np.matmul(attn.swapaxes(-1, -2), d_context)
        # Softmax backward over the last axis, for all replicas at once.
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        d_scores = d_scores * scale
        d_q = np.matmul(d_scores, k)
        d_k = np.matmul(d_scores.swapaxes(-1, -2), q)
        dx = self.q_proj.backward(self._merge_heads(d_q))
        dx = dx + self.k_proj.backward(self._merge_heads(d_k))
        dx = dx + self.v_proj.backward(self._merge_heads(d_v))
        return dx


class _BatchedChain:
    """Layers applied in order; backward runs them in reverse."""

    def __init__(self, layers: Sequence[object]) -> None:
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out


class _BatchedResidual:
    """Skip connection around a branch: ``x + f(x)``, backward ``g + f'(g)``.

    Covers :class:`~repro.nn.layers.ResidualMLPBlock` and both residual
    halves of a pre-norm encoder block, with the same operand order as the
    per-worker modules, so float64 results are bit-identical.
    """

    def __init__(self, branch: _BatchedChain) -> None:
        self.branch = branch

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x + self.branch.forward(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out + self.branch.backward(grad_out)


#: Layers without parameters: before the first parameterised layer their
#: backward pass only feeds the discarded input gradient.
_PARAM_FREE = (
    _BatchedReLU,
    _BatchedTanh,
    _BatchedMaxPool2d,
    _BatchedGlobalAvgPool2d,
    _BatchedDropout,
    _BatchedPositionalEncoding,
)


_LOSS_ATTRS = {"kind": "cross_entropy", "pass": "backward"}


class _TracedLayer:
    """One executor layer whose passes are timed while tracing is on.

    Each pass appends ``(t0, t1, attrs, first_child)`` to the executor's
    timing list — two clock reads instead of one span enter/exit — and the
    executor hands each pass's list to
    :meth:`~repro.telemetry.trace.Tracer.add_timed`, which records them as
    ``engine.layer`` spans tagged with the kernel kind (``linear``,
    ``relu``, ``residual``…) and the pass.  Built only on the first traced
    step, so untraced steps pay nothing per layer.
    """

    def __init__(self, layer, kind: str, timings: list) -> None:
        self.layer = layer
        self._timings = timings
        self._forward = {"kind": kind, "pass": "forward"}
        self._backward = {"kind": kind, "pass": "backward"}

    def forward(self, x: np.ndarray) -> np.ndarray:
        timings = self._timings
        first = len(timings)
        t0 = time.perf_counter()
        out = self.layer.forward(x)
        timings.append((t0, time.perf_counter(), self._forward, first))
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        timings = self._timings
        first = len(timings)
        t0 = time.perf_counter()
        grad_in = self.layer.backward(grad_out)
        timings.append((t0, time.perf_counter(), self._backward, first))
        return grad_in

    def backward_params(self, grad_out: np.ndarray):
        timings = self._timings
        first = len(timings)
        t0 = time.perf_counter()
        out = self.layer.backward_params(grad_out)
        timings.append((t0, time.perf_counter(), self._backward, first))
        return out


def _traced(layer, timings: list) -> _TracedLayer:
    """Wrap ``layer`` in timers; residual branches' layers are timed too."""
    if isinstance(layer, _BatchedResidual):
        branch = _BatchedChain([_traced(inner, timings) for inner in layer.branch.layers])
        return _TracedLayer(_BatchedResidual(branch), "residual", timings)
    kind = type(layer).__name__.removeprefix("_Batched").lower()
    return _TracedLayer(layer, kind, timings)


def _emit_layer_spans(parent, timings: Optional[list]) -> None:
    """Hand one pass's layer timings to the tracer as children of ``parent``."""
    if timings:
        telemetry.get_tracer().add_timed(parent, "engine.layer", timings)
        timings.clear()


class _Rejected(Exception):
    """A module the batched compiler cannot lower; carries the reason."""


class _Compiler:
    """Lowers a ``Module`` tree onto ``(N, ...)`` views of a worker matrix.

    :data:`_KERNELS` maps each supported module type (exact type: a subclass
    may override ``forward``, which a batched kernel would silently ignore)
    to a function returning the batched layer for one module instance —
    ``None`` for modules that are the identity while training (dropout with
    ``p == 0``).  Composite entries compile their children through
    :meth:`compile`, so nesting is unbounded.  Every parameter a kernel
    takes is counted; the layout must be covered exactly.
    """

    def __init__(self, matrix: WorkerMatrix, row_offset: int) -> None:
        self.matrix = matrix
        self.spec = matrix.spec
        self.row_offset = int(row_offset)
        self.covered = 0
        # Stacked-input rank and kind, fixed by the first kernel compiled.
        self.input_ndim: Optional[int] = None
        self.token_input = False

    def expect_input(self, ndim: int, token: bool = False) -> None:
        if self.input_ndim is None:
            self.input_ndim = ndim
            self.token_input = token

    def views(self, name: str, shape: Optional[Tuple[int, ...]] = None):
        """``(params, grads)`` views of one parameter for all replicas."""
        if name not in self.spec:
            raise _Rejected(f"parameter {name!r} is not in the flat layout")
        sl = self.spec.slice_of(name)
        shape = (self.matrix.num_workers,) + (shape or self.spec.shape_of(name))
        self.covered += sl.stop - sl.start
        return (
            self.matrix.params[:, sl].reshape(shape),
            self.matrix.grads[:, sl].reshape(shape),
        )

    def compile(self, module, prefix: str):
        kernel = _kernels().get(type(module))
        if kernel is None:
            where = prefix.rstrip(".") or "<root>"
            raise _Rejected(f"no batched kernel for {type(module).__qualname__} at {where}")
        return kernel(self, module, prefix)

    def chain(self, named_modules, prefix: str) -> _BatchedChain:
        """Compile ``(name, module)`` pairs into one flat chain."""
        layers: List[object] = []
        for name, module in named_modules:
            layer = self.compile(module, f"{prefix}{name}.")
            if isinstance(layer, _BatchedChain):
                layers.extend(layer.layers)
            elif layer is not None:
                layers.append(layer)
        return _BatchedChain(layers)


def _linear(c: _Compiler, layer, prefix: str) -> _BatchedLinear:
    c.expect_input(3)
    weight, weight_grad = c.views(prefix + "weight")
    bias = bias_grad = None
    if layer.use_bias:
        bias, bias_grad = c.views(prefix + "bias")
    return _BatchedLinear(weight, weight_grad, bias, bias_grad)


def _conv2d(c: _Compiler, layer, prefix: str) -> _BatchedConv2d:
    c.expect_input(5)
    out_c, in_c, kh, kw = c.spec.shape_of(prefix + "weight")
    w_flat, w_flat_grad = c.views(prefix + "weight", (out_c, in_c * kh * kw))
    bias = bias_grad = None
    if layer.use_bias:
        bias, bias_grad = c.views(prefix + "bias")
    return _BatchedConv2d(
        w_flat, w_flat_grad, bias, bias_grad,
        kernel_size=layer.kernel_size, stride=layer.stride, padding=layer.padding,
    )


def _max_pool(c: _Compiler, layer, prefix: str) -> _BatchedMaxPool2d:
    c.expect_input(5)
    return _BatchedMaxPool2d(layer.kernel_size, layer.stride)


def _global_avg_pool(c: _Compiler, layer, prefix: str) -> _BatchedGlobalAvgPool2d:
    c.expect_input(5)
    return _BatchedGlobalAvgPool2d()


def _layer_norm(c: _Compiler, layer, prefix: str) -> _BatchedLayerNorm:
    c.expect_input(3)
    gamma, gamma_grad = c.views(prefix + "gamma")
    beta, beta_grad = c.views(prefix + "beta")
    return _BatchedLayerNorm(gamma, gamma_grad, beta, beta_grad, eps=layer.eps)


def _dropout(c: _Compiler, layer, prefix: str) -> Optional[_BatchedDropout]:
    if layer.p == 0.0:
        return None
    # Private per-layer RNG streams cannot be replayed batched; only masks
    # drawn from a shared per-step stream can.
    if layer._shared_stream is None:
        raise _Rejected(
            f"dropout at {prefix.rstrip('.')} draws masks from a private RNG "
            "(no shared dropout stream attached)"
        )
    return _BatchedDropout(layer._shared_stream, layer._stream_layer_id, layer.p, c.row_offset)


def _embedding(c: _Compiler, layer, prefix: str) -> _BatchedEmbedding:
    c.expect_input(3, token=True)
    return _BatchedEmbedding(*c.views(prefix + "weight"))


def _positional_encoding(c: _Compiler, layer, prefix: str) -> _BatchedPositionalEncoding:
    return _BatchedPositionalEncoding(layer.pe)


def _attention(c: _Compiler, layer, prefix: str) -> _BatchedSelfAttention:
    projections = [
        c.compile(getattr(layer, name), f"{prefix}{name}.")
        for name in ("q_proj", "k_proj", "v_proj", "out_proj")
    ]
    if not all(isinstance(p, _BatchedLinear) for p in projections):
        raise _Rejected(f"attention projections at {prefix.rstrip('.')} are not Linear")
    return _BatchedSelfAttention(
        *projections, num_heads=layer.num_heads, d_head=layer.d_head, causal=layer.causal
    )


def _children(c: _Compiler, module, prefix: str) -> _BatchedChain:
    """A module whose forward is its registered children, in order."""
    return c.chain(module._modules.items(), prefix)


def _residual_block(c: _Compiler, block, prefix: str) -> _BatchedResidual:
    return _BatchedResidual(_children(c, block, prefix))


def _encoder_layer(c: _Compiler, enc, prefix: str) -> _BatchedChain:
    # Pre-norm block: x + drop1(attn(norm1(x))), then x + drop2(ffn(norm2(x))).
    attn = c.chain(
        [(name, getattr(enc, name)) for name in ("norm1", "attn", "drop1")], prefix
    )
    ffn = c.chain(
        [(name, getattr(enc, name)) for name in ("norm2", "ff1", "act", "ff2", "drop2")],
        prefix,
    )
    return _BatchedChain([_BatchedResidual(attn), _BatchedResidual(ffn)])


_KERNELS: dict = {}


def _kernels() -> dict:
    """The type registry, filled on first use.

    Imported lazily: the engine stays importable without the nn layer
    stack, and nn itself only lazily imports the engine.
    """
    if not _KERNELS:
        from repro.nn.attention import (
            MultiHeadSelfAttention,
            PositionalEncoding,
            TransformerEncoderLayer,
        )
        from repro.nn.layers import (
            Conv2d,
            Dropout,
            Embedding,
            GlobalAvgPool2d,
            LayerNorm,
            Linear,
            MaxPool2d,
            ReLU,
            ResidualMLPBlock,
            Tanh,
        )
        from repro.nn.models import (
            MLP,
            AlexNetLike,
            ConvNet,
            ResNetLike,
            TransformerLM,
            VGGLike,
        )
        from repro.nn.module import Sequential

        _KERNELS.update(
            {
                Linear: _linear,
                ReLU: lambda c, m, p: _BatchedReLU(),
                Tanh: lambda c, m, p: _BatchedTanh(),
                LayerNorm: _layer_norm,
                Conv2d: _conv2d,
                MaxPool2d: _max_pool,
                GlobalAvgPool2d: _global_avg_pool,
                Dropout: _dropout,
                Embedding: _embedding,
                PositionalEncoding: _positional_encoding,
                MultiHeadSelfAttention: _attention,
                Sequential: _children,
                ResidualMLPBlock: _residual_block,
                TransformerEncoderLayer: _encoder_layer,
            }
        )
        for model in (MLP, ConvNet, TransformerLM, ResNetLike, VGGLike, AlexNetLike):
            _KERNELS[model] = _children
    return _KERNELS


_INDEX_CACHE: dict = {}


def _index_grids(n_workers: int, batch: int) -> Tuple[np.ndarray, np.ndarray]:
    key = (n_workers, batch)
    grids = _INDEX_CACHE.get(key)
    if grids is None:
        grids = (np.arange(n_workers)[:, None], np.arange(batch)[None, :])
        _INDEX_CACHE[key] = grids
    return grids


def _loss_and_grad(
    logits: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-replica losses and the logits gradient of any logits rank."""
    if logits.ndim == 4:
        # Language-model logits (N, B, T, V): fold time into the batch
        # axis, exactly as the per-worker cross-entropy flattens it.
        n, b, t, v = logits.shape
        losses, grad = _batched_cross_entropy(
            logits.reshape(n, b * t, v), targets.reshape(n, b * t)
        )
        return losses, grad.reshape(n, b, t, v)
    return _batched_cross_entropy(logits, targets)


def _batched_cross_entropy(
    logits: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-replica mean cross-entropy and logits gradient.

    Same arithmetic as :func:`repro.nn.losses.cross_entropy_with_logits`
    (stable log-softmax, mean over the local batch), evaluated for all
    replicas in one pass over the ``(N, B, C)`` logits block and in the
    logits' own dtype.
    """
    n_workers, batch, _ = logits.shape
    shifted = logits - logits.max(axis=2, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=2, keepdims=True))
    probs = np.exp(logp)
    rows, cols = _index_grids(n_workers, batch)
    losses = -logp[rows, cols, targets].mean(axis=1)
    grad = probs
    grad[rows, cols, targets] -= 1.0
    grad /= batch
    return losses, grad


class BatchedReplicaExecutor:
    """Fused forward/backward for every replica of a worker matrix at once."""

    def __init__(
        self,
        layers: Sequence[object],
        matrix: WorkerMatrix,
        input_ndim: int = 3,
        token_input: bool = False,
    ) -> None:
        self._layers = list(layers)
        self._matrix = matrix
        # Expected stacked-input rank: 3 for (N, B, F) MLP batches and
        # (N, B, T) token batches, 5 for (N, B, C, H, W) conv batches.
        self._input_ndim = int(input_ndim)
        # Token inputs stay integer (embedding lookup) instead of being cast
        # to the compute dtype.
        self._token_input = bool(token_input)
        # step_stacked discards the input gradient, so the backward pass
        # stops at the first parameterised layer (the "head"): the
        # parameter-free layers before it are skipped, and the head itself
        # computes only its parameter gradients when it can.
        head = 0
        while head < len(self._layers) and isinstance(self._layers[head], _PARAM_FREE):
            head += 1
        self._head = head
        self._head_params_only = head < len(self._layers) and hasattr(
            self._layers[head], "backward_params"
        )
        # Timed copy of the layer list, built on the first traced step, and
        # the list its timings collect in during one pass.
        self._traced_layers: Optional[List[_TracedLayer]] = None
        self._layer_timings: list = []

    # ------------------------------------------------------------------ #
    @classmethod
    def compile(
        cls, matrix: WorkerMatrix, module, row_offset: int = 0
    ) -> Tuple[Optional["BatchedReplicaExecutor"], Optional[str]]:
        """Compile ``module`` into an executor: ``(executor, None)`` or
        ``(None, reason)`` when some part of it has no batched kernel.

        ``module`` must be the already-adopted replica of the matrix's first
        row; its architecture (shared by all workers) defines the layer
        chain.  ``row_offset`` is the matrix's first row's *global* replica
        index — nonzero when ``matrix`` is a replica-pool child's group
        sub-matrix — and only affects shared-stream dropout, whose mask
        blocks span the full cluster.
        """
        compiler = _Compiler(matrix, row_offset)
        try:
            root = compiler.compile(module, "")
        except _Rejected as rejected:
            return None, str(rejected)
        if isinstance(root, _BatchedChain):
            layers = root.layers
        else:
            layers = [] if root is None else [root]
        if not layers:
            return None, "the model has no layers"
        # Every parameter in the layout must belong to the chain we walk;
        # anything left over would silently never receive gradients.
        uncovered = matrix.spec.total_size - compiler.covered
        if uncovered:
            return None, f"{uncovered} parameters lie outside the compiled layers"
        executor = cls(
            layers,
            matrix,
            input_ndim=compiler.input_ndim or 3,
            token_input=compiler.token_input,
        )
        return executor, None

    @classmethod
    def build(
        cls, matrix: WorkerMatrix, module, row_offset: int = 0
    ) -> Optional["BatchedReplicaExecutor"]:
        """:meth:`compile` without the reason: the executor or ``None``."""
        return cls.compile(matrix, module, row_offset)[0]

    # ------------------------------------------------------------------ #
    def step(
        self, batches: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> Optional[np.ndarray]:
        """One fused gradient computation for all replicas.

        ``batches`` holds one ``(inputs, targets)`` pair per worker; all
        batches must share one shape (the lockstep cluster guarantees this —
        if not, the caller falls back to the per-worker loop).  Inputs are
        cast to the matrix's compute dtype (token inputs stay integer);
        gradients are written directly into the matrix gradient rows
        (replacing the previous step's contents, i.e. zero-then-accumulate
        semantics) and the per-replica mean losses are returned.
        """
        if len(batches) != self._matrix.num_workers:
            return None
        first_x, first_y = batches[0]
        if any(b[0].shape != first_x.shape or b[1].shape != first_y.shape for b in batches):
            return None
        if self._token_input:
            x = np.stack([np.asarray(b[0]) for b in batches])
            if not np.issubdtype(x.dtype, np.integer):
                return None
        else:
            x = np.stack([np.asarray(b[0], dtype=self._matrix.dtype) for b in batches])
        targets = np.stack([b[1] for b in batches])
        return self.step_stacked(x, targets)

    def step_stacked(
        self, x: np.ndarray, targets: np.ndarray
    ) -> Optional[np.ndarray]:
        """One fused gradient computation from pre-stacked input blocks.

        ``x`` / ``targets`` carry the replica axis already stacked —
        ``(N, batch, ...)`` — so callers that assemble the block themselves
        (:meth:`step`, and the stacked sweep executor which tiles one
        N-worker batch block across S grid slices) skip the per-row
        ``np.stack``.  Same contract as :meth:`step` otherwise: gradients
        land in the matrix rows, per-replica mean losses are returned,
        ``None`` flags an unsupported shape/dtype combination.
        """
        if x.shape[0] != self._matrix.num_workers:
            return None
        if self._token_input:
            if not np.issubdtype(x.dtype, np.integer):
                return None
        else:
            x = np.asarray(x, dtype=self._matrix.dtype)
        if x.ndim != self._input_ndim or not np.issubdtype(targets.dtype, np.integer):
            return None
        timings: Optional[list] = None
        layers = self._layers
        if telemetry.tracing_enabled():
            if self._traced_layers is None:
                self._traced_layers = [
                    _traced(layer, self._layer_timings) for layer in self._layers
                ]
            timings, layers = self._layer_timings, self._traced_layers
        with telemetry.span("engine.forward") as forward:
            for layer in layers:
                x = layer.forward(x)
        _emit_layer_spans(forward, timings)
        if targets.shape != x.shape[:-1]:
            return None
        with telemetry.span("engine.backward") as backward:
            t0 = time.perf_counter()
            losses, grad = _loss_and_grad(x, targets)
            if timings is not None:
                timings.append((t0, time.perf_counter(), _LOSS_ATTRS, len(timings)))
            head = self._head
            for layer in reversed(layers[head + 1 :]):
                grad = layer.backward(grad)
            if self._head_params_only:
                layers[head].backward_params(grad)
            elif head < len(layers):
                layers[head].backward(grad)
        _emit_layer_spans(backward, timings)
        return losses

    def grad_norms(self) -> np.ndarray:
        """Per-replica gradient L2 norms in one pass over the gradient matrix."""
        g = self._matrix.grads
        return np.sqrt(np.einsum("ij,ij->i", g, g))

    @property
    def token_input(self) -> bool:
        """Whether inputs are integer token blocks (stay uncast) or features."""
        return self._token_input
