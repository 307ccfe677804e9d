"""Minimal dense-network machinery on flat float64 parameter vectors.

Networks are described as named chains of dense layers packed into a single
flat vector, which keeps checkpoints trivial (one array plus metadata) and
makes finite-difference gradient checks direct. Forward passes cache layer
inputs and post-activations; backward passes accumulate into a flat gradient
of the same length. Optimization is plain Adam with optional global-norm
gradient clipping.

Workspace contract. A ChainSet builds its per-layer (W, b) views once per
parameter array (by identity; they are views, so in-place edits of that
array show through) and writes every relu layer's output into a per-layer
workspace that grows to the largest batch seen. So a forward's cache, and
the output of a chain that ends in relu, stay valid only until the next
forward of that chain on the same ChainSet, and backward consumes the cache.
Linear layers return fresh arrays, so a chain that ends in one (logits,
values, predictions) hands the caller an array that no later forward
overwrites. Backward never writes to the caller's dy and returns a fresh dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class DenseSpec:
    """One dense layer: y = act(W x + b), W shape (out_dim, in_dim)."""

    in_dim: int
    out_dim: int
    activation: str = "relu"  # "relu" or "linear"
    zero_init: bool = False

    def __post_init__(self):
        if self.activation not in ("relu", "linear"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("layer dims must be positive")

    @property
    def size(self):
        return (self.in_dim + 1) * self.out_dim


def _orthogonal(rows, cols, gain, rng):
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # fix column signs so the draw is well-defined
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


class ChainSet:
    """Named dense chains sharing one flat parameter vector.

    Layout per layer: W row-major, then b. Chain order follows the dict
    insertion order, so layouts are stable for checkpointing.
    """

    def __init__(self, chains: dict):
        self.chains = dict(chains)
        self._slices = {}
        offset = 0
        for name, specs in self.chains.items():
            for i, spec in enumerate(specs):
                w_size = spec.in_dim * spec.out_dim
                self._slices[(name, i)] = (
                    slice(offset, offset + w_size),
                    slice(offset + w_size, offset + w_size + spec.out_dim),
                )
                offset += spec.size
        self.size = offset
        self._views = (None, None)  # (theta, {name: [(W, b) per layer]})
        self._buffers = {}

    def init_theta(self, rng):
        """Orthogonal weights (gain sqrt(2) before relu, 1 otherwise), zero biases."""
        theta = np.zeros(self.size)
        for name, specs in self.chains.items():
            for i, spec in enumerate(specs):
                w_slice, _ = self._slices[(name, i)]
                if spec.zero_init:
                    continue
                gain = math.sqrt(2.0) if spec.activation == "relu" else 1.0
                theta[w_slice] = _orthogonal(spec.out_dim, spec.in_dim, gain, rng).ravel()
        return theta

    def weights(self, theta, name, i):
        spec = self.chains[name][i]
        w_slice, b_slice = self._slices[(name, i)]
        return theta[w_slice].reshape(spec.out_dim, spec.in_dim), theta[b_slice]

    def _layer_views(self, theta, name):
        """[(W, b)] views into theta for chain `name`, built once per theta object."""
        cached, views = self._views
        if cached is not theta:
            views = {
                chain: [self.weights(theta, chain, i) for i in range(len(specs))]
                for chain, specs in self.chains.items()
            }
            self._views = (theta, views)
        return views[name]

    def workspace(self, key, rows, cols):
        """An (rows, cols) float64 buffer, reused by the next call with the same key."""
        buf = self._buffers.get(key)
        if buf is None or len(buf) < rows:
            buf = self._buffers[key] = np.empty((rows, cols))
        return buf[:rows]

    def forward(self, theta, name, x):
        """Run chain `name` on batch x (N, in_dim); returns (y, cache) for backward.

        Relu layers write into this ChainSet's workspaces (see the module
        docstring); a linear layer's output is a fresh array.
        """
        cache = []
        for i, (spec, (w, b)) in enumerate(zip(self.chains[name], self._layer_views(theta, name))):
            if spec.activation == "relu":
                y = np.matmul(x, w.T, out=self.workspace((name, i), len(x), spec.out_dim))
                y += b
                np.maximum(y, 0.0, out=y)
            else:
                y = x @ w.T + b
            cache.append((x, y))
            x = y
        return x, cache

    def backward(self, theta, name, cache, dy, grad, input_grad=True):
        """Backprop dy through chain `name`, accumulating into flat `grad`; returns dx.

        dx is a fresh array, or None with input_grad False, which skips it.
        Consumes the cache: each hidden layer's input gradient overwrites that
        layer's cached input, so run it at most once per forward. dy itself is
        never written. y > 0 is the relu mask, as y = max(z, 0).
        """
        specs = self.chains[name]
        views = self._layer_views(theta, name)
        last = len(specs) - 1
        if specs[last].activation == "relu":
            dy = dy * (cache[last][1] > 0.0)
        for i in range(last, -1, -1):
            x = cache[i][0]
            w_slice, b_slice = self._slices[(name, i)]
            grad[w_slice] += (dy.T @ x).ravel()
            grad[b_slice] += dy.sum(axis=0)
            if i == 0:
                return dy @ views[0][0] if input_grad else None
            mask = x > 0.0 if specs[i - 1].activation == "relu" else None
            dy = np.matmul(dy, views[i][0], out=x)
            if mask is not None:
                dy *= mask


@dataclass
class FlatParams:
    """Flat parameter vector with its Adam accumulators."""

    theta: np.ndarray
    adam_m: np.ndarray = field(default=None)
    adam_v: np.ndarray = field(default=None)
    adam_step: int = 0

    def __post_init__(self):
        if self.adam_m is None:
            self.adam_m = np.zeros_like(self.theta)
        if self.adam_v is None:
            self.adam_v = np.zeros_like(self.theta)


def clip_grad_norm(grad, max_norm):
    """Scale grad down to global L2 norm max_norm (> 0); no-op when already within."""
    norm = float(np.linalg.norm(grad))
    if norm > max_norm:
        return grad * (max_norm / norm), norm
    return grad, norm


def adam_step(params: FlatParams, grad, lr, eps, beta1=0.9, beta2=0.999) -> FlatParams:
    """One Adam update; returns a fresh FlatParams, inputs untouched."""
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite gradient in adam_step")
    t = params.adam_step + 1
    m = beta1 * params.adam_m + (1.0 - beta1) * grad
    v = beta2 * params.adam_v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    theta = params.theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return FlatParams(theta, m, v, t)
