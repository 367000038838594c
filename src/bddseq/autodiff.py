"""Minimal dense-tensor reverse-mode differentiation on numpy arrays.

Just enough surface for the graph encoder and pointer decoder: elementwise
arithmetic, matmul, activations, row gather/scatter, per-head reductions and
a masked log-softmax. Everything runs in float64 with a fixed summation
order, so runs are reproducible and finite-difference checks are tight.

Inside `no_grad()` the ops compute values only: results keep no parents and
no backward closure, so inference builds no graph.
"""

from __future__ import annotations

from contextlib import contextmanager
from math import prod

import numpy as np

_grad_enabled = True


@contextmanager
def no_grad():
    """Record no graph for tensors built inside the block."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    if grad.shape == tuple(shape):
        return grad
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad=False, parents=(), bwd=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        if _grad_enabled:
            self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
            self._parents = parents
            self._bwd = bwd
        else:
            self.requires_grad, self._parents, self._bwd = False, (), None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64)  # a copy: grad may be shared
        else:
            self.grad += grad

    def backward(self, grad=None) -> None:
        if grad is None:
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._bwd is not None and node.grad is not None:
                node._bwd(node.grad)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return Tensor(a.data + b.data, parents=(a, b), bwd=bwd)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return Tensor(a.data - b.data, parents=(a, b), bwd=bwd)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return Tensor(a.data * b.data, parents=(a, b), bwd=bwd)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return Tensor(a.data / b.data, parents=(a, b), bwd=bwd)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return Tensor(a.data @ b.data, parents=(a, b), bwd=bwd)


def tanh(a) -> Tensor:
    a = _wrap(a)
    y = np.tanh(a.data)
    return Tensor(y, parents=(a,), bwd=lambda g: a._accumulate(g * (1.0 - y * y)))


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    y = 1.0 / (1.0 + np.exp(-a.data))
    return Tensor(y, parents=(a,), bwd=lambda g: a._accumulate(g * y * (1.0 - y)))


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = _wrap(a)
    mask = np.where(a.data > 0, 1.0, slope)
    return Tensor(a.data * mask, parents=(a,), bwd=lambda g: a._accumulate(g * mask))


def exp(a) -> Tensor:
    a = _wrap(a)
    y = np.exp(a.data)
    return Tensor(y, parents=(a,), bwd=lambda g: a._accumulate(g * y))


def tsum(a) -> Tensor:
    a = _wrap(a)
    return Tensor(
        a.data.sum(),
        parents=(a,),
        bwd=lambda g: a._accumulate(np.full_like(a.data, float(g))),
    )


def _segment_sum(values: np.ndarray, idx: np.ndarray, n_rows: int) -> np.ndarray:
    """Blocks of `values` (one per entry of idx) summed into n_rows rows.

    One bincount over the flattened (row * C + col) bins adds in input
    order, as `np.add.at` does, so the sums are bit for bit the same.
    """
    tail = values.shape[idx.ndim :]
    cols = prod(tail)
    bins = (idx.reshape(-1, 1) * cols + np.arange(cols)).ravel()
    out = np.bincount(bins, weights=values.ravel(), minlength=n_rows * cols)
    return out.reshape((n_rows,) + tail)


def gather_rows(a, idx) -> Tensor:
    """Rows of `a` picked by an integer index of any shape: a[idx]."""
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.int64)
    n_rows = a.data.shape[0]
    return Tensor(
        a.data[idx],
        parents=(a,),
        bwd=lambda g: a._accumulate(_segment_sum(g, idx, n_rows)),
    )


def scatter_add_rows(a, idx, n_rows: int) -> Tensor:
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.int64)
    data = _segment_sum(a.data, idx, n_rows)
    return Tensor(data, parents=(a,), bwd=lambda g: a._accumulate(g[idx]))


def concat_rows(parts) -> Tensor:
    """Stack tensors of equal width on top of each other."""
    parts = [_wrap(p) for p in parts]
    ends = np.cumsum([p.data.shape[0] for p in parts])

    def bwd(g):
        for p, stop in zip(parts, ends):
            if p.requires_grad:
                p._accumulate(g[stop - p.data.shape[0] : stop])

    return Tensor(np.concatenate([p.data for p in parts]), parents=tuple(parts), bwd=bwd)


def slice_cols(a, start: int, stop: int) -> Tensor:
    a = _wrap(a)

    def bwd(g):
        acc = np.zeros_like(a.data)
        acc[:, start:stop] = g
        a._accumulate(acc)

    return Tensor(a.data[:, start:stop], parents=(a,), bwd=bwd)


def heads_dot(h, a, heads: int) -> Tensor:
    """Per-head inner product: (N, heads*d) x (heads, d) -> (N, heads)."""
    h, a = _wrap(h), _wrap(a)
    n = h.data.shape[0]
    d = a.data.shape[1]
    h3 = h.data.reshape(n, heads, d)

    def bwd(g):
        if h.requires_grad:
            h._accumulate((g[:, :, None] * a.data[None]).reshape(n, heads * d))
        if a.requires_grad:
            a._accumulate(np.einsum("nh,nhd->hd", g, h3))

    return Tensor(np.einsum("nhd,hd->nh", h3, a.data), parents=(h, a), bwd=bwd)


def heads_scale(h, s, heads: int) -> Tensor:
    """Scale each head block of (E, heads*d) by the matching (E, heads) column."""
    h, s = _wrap(h), _wrap(s)
    e = h.data.shape[0]
    d = h.data.shape[1] // heads
    h3 = h.data.reshape(e, heads, d)

    def bwd(g):
        g3 = g.reshape(e, heads, d)
        if h.requires_grad:
            h._accumulate((g3 * s.data[:, :, None]).reshape(e, heads * d))
        if s.requires_grad:
            s._accumulate(np.einsum("ehd,ehd->eh", g3, h3))

    data = (h3 * s.data[:, :, None]).reshape(e, heads * d)
    return Tensor(data, parents=(h, s), bwd=bwd)


def outer_add(a, b) -> Tensor:
    """All row sums of (B, H) rows and (P, H) keys, as (B*P, H): row r*P + p
    is a[r] + b[p] for keys (P, H) shared by every row, or a[r] + b[r, p]
    for keys (B, P, H) of one block per row."""
    a, b = _wrap(a), _wrap(b)
    shared = b.data.ndim == 2
    keys = b.data[None] if shared else b.data
    rows, cols = a.data.shape[0], keys.shape[1]

    def bwd(g):
        g3 = g.reshape(rows, cols, -1)
        if a.requires_grad:
            a._accumulate(g3.sum(axis=1))
        if b.requires_grad:
            b._accumulate(g3.sum(axis=0) if shared else g3)

    data = (a.data[:, None, :] + keys).reshape(rows * cols, -1)
    return Tensor(data, parents=(a, b), bwd=bwd)


def log_softmax_pick(a, mask_add: np.ndarray, picks) -> Tensor:
    """Masked log-softmax over the last axis, keeping one picked entry per row.

    `a` holds the scores of mask_add's shape (..., C) in any layout of the
    same size; mask_add is a constant additive bias and picks (...) names
    one column per row. Returns the picked log-probabilities, shaped picks.
    """
    a = _wrap(a)
    picks = np.asarray(picks, dtype=np.int64)
    cols = mask_add.shape[-1]
    x = a.data.reshape(mask_add.shape) + mask_add
    z = x - x.max(axis=-1, keepdims=True)
    y = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    flat = np.arange(picks.size) * cols + picks.ravel()  # picked entries of y.ravel()

    def bwd(g):
        acc = -np.exp(y) * g[..., None]
        acc.reshape(-1)[flat] += g.ravel()
        a._accumulate(acc.reshape(a.data.shape))

    return Tensor(y.reshape(-1)[flat].reshape(picks.shape), parents=(a,), bwd=bwd)


class Adam:
    """Deterministic Adam over an ordered parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.step_count += 1
        b1c = 1.0 - self.beta1**self.step_count
        b2c = 1.0 - self.beta2**self.step_count
        for k, p in self.params.items():
            if p.grad is None:
                continue
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * p.grad
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * (p.grad * p.grad)
            m_hat = self.m[k] / b1c
            v_hat = self.v[k] / b2c
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
