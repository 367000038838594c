"""Minimal dense-tensor reverse-mode differentiation on numpy arrays.

Just enough surface for the graph encoder and pointer decoder: elementwise
arithmetic, matmul, activations, row gather/scatter, per-head reductions and
a masked log-softmax. Everything runs in float64 with a fixed summation
order, so runs are reproducible and finite-difference checks are tight.

Every op takes Tensors or float64 arrays and computes its value once. Under
`no_grad()` it returns that bare ndarray first, so inference builds no Tensor,
closure or graph. With grad on it hands `_node` the value, its inputs (arrays
become constant Tensors) and one vector-Jacobian product (VJP) per input, a
function from the output's gradient to that input's gradient. Only
`Tensor.backward` routes gradients: it calls each input's VJP only when that
input requires grad, in input order, and sums the result over the axes that
broadcasting stretched the input along.
"""

from __future__ import annotations

from contextlib import contextmanager
from math import prod

import numpy as np

_grad_enabled = True


@contextmanager
def no_grad():
    """Inside the block, ops return bare arrays and record no graph."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _unbroadcast(grad: np.ndarray, like: np.ndarray) -> np.ndarray:
    """`grad` summed over the axes that broadcasting stretched `like` along."""
    shape = like.shape
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjps")

    def __init__(self, data, requires_grad=False, parents=(), vjps=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any([p.requires_grad for p in parents])
        self._parents = parents
        self._vjps = vjps

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
            elif id(node) not in seen and node.requires_grad:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend([(p, False) for p in node._parents])
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            g = node.grad
            if g is not None:
                for parent, vjp in zip(node._parents, node._vjps):
                    if parent.requires_grad:
                        parent._accumulate(_unbroadcast(vjp(g), parent.data))


def value(x) -> np.ndarray:
    """The array an op computes with: a Tensor's data, or x itself (float64)."""
    return x.data if isinstance(x, Tensor) else x


def _node(out, inputs, *vjps):
    """An op's result with grad on: a Tensor of `out` keeping its inputs and VJPs."""
    parents = tuple([x if isinstance(x, Tensor) else Tensor(x) for x in inputs])
    return Tensor(out, parents=parents, vjps=vjps)


def add(a, b):
    y = value(a) + value(b)
    return _node(y, (a, b), lambda g: g, lambda g: g) if _grad_enabled else y


def sub(a, b):
    y = value(a) - value(b)
    return _node(y, (a, b), lambda g: g, lambda g: -g) if _grad_enabled else y


def mul(a, b):
    xa, xb = value(a), value(b)
    y = xa * xb
    return _node(y, (a, b), lambda g: g * xb, lambda g: g * xa) if _grad_enabled else y


def div(a, b):
    xa, xb = value(a), value(b)
    y = xa / xb
    return _node(y, (a, b), lambda g: g / xb, lambda g: -g * xa / (xb * xb)) if _grad_enabled else y


def matmul(a, b):
    xa, xb = value(a), value(b)
    y = xa @ xb
    return _node(y, (a, b), lambda g: g @ xb.T, lambda g: xa.T @ g) if _grad_enabled else y


def tanh(a):
    y = np.tanh(value(a))
    return _node(y, (a,), lambda g: g * (1.0 - y * y)) if _grad_enabled else y


def sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-value(a)))
    return _node(y, (a,), lambda g: g * y * (1.0 - y)) if _grad_enabled else y


def leaky_relu(a, slope: float = 0.2):
    x = value(a)
    mask = np.where(x > 0, 1.0, slope)
    y = x * mask
    return _node(y, (a,), lambda g: g * mask) if _grad_enabled else y


def exp(a):
    y = np.exp(value(a))
    return _node(y, (a,), lambda g: g * y) if _grad_enabled else y


def tsum(a):
    x = value(a)
    y = x.sum()
    return _node(y, (a,), lambda g: np.full_like(x, float(g))) if _grad_enabled else y


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


def gather_rows(a, idx):
    """Rows of `a` picked by an integer index of any shape: a[idx]."""
    x = value(a)
    idx = np.asarray(idx, dtype=np.int64)
    y = x[idx]
    return _node(y, (a,), lambda g: _segment_sum(g, idx, x.shape[0])) if _grad_enabled else y


def scatter_add_rows(a, idx, n_rows: int):
    idx = np.asarray(idx, dtype=np.int64)
    y = _segment_sum(value(a), idx, n_rows)
    return _node(y, (a,), lambda g: g[idx]) if _grad_enabled else y


def _rows(start: int, stop: int):
    """The VJP of one part of `concat_rows`: its rows of the gradient."""
    return lambda g: g[start:stop]


def concat_rows(parts):
    """Stack tensors of equal width on top of each other."""
    arrays = [value(p) for p in parts]
    y = np.concatenate(arrays)
    if not _grad_enabled:
        return y
    ends = np.cumsum([x.shape[0] for x in arrays])
    return _node(y, parts, *[_rows(stop - x.shape[0], stop) for x, stop in zip(arrays, ends)])


def slice_cols(a, start: int, stop: int):
    x = value(a)
    y = x[:, start:stop]
    if not _grad_enabled:
        return y

    def vjp(g):
        acc = np.zeros_like(x)
        acc[:, start:stop] = g
        return acc

    return _node(y, (a,), vjp)


def heads_dot(h, a, heads: int):
    """Per-head inner product: (N, heads*d) x (heads, d) -> (N, heads)."""
    hx, ax = value(h), value(a)
    n, d = hx.shape[0], ax.shape[1]
    h3 = hx.reshape(n, heads, d)
    y = np.einsum("nhd,hd->nh", h3, ax)
    if not _grad_enabled:
        return y
    return _node(
        y,
        (h, a),
        lambda g: (g[:, :, None] * ax[None]).reshape(n, heads * d),
        lambda g: np.einsum("nh,nhd->hd", g, h3),
    )


def heads_scale(h, s, heads: int):
    """Scale each head block of (E, heads*d) by the matching (E, heads) column."""
    hx, sx = value(h), value(s)
    e, d = hx.shape[0], hx.shape[1] // heads
    h3 = hx.reshape(e, heads, d)
    y = (h3 * sx[:, :, None]).reshape(e, heads * d)
    if not _grad_enabled:
        return y
    return _node(
        y,
        (h, s),
        lambda g: (g.reshape(e, heads, d) * sx[:, :, None]).reshape(e, heads * d),
        lambda g: np.einsum("ehd,ehd->eh", g.reshape(e, heads, d), h3),
    )


def outer_add(a, b):
    """All sums of (B, H) rows and their (B, P, H) keys, one block of P per
    row, as (B*P, H): row r*P + p is a[r] + b[r, p]."""
    ax, bx = value(a), value(b)
    y = (ax[:, None, :] + bx).reshape(-1, ax.shape[1])
    if not _grad_enabled:
        return y
    return _node(y, (a, b), lambda g: g.reshape(bx.shape).sum(1), lambda g: g.reshape(bx.shape))


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax of an array over its last axis, shifted by each row's max."""
    z = x - x.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def log_softmax_pick(a, mask_add: np.ndarray, picks):
    """Masked log-softmax over the last axis, keeping one picked entry per row.

    `a` holds the scores of mask_add's shape (..., C) in any layout of the
    same size; mask_add is a constant additive bias and picks (...) names
    one column per row. Returns the picked log-probabilities, shaped picks.
    """
    picks = np.asarray(picks, dtype=np.int64)
    cols = mask_add.shape[-1]
    y = log_softmax(value(a).reshape(mask_add.shape) + mask_add)
    flat = np.arange(picks.size) * cols + picks.ravel()  # picked entries of y.ravel()
    out = y.reshape(-1)[flat].reshape(picks.shape)
    if not _grad_enabled:
        return out

    def vjp(g):
        acc = -np.exp(y) * g[..., None]
        acc.reshape(-1)[flat] += g.ravel()
        return acc.reshape(value(a).shape)

    return _node(out, (a,), vjp)


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
