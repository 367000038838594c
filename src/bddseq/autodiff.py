"""Minimal dense-tensor reverse-mode differentiation on numpy arrays.

Just enough surface for the graph encoder and pointer decoder: elementwise
arithmetic, matmul, activations, row gather/scatter, per-head reductions, a
masked log-softmax, and the decoder step as two fused ops, `lstm` and
`pointer`. Everything runs in float64 with a fixed summation order, so runs
are reproducible and finite-difference checks are tight.

Every op takes Tensors or float64 arrays and computes its value once. Under
`no_grad()` it returns that bare ndarray first, so inference builds no Tensor,
closure or graph. With grad on it hands `_node` the value, its inputs (arrays
become constant Tensors) and one vector-Jacobian product (VJP) per input, a
function from the output's gradient to that input's gradient. Only
`Tensor.backward` routes gradients: it calls each input's VJP only when that
input requires grad, in input order, and sums the result over the axes that
broadcasting stretched the input along.

A fused op's VJPs read intermediates that several inputs need, such as the
LSTM's cell gradient. Such an op also hands `_node` a `shared` function of the
output's gradient. `backward` calls it once per node and pass and gives its
result to every VJP of the node in place of the gradient, so each input gets
the same bits whichever inputs need grad. The fused ops multiply in the order
of the elementary ops they replace, so they give the same bits as those ops
composed.
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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjps", "_shared")

    def __init__(self, data, requires_grad=False, parents=(), vjps=(), shared=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any([p.requires_grad for p in parents])
        self._parents = parents
        self._vjps = vjps
        self._shared = shared

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
                if node._shared is not None:
                    g = node._shared(g)
                for parent, vjp in zip(node._parents, node._vjps):
                    if parent.requires_grad:
                        parent._accumulate(_unbroadcast(vjp(g), parent.data))


def value(x) -> np.ndarray:
    """The array an op computes with: a Tensor's data, or x itself (float64)."""
    return x.data if isinstance(x, Tensor) else x


def _node(out, inputs, *vjps, shared=None):
    """An op's result with grad on: a Tensor of `out` keeping its inputs, VJPs
    and the function that computes what its VJPs share, if any."""
    parents = tuple([x if isinstance(x, Tensor) else Tensor(x) for x in inputs])
    return Tensor(out, parents=parents, vjps=vjps, shared=shared)


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


def lstm(x, h, c, Wx, Wh, b):
    """One LSTM step for B rows: [hidden | cell] as (B, 2H).

    h and c are (B, H), and x is (B, H) or one row that every row reads. Wx
    and Wh are (H, 4H) and b is (1, 4H), with the input, forget, cell and
    output gates in that order.
    """
    xx, hx, cx, wx, wh = value(x), value(h), value(c), value(Wx), value(Wh)
    n = wh.shape[0]
    z = xx @ wx + hx @ wh + value(b)
    gi, gf, go = [1.0 / (1.0 + np.exp(-z[:, k * n : (k + 1) * n])) for k in (0, 1, 3)]
    gg = np.tanh(z[:, 2 * n : 3 * n])
    cell = gf * cx + gi * gg
    tc = np.tanh(cell)
    y = np.concatenate([go * tc, cell], axis=1)
    if not _grad_enabled:
        return y

    def shared(g):
        """The cell's gradient dc, the preactivations' dz, and dz as x's matmul
        sees it: summed over the rows when x is one row."""
        gh = g[:, :n]
        dc = gh * go * (1.0 - tc * tc) + g[:, n:]
        dz_i, dz_f = dc * gg * gi * (1.0 - gi), dc * cx * gf * (1.0 - gf)
        dz_g, dz_o = dc * gi * (1.0 - gg * gg), gh * tc * go * (1.0 - go)
        dz = np.concatenate([dz_i, dz_f, dz_g, dz_o], axis=1)
        return dc, dz, dz.sum(axis=0, keepdims=True) if len(xx) < len(dz) else dz

    return _node(
        y,
        (x, h, c, Wx, Wh, b),
        lambda s: s[2] @ wx.T,
        lambda s: s[1] @ wh.T,
        lambda s: s[0] * gf,
        lambda s: xx.T @ s[2],
        lambda s: hx.T @ s[1],
        lambda s: s[1],
        shared=shared,
    )


def pointer(h, Wq, keys, v):
    """Pointer scores of B rows against their own (P, H) blocks of keys: the
    (B*P, 1) column tanh(h @ Wq + keys) @ v, row r*P + p for row r and key p.

    h is (B, H), Wq (H, H), keys (B, P, H) and v (H, 1).
    """
    hx, wq, kx, vx = value(h), value(Wq), value(keys), value(v)
    att = np.tanh(((hx @ wq)[:, None, :] + kx).reshape(-1, wq.shape[1]))
    y = att @ vx
    if not _grad_enabled:
        return y

    def shared(g):
        """The gradient, the pre-tanh gradient as (B, P, H), and its per-row sum."""
        ds = ((g @ vx.T) * (1.0 - att * att)).reshape(kx.shape)
        return g, ds, ds.sum(1)

    return _node(
        y,
        (h, Wq, keys, v),
        lambda s: s[2] @ wq.T,
        lambda s: hx.T @ s[2],
        lambda s: s[1],
        lambda s: att.T @ s[0],
        shared=shared,
    )


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
            g, m, v = p.grad, self.m[k], self.v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            step = np.multiply(g, g)
            step *= 1.0 - self.beta2
            v += step
            # step = lr * m_hat / (sqrt(v_hat) + eps), built in place
            np.divide(v, b2c, out=step)
            np.sqrt(step, out=step)
            step += self.eps
            np.divide(self.lr * (m / b1c), step, out=step)
            p.data -= step
