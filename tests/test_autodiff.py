import numpy as np
import pytest

from bddseq import autodiff as ad
from bddseq.autodiff import Adam, Tensor
from tests import reference
from tests.gradcheck import central_difference_errors


def fd_check(build, shapes, eps=1e-5, tol=1e-6, seed=0, probes=6):
    """Vector-norm relative error between backward() and central differences."""
    rng = np.random.default_rng(seed)
    params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]

    def value():
        out = build(*params)
        return out if out.data.ndim == 0 else ad.tsum(out)

    loss = value()
    for p in params:
        p.grad = None
    loss.backward()
    errors = central_difference_errors(params, lambda: value().item(), eps, probes, rng)
    assert max(errors) < tol


MASK = np.array([[0, -1e9, 0, 0, -1e9, 0.0], [0, 0, 0, -1e9, 0, 0]])
# op -> (build, input shapes); every op of the module, and the two ops that
# only the reference decoder step in tests/reference.py still uses
OPS = {
    "add": (ad.add, [(3, 4), (1, 4)]),
    "sub": (ad.sub, [(3, 4), (3, 4)]),
    "mul": (ad.mul, [(3, 4), (1, 4)]),
    "div": (ad.div, [(3, 4), (3, 4)]),
    "matmul": (ad.matmul, [(3, 4), (4, 2)]),
    "tanh": (ad.tanh, [(3, 4)]),
    "sigmoid": (reference.sigmoid, [(3, 4)]),
    "leaky_relu": (ad.leaky_relu, [(3, 4)]),
    "exp": (ad.exp, [(3, 4)]),
    "tsum": (ad.tsum, [(3, 4)]),
    "gather_rows": (lambda a: ad.gather_rows(a, np.array([[0, 2], [2, 1]])), [(3, 4)]),
    "scatter_add_rows": (
        lambda a: ad.scatter_add_rows(a, np.array([0, 2, 1, 2, 0]), 3),
        [(5, 4)],
    ),
    "concat_rows": (lambda a, b: ad.concat_rows([a, b, a]), [(2, 3), (4, 3)]),
    "slice_cols": (lambda a: ad.slice_cols(a, 1, 3), [(3, 5)]),
    "heads_dot": (lambda h, a: ad.heads_dot(h, a, 2), [(5, 6), (2, 3)]),
    "heads_scale": (lambda h, s: ad.heads_scale(h, s, 2), [(5, 6), (5, 2)]),
    "outer_add_per_row": (reference.outer_add, [(3, 4), (3, 5, 4)]),
    "lstm": (ad.lstm, [(3, 4), (3, 4), (3, 4), (4, 16), (4, 16), (1, 16)]),
    "lstm_one_x_row": (ad.lstm, [(1, 4), (3, 4), (3, 4), (4, 16), (4, 16), (1, 16)]),
    "pointer": (ad.pointer, [(3, 4), (4, 4), (3, 5, 4), (4, 1)]),
    "log_softmax_pick": (lambda a: ad.log_softmax_pick(a, MASK, [2, 5]), [(2, 6)]),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_grad_matches_central_differences(name):
    fd_check(*OPS[name])


@pytest.mark.parametrize("frozen", ["array", "tensor"])
@pytest.mark.parametrize("name", sorted(name for name in OPS if len(OPS[name][1]) > 1))
def test_input_without_grad_gets_none(name, frozen):
    # backward skips an input that needs no gradient and gives every other
    # input the same bits as when all of them need one
    build, shapes = OPS[name]
    rng = np.random.default_rng(3)
    arrays = [rng.standard_normal(s) for s in shapes]

    def grads(skip):
        inputs = [Tensor(x, requires_grad=k != skip) for k, x in enumerate(arrays)]
        if frozen == "array" and skip is not None:
            inputs[skip] = arrays[skip]
        out = build(*inputs)
        out.backward(np.random.default_rng(4).standard_normal(out.shape))
        return [x.grad if isinstance(x, Tensor) else None for x in inputs]

    every = grads(None)
    for skip in range(len(arrays)):
        got = grads(skip)
        assert got[skip] is None
        for k, (g, want) in enumerate(zip(got, every)):
            if k != skip:
                assert g.tobytes() == want.tobytes()


def test_mul_div_grad():
    fd_check(lambda a, b: ad.mul(a, b), [(3, 4), (3, 4)])
    fd_check(
        lambda a, b: ad.div(a, ad.add(ad.mul(b, b), Tensor(np.ones((3, 4))))),
        [(3, 4), (3, 4)],
    )


def test_activations_grad():
    # the default slope and shapes are in OPS
    fd_check(lambda a: ad.leaky_relu(a, slope=0.05), [(3, 4)])
    fd_check(lambda a: ad.exp(a), [(2, 3)])


def test_gather_scatter_grad():
    idx = np.array([0, 2, 1, 2])
    fd_check(lambda a: ad.gather_rows(a, idx), [(3, 4)])
    fd_check(lambda a: ad.scatter_add_rows(a, np.array([1, 1, 0]), 4), [(3,)])


@pytest.mark.parametrize("cols", [1, 2, 3, 8, 17, 64])
def test_segment_sums_equal_add_at(cols):
    rng = np.random.default_rng(cols)
    rows = 9
    idx = rng.integers(0, rows - 3, size=40)  # repeats, and rows never hit
    values = rng.standard_normal((40, cols)) * 10.0 ** rng.integers(-8, 8, size=(40, 1))
    expected = np.zeros((rows, cols))
    np.add.at(expected, idx, values)
    assert np.array_equal(ad.scatter_add_rows(values, idx, rows).data, expected)
    a = Tensor(rng.standard_normal((rows, cols)), requires_grad=True)
    ad.gather_rows(a, idx).backward(values)
    assert np.array_equal(a.grad, expected)


def test_slice_concat_gather_grad():
    fd_check(lambda a: ad.slice_cols(a, 1, 3), [(3, 5)])
    fd_check(lambda a, b: ad.concat_rows([a, b, a]), [(2, 3), (4, 3)])
    fd_check(lambda a: ad.gather_rows(a, np.array([[0, 2], [2, 2]])), [(3, 4)])


def test_log_softmax_grad_masked():
    fd_check(lambda a: ad.log_softmax_pick(a, MASK, [0, 1]), [(12, 1)])
    fd_check(lambda a: ad.log_softmax_pick(a, np.zeros((2, 2, 3)), [[0, 2], [1, 1]]), [(12,)])


def test_log_softmax_probabilities():
    x = Tensor(np.array([[0.3, -1.2, 2.0], [5.0, 5.0, -3.0]]))
    mask = np.array([[0.0, 0.0, 0.0], [0.0, -1e9, 0.0]])
    picked = [ad.log_softmax_pick(x, mask, [c, c]).data for c in range(3)]
    probs = np.exp(np.stack(picked, axis=1))
    assert probs.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)
    assert probs[1, 1] == 0.0


def test_shared_subgraph_accumulates():
    a = Tensor(np.array([[2.0]]), requires_grad=True)
    out = ad.add(ad.mul(a, a), ad.mul(a, a))  # 2a^2, d/da = 4a
    out.backward(np.array([[1.0]]))
    assert a.grad[0, 0] == pytest.approx(8.0)


def test_adam_steps_in_place_with_the_textbook_bits():
    # m and v are updated in place, and every step has the bits of the
    # textbook expressions in their order
    rng = np.random.default_rng(6)
    p = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    opt = Adam({"p": p}, lr=0.01)
    m, v = opt.m["p"], opt.v["p"]
    data, want_m, want_v = p.data.copy(), np.zeros((3, 4)), np.zeros((3, 4))
    for step in range(1, 6):
        p.grad = rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-6, 3, size=(3, 4))
        opt.step()
        want_m = opt.beta1 * want_m + (1.0 - opt.beta1) * p.grad
        want_v = opt.beta2 * want_v + (1.0 - opt.beta2) * (p.grad * p.grad)
        m_hat = want_m / (1.0 - opt.beta1**step)
        v_hat = want_v / (1.0 - opt.beta2**step)
        data -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)
        assert opt.m["p"] is m and opt.v["p"] is v
        assert m.tobytes() == want_m.tobytes() and v.tobytes() == want_v.tobytes()
        assert p.data.tobytes() == data.tobytes()


def test_adam_zero_lr_keeps_params():
    p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    before = p.data.copy()
    opt = Adam({"p": p}, lr=0.0)
    for _ in range(5):
        opt.zero_grad()
        ad.tsum(ad.mul(p, p)).backward()
        opt.step()
    assert np.array_equal(p.data, before)


def test_adam_descends():
    p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        ad.tsum(ad.mul(p, p)).backward()
        opt.step()
    assert np.abs(p.data).max() < 0.3


def test_backward_is_deterministic():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    idx = np.array([0, 1, 1, 3, 2])

    def run():
        a.grad = None
        out = ad.scatter_add_rows(ad.gather_rows(ad.tanh(a), idx), idx, 4)
        ad.tsum(out).backward()
        return a.grad.copy()

    assert np.array_equal(run(), run())


def test_no_grad_builds_no_graph():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.no_grad():
        y = ad.tanh(ad.matmul(w, w))
    assert type(y) is np.ndarray
    assert np.array_equal(y, np.tanh(np.full((2, 2), 2.0)))
    z = ad.tsum(ad.matmul(w, w))
    assert z.requires_grad and z._parents
    z.backward()
    assert np.allclose(w.grad, 4.0)


def refuse_nodes(monkeypatch):
    """Make any call of `autodiff._node`, the grad-on result helper, fail."""

    def refused(*args):
        raise AssertionError("an op called _node under no_grad()")

    monkeypatch.setattr(ad, "_node", refused)


@pytest.mark.parametrize("name", sorted(OPS))
def test_no_grad_op_returns_the_grad_value_as_a_bare_array(name, monkeypatch):
    build, shapes = OPS[name]
    rng = np.random.default_rng(5)
    arrays = [rng.standard_normal(s) for s in shapes]
    tensors = [Tensor(x, requires_grad=True) for x in arrays]
    expected = build(*tensors)
    assert isinstance(expected, Tensor) and expected.requires_grad
    refuse_nodes(monkeypatch)  # no_grad() returns before any VJP or node is built
    with ad.no_grad():
        outs = [build(*tensors), build(*arrays)]
    for out in outs:
        assert not isinstance(out, Tensor)
        out = np.asarray(out)  # tsum gives a numpy scalar
        assert out.dtype == np.float64 and out.shape == expected.data.shape
        assert out.tobytes() == expected.data.tobytes()
