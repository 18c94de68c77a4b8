import math

import numpy as np
import pytest

from survcontrast import autodiff as ad
from survcontrast.autodiff import Tensor


# ---------------------------------------------------------------------------
# pre-fusion forms of the fused ops, kept as oracles
# ---------------------------------------------------------------------------

def linear_composite(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def sigmoid_masked(a):
    """The sigmoid with boolean masks for the two signs (the pre-fusion code)."""
    x = a.values
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    inside = (out > ad.SIGMOID_LO) & (out < ad.SIGMOID_HI)
    out = np.clip(out, ad.SIGMOID_LO, ad.SIGMOID_HI)
    return ad._make(out, (a,), (lambda g: g * inside * out * (1.0 - out),))


def test_matmul_identity():
    m = Tensor([[3.0, -1.0], [2.5, 7.0]])
    eye = Tensor(np.eye(2))
    out = ad.matmul(eye, m)
    np.testing.assert_array_equal(out.values, m.values)


def test_matmul_hand_product():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0], [6.0]])
    out = ad.matmul(a, b)
    np.testing.assert_array_equal(out.values, [[17.0], [39.0]])


def test_matmul_zero_annihilates():
    z = Tensor(np.zeros((2, 2)))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(ad.matmul(z, m).values, np.zeros((2, 2)))


def test_matmul_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_backward():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    b = Tensor([[5.0], [6.0]], requires_grad=True)
    ad.backward(ad.reduce_sum(ad.matmul(a, b)))
    # d sum(a@b) / da = ones @ b.T, / db = a.T @ ones
    np.testing.assert_allclose(a.grad, [[5.0, 6.0], [5.0, 6.0]])
    np.testing.assert_allclose(b.grad, [[4.0], [6.0]])


def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor([[0.0]])).item() == 0.5


SIGMOID_EDGES = [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 40.0, -40.0, 5e-324, -5e-324, 800.0, -800.0, 15.9, -16.2]


@pytest.mark.parametrize("shape", [(1, len(SIGMOID_EDGES)), (64, 30), (512, 30)])
def test_sigmoid_bitwise_equals_masked_form(shape):
    rng = np.random.default_rng(shape[0])
    x = np.array([SIGMOID_EDGES]) if shape[0] == 1 else rng.standard_cauchy(size=shape) * 5.0
    g = rng.normal(size=shape)
    with np.errstate(invalid="ignore"):
        got, want = ad.sigmoid(Tensor(x, requires_grad=True)), sigmoid_masked(Tensor(x, requires_grad=True))
        assert got.values.tobytes() == want.values.tobytes()
        assert got._pulls[0](g).tobytes() == want._pulls[0](g).tobytes()


def test_joint_node_pulls_once_per_backward():
    x = Tensor([[1.0, -2.0]], requires_grad=True)
    y = Tensor([[3.0, 0.5]], requires_grad=True)
    calls = []

    def pull_all(g):  # d(x * y): y g for x, x g for y
        calls.append(g)
        return g * y.values, g * x.values

    loss = ad.reduce_sum(ad._make_joint(x.values * y.values, (x, y), pull_all))
    grads = []
    # the same root twice, then another root over the same node
    for root in (loss, loss, ad.scale(loss, 3.0)):
        ad.zero_grads([x, y])
        ad.backward(root)
        grads.append((x.grad.copy(), y.grad.copy()))
    assert len(calls) == 3
    for got, k in zip(grads, (1.0, 1.0, 3.0)):
        np.testing.assert_array_equal(got[0], [[3.0 * k, 0.5 * k]])
        np.testing.assert_array_equal(got[1], [[1.0 * k, -2.0 * k]])


def test_log_exp_inverse_pair():
    xs = np.linspace(-10, 10, 41).reshape(1, -1)
    out = ad.log(ad.exp(Tensor(xs)))
    np.testing.assert_allclose(out.values, xs, atol=1e-12)


def test_sigmoid_derivative_at_zero():
    x = Tensor([[0.0]], requires_grad=True)
    ad.backward(ad.sigmoid(x))
    assert abs(x.grad[0, 0] - 0.25) < 1e-15


def test_sigmoid_saturation_clamped():
    out = ad.sigmoid(Tensor([[500.0, -500.0]]))
    assert out.values[0, 0] == 1.0 - 1e-7
    assert out.values[0, 1] == 1e-7


def test_log_floor_no_nan(caplog):
    with caplog.at_level("WARNING"):
        out = ad.log(Tensor([[0.0, -3.0]]))
    assert np.all(np.isfinite(out.values))
    assert "clamped" in caplog.text


def test_reduce_sum():
    assert ad.reduce_sum(Tensor([[1.0, 2.0, 3.0]])).item() == 6.0


def test_reduce_empty_errors():
    with pytest.raises(ad.ShapeError):
        ad.reduce_sum(Tensor(np.zeros((1, 0))))


def test_logsumexp_single_element():
    assert ad.logsumexp(Tensor([[4.25]])).item() == pytest.approx(4.25, abs=0)


def test_logsumexp_stabilized():
    out = ad.logsumexp(Tensor([[1000.0, 1000.0]]))
    assert out.item() == pytest.approx(1000.0 + math.log(2.0), rel=1e-15)


def test_logsumexp_axis_and_backward():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    out = ad.reduce_sum(ad.logsumexp(x, axis=1))
    ad.backward(out)
    # gradient rows are softmax of each row
    expected = np.exp(x.values - x.values.max(axis=1, keepdims=True))
    expected /= expected.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(x.grad, expected, rtol=1e-12)


def test_backward_square():
    x = Tensor([[3.0]], requires_grad=True)
    ad.backward(ad.mul(x, x))
    assert x.grad[0, 0] == 6.0


def test_backward_constant_path():
    # a graph built purely from constants tracks no gradients at all
    x = Tensor([[3.0]], requires_grad=True)
    loss = ad.mul(ad.add(ad.constant([[1.0]]), ad.constant([[2.0]])), ad.constant([[5.0]]))
    assert not loss.requires_grad
    ad.backward(loss)
    assert np.all(x.grad == 0.0)


def test_backward_keeps_gradients_on_leaves_only():
    w = Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
    x = ad.constant([[2.0, 1.0]])
    loss = ad.reduce_sum(ad.mul(ad.matmul(x, w), ad.matmul(x, w)))
    tape = ad.backward(loss)
    assert all(node.grad is None for node in tape if node._parents)
    # d/dw sum((x w)^2) = 2 x^T (x w), with x w = [2.5, -1]
    np.testing.assert_array_equal(w.grad, [[10.0, -4.0], [5.0, -2.0]])
    assert x.grad is None


def test_backward_fanout_accumulates():
    x = Tensor([[3.0]], requires_grad=True)
    ad.backward(ad.add(x, x))
    assert x.grad[0, 0] == 2.0


def test_backward_requires_scalar_root():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    with pytest.raises(ad.ShapeError):
        ad.backward(ad.scale(x, 2.0))


def test_shared_subexpression_equals_expanded():
    # y = (x*x) + (x*x) via a shared node vs. two independent products
    x1 = Tensor([[1.5, -2.0]], requires_grad=True)
    sq = ad.mul(x1, x1)
    ad.backward(ad.reduce_sum(ad.add(sq, sq)))

    x2 = Tensor([[1.5, -2.0]], requires_grad=True)
    ad.backward(ad.reduce_sum(ad.add(ad.mul(x2, x2), ad.mul(x2, x2))))

    np.testing.assert_array_equal(x1.grad, x2.grad)


def test_tape_topological_order():
    x = Tensor([[2.0]], requires_grad=True)
    y = ad.mul(ad.add(x, x), ad.exp(x))
    tape = ad.trace(y)
    pos = {id(n): i for i, n in enumerate(tape)}
    for node in tape:
        for parent in node._parents:
            assert pos[id(parent)] < pos[id(node)]


def test_forward_bit_identical():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 4))
    b = rng.normal(size=(4, 3))

    def run():
        return ad.sigmoid(ad.matmul(Tensor(a), Tensor(b))).values

    first = run()
    for _ in range(3):
        np.testing.assert_array_equal(run(), first)


def test_grad_check_quadratic():
    theta = Tensor([[0.7, -1.2, 0.4]], requires_grad=True)

    def f():
        return ad.reduce_sum(ad.mul(theta, theta))

    assert ad.grad_check(f, theta) < 1e-9


def test_grad_check_broadcast_ops():
    rng = np.random.default_rng(1)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    bias = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    colw = Tensor(rng.normal(size=(3, 1)) + 2.0, requires_grad=True)
    x = ad.constant(rng.normal(size=(3, 4)))

    def f():
        h = ad.add(ad.mul(w, x), bias)
        h = ad.div(h, colw)
        h = ad.sub(h, ad.scale(bias, 0.3))
        return ad.reduce_mean(ad.mul(h, h))

    assert ad.grad_check(f, [w, bias, colw]) < 1e-7


def test_grad_check_mixed_graph():
    rng = np.random.default_rng(2)
    w = Tensor(rng.normal(scale=0.5, size=(4, 3)), requires_grad=True)
    x = ad.constant(rng.normal(size=(5, 4)))

    def f():
        h = ad.relu(ad.matmul(x, w))
        z = ad.sigmoid(ad.transpose(h))
        s = ad.logsumexp(ad.sqrt(ad.add(ad.mul(z, z), ad.constant(np.full(z.shape, 0.1)))), axis=0)
        return ad.reduce_mean(ad.log(ad.exp(s)))

    assert ad.grad_check(f, w) < 1e-6
