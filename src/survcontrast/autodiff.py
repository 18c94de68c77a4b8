"""Minimal reverse-mode automatic differentiation over dense 2-D float64 arrays.

Just enough machinery for MLP forward passes and the loss functions in this
package: matmul, broadcasting elementwise ops, reductions (including a
stabilized logsumexp), and a tape-based backward pass that calls each node's
one pullback once. The graph is rebuilt on every forward pass
(define-by-run), because the losses have data-dependent structure such as
per-batch comparability masks.

Tensors that are not part of an active graph are safe for concurrent reads;
a graph (tape) is single-owner and must be built and differentiated on one
logical thread. The work buffers ``losses`` reuses do not change that: each
thread has its own, and a buffer a live graph still reads is never handed
out again.
"""

from __future__ import annotations

import logging
import math
from typing import Callable, Sequence

import numpy as np

logger = logging.getLogger(__name__)

LOG_FLOOR = 1e-12
SIGMOID_LO = 1e-7
SIGMOID_HI = 1.0 - 1e-7


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class Tensor:
    """A 2-D float64 array plus an optional gradient accumulator.

    ``grad`` exists only on leaves created with ``requires_grad`` and only
    :func:`backward` adds to it. Non-leaf tensors keep their parents
    (``None`` for an untracked one) and one pullback, ``_pull(g)``, which
    returns one gradient per parent in parent order.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_pull")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got ndim={arr.ndim}")
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._parents: tuple[Tensor | None, ...] = ()
        self._pull: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape  # type: ignore[return-value]

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.values[0, 0])


def constant(values) -> Tensor:
    """A no-grad tensor, convenient for masks and fixed coefficients."""
    return Tensor(values, requires_grad=False)


def _make(values: np.ndarray, parents: Sequence[Tensor], pull: Callable) -> Tensor:
    """A node whose ``pull(g)`` returns one gradient per parent, in ``parents``
    order (anything for a parent that is not tracked). The node keeps ``None``
    in place of an untracked parent, so it holds no reference to it."""
    out = Tensor(values)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p if p.requires_grad else None for p in parents)
        out._pull = pull
    return out


def _broadcast_check(a: Tensor, b: Tensor, op: str) -> tuple[int, int]:
    ra, ca = a.shape
    rb, cb = b.shape
    rows = max(ra, rb)
    cols = max(ca, cb)
    for r, c in ((ra, ca), (rb, cb)):
        if (r != rows and r != 1) or (c != cols and c != 1):
            raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")
    return rows, cols


def _unbroadcast(grad: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum gradient contributions over axes that were broadcast."""
    g = grad
    if shape[0] == 1 and g.shape[0] > 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] > 1:
        g = g.sum(axis=1, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# binary elementwise ops (same shape, or broadcasting over a unit axis)
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "add")
    return _make(
        a.values + b.values,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "sub")
    return _make(
        a.values - b.values,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape) * -1.0),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "mul")
    return _make(
        a.values * b.values,
        (a, b),
        lambda g: (_unbroadcast(g * b.values, a.shape), _unbroadcast(g * a.values, b.shape)),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "div")
    bv = b.values
    return _make(
        a.values / bv,
        (a, b),
        lambda g: (_unbroadcast(g / bv, a.shape), _unbroadcast(-g * a.values / (bv * bv), b.shape)),
    )


# ---------------------------------------------------------------------------
# unary elementwise ops
# ---------------------------------------------------------------------------

def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(a.values * c, (a,), lambda g: (g * c,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.values)
    return _make(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    """Natural log with the inputs floored at LOG_FLOOR.

    Non-positive inputs are a caller bug upstream of the floor; they are
    reported through the module logger instead of silently producing NaN.
    The local gradient is zero wherever the floor was active.
    """
    out, clamped, inside = floored_log(a.values)
    return _make(out, (a,), lambda g: (g * inside / clamped,))


def floored_log(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrays behind :func:`log`: ``(log(clamped), clamped, inside)``,
    with ``clamped = max(x, LOG_FLOOR)`` and ``inside = x > LOG_FLOOR``;
    fused ops that take logs call it so that they floor and warn alike."""
    n_bad = int(np.count_nonzero(x <= 0.0))
    if n_bad:
        logger.warning("log() clamped %d non-positive input(s) to %.0e", n_bad, LOG_FLOOR)
    clamped = np.maximum(x, LOG_FLOOR)
    return np.log(clamped), clamped, x > LOG_FLOOR


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.values)
    return _make(out, (a,), lambda g: (g * 0.5 / out,))


def sigmoid(a: Tensor) -> Tensor:
    """Numerically stable logistic, output clamped to [1e-7, 1 - 1e-7].

    The clamp keeps downstream log() calls finite for saturated hazards;
    the gradient is zero on clamped coordinates.
    """
    out, pull = sigmoid_parts(a.values)
    return _make(out, (a,), lambda g: (pull(g),))


def relu(a: Tensor) -> Tensor:
    out, pull = relu_parts(a.values)
    return _make(out, (a,), lambda g: (pull(g),))


def sigmoid_parts(x: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The value and pullback behind :func:`sigmoid`; fused nodes that apply the
    activation (``model.Mlp``) call it, as they call :func:`floored_log`."""
    e = np.exp(np.minimum(x, -x))  # exp(-|x|), never overflows; -abs would flip a NaN's sign bit
    d = 1.0 + e
    out = np.where(x >= 0, 1.0 / d, e / d)
    inside = (out > SIGMOID_LO) & (out < SIGMOID_HI)
    out = np.clip(out, SIGMOID_LO, SIGMOID_HI)
    return out, lambda g: g * inside * out * (1.0 - out)


def relu_parts(x: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The value and pullback behind :func:`relu`, shared like :func:`sigmoid_parts`."""
    pos = x > 0
    # np.maximum (unlike where) propagates NaN instead of hiding it as 0
    return np.maximum(x, 0.0), lambda g: g * pos


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    return _make(
        a.values @ b.values,
        (a, b),
        lambda g: (g @ b.values.T, a.values.T @ g),
    )


def transpose(a: Tensor) -> Tensor:
    return _make(a.values.T.copy(), (a,), lambda g: (g.T,))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _check_axis(a: Tensor, axis) -> None:
    if axis not in (None, 0, 1):
        raise ShapeError(f"axis must be None, 0 or 1, got {axis}")
    if a.values.size == 0:
        raise ShapeError("reduction over an empty tensor")


def reduce_sum(a: Tensor, axis=None) -> Tensor:
    _check_axis(a, axis)
    out = a.values.sum(axis=axis, keepdims=True)
    return _make(out, (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


def reduce_mean(a: Tensor, axis=None) -> Tensor:
    _check_axis(a, axis)
    n = a.values.size if axis is None else a.values.shape[axis]
    return scale(reduce_sum(a, axis), 1.0 / n)


def logsumexp(a: Tensor, axis=None) -> Tensor:
    """log(sum(exp(a))) with max-subtraction so huge inputs do not overflow.

    Backward distributes the incoming gradient by softmax weights.
    """
    _check_axis(a, axis)
    x = a.values
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=axis, keepdims=True)
    soft = e / s
    return _make(m + np.log(s), (a,), lambda g: (g * soft,))


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def trace(root: Tensor) -> list[Tensor]:
    """Collect the graph below ``root`` in topological order (iterative DFS):
    every node's parents appear before the node itself."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p is not None and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Tensor) -> list[Tensor]:
    """Accumulate d(root)/d(leaf) into every reachable leaf's ``grad``.

    ``root`` must be 1x1. Each tape node is visited exactly once; fan-out
    contributions sum by construction, out of place, so a pullback may
    return one array for several parents or an array it still holds.
    Returns the tape.
    """
    if root.values.shape != (1, 1):
        raise ShapeError(f"backward root must be scalar (1x1), got {root.shape}")
    tape = trace(root)
    grads: dict[int, np.ndarray] = {id(root): np.ones((1, 1))}
    for node in reversed(tape):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.grad is not None:
            node.grad += g
        if node._pull is None:
            continue
        for parent, contrib in zip(node._parents, node._pull(g)):
            if parent is None:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = contrib if acc is None else acc + contrib
    return tape


def zero_grads(tensors: Sequence[Tensor]) -> None:
    for t in tensors:
        if t.grad is not None:
            t.grad.fill(0.0)


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor] | Tensor, h: float = 1e-5) -> float:
    """Max relative error between backprop and central finite differences.

    ``f`` rebuilds its graph from the current parameter values on every
    call. Relative error per coordinate is |ad - fd| / max(1, |fd|); a NaN
    on either side is reported as failure (returns +inf).
    """
    if isinstance(params, Tensor):
        params = [params]
    if h <= 0:
        raise ValueError("h must be positive")
    zero_grads(params)
    loss = f()
    backward(loss)
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, ag in zip(params, analytic):
        flat = p.values.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = f().item()
            flat[k] = orig - h
            dn = f().item()
            flat[k] = orig
            fd = (up - dn) / (2.0 * h)
            ad = ag.reshape(-1)[k]
            if math.isnan(fd) or math.isnan(ad):
                logger.warning("grad_check: NaN at coordinate %d", k)
                return math.inf
            worst = max(worst, abs(ad - fd) / max(1.0, abs(fd)))
    return worst
