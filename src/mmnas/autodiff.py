"""Reverse-mode automatic differentiation over dense float64 tensors.

Define-by-run tape: every operation whose operands touch a live ``Tape``
records one node (op name, parent node ids, backward closure). A tape is
rebuilt for every forward pass and owned by a single thread; tensors are
immutable values and safe to share. Backward closures capture arrays and
shapes, never tensors: a tensor refers to its tape, so capturing one would
make a reference cycle, and every finished tape would wait for the cycle
collector instead of being freed when its last reference goes.

Primitives: matmul, transpose, add, subtract, elementwise multiply/divide,
relu, sigmoid, tanh, softmax over an axis, concat over an axis, mean, sum,
scalar multiply, L2 norm, log, exp, basic slicing; and ``linear``, the
affine layer ``x @ W + b`` as one node (every projection, cell-output, head
and classifier layer). ``weighted_sum`` computes the value of a softmax
mixture of the search space on plain arrays. Elementwise ops follow numpy
broadcasting; the backward pass sum-reduces gradients over broadcast axes.

Every op records its node through ``fused(op, operands, value, backward)``,
and so do the composites whose caller computes the value and the
closed-form gradient itself: the contrastive loss
(``contrastive.ntxent_loss``), the classifier's sigmoid cross entropy
(``pipeline.bce_with_logits``), each step of the derived encoder
(``searchspace.primitive_node``) and the search space's cell-input slots
and mixed steps (``searchspace.mixed_cell_input``, ``mixed_step``). Its
contract:
- ``operands`` are tensors or raw arrays; one may appear more than once.
  A raw array is wrapped as a constant, with one finiteness check.
- An operand's parent entry is its node id, or None when it is off the
  tape.
- ``backward(g)`` returns one gradient per operand, in order, and None
  where no gradient is needed. ``Tape.backward`` skips a None parent or
  gradient, and adds a repeated operand's gradients in list order.
- The output is checked for finiteness once, and the error names ``op``.
  With no operand on a tape, the value comes back as a constant.

Parameters enter a tape as named leaves: ``Tape.leaf`` registers one array,
and ``Tape.leaves`` registers every view of one flat parameter vector
(``util.flat_views``) with one finiteness check of the vector;
``constants`` wraps such views off the tape the same way.
``Gradients.flat`` gathers their gradients back into one vector of the
same layout, which an optimizer steps whole (``optim``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "Gradients",
    "AutodiffError",
    "NonFiniteError",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "linear",
    "transpose",
    "relu",
    "sigmoid",
    "stable_sigmoid",
    "tanh",
    "softmax",
    "concat",
    "mean",
    "tsum",
    "scale",
    "l2norm",
    "log",
    "exp",
    "getitem",
    "weighted_sum",
    "fused",
    "constant",
    "constants",
]


class AutodiffError(ValueError):
    """Raised for structural misuse: shape mismatch, bad root, mixed tapes."""


class NonFiniteError(FloatingPointError):
    """Raised when an op produces NaN or Inf; message names the op."""


def _asarray(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


class Tensor:
    """Dense float64 value, optionally attached to a gradient tape.

    ``data`` is row-major float64; ``node_id`` is the handle into the tape
    that produced this value (None for plain constants).
    """

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, tape: "Tape | None" = None, node_id: int | None = None):
        self.data = _asarray(data)
        if not np.isfinite(self.data).all():
            raise NonFiniteError("tensor literal contains NaN or Inf")
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, on_tape={self.tape is not None})"

    # operator sugar for ``add`` and ``getitem``; every other op is called by name
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __getitem__(self, key):
        return getitem(self, key)


def _checked_tensor(value, tape: "Tape | None" = None, node_id: int | None = None) -> Tensor:
    """Wrap an op output whose finiteness the op already checked."""
    out = Tensor.__new__(Tensor)
    out.data = value if type(value) is np.ndarray and value.dtype == np.float64 else _asarray(value)
    out.tape = tape
    out.node_id = node_id
    return out


def constant(value) -> Tensor:
    """Wrap a value as an off-tape constant (no gradient flows into it)."""
    return Tensor(value)


class _Node:
    __slots__ = ("op", "parents", "backward_fn")

    def __init__(self, op, parents, backward_fn):
        self.op = op
        self.parents = parents
        self.backward_fn = backward_fn


class Gradients:
    """Result of ``Tape.backward``: node id -> gradient array.

    Leaves the root never reached get an all-zero gradient of their shape.
    """

    def __init__(self, grads: dict, tape: "Tape"):
        self._grads = grads
        self._tape = tape

    def of(self, tensor: Tensor) -> np.ndarray:
        if tensor.tape is not self._tape or tensor.node_id is None:
            raise AutodiffError("tensor is not on the tape these gradients came from")
        g = self._grads.get(tensor.node_id)
        if g is None:
            return np.zeros(tensor.data.shape, dtype=np.float64)
        return g

    def flat(self, leaves: dict) -> np.ndarray:
        """The gradients of ``leaves`` (from ``Tape.leaves``), flattened and
        concatenated in order: the gradient vector of their flat vector."""
        return np.concatenate([self.of(t) for t in leaves.values()], axis=None)


class Tape:
    """Ordered op recording; inputs always precede their consumers."""

    def __init__(self):
        self._nodes: list[_Node] = []

    def __len__(self):
        return len(self._nodes)

    def leaf(self, value, name: str | None = None) -> Tensor:
        """Register a differentiable leaf (a parameter) on the tape."""
        op = f"leaf:{name}" if name else "leaf"
        arr = _finite(op, value)
        self._nodes.append(_Node(op, (), None))
        return _checked_tensor(arr, self, len(self._nodes) - 1)

    def leaves(self, views: dict, flat: np.ndarray) -> dict:
        """Register every view of ``flat`` (``util.flat_views``) as a named leaf.

        One finiteness check of ``flat`` stands for the per-leaf checks of
        ``leaf``. On failure it raises the ``NonFiniteError`` that ``leaf``
        raises for the first non-finite view, and records no node.
        Returns name -> leaf, in the order of ``views``; each leaf's data is
        its view itself, not a copy.
        """
        _check_views(views, flat)
        out = {}
        for name, v in views.items():
            out[name] = _checked_tensor(v, self, len(self._nodes))
            self._nodes.append(_Node(f"leaf:{name}", (), None))
        return out

    def backward(self, root: Tensor) -> Gradients:
        """Accumulate d(root)/d(node) for every node reachable from root."""
        if root.tape is not self or root.node_id is None:
            raise AutodiffError("backward root is not on this tape")
        if root.data.size != 1:
            raise AutodiffError(f"backward root must be scalar, got shape {root.data.shape}")
        grads: dict[int, np.ndarray] = {
            root.node_id: np.ones(root.data.shape, dtype=np.float64)
        }
        for node_id in range(root.node_id, -1, -1):
            g = grads.get(node_id)
            if g is None:
                continue
            node = self._nodes[node_id]
            if node.backward_fn is None:
                continue
            parent_grads = node.backward_fn(g)
            for pid, pg in zip(node.parents, parent_grads):
                if pid is None or pg is None:
                    continue
                acc = grads.get(pid)
                grads[pid] = pg if acc is None else acc + pg
        return Gradients(grads, self)


def _check_views(views: dict, flat: np.ndarray) -> None:
    if not np.isfinite(flat).all():
        bad = next(k for k, v in views.items() if not np.isfinite(v).all())
        raise NonFiniteError(f"leaf:{bad}: non-finite output")


def constants(views: dict, flat: np.ndarray) -> dict:
    """Every view of ``flat`` as an off-tape constant, name -> tensor.

    Like ``Tape.leaves``, one finiteness check of ``flat`` names the first
    non-finite view; no op then scans the views again when it reads them.
    """
    _check_views(views, flat)
    return {name: _checked_tensor(v) for name, v in views.items()}


def _coerce(operands) -> list[Tensor]:
    """Wrap raw operands as constants, each with one finiteness check."""
    return [a if isinstance(a, Tensor) else Tensor(a) for a in operands]


def _finite(op: str, value) -> np.ndarray:
    value = _asarray(value)
    if not np.isfinite(value).all():
        raise NonFiniteError(f"{op}: non-finite output")
    return value


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum-reduce a gradient over the axes numpy broadcast during forward."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    ta, tb = _coerce((a, b))
    try:
        out = ta.data + tb.data
    except ValueError as e:
        raise AutodiffError(f"add: shape mismatch {ta.shape} + {tb.shape}") from e
    sa, sb = ta.shape, tb.shape
    return fused("add", (ta, tb), out, lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a, b) -> Tensor:
    ta, tb = _coerce((a, b))
    try:
        out = ta.data - tb.data
    except ValueError as e:
        raise AutodiffError(f"sub: shape mismatch {ta.shape} - {tb.shape}") from e
    sa, sb = ta.shape, tb.shape
    return fused("sub", (ta, tb), out, lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a, b) -> Tensor:
    ta, tb = _coerce((a, b))
    try:
        out = ta.data * tb.data
    except ValueError as e:
        raise AutodiffError(f"mul: shape mismatch {ta.shape} * {tb.shape}") from e
    da, db = ta.data, tb.data
    return fused("mul", (ta, tb), out,
                 lambda g: (_unbroadcast(g * db, da.shape), _unbroadcast(g * da, db.shape)))


def div(a, b) -> Tensor:
    ta, tb = _coerce((a, b))
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = ta.data / tb.data
    except ValueError as e:
        raise AutodiffError(f"div: shape mismatch {ta.shape} / {tb.shape}") from e
    da, db = ta.data, tb.data
    return fused("div", (ta, tb), out,
                 lambda g: (_unbroadcast(g / db, da.shape), _unbroadcast(-g * da / (db * db), db.shape)))


def neg(a) -> Tensor:
    (ta,) = _coerce((a,))
    return fused("neg", (ta,), -ta.data, lambda g: (-g,))


def scale(a, c: float) -> Tensor:
    """Multiply by a plain python scalar (not differentiable w.r.t. c)."""
    (ta,) = _coerce((a,))
    c = float(c)
    return fused("scale", (ta,), ta.data * c, lambda g: (g * c,))


def matmul(a, b) -> Tensor:
    ta, tb = _coerce((a, b))
    if ta.data.ndim != 2 or tb.data.ndim != 2:
        raise AutodiffError(
            f"matmul: expects 2-D operands, got {ta.shape} @ {tb.shape}"
        )
    if ta.data.shape[1] != tb.data.shape[0]:
        raise AutodiffError(f"matmul: inner dims differ {ta.shape} @ {tb.shape}")
    da, db = ta.data, tb.data
    return fused("matmul", (ta, tb), da @ db, lambda g: (g @ db.T, da.T @ g))


def linear(x, w, b) -> Tensor:
    """Affine layer ``x @ w + b`` as one node, for a 1-D bias ``b``.

    The backward pass gives ``(g @ w.T, x.T @ g, g.sum(axis=0))``, bitwise
    what ``add(matmul(x, w), b)`` gives; a gradient whose operand is off
    the tape is not computed.
    """
    tx, tw, tb = _coerce((x, w, b))
    if tx.data.ndim != 2 or tw.data.ndim != 2:
        raise AutodiffError(f"linear: expects 2-D input and weight, got {tx.shape} @ {tw.shape}")
    if tx.data.shape[1] != tw.data.shape[0]:
        raise AutodiffError(f"linear: inner dims differ {tx.shape} @ {tw.shape}")
    if tb.data.shape != (tw.data.shape[1],):
        raise AutodiffError(f"linear: bias of shape {tb.shape} for weight of shape {tw.shape}")
    dx, dw = tx.data, tw.data
    need_x, need_w, need_b = (t.node_id is not None for t in (tx, tw, tb))

    def bwd(g):
        return (
            g @ dw.T if need_x else None,
            dx.T @ g if need_w else None,
            g.sum(axis=0) if need_b else None,
        )

    return fused("linear", (tx, tw, tb), dx @ dw + tb.data, bwd)


def transpose(a) -> Tensor:
    (ta,) = _coerce((a,))
    if ta.data.ndim != 2:
        raise AutodiffError(f"transpose: expects 2-D, got {ta.shape}")
    return fused("transpose", (ta,), ta.data.T.copy(), lambda g: (g.T,))


def relu(a) -> Tensor:
    (ta,) = _coerce((a,))
    mask = ta.data > 0.0
    return fused("relu", (ta,), ta.data * mask, lambda g: (g * mask,))


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of an array, from ``exp(-|x|)`` so neither tail overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a) -> Tensor:
    (ta,) = _coerce((a,))
    out = stable_sigmoid(ta.data)
    return fused("sigmoid", (ta,), out, lambda g: (g * out * (1.0 - out),))


def tanh(a) -> Tensor:
    (ta,) = _coerce((a,))
    out = np.tanh(ta.data)
    return fused("tanh", (ta,), out, lambda g: (g * (1.0 - out * out),))


def softmax(a, axis: int = -1) -> Tensor:
    (ta,) = _coerce((a,))
    if ta.data.ndim == 0:
        raise AutodiffError("softmax: scalar input has no axis")
    try:
        shifted = ta.data - np.max(ta.data, axis=axis, keepdims=True)
    except np.exceptions.AxisError as e:
        raise AutodiffError(f"softmax: invalid axis {axis} for shape {ta.shape}") from e
    e = np.exp(shifted)
    out = e / np.sum(e, axis=axis, keepdims=True)

    def bwd(g):
        inner = np.sum(g * out, axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return fused("softmax", (ta,), out, bwd)


def concat(parts, axis: int = 0) -> Tensor:
    parts = list(parts)
    if not parts:
        raise AutodiffError("concat: empty input list")
    tensors = _coerce(parts)
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as e:
        raise AutodiffError(f"concat: incompatible shapes {[t.shape for t in tensors]}") from e
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        pieces = []
        for i in range(len(sizes)):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(g[tuple(idx)])
        return tuple(pieces)

    return fused("concat", tuple(tensors), out, bwd)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    (ta,) = _coerce((a,))
    out = np.sum(ta.data, axis=axis, keepdims=keepdims)
    shape = ta.data.shape

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return fused("sum", (ta,), np.asarray(out, dtype=np.float64), bwd)


def mean(a) -> Tensor:
    """The mean of every entry, as a 0-d tensor."""
    (ta,) = _coerce((a,))
    shape, count = ta.data.shape, ta.data.size
    return fused("mean", (ta,), np.asarray(np.mean(ta.data), dtype=np.float64),
                 lambda g: (np.broadcast_to(g / count, shape).copy(),))


def l2norm(a, axis=None, keepdims: bool = False) -> Tensor:
    (ta,) = _coerce((a,))
    da = ta.data
    out = np.sqrt(np.sum(da * da, axis=axis, keepdims=keepdims))

    def bwd(g):
        n = out if keepdims or axis is None else np.expand_dims(out, axis)
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (gg * da / n,)

    return fused("l2norm", (ta,), np.asarray(out, dtype=np.float64), bwd)


def log(a) -> Tensor:
    (ta,) = _coerce((a,))
    da = ta.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(da)
    return fused("log", (ta,), out, lambda g: (g / da,))


def exp(a) -> Tensor:
    (ta,) = _coerce((a,))
    with np.errstate(over="ignore"):
        out = np.exp(ta.data)
    return fused("exp", (ta,), out, lambda g: (g * out,))


def getitem(a, key) -> Tensor:
    """Basic (non-fancy) slicing; backward scatters into a zero array."""
    (ta,) = _coerce((a,))
    out = ta.data[key]
    shape = ta.data.shape

    def bwd(g):
        full = np.zeros(shape, dtype=np.float64)
        full[key] = g
        return (full,)

    return fused("slice", (ta,), np.asarray(out, dtype=np.float64), bwd)


def weighted_sum(parts: list, c) -> np.ndarray:
    """``sum_p c[p] * parts[p]`` of arrays, summed left to right: the value of a
    softmax mixture (``searchspace.mixed_cell_input`` and ``mixed_step``)."""
    c = c.tolist()  # python floats: the same float64 products, with less call overhead
    out = parts[0] * c[0]
    for d, cp in zip(parts[1:], c[1:]):
        out += d * cp
    return out


def fused(op: str, operands, value, backward) -> Tensor:
    """Record one node whose ``value`` and ``backward`` the caller computed,
    under the contract in the module docstring; all ``operands`` on a tape
    must be on the same one."""
    tape, parents = None, []
    for t in _coerce(operands):
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise AutodiffError("operands live on different tapes")
        parents.append(t.node_id)
    value = _finite(op, value)
    if tape is None:
        return _checked_tensor(value)
    tape._nodes.append(_Node(op, tuple(parents), backward))
    return _checked_tensor(value, tape, len(tape._nodes) - 1)
