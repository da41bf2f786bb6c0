"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tensor` wraps a numpy array and remembers the primitive that
produced it. Calling :meth:`Tensor.backward` on a scalar walks the recorded
graph in reverse topological order, accumulating gradients on every leaf
created with ``requires_grad=True``. Gradients of a parameter used several
times accumulate by addition.

The binary elementwise primitives (add, sub, mul, div) broadcast as numpy
does between operands of equal rank: an axis of size 1 stretches to match
the other side, so an (n, 1) column scales the rows of an (n, m) matrix and
an (n, 1) column plus a (1, m) row gives an (n, m) table. Operands of
different rank are accepted only when the lower-rank one is a scalar or
equals the other's trailing axes, such as a (m,) row against an (n, m)
matrix. Anything else raises, (n,) against (n, 1) included, which catches
most shape bugs in the d+1-dimensional bookkeeping this package does. The
backward pass sums a broadcast gradient back onto each operand's shape.

The model's own ``matmul`` calls are 2-D, on the packed (N, d) node rows of
a batch. ``matmul`` also takes a (B, n, d+1) batch against a batch, a shared
matrix or a vector: the reference chains in ``tests/test_fused_maps.py``
are built from those forms. ``transpose`` swaps the last two axes,
``softmax_rows`` normalises over the last axis at any rank, and
``take_rows`` gathers by an index array of any shape. The primitives that
only those reference chains use (neg, sqrt, exp, log, cosh, sinh, arcosh,
clamp, softplus, concat, reshape) are built on ``primitive`` in
``tests/ref_ops.py``; each op of ``hcgr.manifold`` is one ``primitive``
node with a hand-written backward.

A tensor is indexed by integers and slices only; an index array raises, and
``take_rows`` gathers rows by one, adding the gradients of repeated rows.
Indexing a tensor with a basic slice (``X[..., 1:]``) and transposing a 2-D
tensor return views of its data rather than copies. Nothing may write into
a node's ``.data`` in place while a graph that uses it is alive; the
optimizer updates parameters only after backward. A primitive may compute
in place only over arrays it allocated itself, as ``softmax_in_place`` does
over the copy ``softmax_rows`` makes; it never overwrites an input, a
parent's ``.data`` or a gradient it receives.

Every primitive checks its forward value for NaN/Inf and raises
:class:`NumericError` naming the offending operation, so numerical blowups
surface where they happen rather than as a garbage loss.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "NumericError",
    "no_grad",
    "as_tensor",
    "constant",
    "primitive",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "transpose",
    "take_rows",
    "tsum",
    "softmax_rows",
    "softmax_in_place",
    "sigmoid",
    "relu",
    "leaky_relu",
]


class NumericError(ArithmeticError):
    """A primitive produced a NaN or Inf forward value."""


_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (pure forward math)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """Dense float64 array plus the bookkeeping needed for backward."""

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "_mark", "_gacc")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._backward = None
        self._parents = ()
        self._mark = 0
        self._gacc = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def backward(self):
        """Accumulate d(self)/d(leaf) into every requires_grad leaf."""
        if self.data.shape != ():
            raise ValueError("backward requires a scalar tensor")
        _run_backward(self)

    def __getitem__(self, key):
        return _getitem(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(value) -> Tensor:
    """Wrap a number or array as a constant Tensor (pass-through for Tensors)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def constant(value) -> Tensor:
    return Tensor(np.asarray(value, dtype=np.float64))


def _node(out_data: np.ndarray, name: str, parents, backward_fn) -> Tensor:
    # a single reduction is much cheaper than isfinite().all(); any NaN/Inf
    # entry makes the sum non-finite (two infinities of opposite sign give NaN).
    # np.add.reduce skips the Python wrapper of ndarray.sum, a measurable
    # share of the cost on the small arrays of a one-session forward.
    if not math.isfinite(np.add.reduce(out_data, axis=None)):
        raise NumericError(f"non-finite values produced by '{name}'")
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out._mark = 0
    out._gacc = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def primitive(out_data: np.ndarray, name: str, parents, backward_fn) -> Tensor:
    """Record an operation computed outside this module as one node.

    ``out_data`` is its forward value and ``backward_fn(g)`` returns a
    (parent, gradient) pair per parent, as the primitives below do; the
    value gets the same non-finite check.
    """
    return _node(out_data, name, parents, backward_fn)


_mark_counter = 0


def _run_backward(root: Tensor):
    """Topologically order the graph under ``root`` and push gradients back
    into the ``.grad`` of every requires_grad leaf. Iterative DFS:
    session-length forward chains overflow the recursion limit otherwise.
    Gradient accumulators live on the nodes and are cleared as soon as a node
    is processed; a leaf's share is added straight into its ``.grad``, so a
    row gather's sparse gradient (``_RowGrad``) reaches a catalog-sized
    table as one ``np.add.at``.
    """
    global _mark_counter
    _mark_counter += 1
    mark = _mark_counter

    topo: list[Tensor] = []
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if node._mark == mark:
            continue
        node._mark = mark
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and p._mark != mark:
                stack.append((p, False))

    root._gacc = np.ones_like(root.data)
    for node in reversed(topo):
        g = node._gacc
        node._gacc = None
        if g is None:
            continue
        if node._backward is None:
            node.grad += g
            continue
        for parent, pg in node._backward(g):
            if not parent.requires_grad:
                continue
            if parent._backward is None:  # a leaf owns its .grad: add in place
                if type(pg) is _RowGrad:
                    np.add.at(parent.grad, pg.idx, pg.g)
                else:
                    parent.grad += pg
                continue
            if type(pg) is _RowGrad:
                pg = pg.dense(parent.data.shape)
            acc = parent._gacc
            # rebind instead of += : backward closures may hand the same
            # array (or views of one) to several parents
            parent._gacc = pg if acc is None else acc + pg


# -- broadcasting helpers ----------------------------------------------


def _binary_shapes(a: Tensor, b: Tensor, name: str):
    sa, sb = a.data.shape, b.data.shape
    if sa == sb or sa == () or sb == ():
        return
    na, nb = len(sa), len(sb)
    if na == nb:
        if all(x == y or x == 1 or y == 1 for x, y in zip(sa, sb)):
            return
    elif na < nb:
        if sb[nb - na :] == sa:
            return
    elif sa[na - nb :] == sb:
        return
    raise ValueError(f"shape mismatch in '{name}': {sa} vs {sb}")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient over the leading axes the operand lacks and
    over the operand's size-1 axes."""
    if grad.shape == shape:
        return grad
    lead = grad.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n == 1)
    return grad.sum(axis=axes, keepdims=True).reshape(shape)


# -- elementwise binary primitives ---------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "add")

    def back(g):
        return ((a, _unbroadcast(g, a.data.shape)), (b, _unbroadcast(g, b.data.shape)))

    return _node(a.data + b.data, "add", (a, b), back)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "sub")

    def back(g):
        return ((a, _unbroadcast(g, a.data.shape)), (b, _unbroadcast(-g, b.data.shape)))

    return _node(a.data - b.data, "sub", (a, b), back)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "mul")

    def back(g):
        return (
            (a, _unbroadcast(g * b.data, a.data.shape)),
            (b, _unbroadcast(g * a.data, b.data.shape)),
        )

    return _node(a.data * b.data, "mul", (a, b), back)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "div")

    def back(g):
        return (
            (a, _unbroadcast(g / b.data, a.data.shape)),
            (b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)),
        )

    return _node(a.data / b.data, "div", (a, b), back)


# -- linear algebra ------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product of 1-D, 2-D or batched 3-D operands, as numpy's matmul.

    Besides any pair of 1-D and 2-D operands, a (B, n, m) batch takes a
    (B, m, p) batch, an (m, p) matrix or an (m,) vector shared by the batch.
    """
    a, b = as_tensor(a), as_tensor(b)
    da, db = a.data, b.data
    if da.ndim not in (1, 2, 3) or db.ndim not in (1, 2, 3):
        raise ValueError("matmul requires 1-D, 2-D or 3-D operands")
    inner = db.shape[0] if db.ndim == 1 else db.shape[-2]
    if da.shape[-1] != inner or (db.ndim == 3 and da.shape[:-2] != db.shape[:-2]):
        raise ValueError(f"shape mismatch in 'matmul': {da.shape} @ {db.shape}")

    def back(g):
        ga = np.multiply.outer(g, db) if db.ndim == 1 else g @ np.swapaxes(db, -1, -2)
        if db.ndim == 3:
            gb = np.swapaxes(da, -1, -2) @ g
        else:  # b is shared by every row of a, so its gradient sums over them
            a2, g2 = da.reshape(-1, inner), g.reshape((-1,) + db.shape[1:])
            # the gradient of a transposed view is built transposed, so that
            # it transposes back to a contiguous array
            gb = (g2.T @ a2).T if db.ndim == 2 and not db.flags.c_contiguous else a2.T @ g2
        return ((a, ga), (b, gb))

    return _node(da @ db, "matmul", (a, b), back)


def transpose(a) -> Tensor:
    """Swap the last two axes of a 2-D or batched 3-D tensor.

    A 2-D result is a view of a.data, which BLAS takes as a transposed
    operand, so scoring a batch against the catalog table copies nothing. A
    3-D result is a contiguous copy: numpy's stacked matmul runs slower on
    strided 3-D operands than the copy costs.
    """
    a = as_tensor(a)
    if a.data.ndim not in (2, 3):
        raise ValueError("transpose requires a 2-D or 3-D tensor")

    def back(g):
        return ((a, np.swapaxes(g, -1, -2)),)

    out = np.swapaxes(a.data, -1, -2)
    return _node(out if out.ndim == 2 else out.copy(), "transpose", (a,), back)


def take_rows(a, indices) -> Tensor:
    """Gather rows of a 2-D tensor by an index array of any shape; the result
    has shape indices.shape + (columns,). Duplicate indices accumulate
    gradients."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ValueError("take_rows requires a 2-D tensor")
    idx = np.asarray(indices, dtype=np.intp)

    def back(g):
        return ((a, _RowGrad(idx, g)),)

    return _node(a.data[idx], "take_rows", (a,), back)


class _RowGrad:
    """Gradient of a row gather: the rows of g added at idx into zeros.

    It stays sparse until it reaches its parent, so a leaf such as a
    catalog-sized embedding table takes it with one np.add.at into its
    .grad, without a dense temporary.
    """

    __slots__ = ("idx", "g")

    def __init__(self, idx: np.ndarray, g: np.ndarray):
        self.idx = idx
        self.g = g

    def dense(self, shape) -> np.ndarray:
        out = np.zeros(shape)
        np.add.at(out, self.idx, self.g)
        return out


def _getitem(a: Tensor, key) -> Tensor:
    # an index array would lose repeated rows from the gradient below
    if any(isinstance(k, (list, np.ndarray)) for k in (key if isinstance(key, tuple) else (key,))):
        raise ValueError("a tensor is indexed by integers and slices only; gather rows with take_rows")

    # a basic slice is a view of a.data, not a copy (module docstring)
    def back(g):
        ga = np.zeros(a.data.shape)
        ga[key] += g
        return ((a, ga),)

    return _node(a.data[key], "slice", (a,), back)


# -- reductions ----------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    # the gradient is a read-only broadcast view: backward closures and the
    # accumulation in _run_backward never write into an incoming gradient
    def back(g):
        ge = g if axis is None or keepdims else np.expand_dims(g, axis)
        return ((a, np.broadcast_to(ge, a.data.shape)),)

    return _node(a.data.sum(axis=axis, keepdims=keepdims), "sum", (a,), back)


def softmax_in_place(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis, written over ``z``,
    which the caller must own; returns ``z``.

    It shifts each row by its maximum, exponentiates and divides by the row
    sum: the numpy operations, in their order, of the allocating formula
    ``e = exp(z - max); e / sum(e)``, so the bytes are that formula's.
    """
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def softmax_rows(a) -> Tensor:
    """Numerically stable softmax along the last axis, at any rank >= 1,
    computed in place over a copy of the input, its one output array."""
    a = as_tensor(a)
    if a.data.ndim == 0:
        raise ValueError("softmax_rows requires at least one axis")
    y = softmax_in_place(a.data.copy(order="K"))

    def back(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((a, y * (g - dot)),)

    return _node(y, "softmax_rows", (a,), back)


# -- elementwise unary primitives -----------------------------------------


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    y = 1.0 / (1.0 + np.exp(-a.data))

    def back(g):
        return ((a, g * y * (1.0 - y)),)

    return _node(y, "sigmoid", (a,), back)


def relu(a) -> Tensor:
    a = as_tensor(a)

    def back(g):
        return ((a, g * (a.data > 0)),)

    return _node(np.maximum(a.data, 0.0), "relu", (a,), back)


def leaky_relu(a, alpha: float = 0.2) -> Tensor:
    a = as_tensor(a)

    def back(g):
        return ((a, np.where(a.data > 0, g, alpha * g)),)

    return _node(np.where(a.data > 0, a.data, alpha * a.data), "leaky_relu", (a,), back)
