"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything in this package that learns is built on this module: a Tensor
wraps a numpy array and remembers which operation produced it, backward()
walks that record once in reverse topological order, and gradients land on
the leaves that asked for them. Mlp and Adam live here too, along with the
binary checkpoint format (see docs/checkpoint_format.md) and the
finite-difference gradient oracle used throughout the test suite.

Inside ``no_record()`` no op records its parents or its VJP, so an
inference forward keeps no tape: every intermediate array is freed as
soon as the next op has read it.

``backward(consume=True)``, which training uses, frees the tape as the
walk runs, and a consumed tape refuses a second backward. The default
walk keeps the tape, so a second backward adds the same gradient again.
Both walks add a node's second cotangent in place into one the walk owns,
and linear's VJP overwrites a cotangent the walk owns with its input
gradient (see Tensor.backward), with the bits of out-of-place arithmetic.

Deliberate non-features: no views into shared storage, no in-place ops on
tensors, no higher-order derivatives, no dtypes other than float64.
"""

from __future__ import annotations

import contextlib
import json
import struct
import threading

import numpy as np

from .data import atomic_open
from .errors import ShapeError, ValidationError

CHECKPOINT_SCHEMA_VERSION = 1


def _as_array(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape of the operand it belongs to."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A dense float64 array plus the recipe that produced it.

    Tensors are value-like: operations return new tensors and, but for a
    make_op that takes over a buffer, never mutate their inputs.
    requires_grad propagates through every op, so subgraphs that cannot
    reach a trainable leaf are not recorded at all.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "__weakref__")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_array(values)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self, consume: bool = False) -> None:
        """Accumulate d(self)/d(leaf) into .grad of every reachable leaf.

        self must be a scalar. Intermediate cotangents are kept in a local
        table and discarded, so calling backward twice on the same graph
        adds the same gradient twice (leaves accumulate; they are only
        cleared by zero_grad or by hand).

        With consume=True the walk frees the tape as it goes: it pops
        each node off its order list, and once the node's VJP has run the
        node drops its parents and its VJP. So an intermediate node, its
        forward buffer and the arrays its VJP captured are freed as soon
        as the walk has passed it and all its consumers, unless the
        caller holds the node. Nodes the caller holds keep their data,
        but a later backward through any of them raises ValidationError.

        The walk owns a cotangent it may write into: the root's ones, and
        an array a VJP returned that shares no memory with another of its
        outputs, be it fresh or a view of a g the walk owned. A VJP gets
        its g writeable exactly when the walk owns it, and may then
        overwrite it and return it or views of it; any other g it gets as
        a read-only view, so add's g, handed to both parents, is never
        written. A second cotangent for the same node is added in place
        into one the walk owns, else into a new array. Addition is
        commutative, so the bits are those of a fresh prev + pg.

        take's VJP returns a sparse cotangent, its rows (_Rows). The walk
        adds them into a dense cotangent of the same node when the two
        meet, and builds the zero-filled array they stand for only when
        they are the node's sole cotangent; either way with the bits of
        the zero-filled array's sum.

        Each node's VJP outputs are dropped once they are filed, so no
        cotangent of one node lives on through the next node's VJP unless
        the table still holds it.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {self.data.shape}")
        if not self.requires_grad:
            raise ValidationError("backward on a tensor that depends on no trainable leaf")

        # Iterative postorder. A node is marked seen when it is expanded,
        # not when it is pushed: marking on push can emit a shared node
        # before all of its consumers and silently drop their gradient
        # contributions.
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._vjp is _consumed:
                _consumed()
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        # id -> (cotangent, whether the walk owns it and may write into it)
        cotan = {id(self): (np.ones_like(self.data), True)}
        while order:
            node = order.pop()
            g, owned = cotan.pop(id(node), (None, False))
            if isinstance(g, _Rows):
                g = g.dense()
            elif not owned and isinstance(g, np.ndarray):
                g = g.view()
                g.flags.writeable = False
            if node._vjp is None:
                # leaf: accumulate persistently
                if g is None:
                    continue
                if node.grad is None:
                    node.grad = g.copy()
                else:
                    node.grad = node.grad + g
                continue
            parents = node._parents
            grads = () if g is None else node._vjp(g)
            if consume:
                node._parents, node._vjp = (), _consumed
            for parent, pg, pg_owned in zip(parents, grads, _owned(grads)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                cotan[key] = (pg, pg_owned) if key not in cotan else _sum(*cotan[key], pg, pg_owned)
            # hold no cotangent of this node into the next VJP
            grads = pg = None


def _consumed(g=None):
    """The VJP of a node whose tape backward(consume=True) has freed. The
    walk calls it before it computes any gradient, so none is half added."""
    raise ValidationError("backward through a tape that an earlier backward(consume=True) consumed")


def _writeable(a) -> bool:
    return isinstance(a, np.ndarray) and a.flags.writeable


def _owned(grads) -> list:
    """Per VJP output: may the walk write into it? Only if it is a writeable
    array sharing no memory with another output of the VJP. A g the walk
    does not own reaches the VJP read-only, and so do its views."""
    return [_writeable(pg)
            and not any(isinstance(other, np.ndarray) and j != i and np.may_share_memory(pg, other)
                        for j, other in enumerate(grads))
            for i, pg in enumerate(grads)]


def _sum(a, a_owned: bool, b, b_owned: bool) -> tuple:
    """(a + b, owned) for two cotangents of one node: added in place into
    one the walk owns, else into a new array."""
    if isinstance(a, _Rows):
        a, a_owned, b, b_owned = b, b_owned, a, a_owned
    if isinstance(a, _Rows):
        a, a_owned = a.dense(), True
    if isinstance(b, _Rows):
        return b.added_to(a, a_owned), True
    if a_owned:
        return np.add(a, b, out=a), True
    if b_owned:
        return np.add(a, b, out=b), True
    total = a + b
    return total, _writeable(total)


class _Rows:
    """take's cotangent, kept sparse: values (B, K, d) at rows index of an
    otherwise zero array of shape (B, M, d)."""

    __slots__ = ("index", "values", "shape")

    def __init__(self, index: tuple, values: np.ndarray, shape: tuple):
        self.index, self.values, self.shape = index, values, shape

    def dense(self) -> np.ndarray:
        """The zero-filled array, owned by the caller."""
        full = np.zeros(self.shape)
        np.add.at(full, self.index, self.values)
        return full

    def added_to(self, dense: np.ndarray, owned: bool) -> np.ndarray:
        """dense + self.dense(), bit for bit, into dense if owned.

        Without a repeated row this is (dense + 0.0) + row on the rows:
        the + 0.0 pass turns -0.0 into +0.0, as adding a zero does, and
        0.0 + row, the zero-filled array's row, differs from row only in a
        -0.0 entry, which either way adds as a zero onto an entry that is
        no longer -0.0. Repeated rows sum among themselves first, in the
        zero-filled array.
        """
        out = dense if owned else None
        rows = np.sort(self.index[1], axis=1)
        if (rows[:, 1:] == rows[:, :-1]).any():
            return np.add(dense, self.dense(), out=out)
        out = np.add(dense, 0.0, out=out)
        out[self.index] += self.values
        return out


class Param(Tensor):
    """A named trainable leaf. grad is allocated up front and zeroed on
    demand, but for a param init_param leaves unfilled."""

    __slots__ = ("name",)

    def __init__(self, values, name: str = ""):
        super().__init__(values, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.data.shape})"


def init_param(rng: np.random.Generator | None, name: str, shape: tuple,
               bound: float | None = None) -> Param:
    """A new Param, with values uniform in +-bound drawn from rng, or ones
    when bound is None.

    With rng None nothing is drawn or allocated: the param is unfilled,
    for load_params to give it a checkpoint's array. It has its name and
    shape, a read-only NaN stand-in for values, so that forgetting to
    fill it shows, and no grad buffer (backward allocates one on first
    use).
    """
    if rng is not None:
        return Param(np.ones(shape) if bound is None else rng.uniform(-bound, bound, size=shape),
                     name)
    param = Param.__new__(Param)
    Tensor.__init__(param, np.broadcast_to(np.nan, shape), requires_grad=True)
    param.name = name
    return param


class _Recording(threading.local):
    on = True  # each thread starts out recording


_recording = _Recording()


@contextlib.contextmanager
def no_record():
    """Run the body without recording: results carry no parents and no VJP.

    The switch is per thread. The previous state comes back on exit, also
    when the body raises, so the context nests.
    """
    saved = _recording.on
    _recording.on = False
    try:
        yield
    finally:
        _recording.on = saved


def is_recording() -> bool:
    """False inside no_record()."""
    return _recording.on


def _make(data: np.ndarray, parents: tuple, vjp) -> Tensor:
    out = Tensor(data)
    if _recording.on and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def make_op(data: np.ndarray, parents: tuple, vjp) -> Tensor:
    """Escape hatch for building a differentiable op out of raw numpy.

    vjp receives the cotangent g of the output and must return one gradient
    array (or None) per parent, already reduced to that parent's shape.
    g is writeable exactly when backward owns it: then the VJP may
    overwrite it. It may return g or views of g; any other array it
    returns it must not keep, because backward may write into an output
    that shares no memory with its other outputs.
    Anything built this way should be checked against finite_diff_grad.
    data may be a parent's own buffer, finished in place, only if nothing
    reads that parent's data again: not its VJP, and not its caller.
    An op that keeps none of such a buffer may release it while it
    records: it sets a recorded (non-leaf) parent's data to an empty array
    when that parent's own VJP never reads its output, so the tape stops
    holding it. A leaf or constant parent keeps its data.
    """
    return _make(np.asarray(data, dtype=np.float64), tuple(parents), vjp)


def _broadcast_check(a: Tensor, b: Tensor, opname: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{opname}: cannot broadcast {a.shape} with {b.shape}") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "add")
    return _make(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    _broadcast_check(a, b, "mul")

    def vjp(g):
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    return _make(a.data * b.data, (a, b), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Supports 2d @ 2d plus batched operands on either side.

    The common case of a stacked input against a 2d weight, (..., m, k) @
    (k, n), is flattened into a single GEMM; everything else goes through
    numpy's broadcasting matmul.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs 2d+ operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul mismatch: {a.shape} @ {b.shape}")

    if b.ndim == 2:
        k, n = b.shape
        lead = a.shape[:-1]
        a2 = a.data.reshape(-1, k)
        out = (a2 @ b.data).reshape(*lead, n)

        def vjp(g):
            g2 = g.reshape(-1, n)
            ga = (g2 @ b.data.T).reshape(a.shape) if a.requires_grad else None
            gb = a2.T @ g2 if b.requires_grad else None
            return ga, gb

        return _make(out, (a, b), vjp)

    out = np.matmul(a.data, b.data)

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _make(out, (a, b), vjp)


# Rows per GEMM when a VJP writes its input product over its cotangent.
_ROW_BLOCK = 1024


def _times(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m for a 2-d a, written over a when a is writeable and
    C-contiguous, m square and a at least 2 blocks long; else into a new
    array.

    In place, the product runs in blocks of _ROW_BLOCK rows, the leftover
    rows joining the last block. A GEMM of a few rows may take another
    BLAS kernel and round otherwise (8 rows of g @ w.T at d = 128 do with
    OpenBLAS 0.3.31), but blocks this long keep each row's bits of one
    whole GEMM (tests/test_model.py pins it).
    """
    rows = a.shape[0]
    if (rows < 2 * _ROW_BLOCK or not (a.flags.writeable and a.flags.c_contiguous)
            or m.shape[0] != m.shape[1]):
        return a @ m
    lo = 0
    while lo < rows:
        hi = rows if rows - lo < 2 * _ROW_BLOCK else lo + _ROW_BLOCK
        a[lo:hi] = a[lo:hi] @ m
        lo = hi
    return a


def _grouped_product(x2: np.ndarray, w: np.ndarray, groups: int) -> np.ndarray:
    """x2 @ w for 2-d x2, with one BLAS call per block of rows if groups > 1 (see linear)."""
    if groups == 1:
        return x2 @ w
    return np.matmul(x2.reshape(groups, -1, x2.shape[1]), w).reshape(-1, w.shape[1])


def linear(x: Tensor, w: Tensor, b: Tensor,
           activation: str = "identity", groups: int = 1) -> Tensor:
    """act(x @ w + b) as one graph node.

    Fuses the affine layer into a single GEMM with the bias add and the
    activation applied in place on the GEMM output. Values match the
    composition of matmul/add/relu exactly; the only difference is that
    no intermediate arrays are materialized, which matters on the edge
    tensors where each temporary is tens of megabytes. With groups > 1, one
    3-d np.matmul gives each of that many equal row blocks its own BLAS call.
    """
    if w.ndim != 2:
        raise ShapeError(f"linear weight must be 2d, got {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear mismatch: {x.shape} @ {w.shape}")
    if activation not in ("relu", "identity"):
        raise ValidationError(f"unknown activation {activation!r}")
    k, n = w.shape
    if b.shape != (n,):
        raise ShapeError(f"linear bias must be ({n},), got {b.shape}")

    x2 = x.data.reshape(-1, k)
    out2 = _grouped_product(x2, w.data, groups)
    np.add(out2, b.data, out=out2)
    if activation == "relu":
        np.maximum(out2, 0.0, out=out2)

    def vjp(g):
        g2 = g.reshape(-1, n)
        if activation == "relu":
            # out = max(pre, 0), so out > 0 is exactly pre > 0
            g2 = np.multiply(g2, out2 > 0, out=g2 if g2.flags.writeable else None)
        gw = x2.T @ g2 if w.requires_grad else None
        gb = g2.sum(axis=0) if b.requires_grad else None
        # last, since it may overwrite g2
        gx = _times(g2, w.data.T).reshape(x.shape) if x.requires_grad else None
        return gx, gw, gb

    return _make(out2.reshape(*x.shape[:-1], n), (x, w, b), vjp)


def linear_pair(a: Tensor, c: Tensor, wa: Tensor, wc: Tensor,
                b: Tensor, groups: int = 1) -> Tensor:
    """relu(a @ wa + c @ wc + b): a two-operand affine layer in one node.

    Equivalent to concatenating a and c and multiplying by the stacked
    weight [wa; wc], but skips the concat and evaluates the halves as two
    GEMMs accumulated into one buffer. groups as in linear.
    """
    for w, operand, label in ((wa, a, "a"), (wc, c, "c")):
        if w.ndim != 2:
            raise ShapeError(f"linear_pair weights must be 2d, got {w.shape}")
        if operand.shape[-1] != w.shape[0]:
            raise ShapeError(f"linear_pair mismatch on {label}: {operand.shape} @ {w.shape}")
    if a.shape[:-1] != c.shape[:-1]:
        raise ShapeError(f"linear_pair operands disagree: {a.shape} vs {c.shape}")
    if wa.shape[1] != wc.shape[1]:
        raise ShapeError(f"linear_pair outputs disagree: {wa.shape} vs {wc.shape}")
    n = wa.shape[1]
    if b.shape != (n,):
        raise ShapeError(f"linear_pair bias must be ({n},), got {b.shape}")

    a2 = a.data.reshape(-1, wa.shape[0])
    c2 = c.data.reshape(-1, wc.shape[0])
    out2 = _grouped_product(a2, wa.data, groups)
    np.add(out2, _grouped_product(c2, wc.data, groups), out=out2)
    np.add(out2, b.data, out=out2)
    np.maximum(out2, 0.0, out=out2)

    def vjp(g):
        # out = max(pre, 0), so out > 0 is exactly pre > 0
        g2 = g.reshape(-1, n) * (out2 > 0)
        ga = (g2 @ wa.data.T).reshape(a.shape) if a.requires_grad else None
        gc = (g2 @ wc.data.T).reshape(c.shape) if c.requires_grad else None
        gwa = a2.T @ g2 if wa.requires_grad else None
        gwc = c2.T @ g2 if wc.requires_grad else None
        gb = g2.sum(axis=0) if b.requires_grad else None
        return ga, gc, gwa, gwc, gb

    return _make(out2.reshape(*a.shape[:-1], n), (a, c, wa, wc, b), vjp)


def relu(x: Tensor) -> Tensor:
    """max(x, 0), as in linear: NaN stays NaN."""
    mask = x.data > 0
    return _make(np.maximum(x.data, 0.0), (x,), lambda g: (g * mask,))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, computed with the usual max-shift for stability."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return ((g - inner) * y,)

    return _make(y, (x,), vjp)


def concat(parts: list, axis: int = -1) -> Tensor:
    """Concatenate tensors along one axis (the feature axis by default)."""
    if not parts:
        raise ShapeError("concat of zero tensors")
    datas = [p.data for p in parts]
    try:
        out = np.concatenate(datas, axis=axis)
    except ValueError:
        raise ShapeError(f"concat: incompatible shapes {[p.shape for p in parts]}") from None
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(parts), vjp)


def narrow(x: Tensor, start: int, stop: int, axis: int = -1) -> Tensor:
    """Slice [start:stop) along one axis."""
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def vjp(g):
        full = np.zeros_like(x.data)
        full[index] = g
        return (full,)

    return _make(x.data[index].copy(), (x,), vjp)


def take(x: Tensor, index) -> Tensor:
    """Per-sample row gather: (B, M, d) with an int (B, K) index -> (B, K, d).

    Row k of sample b is x[b, index[b, k]]. An index may repeat; the
    backward adds the cotangents of repeated rows. Its cotangent stays
    sparse (see Tensor.backward).
    """
    index = np.asarray(index)
    if x.ndim != 3 or index.ndim != 2 or index.shape[0] != x.shape[0]:
        raise ShapeError(f"take: need (B, M, d) data and a (B, K) index, got {x.shape} and {index.shape}")
    rows = (np.arange(x.shape[0])[:, None], index)
    return _make(x.data[rows], (x,), lambda g: (_Rows(rows, g, x.shape),))


def reshape(x: Tensor, shape: tuple) -> Tensor:
    return _make(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.shape),))


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.shape).copy(),)

    return _make(x.data.sum(axis=axis, keepdims=keepdims), (x,), vjp)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements.

    pred + target * -1 rounds as pred - target, since negation is exact,
    and the mean is the sum times 1/n.
    """
    if pred.shape != target.shape:
        raise ShapeError(f"mse: prediction {pred.shape} vs target {target.shape}")
    d = add(pred, mul(target, Tensor(-1.0)))
    sq = mul(d, d)
    return mul(tsum(sq), Tensor(1.0 / sq.size))


def finite_diff_grad(f, x, h: float = 1e-5) -> Tensor:
    """Central-difference gradient of a scalar-valued function at x.

    This is the oracle that every analytic gradient in the test suite is
    checked against, so it deliberately shares no code with backward():
    each coordinate is bumped by +-h and f re-evaluated from scratch.
    f must be pure and must return a scalar Tensor.
    """
    base = _as_array(x.data if isinstance(x, Tensor) else x)
    flat = base.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        fp = float(f(Tensor(bumped.reshape(base.shape))).data)
        bumped[i] = flat[i] - h
        fm = float(f(Tensor(bumped.reshape(base.shape))).data)
        out[i] = (fp - fm) / (2.0 * h)
    return Tensor(out.reshape(base.shape))


class Mlp:
    """One affine layer, act(x @ W + b), act relu or identity.

    layers holds its one (W, b, act) triple. W and b, named <name>.w0 and
    <name>.b0, start uniform in +-1/sqrt(d_in), drawn from the generator
    handed in, or unfilled without one (see init_param).
    """

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator | None,
                 name: str = "mlp", activation: str = "identity"):
        if activation not in ("relu", "identity"):
            raise ValidationError(f"unknown activation {activation!r}, expected relu or identity")
        bound = 1.0 / np.sqrt(d_in)
        self.layers = [(init_param(rng, f"{name}.w0", (d_in, d_out), bound),
                        init_param(rng, f"{name}.b0", (d_out,), bound), activation)]

    def __call__(self, x: Tensor, groups: int = 1) -> Tensor:
        w, b, act = self.layers[0]
        return linear(x, w, b, activation=act, groups=groups)

    def params(self) -> list:
        return list(self.layers[0][:2])


# Adam's decay rates and denominator floor: the standard values, not
# settings. Checkpoints record them in their train_config.
ADAM_FIXED = {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8}


class Adam:
    """Adam with bias correction, the standard recurrence, at ADAM_FIXED.

    Holds one (m, v) pair per trainable param; step() reads .grad and
    updates .data in place. Updates are deterministic functions of
    (params, grads, state).
    """

    def __init__(self, params, lr: float = 1e-4):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        beta1, beta2, eps = ADAM_FIXED["beta1"], ADAM_FIXED["beta2"], ADAM_FIXED["eps"]
        self.t += 1
        correct1 = 1.0 - beta1 ** self.t
        correct2 = 1.0 - beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            m_hat = m / correct1
            v_hat = v / correct2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + eps)

    def state_arrays(self) -> dict:
        """Optimizer state as plain arrays, for checkpointing."""
        out = {"t": np.array([float(self.t)])}
        for i, p in enumerate(self.params):
            out[f"m.{i}.{p.name}"] = self.m[i]
            out[f"v.{i}.{p.name}"] = self.v[i]
        return out

    def load_state_arrays(self, arrays: dict) -> None:
        self.t = int(arrays["t"][0])
        for i, p in enumerate(self.params):
            m = arrays[f"m.{i}.{p.name}"]
            v = arrays[f"v.{i}.{p.name}"]
            if m.shape != p.data.shape or v.shape != p.data.shape:
                raise ValidationError(f"optimizer state shape mismatch for {p.name}")
            self.m[i] = m.copy()
            self.v[i] = v.copy()


# ---------------------------------------------------------------------------
# Checkpoint format. One file: an 8-byte little-endian header length, a JSON
# manifest, then the raw row-major float64 values of every array in manifest
# order. docs/checkpoint_format.md spells out the layout byte by byte.
# ---------------------------------------------------------------------------

def save_arrays(path: str, named_arrays: list, extra: dict | None = None) -> None:
    """Write (name, array) pairs to a checkpoint file atomically
    (data.atomic_open), array by array."""
    names = [n for n, _ in named_arrays]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate array names in checkpoint")
    manifest = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "params": [{"name": n, "shape": list(a.shape)} for n, a in named_arrays],
        "extra": extra or {},
    }
    header = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for _, a in named_arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_arrays(path: str) -> tuple:
    """Read a checkpoint written by save_arrays. Returns (manifest, {name: array}).

    The values are read in one piece and each array is copied out of it.
    Freeing that checkpoint-sized buffer also lifts glibc's dynamic mmap
    threshold, so later forward passes reuse heap memory for their
    temporaries instead of faulting in fresh pages on every call: reading
    each array straight into its own buffer measured ~1500 page faults and
    ~20% more time per single-point query at preset S.
    """
    with open(path, "rb") as fh:
        raw_len = fh.read(8)
        if len(raw_len) != 8:
            raise ValidationError(f"checkpoint {path} too short for a header")
        (header_len,) = struct.unpack("<Q", raw_len)
        header = fh.read(header_len)
        if len(header) != header_len:
            raise ValidationError(f"checkpoint {path} truncated inside the manifest")
        try:
            manifest = json.loads(header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"checkpoint {path} has a corrupt manifest: {exc}") from None
        if manifest.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
            raise ValidationError(
                f"checkpoint {path} has schema_version {manifest.get('schema_version')}, "
                f"this build reads {CHECKPOINT_SCHEMA_VERSION}")
        blob = fh.read()
    arrays = {}
    offset = 0
    for entry in manifest["params"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        if offset + count * 8 > len(blob):
            raise ValidationError(f"checkpoint {path} truncated in values for {entry['name']}")
        arrays[entry["name"]] = np.frombuffer(
            blob, dtype="<f8", count=count, offset=offset).reshape(shape).astype(np.float64)
        offset += count * 8
    if offset != len(blob):
        raise ValidationError(f"checkpoint {path} has {len(blob) - offset} trailing bytes")
    return manifest, arrays


def save_params(path: str, params: list, extra: dict | None = None) -> None:
    """Checkpoint a list of Params under their own names."""
    save_arrays(path, [(p.name, p.data) for p in params], extra=extra)


def load_params(path: str, params: list, loaded: tuple | None = None) -> dict:
    """Load a checkpoint into an existing list of Params, matching by name.

    ``loaded`` is the ``(manifest, arrays)`` pair that ``load_arrays(path)``
    already returned, if the caller has it; otherwise the file is read
    here. Each param takes its loaded array itself, not a copy. Every param
    must be present with the right shape. Returns the manifest extra dict
    so callers can recover whatever metadata they stored.
    """
    manifest, arrays = load_arrays(path) if loaded is None else loaded
    for p in params:
        if p.name not in arrays:
            raise ValidationError(f"checkpoint {path} is missing param {p.name!r}")
        values = arrays[p.name]
        if values.shape != p.data.shape:
            raise ValidationError(
                f"checkpoint {path}: param {p.name!r} has shape {values.shape}, "
                f"expected {p.data.shape}")
        p.data = values
    return manifest.get("extra", {})
