"""Reverse-mode automatic differentiation over numpy float64 arrays.

The engine records a tape of primitive operations as the forward pass runs;
``backward`` replays it in reverse to accumulate vector-Jacobian
products. Only the primitives the model needs are implemented: dense affine
maps (``matmul`` with an optional bias, added in place on its own output),
row blocks of a weight (``row_block``), ReLU, concatenation, sparse
gather/scatter for graph message passing (a gather runs forward as
``np.take`` of its stored indices), layer normalization and the reductions
used by the loss.

The tape is kept apart from the data. Each output Tensor carries a node
with the op name, the parents' nodes (not their Tensors) and the vjp, and
each vjp holds only the arrays it reads: ``matmul`` and ``mul`` their
operands, ``relu`` its output, ``layer_norm`` the normalized rows, their
inverse scale and the gain, ``mean_sq`` its operand; ``add``, ``sub``,
``row_block``, ``spmm`` and ``concat`` hold only shapes, operators and
splits. So a taped intermediate that no vjp reads (a gather, a sum, a
layer norm's input) is freed as soon as the forward pass drops its
Tensor, while its node stays on the tape.

Inside ``with no_tape():`` the same ops record nothing: their outputs have
no parents and no vjp, so intermediates are freed as soon as the forward
pass drops them. There ``matmul``, ``add``, ``relu``, a gather ``spmm``
and ``layer_norm`` also write their result into ``out`` when the caller
hands one over: a buffer of the result's shape that the caller no longer
reads, often one of the operands. ``Mlp.tail`` and ``processor.update``
hand over their spent intermediates, so a message-passing step allocates
two edge-sized arrays, not one per op. While the thread records a tape,
``out`` is ignored, since a vjp may read the array it would overwrite.
Every op still checks its output for non-finite values, in ``_result``,
so a ``NonFiniteError`` names the same op in both modes.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np
import scipy.sparse as sp


class NonFiniteError(ArithmeticError):
    """Raised when an operation produces NaN or infinity."""

    def __init__(self, op_name):
        super().__init__(f"non-finite value produced by operation '{op_name}'")
        self.op_name = op_name


class _TapeMode(threading.local):
    # Whether ops record a tape, per thread: every new thread starts taping.
    taping = True


_mode = _TapeMode()


@contextlib.contextmanager
def no_tape():
    """Inference mode: ops inside the block record no tape (no parents, no
    vjp), so nothing computed in it can be differentiated. The previous
    mode is restored on exit, also when the block raises.

    The mode belongs to the calling thread: ops that other threads run
    meanwhile (``training.train``'s workers, say) still record their tape."""
    previous, _mode.taping = _mode.taping, False
    try:
        yield
    finally:
        _mode.taping = previous


def _handed(out, shape):
    # The buffer an op writes its result into: ``out`` (Tensor or array)
    # under no_tape when it has the result's shape, else None (fresh).
    if out is None or _mode.taping:
        return None
    out = value(out)
    return out if out.shape == shape else None


def _result(out, op, parents, vjp):
    # The op's output Tensor, with its tape record only when taping;
    # NonFiniteError naming the op if the output is not finite.
    if not np.all(np.isfinite(out)):
        raise NonFiniteError(op)
    if _mode.taping:
        nodes = tuple(p.node if isinstance(p, Tensor) else None for p in parents)
        return Tensor(out, op, nodes, vjp)
    return Tensor(out, op)


class _Node:
    # One tape record: the op name, the parents' nodes (None for a constant
    # operand) and the vjp. It holds no array of its own.
    __slots__ = ("op", "parents", "vjp")

    def __init__(self, op, parents, vjp):
        self.op = op
        self.parents = parents
        self.vjp = vjp


class Tensor:
    """A float64 array plus the tape node of the op that produced it.

    ``op``, ``parents`` (the parents' nodes, not their Tensors) and
    ``vjp`` read the node. Leaf tensors (parameters, inputs) and every
    output made under ``no_tape`` have no parents and no vjp. Plain numpy
    arrays passed to the ops below are treated as constants and receive no
    gradient.
    """

    __slots__ = ("data", "node")

    def __init__(self, data, op="leaf", parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = _Node(op, parents, vjp)

    op = property(lambda self: self.node.op)
    parents = property(lambda self: self.node.parents)
    vjp = property(lambda self: self.node.vjp)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"


def value(x):
    """Raw numpy array behind ``x`` (Tensor or array-like)."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _unbroadcast(g, shape):
    # Reduce gradient g back to `shape` after numpy broadcasting.
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def matmul(a, b, bias=None, out=None):
    """``a @ b``, plus ``bias`` broadcast over the rows when given; into
    ``out`` under no_tape (see the module docstring)."""
    av, bv = value(a), value(b)
    out = np.matmul(av, bv, out=_handed(out, av.shape[:-1] + bv.shape[-1:]))
    parents = (a, b)
    if bias is not None:
        out += value(bias)
        parents += (bias,)

    def vjp(g):
        grads = (g @ bv.T, av.T @ g)
        return grads if bias is None else grads + (g.sum(axis=0),)

    return _result(out, "matmul", parents, vjp)


def row_block(a, start, stop):
    """Rows ``start:stop`` of a 2-D tensor, as a view of its data."""
    av = value(a)
    out = av[start:stop]
    shape = av.shape

    def vjp(g):
        full = np.zeros(shape)
        full[start:stop] = g
        return (full,)

    return _result(out, "row_block", (a,), vjp)


def add(a, b, out=None):
    """``a + b``; into ``out`` under no_tape (see the module docstring)."""
    av, bv = value(a), value(b)
    out = np.add(av, bv, out=_handed(out, np.broadcast_shapes(av.shape, bv.shape)))
    ashape, bshape = av.shape, bv.shape

    def vjp(g):
        return _unbroadcast(g, ashape), _unbroadcast(g, bshape)

    return _result(out, "add", (a, b), vjp)


def sub(a, b):
    av, bv = value(a), value(b)
    out = av - bv
    ashape, bshape = av.shape, bv.shape

    def vjp(g):
        return _unbroadcast(g, ashape), _unbroadcast(-g, bshape)

    return _result(out, "sub", (a, b), vjp)


def mul(a, b):
    av, bv = value(a), value(b)
    out = av * bv

    def vjp(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return _result(out, "mul", (a, b), vjp)


def relu(a, out=None):
    """``max(a, 0)``; into ``out`` under no_tape (see the module docstring)."""
    av = value(a)
    out = np.maximum(av, 0.0, out=_handed(out, av.shape))

    def vjp(g):
        # out > 0 exactly where av > 0: max(av, 0) is av there and a zero
        # (of either sign) elsewhere.
        return (g * (out > 0.0),)

    return _result(out, "relu", (a,), vjp)


def concat(parts):
    """Concatenate along the last axis."""
    vals = [value(p) for p in parts]
    out = np.concatenate(vals, axis=-1)
    widths = [v.shape[-1] for v in vals]
    splits = np.cumsum(widths)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=-1))

    return _result(out, "concat", tuple(parts), vjp)


class SparseOp:
    """Constant sparse matrix with its transpose, for gather/scatter ops.

    Rows of ``mat`` select (gather) or sum (scatter-add) rows of the dense
    operand. CSR matmul applies terms in index order, which keeps the
    aggregation bit-deterministic regardless of edge storage order. A
    gather also keeps its ``indices``, so its forward pass is a plain
    ``np.take``; it is None for any other operator.
    """

    def __init__(self, mat, indices=None):
        self.mat = sp.csr_matrix(mat)
        self.mat.sort_indices()
        self.mat_t = self.mat.T.tocsr()
        self.mat_t.sort_indices()
        self.indices = indices

    @staticmethod
    def gather(indices, n_rows):
        """Operator taking an (n_rows, d) array to a (len(indices), d) array."""
        indices = np.asarray(indices, dtype=np.int64)
        m = len(indices)
        mat = sp.csr_matrix(
            (np.ones(m), indices, np.arange(m + 1)), shape=(m, n_rows)
        )
        return SparseOp(mat, indices)

    @staticmethod
    def segment_sum(indices, n_rows):
        """Operator summing rows of an (len(indices), d) array into n_rows bins."""
        return SparseOp(SparseOp.gather(indices, n_rows).mat.T)


def spmm(op, a, out=None):
    """Multiply a constant :class:`SparseOp` with a dense tensor. A gather
    writes into ``out`` under no_tape (see the module docstring); a
    segment sum always allocates its output."""
    av = value(a)
    buf = _handed(out, op.mat.shape[:1] + av.shape[1:])
    if op.indices is None:
        out = op.mat @ av
    else:
        # mode="raise" would stage the rows in a temporary before copying
        # them into buf; a gather's indices are in range by construction.
        out = np.take(av, op.indices, axis=0, out=buf, mode="clip")

    def vjp(g):
        return (op.mat_t @ g,)

    return _result(out, "spmm", (a,), vjp)


_LN_EPS = 1e-8


def layer_norm(x, gain, bias, out=None):
    """Per-row layer normalization with learned gain and bias. Under
    no_tape, when handed ``out`` it also takes ``x`` over: it centres
    ``x`` in place and writes the result into ``out``."""
    xv = value(x)
    gv, bv = value(gain), value(bias)
    buf = _handed(out, xv.shape)
    xhat = np.subtract(xv, xv.mean(axis=-1, keepdims=True), out=None if buf is None else xv)
    sq = np.multiply(xhat, xhat, out=buf)
    # The variance as np.var computes it, from the centred rows above.
    inv = 1.0 / np.sqrt(sq.sum(axis=-1, keepdims=True) / xv.shape[-1] + _LN_EPS)
    xhat *= inv
    out = np.multiply(xhat, gv, out=sq)
    out += bv
    bshape = bv.shape

    def vjp(g):
        gx = g * gv
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        gx -= m1
        gx -= xhat * m2
        gx *= inv
        gg = _unbroadcast(g * xhat, gv.shape)
        gb = _unbroadcast(g, bshape)
        return gx, gg, gb

    return _result(out, "layer_norm", (x, gain, bias), vjp)


def mean_sq(a):
    """Mean of squared entries; the training loss reduction."""
    av = value(a)
    n = av.size
    out = np.asarray((av * av).sum() / n)

    def vjp(g):
        return (g * (2.0 / n) * av,)

    return _result(out, "mean_sq", (a,), vjp)


def _topo_order(root):
    """Nodes reachable from the node ``root`` in reverse-replay order
    (iterative)."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node is None or node.vjp is None:
            continue
        nid = id(node)
        if expanded:
            order.append(node)
            continue
        if nid in seen:
            continue
        seen.add(nid)
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    order.reverse()
    return order


def backward(root, wrt, seed=None):
    """Gradients of ``root`` with respect to each tensor in ``wrt``.

    Parameters
    ----------
    root : Tensor
        Output of the taped computation; any shape (seed must match).
    wrt : sequence of Tensor
        The tensors to differentiate with respect to; returns a list of
        gradients aligned with it (zeros for unused ones). The adjoint of
        each node not in ``wrt`` is dropped as soon as its vjp has run, so
        a spent adjoint is freed during the pass.
    seed : ndarray, optional
        Initial adjoint; defaults to ones of root's shape (i.e. gradient of
        root.sum()).
    """
    if seed is None:
        seed = np.ones_like(root.data)
    grads = {id(root.node): np.asarray(seed, dtype=np.float64)}
    keep = {id(p.node) for p in wrt}
    for node in _topo_order(root.node):
        nid = id(node)
        g = grads.get(nid) if nid in keep else grads.pop(nid, None)
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(node.op)
        parent_grads = node.vjp(g)
        for parent, pg in zip(node.parents, parent_grads):
            if parent is None:
                continue
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + pg
            else:
                grads[pid] = pg
    return [grads.get(id(p.node), np.zeros_like(p.data)) for p in wrt]
