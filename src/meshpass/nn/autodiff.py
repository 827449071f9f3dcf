"""Reverse-mode automatic differentiation over numpy float64 arrays.

The engine records a tape of primitive operations as the forward pass runs;
``backward`` replays it in reverse to accumulate vector-Jacobian
products. Only the primitives the model needs are implemented: dense affine
maps (``matmul`` with an optional bias, added in place on its own output),
row blocks of a weight (``row_block``), ReLU, concatenation, the gathers
and segment sums of graph message passing (``spmm``: a gather runs as
``np.take`` of its indices and a segment sum as one CSR product, forward
and backward alike), layer normalization and the reductions used by the
loss.

The tape is kept apart from the data. Each output Tensor carries a node
with the op name, the parents' nodes (not their Tensors) and the vjp, and
each vjp holds only the arrays it reads: ``matmul`` and ``mul`` their
operands, ``relu`` its output, ``layer_norm`` the normalized rows, their
inverse scale and the gain, ``mean_sq`` its operand; ``add``, ``sub``,
``row_block``, ``spmm`` and ``concat`` hold only shapes, operators and
splits. So a taped intermediate that no vjp reads (a gather, a sum, a
layer norm's input) is freed as soon as the forward pass drops its
Tensor, while its node stays on the tape.

``backward`` runs only the nodes on a path from the root to a tensor it
differentiates with respect to, and each vjp takes a per-parent mask and
skips the work of a term whose parent is not needed, returning ``None``
for it. Once a node's vjp has run for the last seed, the node drops it,
and with it the arrays it saved, so a pass frees the tape as it goes. A
tape is therefore differentiated once: a caller that wants several
gradients of one root passes all their seeds to one ``backward`` call,
and a later call that needs a spent node raises ``TapeConsumedError``.

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
so a ``NonFiniteError`` names the same op in both modes. ``with tape():``
switches taping back on inside a ``no_tape`` block.
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


class TapeConsumedError(RuntimeError):
    """Raised when ``backward`` needs a tape node whose vjp an earlier
    ``backward`` already ran and dropped."""

    def __init__(self, op_name):
        super().__init__(
            f"backward reached operation '{op_name}' whose tape was already consumed "
            "by an earlier backward; pass every seed to one backward call, or run "
            "the forward pass again")
        self.op_name = op_name


class _TapeMode(threading.local):
    # Whether ops record a tape, per thread: every new thread starts taping.
    taping = True


_mode = _TapeMode()


@contextlib.contextmanager
def _taping(on):
    previous, _mode.taping = _mode.taping, on
    try:
        yield
    finally:
        _mode.taping = previous


def no_tape():
    """Inference mode: ops inside the block record no tape (no parents, no
    vjp), so nothing computed in it can be differentiated. The previous
    mode is restored on exit, also when the block raises.

    The mode belongs to the calling thread: ops that other threads run
    meanwhile (``training.train``'s helper threads, say) still record their
    tape."""
    return _taping(False)


def tape():
    """Training mode, the counterpart of ``no_tape``: ops inside the block
    record their tape, also where the calling thread is inside a
    ``no_tape`` block. The previous mode is restored on exit."""
    return _taping(True)


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


# The vjp of a node that ``backward`` has run for its last seed.
_CONSUMED = object()


class _Node:
    # One tape record: the op name, the parents' nodes (None for a constant
    # operand) and the vjp (_CONSUMED once backward has run it for its last
    # seed). It holds no array of its own.
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

    def vjp(g, need):
        grads = (np.matmul(g, bv.T) if need[0] else None,
                 np.matmul(av.T, g) if need[1] else None)
        return grads if bias is None else grads + (g.sum(axis=0) if need[2] else None,)

    return _result(out, "matmul", parents, vjp)


def row_block(a, start, stop):
    """Rows ``start:stop`` of a 2-D tensor, as a view of its data."""
    av = value(a)
    out = av[start:stop]
    shape = av.shape

    def vjp(g, need):
        full = np.zeros(shape)
        full[start:stop] = g
        return (full,)

    return _result(out, "row_block", (a,), vjp)


def add(a, b, out=None):
    """``a + b``; into ``out`` under no_tape (see the module docstring)."""
    av, bv = value(a), value(b)
    out = np.add(av, bv, out=_handed(out, np.broadcast_shapes(av.shape, bv.shape)))
    ashape, bshape = av.shape, bv.shape

    def vjp(g, need):
        return (_unbroadcast(g, ashape) if need[0] else None,
                _unbroadcast(g, bshape) if need[1] else None)

    return _result(out, "add", (a, b), vjp)


def sub(a, b):
    av, bv = value(a), value(b)
    out = av - bv
    ashape, bshape = av.shape, bv.shape

    def vjp(g, need):
        return (_unbroadcast(g, ashape) if need[0] else None,
                _unbroadcast(-g, bshape) if need[1] else None)

    return _result(out, "sub", (a, b), vjp)


def mul(a, b):
    av, bv = value(a), value(b)
    out = av * bv

    def vjp(g, need):
        return (_unbroadcast(g * bv, av.shape) if need[0] else None,
                _unbroadcast(g * av, bv.shape) if need[1] else None)

    return _result(out, "mul", (a, b), vjp)


def relu(a, out=None):
    """``max(a, 0)``; into ``out`` under no_tape (see the module docstring)."""
    av = value(a)
    out = np.maximum(av, 0.0, out=_handed(out, av.shape))

    def vjp(g, need):
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

    def vjp(g, need):
        # Views of g: a part no parent needs costs nothing.
        return tuple(np.split(g, splits, axis=-1))

    return _result(out, "concat", tuple(parts), vjp)


class SparseOp:
    """A constant gather or segment sum over one index list.

    ``mat`` is the (n_rows, len(indices)) CSR segment-sum matrix, with
    sorted column indices so each bin sums its rows in index order, which
    keeps aggregation bit-deterministic regardless of edge storage order.
    ``T`` is the other direction over the same ``indices`` and ``mat``.
    """

    def __init__(self, indices, mat, is_gather):
        self.indices = indices
        self.mat = mat
        self.is_gather = is_gather

    @property
    def T(self):
        return SparseOp(self.indices, self.mat, not self.is_gather)

    @staticmethod
    def gather(indices, n_rows):
        """Operator taking an (n_rows, d) array to a (len(indices), d) array;
        its ``T`` sums the rows of a (len(indices), d) array into n_rows bins."""
        indices = np.asarray(indices, dtype=np.int64)
        # A stable sort lists each bin's terms in index order.
        order = np.argsort(indices, kind="stable")
        indptr = np.concatenate([[0], np.cumsum(np.bincount(indices, minlength=n_rows))])
        mat = sp.csr_matrix((np.ones(len(indices)), order, indptr),
                            shape=(n_rows, len(indices)))
        return SparseOp(indices, mat, True)


def spmm(op, a, out=None):
    """Apply a constant :class:`SparseOp`: a gather as ``np.take`` of its
    indices, a segment sum as ``op.mat @ a``, and the other one backward.
    A gather writes into ``out`` under no_tape (see the module docstring);
    a segment sum always allocates its output."""
    av = value(a)
    if op.is_gather:
        # mode="raise" would stage the rows in a temporary before copying
        # them into buf; a gather's indices are in range by construction.
        buf = _handed(out, op.indices.shape + av.shape[1:])
        out = np.take(av, op.indices, axis=0, out=buf, mode="clip")
    else:
        out = op.mat @ av

    def vjp(g, need):
        return (op.mat @ g if op.is_gather else np.take(g, op.indices, axis=0),)

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

    def vjp(g, need):
        gx = None
        if need[0]:
            gx = g * gv
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            gx -= m1
            gx -= xhat * m2
            gx *= inv
        gg = _unbroadcast(g * xhat, gv.shape) if need[1] else None
        gb = _unbroadcast(g, bshape) if need[2] else None
        return gx, gg, gb

    return _result(out, "layer_norm", (x, gain, bias), vjp)


def mean_sq(a):
    """Mean of squared entries; the training loss reduction."""
    av = value(a)
    n = av.size
    out = np.asarray((av * av).sum() / n)

    def vjp(g, need):
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


def _plan(root, wrt):
    """The nodes of ``root``'s tape that lie on a path to a node of
    ``wrt``, in ``_topo_order``'s order, each with its per-parent mask of
    the parents whose gradient is needed. TapeConsumedError names the first
    of them that an earlier backward has run."""
    needed = {id(t.node) for t in wrt}
    plan = []
    for node in reversed(_topo_order(root)):
        need = tuple(p is not None and id(p) in needed for p in node.parents)
        if any(need):
            needed.add(id(node))
            plan.append((node, need))
    plan.reverse()
    for node, _ in plan:
        if node.vjp is _CONSUMED:
            raise TapeConsumedError(node.op)
    return plan


def backward(root, wrt, seed=None, seeds=None):
    """Gradients of ``root`` with respect to each tensor in ``wrt``.

    Only the nodes on a path from ``root`` to a tensor of ``wrt`` run, in
    the order of the whole tape, and each computes only the terms toward
    parents on such a path: a ``matmul`` whose weight is not in ``wrt``
    skips ``a.T @ g``. So each gradient is summed in the same order, with
    the same bytes, whatever else ``wrt`` holds.

    The pass consumes the tape: once a node's vjp has run for the last
    seed, the node drops it, and with it the arrays it saved. A later
    backward that needs that node raises :class:`TapeConsumedError`. To
    take several gradients of one tape, pass every seed to one call
    (``seeds``); the nodes to run are then found once.

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
    seeds : sequence of ndarray, optional
        Several initial adjoints, in place of ``seed``: returns one list of
        gradients per seed, in order.
    """
    single = seeds is None
    if single:
        seeds = [np.ones_like(root.data) if seed is None else seed]
    elif seed is not None:
        raise ValueError("backward takes seed or seeds, not both")
    plan = _plan(root.node, wrt)
    keep = {id(p.node) for p in wrt}
    last = len(seeds) - 1
    out = []
    for k, seed in enumerate(seeds):
        grads = {id(root.node): np.asarray(seed, dtype=np.float64)}
        for node, need in plan:
            # Every planned node gets an adjoint: its children on the
            # path from root are planned too, and need it.
            nid = id(node)
            g = grads[nid] if nid in keep else grads.pop(nid)
            if not np.all(np.isfinite(g)):
                raise NonFiniteError(node.op)
            terms = node.vjp(g, need)
            if k == last:
                node.vjp = _CONSUMED
            for parent, needed, pg in zip(node.parents, need, terms):
                if needed:
                    pid = id(parent)
                    grads[pid] = grads[pid] + pg if pid in grads else pg
        out.append([grads.get(id(p.node), np.zeros_like(p.data)) for p in wrt])
    return out[0] if single else out
