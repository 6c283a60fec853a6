"""Reverse-mode automatic differentiation over dense float64 tensors.

Provides exactly the operator set the classifier and generator need:
matmul, elementwise arithmetic and activations, stabilized softmax,
per-segment maxima (for max-capped copy scores), embedding lookup,
scatter-sum regrouping, cross-entropy, and one fused LSTM op,
``lstm_step``, which advances k independent states over a whole
sequence as one tape entry (an encoder pass has one state per sequence
of its chunk, a decoder step n = 1), in one direction or in both
directions of a BiLSTM layer at once, one time loop serving both.  ``matmul``, ``transpose``,
``segment_max``, ``scatter_sum`` and row broadcasting also take a
(B x r x n) stack of blocks, one per passage of a decoder chunk, each
block with its own segments and index map.  Ops executed while a Tape is
active are recorded in execution order; ``backward`` replays the tape in
exact reverse order and accumulates gradients into every tensor the loss
can reach.  Ops executed with no active tape are plain forward
evaluations, which keeps inference and finite-difference probing cheap.

Everything is 64-bit and deterministic: the same seed and the same op
sequence produce bit-identical values.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "add",
    "sub",
    "mul",
    "sigmoid",
    "tanh",
    "relu",
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "lstm_step",
    "reduce_sum",
    "reduce_mean",
    "softmax",
    "Segments",
    "segment_max",
    "lookup",
    "scatter_sum",
    "cross_entropy",
    "backward",
    "AdamState",
    "adam_step",
    "uniform_init",
]

PROB_FLOOR = 1e-12  # floor applied before log in cross_entropy
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Tensor:
    """Dense float64 tensor with an optional gradient slot.

    ``data`` holds the values with their shape.  ``grad`` is None until
    ``backward`` populates it, after which it has the same shape as
    ``data``.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class _TapeEntry:
    __slots__ = ("op", "inputs", "outputs", "backward_fn")

    def __init__(self, op, inputs, outputs, backward_fn):
        self.op = op
        self.inputs = inputs
        self.outputs = outputs
        self.backward_fn = backward_fn


_ACTIVE_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of executed ops.

    Inputs of every entry precede it on the tape by construction, so a
    single reverse sweep implements the chain rule.  Use as a context
    manager; ops executed inside the block are recorded.
    """

    def __init__(self):
        self.entries: list[_TapeEntry] = []

    def __enter__(self) -> "Tape":
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_TAPES.pop()
        return False

    def __len__(self):
        return len(self.entries)


def _record(op: str, inputs: tuple, outputs: tuple, backward_fn: Callable):
    """Tape one op; ``backward_fn`` maps one gradient per output to one per input."""
    if _ACTIVE_TAPES:
        _ACTIVE_TAPES[-1].entries.append(_TapeEntry(op, inputs, outputs, backward_fn))


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate ``grad`` on every tensor the loss reaches through the tape.

    Tensors that appear on the tape but do not feed into the loss end up
    with zero gradients; tensors never touched by the tape keep
    ``grad is None``.  No buffer is zero-filled ahead: a tensor's first
    gradient g becomes its buffer as ``0.0 + g`` in a new array laid out
    like its data, the values and layout a zero-filled buffer would hold
    after adding g (g itself is never kept: an op may hand one gradient
    to two inputs, or a view of its output's).  Later gradients are added
    into it in reverse tape order, and tensors the loss never reaches get
    zeros at the end.
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    entries = tape.entries
    for entry in entries:
        for t in entry.inputs + entry.outputs:
            t.grad = None
    loss.grad = np.ones_like(loss.data)
    for entry in reversed(entries):
        for t in entry.outputs:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
        grads = entry.backward_fn(*[t.grad for t in entry.outputs])
        for t, g in zip(entry.inputs, grads):
            if t.grad is None:
                # a plain copy would keep a -0.0 where 0.0 + g holds +0.0
                t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
            else:
                t.grad += g
    for entry in entries:
        for t in entry.inputs:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)


# ---------------------------------------------------------------------------
# Elementwise ops.  Broadcasting is restricted to equal shapes, a
# single-element operand against anything, and one row repeated over the
# rows of the other operand: a (1 x d) row against an (n x d) matrix or
# a (B x n x d) stack, or a (B x 1 x d) stack of rows against a
# (B x n x d) one; other mixes are an error.
# ---------------------------------------------------------------------------


def _as_operands(a, b, op: str):
    ta = a if isinstance(a, Tensor) else Tensor(np.float64(a))
    tb = b if isinstance(b, Tensor) else Tensor(np.float64(b))
    sa, sb = ta.data.shape, tb.data.shape
    if sa != sb and ta.data.size != 1 and tb.data.size != 1 and not (
            _repeats_over_rows(sa, sb) or _repeats_over_rows(sb, sa)):
        raise ValueError(
            f"{op}: incompatible shapes {sa} vs {sb} "
            "(only equal-shape, scalar or row broadcasting supported)"
        )
    return ta, tb


def _repeats_over_rows(row: tuple, full: tuple) -> bool:
    return (len(full) in (2, 3) and row[-1:] == full[-1:] and row[-2:-1] == (1,)
            and row[:-2] in ((), full[:-2]))


def _unbroadcast(g: np.ndarray, t: Tensor) -> np.ndarray:
    if g.shape == t.data.shape:
        return g
    if t.data.size == 1:
        return np.sum(g).reshape(t.data.shape)
    # a repeated row: sum over the rows, and over the stack for a (1 x d) row
    return np.sum(g, axis=tuple(range(g.ndim - t.data.ndim)) + (g.ndim - 2,)).reshape(
        t.data.shape)


def add(a, b) -> Tensor:
    ta, tb = _as_operands(a, b, "add")
    out = Tensor(ta.data + tb.data)
    _record(
        "add",
        (ta, tb),
        (out,),
        lambda g: (_unbroadcast(g, ta), _unbroadcast(g, tb)),
    )
    return out


def sub(a, b) -> Tensor:
    ta, tb = _as_operands(a, b, "sub")
    out = Tensor(ta.data - tb.data)
    _record(
        "sub",
        (ta, tb),
        (out,),
        lambda g: (_unbroadcast(g, ta), _unbroadcast(-g, tb)),
    )
    return out


def mul(a, b) -> Tensor:
    ta, tb = _as_operands(a, b, "mul")
    out = Tensor(ta.data * tb.data)
    _record(
        "mul",
        (ta, tb),
        (out,),
        lambda g: (_unbroadcast(g * tb.data, ta), _unbroadcast(g * ta.data, tb)),
    )
    return out


def _sigmoid(d: np.ndarray) -> np.ndarray:
    # exp of -|x| never overflows; 1 / (1 + e) for x >= 0, e / (1 + e)
    # below: max(e, sign(x)) is 1 for x > 0, e = 1 at x = ±0, e below
    # (sign -1), and NaN at NaN
    e = np.exp(-np.abs(d))
    return np.maximum(e, np.sign(d)) / (1.0 + e)


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)
    out = Tensor(y)
    _record("sigmoid", (x,), (out,), lambda g: (g * y * (1.0 - y),))
    return out


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)
    _record("tanh", (x,), (out,), lambda g: (g * (1.0 - y * y),))
    return out


# No model uses relu; it stays because acceptance gate A1's gradient
# suite (tests/test_acceptance.py) checks it.
def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out = Tensor(np.where(mask, x.data, 0.0))
    _record("relu", (x,), (out,), lambda g: (g * mask,))
    return out


# ---------------------------------------------------------------------------
# Structural ops.
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of 2-D operands.  A (B x n x k) stack on the left
    takes a (k x m) right operand, shared by its B blocks and applied as
    one product over all their rows (a 2-D left operand is the one-block
    case), or a (B x k x m) stack, block by block."""
    A, B = a.data, b.data
    if not (A.ndim in (2, 3) and (B.ndim == 2 or B.ndim == A.ndim and B.shape[0] == A.shape[0])):
        raise ValueError(f"matmul expects 2-D operands or a stack on the left, "
                         f"got {A.shape} and {B.shape}")
    if A.shape[-1] != B.shape[-2]:
        raise ValueError(f"matmul: inner dimensions disagree, {A.shape} x {B.shape}")
    shared = B.ndim == 2
    if shared:
        rows = A.reshape(math.prod(A.shape[:-1]), A.shape[-1])  # every block's rows
        out = Tensor((rows @ B).reshape(A.shape[:-1] + B.shape[1:]))
    else:
        out = Tensor(A @ B)

    def back(g):
        if shared:
            return g @ B.T, rows.T @ g.reshape(len(rows), B.shape[1])
        return g @ B.transpose(0, 2, 1), A.transpose(0, 2, 1) @ g

    _record("matmul", (a, b), (out,), back)
    return out


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes of a 2-D tensor or of a 3-D stack."""
    if x.data.ndim not in (2, 3):
        raise ValueError(f"transpose expects a 2-D or 3-D tensor, got {x.data.shape}")
    out = Tensor(np.swapaxes(x.data, -1, -2).copy())
    _record("transpose", (x,), (out,), lambda g: (np.swapaxes(g, -1, -2),))
    return out


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = Tensor(x.data.reshape(shape).copy())
    _record("reshape", (x,), (out,), lambda g: (g.reshape(x.data.shape),))
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("concat of an empty list")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))

    def back(g):
        # each input's slice of g along the axis, as views
        lead, parts, start = (slice(None),) * (axis % g.ndim), [], 0
        for t in tensors:
            stop = start + t.data.shape[axis]
            parts.append(g[lead + (slice(start, stop),)])
            start = stop
        return parts

    _record("concat", tuple(tensors), (out,), back)
    return out


def reduce_sum(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = Tensor(np.sum(x.data, axis=axis, keepdims=keepdims))

    def back(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape).copy(),)

    _record("reduce_sum", (x,), (out,), back)
    return out


def reduce_mean(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    n = x.data.size if axis is None else x.data.shape[axis]
    return mul(reduce_sum(x, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# Probability ops.
# ---------------------------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if x.data.shape[axis] == 0:
        raise ValueError("softmax over an empty axis")
    y = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def back(g):
        inner = np.sum(g * y, axis=axis, keepdims=True)
        return ((g - inner) * y,)

    _record("softmax", (x,), (out,), back)
    return out


class Segments:
    """Segments of positions, laid end to end so that each is one
    ``reduceat`` span.  Build it once and pass it to every
    ``segment_max`` over the same segments; the range of the positions
    is taken once here, and each call checks it against its width."""

    __slots__ = ("order", "starts", "owner", "low", "high")

    def __init__(self, segments: Sequence[Sequence[int]]):
        sizes = [len(seg) for seg in segments]
        if not sizes:
            raise ValueError("no segments")
        if 0 in sizes:
            raise ValueError(f"segment {sizes.index(0)} is empty")
        self.order = np.asarray([i for seg in segments for i in seg], dtype=np.intp)
        self.starts = np.cumsum([0] + sizes[:-1])
        self.owner = np.repeat(np.arange(len(sizes)), sizes)
        self.low, self.high = int(self.order.min()), int(self.order.max())


def segment_max(
    scores: Tensor, segments: Segments | Sequence[Sequence[int]]
) -> tuple[Tensor, np.ndarray]:
    """Per-segment maximum over the last axis of a (B x r x n) stack,
    with the winning index of each segment.  Each block has its own
    segments: they index the B*n positions b*n + j, block b owning the
    b-th B-th of them, in order, and the maxima and winners (positions
    j) come out B x r x S/B.  A 1-D or 2-D tensor is the one-block case,
    its maxima and winners shaped as its rows are.

    Gradient is routed only to each segment's winning position; ties go
    to the lowest index.  Returns ``(maxima, argmax_indices)``.
    """
    data = scores.data
    if data.ndim not in (1, 2, 3):
        raise ValueError(f"segment_max expects a 1-D, 2-D or 3-D score tensor, got {scores.shape}")
    if not isinstance(segments, Segments):
        segments = Segments(segments)
    order, owner, starts = segments.order, segments.owner, segments.starts
    blocks, r, width = (1, 1)[: 3 - data.ndim] + data.shape
    if len(starts) % blocks:
        raise ValueError(f"{len(starts)} segments do not split over {blocks} blocks")
    # the blocks side by side, one (r x B*n) matrix
    flat = data.reshape(blocks, r, width).transpose(1, 0, 2).reshape(r, -1)
    n = flat.shape[1]
    if segments.low < 0 or segments.high >= n:
        raise ValueError(f"a segment indexes outside 0..{n - 1}")
    vals = flat[:, order]
    maxima = np.maximum.reduceat(vals, starts, axis=1)
    winners = np.minimum.reduceat(np.where(vals < maxima[:, owner], n, order), starts, axis=1)

    def unstack(x):
        return x.reshape(r, blocks, -1).transpose(1, 0, 2).reshape(data.shape[:-1] + (-1,))

    out = Tensor(unstack(maxima))

    def back(g):
        gs = np.zeros_like(flat)
        np.add.at(gs, (np.arange(r)[:, None], winners),
                  g.reshape(blocks, r, -1).transpose(1, 0, 2).reshape(r, -1))
        return (unstack(gs),)

    _record("segment_max", (scores,), (out,), back)
    return out, unstack(winners) % width


def lookup(table: Tensor, ids: Sequence[int] | np.ndarray) -> Tensor:
    """Row gather from an embedding table, one row per id, in the shape
    of ``ids`` (a (P x n) array of ids gathers a P x n x d stack);
    backward scatter-adds."""
    if table.data.ndim != 2:
        raise ValueError(f"lookup expects a 2-D table, got {table.shape}")
    idx = np.asarray(ids, dtype=np.intp)
    v = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= v):
        raise ValueError(f"lookup id outside 0..{v - 1}")
    out = Tensor(table.data[idx])

    def back(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    _record("lookup", (table,), (out,), back)
    return out


def scatter_sum(values: Tensor, index_map: Sequence[int] | np.ndarray, size: int) -> Tensor:
    """out[..., i] = sum of values[..., j] over all columns j that land on
    id i, along the last axis of a 1-D, 2-D or 3-D tensor of n columns.
    A map of m ids gives the targets of the last m columns, and each of
    the n - m columns before them lands on its own id 0 .. n - m - 1 (a
    generator's vocabulary columns, ahead of its copy columns).  A 1-D
    map serves every row; a (B x m) map gives each block of a
    (B x r x n) stack its own."""
    shape = values.data.shape
    if len(shape) not in (1, 2, 3):
        raise ValueError(f"scatter_sum expects a 1-D, 2-D or 3-D tensor, got {values.shape}")
    idx = np.asarray(index_map, dtype=np.intp)
    if (not (idx.ndim == 1 or idx.ndim == 2 and len(shape) == 3 and idx.shape[0] == shape[0])
            or idx.shape[-1] > shape[-1]):
        raise ValueError(f"index_map of shape {idx.shape} does not fit values of shape "
                         f"{values.shape}")
    k = shape[-1] - idx.shape[-1]  # the identity columns
    if k > size or (idx.size and (idx.min() < 0 or idx.max() >= size)):
        raise ValueError(f"scatter_sum target outside 0..{size - 1}")
    # each block's map, broadcast over the rows of its block, with the
    # rows laid end to end
    idx = idx[:, None, :] if idx.ndim == 2 else idx
    lead = shape[:-1]
    flat = (idx + size * np.arange(math.prod(lead)).reshape(lead + (1,))).ravel()
    # each target's values added from 0.0 in column order, as one
    # bincount over the whole map would: its own identity column first,
    # then the mapped columns in order, one by one
    acc = np.empty(lead + (size,))
    np.add(values.data[..., :k], 0.0, out=acc[..., :k])
    acc[..., k:] = 0.0
    np.add.at(acc.reshape(-1), flat, values.data[..., k:].ravel())
    out = Tensor(acc)

    def back(g):
        gv = np.empty(shape)
        gv[..., :k] = g[..., :k]
        gv[..., k:] = g.reshape(-1)[flat].reshape(lead + (-1,))
        return (gv,)

    _record("scatter_sum", (values,), (out,), back)
    return out


def cross_entropy(pred_dist: Tensor, gold: int | Sequence[int]) -> Tensor:
    """Mean negative log-likelihood of the gold ids, one per row of
    ``pred_dist``; a single id reads the whole tensor as one row.

    Each probability is floored at 1e-12 before the log so confidently
    wrong predictions stay finite.
    """
    golds = np.asarray(gold, dtype=np.intp).reshape(-1)
    if np.ndim(gold) and (pred_dist.data.ndim != 2 or pred_dist.shape[0] != golds.size):
        raise ValueError(f"{golds.size} gold ids for a tensor of shape {pred_dist.shape}")
    probs = pred_dist.data.reshape(golds.size, -1)
    if golds.min() < 0 or golds.max() >= probs.shape[1]:
        raise ValueError(f"gold index outside 0..{probs.shape[1] - 1}")
    rows = np.arange(golds.size)
    p = probs[rows, golds]
    out = Tensor(np.sum(np.log(np.maximum(p, PROB_FLOOR))) * (-1.0 / golds.size))

    def back(g):
        gp = np.zeros_like(probs)
        live = p > PROB_FLOOR
        gp[rows[live], golds[live]] = -(float(g) * (1.0 / golds.size)) / p[live]
        return (gp.reshape(pred_dist.data.shape),)

    _record("cross_entropy", (pred_dist,), (out,), back)
    return out


# ---------------------------------------------------------------------------
# Recurrent cell.
# ---------------------------------------------------------------------------


def lstm_step(x: Tensor | Sequence[Tensor], h: Tensor, c: Tensor, W: Tensor | Sequence[Tensor],
              b: Tensor | Sequence[Tensor], reverse: bool | Sequence[bool] = False
              ) -> tuple[Tensor, ...]:
    """The LSTM cell advancing k independent states, the rows of ``h``
    and ``c`` (k x d), over n steps, last to first if ``reverse``, as one
    tape entry.  ``x`` (n*k x dim) is step-major: rows t*k .. t*k+k-1
    feed step t, row r of each block advancing state r.  Returns
    ``(H, c_last)``: H has the layout of ``x``, holding the hidden states
    after each step, and c_last is the (k x d) cell state after the last.
    The gates in ``W``/``b`` are input, forget, output, cell; W's first
    dim rows multiply x and its last d rows multiply h.  The input half
    of every pre-activation, x @ W[:dim] + b, is one GEMM over all n*k
    rows before the loop, so a step multiplies only h by W[dim:]; the
    backward stacks the steps' gate gradients and takes dx and dW in one
    GEMM each after its loop.  The values are the cell's up to the
    rounding of those reassociated sums.  The backward stacks the values
    the forward saved once, before its loop; a step then writes its four
    gate gradients side by side with three products, each gate's factors
    multiplied in the order of the cell's own formula.

    Both directions of a layer advance in the same loop when ``x``,
    ``W``, ``b`` and ``reverse`` are pairs, one entry per direction, and
    ``h``/``c`` (2k x d) stack the forward states over the reverse ones.
    Step j of the loop holds forward step j and reverse step n-1-j as one
    (2 x k x d) state, so the gates and the cell and hidden updates run
    once for both; only the recurrent product (one batched matmul) and
    the input and weight GEMMs are taken per direction.  Returns one H
    per direction, each in the layout of its own ``x``, then the (2k x d)
    c_last, every value and gradient the bits of one call per direction."""
    if isinstance(x, Tensor):
        xs, Ws, bs, revs = (x,), (W,), (b,), (reverse,)
    else:
        xs, Ws, bs, revs = x, W, b, reverse
    (K, d), D = h.data.shape, len(xs)
    k = K // D
    N, m = xs[0].data.shape
    if c.data.shape != h.data.shape:
        raise ValueError(f"lstm_step: h and c disagree, {h.data.shape} and {c.data.shape}")
    Zs = []
    for xd, Wd, bd in zip(xs, Ws, bs):
        if K % D or N % k or xd.data.shape != (N, m):
            raise ValueError(f"lstm_step: x rows are not a multiple of h rows, "
                             f"{_shapes(xs)} and {h.data.shape}")
        if m + d != Wd.data.shape[0]:
            raise ValueError(f"lstm_step: x and h widths do not sum to W rows, "
                             f"{_shapes(xs)} + {h.data.shape} vs {_shapes(Ws)}")
        Zs.append(xd.data @ Wd.data[:m])
        Zs[-1] += bd.data
    n = N // k
    if D == 1:
        # a step's block is its own k rows, in the direction's order.  The
        # stacked setup below serves one direction too, but slower: a
        # decode-shaped call (64 rows, n = 1, d = 48, input 24) took
        # 1.11-1.27x as long through it (2-core VM, BLAS on 1 thread,
        # medians of 12 alternating rounds, 5 runs), and generate_batch on
        # 64 mini200 pairs gained nothing (0.97-1.18x)
        (Z,), Wh, h_t, c_t, rev, B = Zs, W.data[m:], h.data, c.data, reverse, k
    else:
        # block j is one (D x k x .) state, in loop order
        Z, Wh, rev, B = _loop_blocks(Zs, revs, k), np.stack([Wd.data[m:] for Wd in Ws]), False, D
        h_t, c_t = h.data.reshape(D, k, d), c.data.reshape(D, k, d)
    H, steps = np.empty(Z.shape[:-1] + (d,)), []
    for t in reversed(range(n)) if rev else range(n):
        rows = slice(t * B, t * B + B)
        z = h_t @ Wh
        z += Z[rows]
        s = _sigmoid(z[..., : 3 * d])
        i, f, o = s[..., :d], s[..., d : 2 * d], s[..., 2 * d :]
        g = np.tanh(z[..., 3 * d :])
        c_prev, c_t = c_t, f * c_t + i * g
        tc = np.tanh(c_t)
        H[rows] = h_t = o * tc
        steps.append((c_prev, s, g, tc))
    if D == 1:
        outs = Tensor(H), Tensor(c_t)
    else:
        outs = (*[Tensor(Hd) for Hd in _per_direction(H, revs)], Tensor(c_t.reshape(K, d)))

    def back(*grads):
        *dHs, dc = grads
        # the steps' saved values stacked in step order, step j in block
        # j, and the three factors of each gate's gradient side by side:
        # dz = ((a * B1) * B2) * B3, a = [dc, dc, dh, dc]
        c_prev, S, G, TC = (np.concatenate(v) for v in zip(*steps))
        B1 = np.concatenate((G, c_prev, TC, S[..., :d]), axis=-1)
        B2 = np.concatenate((S, 1.0 - G * G), axis=-1)
        B3 = np.ones_like(B2)
        np.subtract(1.0, S, out=B3[..., : 3 * d])
        F, O, T2 = S[..., d : 2 * d], S[..., 2 * d :], 1.0 - TC * TC
        if D == 1:
            (dH,) = dHs
        else:
            dH, dc = _loop_blocks(dHs, revs, k), dc.reshape(D, k, d)
        DZ, dh = np.empty(Z.shape), np.zeros(dc.shape)
        a, WhT = np.empty(dc.shape[:-1] + (4 * d,)), Wh.swapaxes(-1, -2)
        for j in reversed(range(n)):
            t = n - 1 - j if rev else j
            rows, sj = slice(t * B, t * B + B), slice(j * B, j * B + B)
            dh = dH[rows] + dh
            dc = dc + dh * O[sj] * T2[sj]
            np.concatenate((dc, dc, dh, dc), axis=-1, out=a)
            dz = np.multiply(a, B1[sj], out=DZ[rows])
            dz *= B2[sj]
            dz *= B3[sj]
            dh = dz @ WhT
            dc = dc * F[sj]
        dxs, dWs, dbs = [], [], []
        for j, (xd, Wd, DZd, Hd, r) in enumerate(
                zip(xs, Ws, (DZ,) if D == 1 else _per_direction(DZ, revs), outs, revs)):
            # a step's incoming h is h0 at the first step and the output of
            # the step before it after that: H shifted by one block of k rows
            if r:
                first, rest, prev = slice((n - 1) * k, None), slice(0, (n - 1) * k), slice(k, None)
            else:
                first, rest, prev = slice(0, k), slice(k, None), slice(0, (n - 1) * k)
            dW = np.empty_like(Wd.data)
            dW[:m] = xd.data.T @ DZd
            dW[m:] = h.data[j * k : j * k + k].T @ DZd[first] + Hd.data[prev].T @ DZd[rest]
            dxs.append(DZd @ Wd.data[:m].T)
            dWs.append(dW)
            dbs.append(DZd.sum(0, keepdims=True))
        if D > 1:
            dh, dc = dh.reshape(K, d), dc.reshape(K, d)
        return (*dxs, dh, dc, *dWs, *dbs)

    _record("lstm_step", (*xs, h, c, *Ws, *bs), outs, back)
    return outs


def _shapes(tensors: Sequence[Tensor]) -> str:
    return " and ".join(str(t.data.shape) for t in tensors)


def _loop_blocks(parts: Sequence[np.ndarray], revs: Sequence[bool], k: int) -> np.ndarray:
    """One (n*k x w) array per direction as the blocks of a two-direction
    ``lstm_step`` loop, (n*D x k x w): block j stacks each direction's k
    rows of the step it takes at j, step j forward and n-1-j in reverse."""
    n, D = parts[0].shape[0] // k, len(parts)
    out = np.empty((n, D, k, parts[0].shape[1]))
    for j, (A, r) in enumerate(zip(parts, revs)):
        out[:, j] = A.reshape(n, k, -1)[:: -1 if r else 1]
    return out.reshape(n * D, k, -1)


def _per_direction(A: np.ndarray, revs: Sequence[bool]) -> tuple[np.ndarray, ...]:
    """The blocks of a two-direction loop back as one (n*k x w) array per
    direction, each in its own step order."""
    A = A.reshape(-1, len(revs), *A.shape[1:])
    return tuple(A[:: -1 if r else 1, j].reshape(-1, A.shape[-1]) for j, r in enumerate(revs))


# ---------------------------------------------------------------------------
# Optimizer and initialization.
# ---------------------------------------------------------------------------


class AdamState:
    """The shared step counter and the first/second moments by parameter
    name.  The first ``adam_step`` packs the parameters, their moments
    and two scratch vectors into flat float64 buffers, one slice per
    parameter in the order of ``params``: each ``data``, ``m[name]`` and
    ``v[name]`` becomes a view of its slice.  A later step given other
    parameters, or a parameter whose ``data`` was replaced, packs again,
    carrying the moments over by name."""

    def __init__(self):
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._packed: list[tuple[str, np.ndarray]] = []  # (name, data view)
        self._flat: tuple[np.ndarray, ...] = ()  # parameters, m, v and two scratch

    def _buffers(self, params: dict[str, Tensor]) -> tuple[np.ndarray, ...]:
        if len(params) == len(self._packed) and all(
                name == n and p.data is view
                for (name, p), (n, view) in zip(params.items(), self._packed)):
            return self._flat
        total = sum(p.data.size for p in params.values())
        flat = (np.empty(total), np.zeros(total), np.zeros(total),
                np.empty(total), np.empty(total))
        P, M, V = flat[:3]
        self._packed, start = [], 0
        for name, p in params.items():
            shape, span = p.data.shape, slice(start, start + p.data.size)
            start = span.stop
            P[span] = p.data.ravel()
            if name in self.m:
                M[span], V[span] = self.m[name].ravel(), self.v[name].ravel()
            p.data = P[span].reshape(shape)
            self.m[name], self.v[name] = M[span].reshape(shape), V[span].reshape(shape)
            self._packed.append((name, p.data))
        self._flat = flat
        return flat


def adam_step(
    params: dict[str, Tensor],
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One Adam update of every parameter from its ``.grad``, with
    decoupled weight decay, in place.  Every parameter is checked before
    anything changes: one with no gradient, or a gradient of the wrong
    shape, raises ValueError naming it.  The update runs each operation
    once over all parameters, in ``state``'s flat buffers, with the
    gradients gathered into one of its scratch vectors: the same
    arithmetic, element by element, as one parameter at a time."""
    grads = []
    for name, p in params.items():
        g = p.grad
        if g is None:
            raise ValueError(f"adam_step: parameter {name!r} has no gradient")
        if np.shape(g) != p.data.shape:
            raise ValueError(
                f"adam_step: gradient shape {np.shape(g)} does not match "
                f"parameter {name!r} shape {p.data.shape}"
            )
        grads.append(g)
    P, M, V, G, U = state._buffers(params)
    np.concatenate(grads, axis=None, out=G)
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    M *= ADAM_BETA1
    M += np.multiply(G, 1.0 - ADAM_BETA1, out=U)
    V *= ADAM_BETA2
    np.multiply(G, 1.0 - ADAM_BETA2, out=U)
    U *= G
    V += U
    # G is free from here: U holds the update, G the denominator
    np.divide(M, bc1, out=U)
    np.divide(V, bc2, out=G)
    np.sqrt(G, out=G)
    G += ADAM_EPS
    U /= G
    if weight_decay:
        U += np.multiply(P, weight_decay, out=G)
    U *= lr
    P -= U


def uniform_init(rng: np.random.Generator, shape: Sequence[int], fan_in: int) -> Tensor:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=tuple(shape)))
