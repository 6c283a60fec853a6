"""Reverse-mode automatic differentiation over dense float64 tensors.

Provides exactly the operator set the classifier and generator need:
matmul, elementwise arithmetic and activations, stabilized softmax,
per-segment maxima (for max-capped copy scores), embedding lookup,
scatter-sum regrouping, cross-entropy, and one fused LSTM op with two
outputs, ``lstm_step``, which advances k independent states over a whole
sequence as one tape entry (an encoder pass is k = 1, a decoder step
n = 1).  Ops executed while a Tape is active are recorded in execution
order; ``backward`` replays the tape in exact reverse order and
accumulates gradients into every tensor the loss can reach.  Ops executed
with no active tape are plain forward evaluations, which keeps inference
and finite-difference probing cheap.

Everything is 64-bit and deterministic: the same seed and the same op
sequence produce bit-identical values.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

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
    ``grad is None``.
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    seen: dict[int, Tensor] = {}
    for entry in tape.entries:
        for t in entry.inputs + entry.outputs:
            seen[id(t)] = t
    for t in seen.values():
        t.grad = np.zeros_like(t.data)
    loss.grad = np.ones_like(loss.data)
    for entry in reversed(tape.entries):
        grads = entry.backward_fn(*(t.grad for t in entry.outputs))
        for t, g in zip(entry.inputs, grads):
            if g is not None:
                t.grad += g


# ---------------------------------------------------------------------------
# Elementwise ops.  Broadcasting is restricted to equal shapes, a
# single-element operand against anything, and a (1 x d) row against an
# (n x d) matrix; other mixes are an error.
# ---------------------------------------------------------------------------


def _as_operands(a, b, op: str):
    ta = a if isinstance(a, Tensor) else Tensor(np.float64(a))
    tb = b if isinstance(b, Tensor) else Tensor(np.float64(b))
    sa, sb = ta.data.shape, tb.data.shape
    row = len(sa) == len(sb) == 2 and sa[1] == sb[1] and 1 in (sa[0], sb[0])
    if sa != sb and ta.data.size != 1 and tb.data.size != 1 and not row:
        raise ValueError(
            f"{op}: incompatible shapes {sa} vs {sb} "
            "(only equal-shape, scalar or row broadcasting supported)"
        )
    return ta, tb


def _unbroadcast(g: np.ndarray, t: Tensor) -> np.ndarray:
    if g.shape == t.data.shape:
        return g
    return np.sum(g, axis=None if t.data.size == 1 else 0).reshape(t.data.shape)


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
    # exp of -|x| never overflows; 1 / (1 + e) for x >= 0, e / (1 + e) below
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0, e) / (1.0 + e)


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
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(
            f"matmul expects 2-D operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul: inner dimensions disagree, {a.data.shape} x {b.data.shape}"
        )
    out = Tensor(a.data @ b.data)
    _record(
        "matmul",
        (a, b),
        (out,),
        lambda g: (g @ b.data.T, a.data.T @ g),
    )
    return out


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ValueError(f"transpose expects a 2-D tensor, got {x.data.shape}")
    out = Tensor(x.data.T.copy())
    _record("transpose", (x,), (out,), lambda g: (g.T,))
    return out


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = Tensor(x.data.reshape(shape).copy())
    _record("reshape", (x,), (out,), lambda g: (g.reshape(x.data.shape),))
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("concat of an empty list")
    parts = [t.data for t in tensors]
    out = Tensor(np.concatenate(parts, axis=axis))
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=axis))

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
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=axis, keepdims=True)
    out = Tensor(y)

    def back(g):
        inner = np.sum(g * y, axis=axis, keepdims=True)
        return ((g - inner) * y,)

    _record("softmax", (x,), (out,), back)
    return out


class Segments:
    """Segments of positions, laid end to end so that each is one
    ``reduceat`` span.  Build it once and pass it to every
    ``segment_max`` over the same segments."""

    __slots__ = ("order", "starts", "owner")

    def __init__(self, segments: Sequence[Sequence[int]]):
        sizes = [len(seg) for seg in segments]
        if not sizes:
            raise ValueError("no segments")
        if 0 in sizes:
            raise ValueError(f"segment {sizes.index(0)} is empty")
        self.order = np.asarray([i for seg in segments for i in seg], dtype=np.intp)
        self.starts = np.cumsum([0] + sizes[:-1])
        self.owner = np.repeat(np.arange(len(sizes)), sizes)


def segment_max(
    scores: Tensor, segments: Segments | Sequence[Sequence[int]]
) -> tuple[Tensor, np.ndarray]:
    """Per-segment maximum over the last axis of a 1-D or 2-D tensor,
    with the winning index of each segment (one row per row for 2-D).

    Gradient is routed only to each segment's winning position; ties go
    to the lowest index.  Returns ``(maxima, argmax_indices)``.
    """
    if scores.data.ndim not in (1, 2):
        raise ValueError(f"segment_max expects a 1-D or 2-D score tensor, got {scores.shape}")
    n = scores.data.shape[-1]
    if not isinstance(segments, Segments):
        segments = Segments(segments)
    order, owner = segments.order, segments.owner
    if order.min() < 0 or order.max() >= n:
        raise ValueError(f"a segment indexes outside 0..{n - 1}")
    vals = scores.data[..., order]
    maxima = np.maximum.reduceat(vals, segments.starts, axis=-1)
    winners = np.minimum.reduceat(np.where(vals < maxima[..., owner], n, order),
                                  segments.starts, axis=-1)
    out = Tensor(maxima)

    def back(g):
        gs = np.zeros_like(scores.data)
        np.add.at(gs, (*np.indices(winners.shape)[:-1], winners), g)
        return (gs,)

    _record("segment_max", (scores,), (out,), back)
    return out, winners


def lookup(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Row gather from an embedding table; backward scatter-adds."""
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


def scatter_sum(values: Tensor, index_map: Sequence[int], size: int) -> Tensor:
    """out[..., i] = sum of values[..., j] over all j with index_map[j] == i,
    along the last axis of a 1-D or 2-D tensor."""
    if values.data.ndim not in (1, 2):
        raise ValueError(f"scatter_sum expects a 1-D or 2-D tensor, got {values.shape}")
    idx = np.asarray(index_map, dtype=np.intp)
    if idx.shape[0] != values.data.shape[-1]:
        raise ValueError("index_map length must match values length")
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise ValueError(f"scatter_sum target outside 0..{size - 1}")
    # one bincount over the rows laid end to end; it adds each target's
    # values from 0.0 in index order, as an in-place scatter-add would
    lead = values.data.shape[:-1]
    rows = lead[0] if lead else 1
    flat = (idx + size * np.arange(rows)[:, None]).ravel()
    acc = np.bincount(flat, weights=values.data.ravel(), minlength=rows * size)
    out = Tensor(acc.reshape(lead + (size,)))
    _record("scatter_sum", (values,), (out,), lambda g: (g[..., idx],))
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


def lstm_step(x: Tensor, h: Tensor, c: Tensor, W: Tensor, b: Tensor,
              reverse: bool = False) -> tuple[Tensor, Tensor]:
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
    rounding of those reassociated sums."""
    k, d = h.data.shape
    if c.data.shape != h.data.shape:
        raise ValueError(f"lstm_step: h and c disagree, {h.data.shape} and {c.data.shape}")
    if x.data.shape[0] % k:
        raise ValueError(f"lstm_step: x rows are not a multiple of h rows, "
                         f"{x.data.shape} and {h.data.shape}")
    if x.data.shape[1] + d != W.data.shape[0]:
        raise ValueError(f"lstm_step: x and h widths do not sum to W rows, "
                         f"{x.data.shape} + {h.data.shape} vs {W.data.shape}")
    n, m = x.data.shape[0] // k, x.data.shape[1]
    Wx, Wh = W.data[:m], W.data[m:]
    Z = x.data @ Wx
    Z += b.data
    H, steps = np.empty((n * k, d)), []
    h_t, c_t = h.data, c.data
    for t in reversed(range(n)) if reverse else range(n):
        rows = slice(t * k, t * k + k)
        z = h_t @ Wh
        z += Z[rows]
        s = _sigmoid(z[:, : 3 * d])
        i, f, o = s[:, :d], s[:, d : 2 * d], s[:, 2 * d :]
        g = np.tanh(z[:, 3 * d :])
        c_prev, c_t = c_t, f * c_t + i * g
        tc = np.tanh(c_t)
        H[rows] = h_t = o * tc
        steps.append((rows, c_prev, i, f, o, g, tc))

    def back(dH, dc):
        DZ, dh = np.empty((n * k, 4 * d)), np.zeros_like(h.data)
        for rows, c_prev, i, f, o, g, tc in reversed(steps):
            dh = dH[rows] + dh
            dc = dc + dh * o * (1.0 - tc * tc)
            dz = DZ[rows]
            dz[:, :d] = dc * g * i * (1.0 - i)
            dz[:, d : 2 * d] = dc * c_prev * f * (1.0 - f)
            dz[:, 2 * d : 3 * d] = dh * tc * o * (1.0 - o)
            dz[:, 3 * d :] = dc * i * (1.0 - g * g)
            dh = dz @ Wh.T
            dc = dc * f
        # a step's incoming h is h0 at the first step and the output of
        # the step before it after that: H shifted by one block of k rows
        if reverse:
            first, rest, prev = slice((n - 1) * k, None), slice(0, (n - 1) * k), slice(k, None)
        else:
            first, rest, prev = slice(0, k), slice(k, None), slice(0, (n - 1) * k)
        dW = np.empty_like(W.data)
        dW[:m] = x.data.T @ DZ
        dW[m:] = h.data.T @ DZ[first] + H[prev].T @ DZ[rest]
        return DZ @ Wx.T, dh, dc, dW, DZ.sum(0, keepdims=True)

    out, c_last = Tensor(H), Tensor(c_t)
    _record("lstm_step", (x, h, c, W, b), (out, c_last), back)
    return out, c_last


# ---------------------------------------------------------------------------
# Optimizer and initialization.
# ---------------------------------------------------------------------------


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self):
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(
    params: dict[str, Tensor],
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One Adam update of every parameter from its ``.grad``, with
    decoupled weight decay, in place."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        g = np.asarray(p.grad, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ValueError(
                f"adam_step: gradient shape {g.shape} does not match "
                f"parameter {name!r} shape {p.data.shape}"
            )
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        if weight_decay:
            update = update + weight_decay * p.data
        p.data -= lr * update


def uniform_init(rng: np.random.Generator, shape: Sequence[int], fan_in: int) -> Tensor:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=tuple(shape)))
