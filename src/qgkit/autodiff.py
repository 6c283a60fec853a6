"""Reverse-mode automatic differentiation over dense float64 tensors.

Provides exactly the operator set the classifier and generator need:
matmul, elementwise arithmetic and activations, stabilized softmax,
per-segment maxima (for max-capped copy scores), embedding lookup,
scatter-sum regrouping, cross-entropy, and two fused LSTM ops with two
outputs each, sharing one cell: ``lstm_step`` runs the cell over a whole
sequence as one tape entry, and ``lstm_cell`` advances k independent
states by one step.  Ops executed while a Tape is active are recorded in
execution order; ``backward`` replays the tape in exact reverse order
and accumulates gradients into every tensor the loss can reach.  Ops
executed with no active tape are plain forward evaluations, which keeps
inference and finite-difference probing cheap.

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
    "lstm_cell",
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

    __slots__ = ("data", "grad", "name")

    def __init__(self, data, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def copy(self) -> "Tensor":
        out = Tensor(self.data.copy(), name=self.name)
        return out

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor{label}(shape={self.shape})"


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
) -> tuple[Tensor, list]:
    """Per-segment maximum over the last axis of a 1-D or 2-D tensor,
    with the winning index of each segment (one list per row for 2-D).

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
    return out, winners.tolist()


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


def _cell(xh: np.ndarray, c: np.ndarray, W: np.ndarray, b: np.ndarray):
    """One step of the LSTM cell for each row of ``xh`` = [x, h], from
    the cell state rows ``c``.  Returns the new h and c rows and the gate
    values the backward needs."""
    d = c.shape[1]
    z = xh @ W + b
    s = _sigmoid(z[:, : 3 * d])
    i, f, o = s[:, :d], s[:, d : 2 * d], s[:, 2 * d :]
    g = np.tanh(z[:, 3 * d : 4 * d])
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    return o * tc, c_new, (i, f, o, g, tc)


def _cell_back(dh, dc, xh, c, gates, W):
    """Gradients through one ``_cell`` step, from those of its new h and
    c: the gradient of ``xh``, of the old c, and of the gate
    pre-activations (whose products with ``xh`` and 1 give dW and db)."""
    i, f, o, g, tc = gates
    dc = dc + dh * o * (1.0 - tc * tc)
    dz = np.concatenate([dc * g * i * (1.0 - i), dc * c * f * (1.0 - f),
                         dh * tc * o * (1.0 - o), dc * i * (1.0 - g * g)], axis=1)
    return dz @ W.T, dc * f, dz


def lstm_step(x: Tensor, h: Tensor, c: Tensor, W: Tensor, b: Tensor,
              reverse: bool = False) -> tuple[Tensor, Tensor]:
    """The LSTM cell run over the rows of ``x`` (n x dim), last to first if
    ``reverse``, from the state rows ``h`` and ``c``, as one tape entry.
    Returns ``(H, c_last)``: row t of H is the hidden state after row t.
    The gates in ``W``/``b`` are input, forget, output, cell.  Each step
    repeats, product for product, the cell composed from the elementwise
    ops, and the backward walks the steps as a tape of one-row steps
    would, so values and gradients equal that composition's."""
    H, steps = np.empty((x.data.shape[0], h.data.shape[1])), []
    h_t, c_t = h.data, c.data
    for t in reversed(range(len(x.data))) if reverse else range(len(x.data)):
        xh = np.concatenate([x.data[t : t + 1], h_t], axis=1)
        c_prev = c_t
        h_t, c_t, gates = _cell(xh, c_prev, W.data, b.data)
        H[t] = h_t
        steps.append((t, xh, c_prev, gates))
    H, c_last = Tensor(H), Tensor(c_t)

    def back(dH, dc):
        dx, dW, db = np.empty_like(x.data), np.zeros_like(W.data), np.zeros_like(b.data)
        dh = np.zeros_like(h.data)
        for t, xh, c_prev, gates in reversed(steps):
            dh = dH[t : t + 1] + dh
            dxh, dc, dz = _cell_back(dh, dc, xh, c_prev, gates, W.data)
            dx[t : t + 1], dh = np.split(dxh, [x.data.shape[1]], axis=1)
            dW += xh.T @ dz
            db += dz
        return dx, dh, dc, dW, db

    _record("lstm_step", (x, h, c, W, b), (H, c_last), back)
    return H, c_last


def lstm_cell(x: Tensor, h: Tensor, c: Tensor, W: Tensor,
              b: Tensor) -> tuple[Tensor, Tensor]:
    """One step of the LSTM cell for each of k independent states: row r
    of ``x`` (k x dim) advances the state rows ``h[r]``, ``c[r]``, with
    the arithmetic of one ``lstm_step`` step.  One tape entry; returns
    the new ``(h, c)``, both (k x d)."""
    xh = np.concatenate([x.data, h.data], axis=1)
    h_new, c_new, gates = _cell(xh, c.data, W.data, b.data)
    out_h, out_c = Tensor(h_new), Tensor(c_new)

    def back(dh, dc):
        dxh, dc, dz = _cell_back(dh, dc, xh, c.data, gates, W.data)
        dx, dh = np.split(dxh, [x.data.shape[1]], axis=1)
        return dx, dh, dc, xh.T @ dz, np.sum(dz, axis=0, keepdims=True)

    _record("lstm_cell", (x, h, c, W, b), (out_h, out_c), back)
    return out_h, out_c


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


def uniform_init(
    rng: np.random.Generator, shape: Sequence[int], fan_in: int, name: str | None = None
) -> Tensor:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=tuple(shape)), name=name)
