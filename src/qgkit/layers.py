"""Recurrent building blocks shared by the classifier and the generator.

``padded`` is the one layout rule for P sequences packed end to end in
the rows of one (N x dim) matrix: P rows of n_max slots, n_max the
longest length, each padding slot repeating a real row of its own
sequence.  ``run_lstm`` reads such sequences as one ``lstm_step`` op in
one direction, or in both at once, each sequence one of P state rows per
direction, from given initial states: one sequence (P = 1) as it is,
more through ``padded``, step-major.  A bidirectional pass is one
``run_lstm`` over both directions from zero states while their 2P
stacked state rows fit ``_STACK_ROWS`` (4: taped training's one
sequence and chunks of two), where one time loop serving both was
measured 17-40% faster than two; above it, where the gain shrinks and
turns into a loss near P = 8-16, it is ``run_lstm`` once per direction.
The generator's teacher-forced decoder is ``run_lstm`` from its bridged
states.

All state is carried in plain ``{name: Tensor}`` dicts so checkpoints,
the optimizer, and gradient checks can treat every model uniformly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Tensor, add, concat, lookup, lstm_step, matmul, uniform_init

__all__ = [
    "init_lstm",
    "lstm_step",
    "run_bilstm",
    "run_lstm",
    "init_bilstm",
    "init_linear",
    "linear",
    "padded",
]


def init_lstm(rng: np.random.Generator, input_dim: int, hidden: int, prefix: str) -> dict[str, Tensor]:
    """Parameters of one LSTM cell: combined gate matrix and bias.

    Gate order in the combined projection is input, forget, output, cell.
    """
    fan_in = input_dim + hidden
    return {
        f"{prefix}.W": uniform_init(rng, (fan_in, 4 * hidden), fan_in),
        f"{prefix}.b": uniform_init(rng, (1, 4 * hidden), fan_in),
    }


def padded(lengths: Sequence[int], right: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The padded layout of P sequences packed end to end, sequence p
    being the next ``lengths[p]`` (at least 1) packed rows: ``rows``
    (P x n_max) holds the packed row each slot reads and ``real`` marks
    the slots that hold their own row.  Sequence p fills row p in order
    from the left, or up to the right edge if ``right``, and a padding
    slot repeats the nearest real row of its own sequence."""
    lengths = np.asarray(lengths)[:, None]
    n_max = lengths.max()
    t = np.arange(n_max) - (n_max - lengths if right else 0)  # each slot's place in its sequence
    starts = np.cumsum(lengths, axis=0) - lengths
    return starts + np.clip(t, 0, lengths - 1), (0 <= t) & (t < lengths)


def run_lstm(X: Tensor, lengths: Sequence[int], h0: Tensor, c0: Tensor,
             W: Tensor | Sequence[Tensor], b: Tensor | Sequence[Tensor],
             reverse: bool | Sequence[bool] = False) -> Tensor | tuple[Tensor, ...]:
    """One direction of an LSTM over sequences packed end to end in the
    rows of ``X`` (N x in), sequence p being the next ``lengths[p]`` rows
    and starting from row p of ``h0`` and ``c0`` (P x d); one
    ``lstm_step`` advances all P of them as its state rows, last step to
    first if ``reverse``.  Returns the (N x d) hidden states in the same
    packed layout.  Given pairs of ``W``, ``b`` and ``reverse``, as
    ``lstm_step`` takes them, it runs both directions in that one call,
    from (2P x d) states, forward over reverse, and returns a pair.

    One sequence is read as it is.  Several are read in the ``padded``
    layout, step-major, right-aligned if ``reverse``, so each reaches its
    padding only after its last real step: no real state depends on a
    padding slot, its output is never read, and it gets no gradient."""
    k, pair = len(lengths), not isinstance(W, Tensor)
    if (min(lengths, default=0) < 1 or sum(lengths) != X.shape[0]
            or h0.shape[0] != (1 + pair) * k):
        raise ValueError(f"run_lstm: lengths {list(lengths)} do not split {X.shape[0]} rows "
                         f"into {h0.shape[0]} sequences")
    if k == 1:
        Hs = lstm_step((X, X) if pair else X, h0, c0, W, b, reverse)[:-1]
    else:
        layouts = [padded(lengths, right=r) for r in (reverse if pair else (reverse,))]
        xs = tuple(lookup(X, rows.T.ravel()) for rows, _ in layouts)
        Hs = lstm_step(xs if pair else xs[0], h0, c0, W, b, reverse)[:-1]
        # each real slot's step-major row of H, in packed order
        Hs = tuple(lookup(H, np.arange(rows.size).reshape(rows.T.shape).T[real])
                   for H, (rows, real) in zip(Hs, layouts))
    return Hs if pair else Hs[0]


# Stacked state rows (2 per sequence) up to which ``run_bilstm`` runs both
# directions of a layer in one ``lstm_step`` loop; above it, one call per
# direction.  Measured on one layer through ``run_bilstm`` (n = 11 steps,
# d = 32, input 24; 2-core VM, BLAS on 1 thread, median of 400 alternating
# pairs), per-direction time over stacked: taped forward and backward 1.22,
# 1.33, 1.18, 1.10 at P = 1-4, 1.01-1.03 at P = 12-16, 0.90 at P = 32;
# untaped 1.17-1.40 at P = 1-6, 1.07 at P = 8, 0.79-0.87 at P = 12-32.  The
# crossover moves with the shape (untaped, near P = 8 at n = 30 and between
# P = 8 and 12 at d = 24), so the budget holds taped training's P = 1 and
# the smallest chunks, where every shape tried gained at least 15%.
_STACK_ROWS = 4


def run_bilstm(X: Tensor, lengths: Sequence[int], params: dict[str, Tensor], prefix: str) -> Tensor:
    """Bidirectional pass over sequences packed end to end in the rows
    of ``X`` (N x in), sequence p being the next ``lengths[p]`` rows,
    from zero states: one ``run_lstm`` over both directions while their
    2P stacked state rows fit ``_STACK_ROWS``, one per direction above.
    Returns the (N x 2h) states in the same packed layout, the row of
    each position holding [forward; backward]; h is the width of the
    ``prefix`` layer's (1 x 4h) gate bias."""
    pair = 2 * len(lengths) <= _STACK_ROWS
    hidden = params[f"{prefix}.fwd.b"].shape[1] // 4
    zeros = Tensor(np.zeros(((1 + pair) * len(lengths), hidden)))
    dirs = ((params[f"{prefix}.fwd.W"], params[f"{prefix}.bwd.W"]),
            (params[f"{prefix}.fwd.b"], params[f"{prefix}.bwd.b"]), (False, True))
    if pair:
        fwd, bwd = run_lstm(X, lengths, zeros, zeros, *dirs)
    else:
        fwd, bwd = (run_lstm(X, lengths, zeros, zeros, *d) for d in zip(*dirs))
    return concat([fwd, bwd], axis=1)


def init_bilstm(rng: np.random.Generator, input_dim: int, hidden: int, prefix: str) -> dict[str, Tensor]:
    params = {}
    params.update(init_lstm(rng, input_dim, hidden, f"{prefix}.fwd"))
    params.update(init_lstm(rng, input_dim, hidden, f"{prefix}.bwd"))
    return params


def init_linear(rng: np.random.Generator, input_dim: int, output_dim: int, prefix: str) -> dict[str, Tensor]:
    return {
        f"{prefix}.W": uniform_init(rng, (input_dim, output_dim), input_dim),
        f"{prefix}.b": uniform_init(rng, (1, output_dim), input_dim),
    }


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """Affine map of the rows of ``x`` (n x in) -> (n x out); the
    (1 x out) bias is added to every row."""
    return add(matmul(x, W), b)
