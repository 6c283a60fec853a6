"""Recurrent building blocks shared by the classifier and the generator.

A bidirectional pass reads P sequences packed end to end in the rows of
one (N x dim) matrix and is two ``lstm_step`` ops, one per direction,
each running every sequence as one of P state rows in one tape entry.
One sequence (P = 1) is read as it is; more are laid out step-major and
padded to the longest, and a padding row is never read.

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
    "init_bilstm",
    "init_linear",
    "linear",
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


def run_bilstm(
    X: Tensor,
    lengths: Sequence[int],
    params: dict[str, Tensor],
    prefix: str,
    hidden: int,
) -> Tensor:
    """Bidirectional pass over sequences packed end to end in the rows
    of ``X`` (N x in), sequence p being the next ``lengths[p]`` rows;
    one ``lstm_step`` per direction advances all P of them as its state
    rows.  Returns the (N x 2*hidden) states in the same packed layout,
    the row of each position holding [forward; backward].

    One sequence is read as it is.  Several are gathered step-major over
    the longest length, the forward input left-aligned and the backward
    input right-aligned, so both directions reach a sequence's padding
    only after its last real step.  A padding slot repeats a real row of
    its sequence: no real state depends on it, its output is never read,
    and it gets no gradient."""
    if min(lengths, default=0) < 1 or sum(lengths) != X.shape[0]:
        raise ValueError(f"run_bilstm: lengths {list(lengths)} do not split "
                         f"{X.shape[0]} rows into sequences")
    k = len(lengths)
    fwd_x = bwd_x = X
    if k > 1:
        lengths = np.asarray(lengths)
        starts = np.cumsum(lengths) - lengths
        n_max = int(lengths.max())
        shift = n_max - lengths  # the step at which each backward input starts
        t = np.arange(n_max)[:, None]
        fwd_x = lookup(X, (starts + np.minimum(t, lengths - 1)).ravel())
        bwd_x = lookup(X, (starts + np.maximum(t - shift, 0)).ravel())
    zeros = Tensor(np.zeros((k, hidden)))
    fwd, _ = lstm_step(fwd_x, zeros, zeros, params[f"{prefix}.fwd.W"], params[f"{prefix}.fwd.b"])
    bwd, _ = lstm_step(bwd_x, zeros, zeros, params[f"{prefix}.bwd.W"], params[f"{prefix}.bwd.b"],
                       reverse=True)
    if k > 1:
        # the step-major slot of each packed row
        seq = np.repeat(np.arange(k), lengths)
        pos = np.arange(len(seq)) - starts[seq]
        fwd = lookup(fwd, pos * k + seq)
        bwd = lookup(bwd, (pos + shift[seq]) * k + seq)
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
