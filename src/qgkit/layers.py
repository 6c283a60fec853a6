"""Recurrent building blocks shared by the classifier and the generator.

All state is carried in plain ``{name: Tensor}`` dicts so checkpoints,
the optimizer, and gradient checks can treat every model uniformly.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, add, concat, lstm_step, matmul, uniform_init

__all__ = [
    "init_lstm",
    "lstm_step",
    "run_lstm",
    "run_bilstm",
    "init_bilstm",
    "init_linear",
    "linear",
    "broadcast_rows",
]


def init_lstm(rng: np.random.Generator, input_dim: int, hidden: int, prefix: str) -> dict[str, Tensor]:
    """Parameters of one LSTM cell: combined gate matrix and bias.

    Gate order in the combined projection is input, forget, output, cell.
    """
    fan_in = input_dim + hidden
    return {
        f"{prefix}.W": uniform_init(rng, (fan_in, 4 * hidden), fan_in, name=f"{prefix}.W"),
        f"{prefix}.b": uniform_init(rng, (1, 4 * hidden), fan_in, name=f"{prefix}.b"),
    }


def _zeros(hidden: int) -> Tensor:
    return Tensor(np.zeros((1, hidden)))


def run_lstm(
    rows: list[Tensor], W: Tensor, b: Tensor, hidden: int, reverse: bool = False
) -> tuple[list[Tensor], Tensor]:
    """Run the cell over row vectors; returns per-step outputs in input
    order plus the final hidden state."""
    h, c = _zeros(hidden), _zeros(hidden)
    order = range(len(rows) - 1, -1, -1) if reverse else range(len(rows))
    outputs: list[Tensor | None] = [None] * len(rows)
    for t in order:
        h, c = lstm_step(rows[t], h, c, W, b)
        outputs[t] = h
    return outputs, h


def run_bilstm(
    rows: list[Tensor],
    params: dict[str, Tensor],
    prefix: str,
    hidden: int,
) -> tuple[list[Tensor], Tensor]:
    """Bidirectional pass; per-position outputs are [forward; backward]
    concatenations (1 x 2*hidden), and the final state concatenates the
    two directions' last hidden states."""
    fwd, fwd_final = run_lstm(rows, params[f"{prefix}.fwd.W"], params[f"{prefix}.fwd.b"], hidden)
    bwd, bwd_final = run_lstm(
        rows, params[f"{prefix}.bwd.W"], params[f"{prefix}.bwd.b"], hidden, reverse=True
    )
    outs = [concat([f, b], axis=1) for f, b in zip(fwd, bwd)]
    return outs, concat([fwd_final, bwd_final], axis=1)


def init_bilstm(rng: np.random.Generator, input_dim: int, hidden: int, prefix: str) -> dict[str, Tensor]:
    params = {}
    params.update(init_lstm(rng, input_dim, hidden, f"{prefix}.fwd"))
    params.update(init_lstm(rng, input_dim, hidden, f"{prefix}.bwd"))
    return params


def init_linear(rng: np.random.Generator, input_dim: int, output_dim: int, prefix: str) -> dict[str, Tensor]:
    return {
        f"{prefix}.W": uniform_init(rng, (input_dim, output_dim), input_dim, name=f"{prefix}.W"),
        f"{prefix}.b": uniform_init(rng, (1, output_dim), input_dim, name=f"{prefix}.b"),
    }


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """Affine map of a single row vector (1 x in) -> (1 x out)."""
    return add(matmul(x, W), b)


def broadcast_rows(bias: Tensor, n: int) -> Tensor:
    """Tile a (1 x d) row to (n x d) differentiably (ones-column matmul)."""
    ones = Tensor(np.ones((n, 1)))
    return matmul(ones, bias)
