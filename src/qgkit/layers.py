"""Recurrent building blocks shared by the classifier and the generator.

A bidirectional pass reads an (n x dim) matrix and is two ``lstm_step``
ops, one per direction, each running the whole sequence as one tape
entry.

All state is carried in plain ``{name: Tensor}`` dicts so checkpoints,
the optimizer, and gradient checks can treat every model uniformly.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, add, concat, lstm_step, matmul, uniform_init

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
        f"{prefix}.W": uniform_init(rng, (fan_in, 4 * hidden), fan_in, name=f"{prefix}.W"),
        f"{prefix}.b": uniform_init(rng, (1, 4 * hidden), fan_in, name=f"{prefix}.b"),
    }


def run_bilstm(
    X: Tensor,
    params: dict[str, Tensor],
    prefix: str,
    hidden: int,
) -> Tensor:
    """Bidirectional pass over the rows of ``X`` (n x in), one
    ``lstm_step`` per direction.  Row t of the (n x 2*hidden) states is
    [forward; backward] at position t."""
    zeros = Tensor(np.zeros((1, hidden)))
    fwd, _ = lstm_step(X, zeros, zeros, params[f"{prefix}.fwd.W"], params[f"{prefix}.fwd.b"])
    bwd, _ = lstm_step(X, zeros, zeros, params[f"{prefix}.bwd.W"], params[f"{prefix}.bwd.b"],
                       reverse=True)
    return concat([fwd, bwd], axis=1)


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
    """Affine map of the rows of ``x`` (n x in) -> (n x out); the
    (1 x out) bias is added to every row."""
    return add(matmul(x, W), b)
