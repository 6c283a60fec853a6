"""Tests for the packed bidirectional pass.

``run_bilstm`` over several sequences packed end to end is checked
against the same pass over each sequence alone, and its taped form
against central finite differences.
"""

import numpy as np
import pytest

from qgkit.autodiff import Tape, Tensor, backward, mul, reduce_sum
from qgkit.gradcheck import check_gradients
from qgkit.layers import init_bilstm, run_bilstm

IN, HIDDEN = 3, 4


def _setup(seed, lengths):
    rng = np.random.default_rng(seed)
    params = init_bilstm(rng, IN, HIDDEN, "enc")
    X = Tensor(rng.normal(size=(sum(lengths), IN)))
    return params, X


@pytest.mark.parametrize("lengths", [[3, 1, 5, 2], [4, 4, 4], [1], [2, 1, 2]],
                         ids=["mixed", "equal", "single-length-1", "length-1-inside"])
def test_packed_matches_one_sequence_at_a_time(lengths):
    params, X = _setup(0, lengths)
    packed = run_bilstm(X, lengths, params, "enc", HIDDEN)
    assert packed.shape == (sum(lengths), 2 * HIDDEN)
    start = 0
    for n in lengths:
        alone = run_bilstm(Tensor(X.data[start : start + n]), [n], params, "enc", HIDDEN)
        np.testing.assert_allclose(packed.data[start : start + n], alone.data,
                                   rtol=1e-12, atol=0)
        start += n


def test_one_sequence_tapes_no_gather():
    params, X = _setup(1, [5])
    with Tape() as tape:
        run_bilstm(X, [5], params, "enc", HIDDEN)
    assert [e.op for e in tape.entries] == ["lstm_step", "lstm_step", "concat"]


@pytest.mark.parametrize("lengths", [[0, 2], [2, 2], []], ids=["empty", "short", "none"])
def test_lengths_must_split_rows(lengths):
    params, X = _setup(2, [3])
    with pytest.raises(ValueError, match="do not split"):
        run_bilstm(X, lengths, params, "enc", HIDDEN)


def test_packed_gradients_vs_finite_differences():
    lengths = [3, 1, 4]
    params, X = _setup(3, lengths)
    weights = Tensor(np.linspace(-1.0, 1.2, sum(lengths) * 2 * HIDDEN)
                     .reshape(sum(lengths), 2 * HIDDEN))

    def loss():
        return reduce_sum(mul(run_bilstm(X, lengths, params, "enc", HIDDEN), weights))

    with Tape() as tape:
        out = loss()
    backward(tape, out)
    inputs = [X, *params.values()]
    assert check_gradients(lambda: loss().item(), inputs) < 1e-6

    # each direction reads a step-major (n_max * P) input; a sequence's
    # padding slots follow its last real step, so they get no gradient
    n, k = max(lengths), len(lengths)
    fwd_x, bwd_x = (e.inputs[0] for e in tape.entries if e.op == "lstm_step")
    for t in range(n):
        for p, length in enumerate(lengths):
            assert np.any(fwd_x.grad[t * k + p]) == (t < length), (t, p)
            assert np.any(bwd_x.grad[t * k + p]) == (t >= n - length), (t, p)


def test_padding_values_do_not_reach_real_rows():
    # the real rows' states are the same whatever the other sequences hold
    lengths = [2, 5]
    params, X = _setup(4, lengths)
    before = run_bilstm(X, lengths, params, "enc", HIDDEN).data[:2]
    X.data[2:] += 3.0
    after = run_bilstm(X, lengths, params, "enc", HIDDEN).data[:2]
    np.testing.assert_allclose(before, after, rtol=1e-12, atol=0)
