"""Tests for the padded layout and the packed recurrent passes.

``padded`` is checked slot by slot against an enumeration of each
sequence's rows.  ``run_bilstm``, and ``run_lstm`` in each direction
from non-zero initial states, over several sequences packed end to end
are checked against the same pass over each sequence alone, and their
taped forms against central finite differences; ``run_bilstm``'s one
call for both directions against its one call per direction, bit for
bit.
"""

import numpy as np
import pytest

from qgkit.autodiff import Tape, Tensor, backward, concat, mul, reduce_sum
from qgkit.gradcheck import check_gradients
from qgkit import layers
from qgkit.layers import init_bilstm, padded, run_bilstm, run_lstm

IN, HIDDEN = 3, 4


def _setup(seed, lengths):
    rng = np.random.default_rng(seed)
    params = init_bilstm(rng, IN, HIDDEN, "enc")
    X = Tensor(rng.normal(size=(sum(lengths), IN)))
    return params, X


def _passes(params):
    """Each pass under test as (X, lengths, h0, c0) -> states: the
    bidirectional one, which starts from zeros, and one direction each
    way from ``h0``/``c0``."""
    def lstm(reverse):
        return lambda X, lengths, h0, c0: run_lstm(X, lengths, h0, c0, params["enc.fwd.W"],
                                                   params["enc.fwd.b"], reverse=reverse)
    return [lambda X, lengths, h0, c0: run_bilstm(X, lengths, params, "enc"),
            lstm(False), lstm(True)]


def _states(seed, k):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(k, HIDDEN))), Tensor(rng.normal(size=(k, HIDDEN)))


def _length_lists():
    # every list of one or two lengths in 1..9, then seeded draws for
    # three to six, plus all-equal and one-long-rest-short lists
    rng = np.random.default_rng(0)
    lists = [[n] for n in range(1, 10)] + [[a, b] for a in range(1, 10) for b in range(1, 10)]
    for k in range(3, 7):
        lists += [list(rng.integers(1, 10, size=k)) for _ in range(30)]
        lists += [[n] * k for n in (1, 9)] + [[9] + [1] * (k - 1), [1] * (k - 1) + [9]]
    return lists


@pytest.mark.parametrize("right", [False, True], ids=["left", "right"])
def test_padded_against_enumeration(right):
    for lengths in _length_lists():
        rows, real = padded(lengths, right=right)
        n_max = max(lengths)
        assert rows.shape == real.shape == (len(lengths), n_max)
        start = 0
        for p, n in enumerate(lengths):
            own = list(range(start, start + n))  # sequence p's packed rows, in order
            first = n_max - n if right else 0  # its first real slot
            for t in range(n_max):
                is_real = first <= t < first + n
                assert real[p, t] == is_real, (lengths, p, t)
                if is_real:
                    assert rows[p, t] == own[t - first], (lengths, p, t)
                else:  # the nearest real row of its own sequence
                    assert rows[p, t] == (own[0] if t < first else own[-1]), (lengths, p, t)
            start += n


@pytest.mark.parametrize("lengths", [[3, 1, 5, 2], [4, 4, 4], [1], [2, 1, 2]],
                         ids=["mixed", "equal", "single-length-1", "length-1-inside"])
def test_packed_matches_one_sequence_at_a_time(lengths):
    params, X = _setup(0, lengths)
    h0, c0 = _states(10, len(lengths))
    for run, width in zip(_passes(params), (2 * HIDDEN, HIDDEN, HIDDEN)):
        packed = run(X, lengths, h0, c0)
        assert packed.shape == (sum(lengths), width)
        start = 0
        for p, n in enumerate(lengths):
            alone = run(Tensor(X.data[start : start + n]), [n],
                        Tensor(h0.data[p : p + 1]), Tensor(c0.data[p : p + 1]))
            np.testing.assert_allclose(packed.data[start : start + n], alone.data,
                                       rtol=1e-12, atol=0)
            start += n


def test_one_sequence_tapes_no_gather():
    params, X = _setup(1, [5])
    with Tape() as tape:
        run_bilstm(X, [5], params, "enc")
    assert [e.op for e in tape.entries] == ["lstm_step", "concat"]


@pytest.mark.parametrize("lengths", [[5], [3, 1], [3, 1, 4]], ids=["one", "two", "three"])
def test_one_call_per_layer_or_per_direction_same_bits(lengths, monkeypatch):
    # run_bilstm stacks both directions in one call while its 2P state
    # rows fit the row budget and makes one call per direction above it;
    # either way gives the same values and gradients, bit for bit
    results = []
    for budget, calls in ((10**6, 1), (0, 2)):
        monkeypatch.setattr(layers, "_STACK_ROWS", budget)
        params, X = _setup(5, lengths)
        weights = Tensor(np.linspace(-1.0, 1.2, sum(lengths) * 2 * HIDDEN)
                         .reshape(sum(lengths), 2 * HIDDEN))
        with Tape() as tape:
            states = run_bilstm(X, lengths, params, "enc")
            loss = reduce_sum(mul(states, weights))
        assert [e.op for e in tape.entries].count("lstm_step") == calls
        backward(tape, loss)
        results.append([states.data, X.grad, *(p.grad for p in params.values())])
    assert [a.tobytes() for a in results[0]] == [a.tobytes() for a in results[1]]


@pytest.mark.parametrize("lengths", [[0, 2], [2, 2], []], ids=["empty", "short", "none"])
def test_lengths_must_split_rows(lengths):
    params, X = _setup(2, [3])
    with pytest.raises(ValueError, match="do not split"):
        run_bilstm(X, lengths, params, "enc")


def test_packed_gradients_vs_finite_differences(monkeypatch):
    # the bidirectional pass, then one direction each way from h0/c0,
    # with run_bilstm's three sequences in one call per direction and
    # stacked in one call
    lengths = [3, 1, 4]
    n, k = max(lengths), len(lengths)
    for budget, entries in ((2 * k - 1, 4), (2 * k, 3)):
        monkeypatch.setattr(layers, "_STACK_ROWS", budget)
        params, X = _setup(3, lengths)
        h0, c0 = _states(13, k)
        weights = Tensor(np.linspace(-1.0, 1.2, sum(lengths) * 4 * HIDDEN)
                         .reshape(sum(lengths), 4 * HIDDEN))

        def loss():
            states = [run(X, lengths, h0, c0) for run in _passes(params)]
            return reduce_sum(mul(concat(states, axis=1), weights))

        with Tape() as tape:
            out = loss()
        backward(tape, out)
        inputs = [X, h0, c0, *params.values()]
        assert check_gradients(lambda: loss().item(), inputs) < 1e-6

        # each direction reads a step-major (n_max * P) input; a
        # sequence's padding slots follow its last real step, so they get
        # no gradient.  An entry of D directions has the 3D + 2 inputs
        # (x..., h, c, W..., b...), its D inputs x first, forward first
        steps = [e for e in tape.entries if e.op == "lstm_step"]
        assert len(steps) == entries
        xs = [x for e in steps for x in e.inputs[: (len(e.inputs) - 2) // 3]]
        for fwd_x, bwd_x in (xs[:2], xs[2:]):
            for t in range(n):
                for p, length in enumerate(lengths):
                    assert np.any(fwd_x.grad[t * k + p]) == (t < length), (t, p)
                    assert np.any(bwd_x.grad[t * k + p]) == (t >= n - length), (t, p)


def test_padding_values_do_not_reach_real_rows():
    # the real rows' states are the same whatever the other sequences hold
    lengths = [2, 5]
    params, X = _setup(4, lengths)
    before = run_bilstm(X, lengths, params, "enc").data[:2]
    X.data[2:] += 3.0
    after = run_bilstm(X, lengths, params, "enc").data[:2]
    np.testing.assert_allclose(before, after, rtol=1e-12, atol=0)
