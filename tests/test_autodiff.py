"""Tests for the autodiff core: hand-checkable values, finite-difference
gradient verification for every op, and determinism."""

import math

import numpy as np
import pytest

from qgkit import autodiff as ad
from qgkit.autodiff import (
    AdamState,
    Segments,
    Tape,
    Tensor,
    adam_step,
    add,
    backward,
    concat,
    cross_entropy,
    lookup,
    lstm_cell,
    lstm_step,
    matmul,
    mul,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    scatter_sum,
    segment_max,
    sigmoid,
    softmax,
    sub,
    tanh,
    transpose,
)
from qgkit.gradcheck import central_difference, check_gradients, relative_error
from qgkit.classifier import ClassifierConfig, encode_summary, init_classifier
from qgkit.data import TaggedSequence, Vocabulary
from qgkit.generator import QGConfig, encode, init_qg
from qgkit.layers import linear


def fd(f, tensor, h=1e-4):
    return central_difference(f, tensor, h=h)


def _weighted_pass(op, data, weights):
    """``op`` on a fresh tensor holding ``data``, its output(s), and the
    gradient of the output weighted by ``weights`` and summed."""
    x = Tensor(np.array(data))
    with Tape() as tape:
        result = op(x)
        out = result[0] if isinstance(result, tuple) else result
        loss = reduce_sum(mul(out, Tensor(weights)))
    backward(tape, loss)
    return result, x.grad


class TestMatmul:
    def test_identity(self):
        b = Tensor([[2.0, -1.0], [0.5, 3.0]])
        out = matmul(Tensor(np.eye(2)), b)
        np.testing.assert_array_equal(out.data, b.data)

    def test_hand_checked(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 2)))
        w = Tensor(rng.normal(size=(3, 2)))  # weights the sum so grads vary
        with Tape() as tape:
            loss = reduce_sum(mul(matmul(a, b), w))
        backward(tape, loss)

        def f():
            return float(np.sum(a.data @ b.data * w.data))

        assert relative_error(a.grad, fd(f, a)) < 1e-5
        assert relative_error(b.grad, fd(f, b)) < 1e-5


class TestElementwise:
    def test_sigmoid_at_zero(self):
        x = Tensor([0.0])
        with Tape() as tape:
            y = sigmoid(x)
            loss = reduce_sum(y)
        backward(tape, loss)
        assert y.data[0] == pytest.approx(0.5)
        assert x.grad[0] == pytest.approx(0.25)

    def test_tanh_at_zero(self):
        x = Tensor([0.0])
        with Tape() as tape:
            loss = reduce_sum(tanh(x))
        backward(tape, loss)
        assert loss.data == pytest.approx(0.0)
        assert x.grad[0] == pytest.approx(1.0)

    def test_relu(self):
        x = Tensor([-2.0, 3.0])
        with Tape() as tape:
            loss = reduce_sum(relu(x))
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_add_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=5))
        b = Tensor(rng.normal(size=5))
        w = rng.normal(size=5)
        with Tape() as tape:
            loss = reduce_sum(mul(add(a, b), Tensor(w)))
        backward(tape, loss)

        def f():
            return float(np.sum((a.data + b.data) * w))

        assert relative_error(a.grad, fd(f, a)) < 1e-6
        assert relative_error(b.grad, fd(f, b)) < 1e-6

    def test_scalar_broadcast(self):
        a = Tensor([1.0, 2.0, 3.0])
        out = sub(1.0, a)
        np.testing.assert_array_equal(out.data, [0.0, -1.0, -2.0])
        out2 = mul(a, 2.0)
        np.testing.assert_array_equal(out2.data, [2.0, 4.0, 6.0])

    def test_incompatible_shapes_rejected(self):
        # a (1 x d) row broadcasts over (n x d) rows; nothing else does
        for a, b in [((2, 3), (3, 2)), ((2, 3), (2, 1)), ((2, 3), (1, 2)), ((2, 3), (3,))]:
            for x, y in [(a, b), (b, a)]:
                with pytest.raises(ValueError):
                    add(Tensor(np.ones(x)), Tensor(np.ones(y)))

    def test_row_broadcast_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(4, 3)))
        row = Tensor(rng.normal(size=(1, 3)))
        W = Tensor(rng.normal(size=(3, 2)))
        b = Tensor(rng.normal(size=(1, 2)))
        w1, w2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))

        def loss():
            return add(reduce_sum(mul(add(x, row), Tensor(w1))),
                       reduce_sum(mul(linear(x, W, b), Tensor(w2))))

        with Tape() as tape:
            out = loss()
        backward(tape, out)
        np.testing.assert_array_equal(add(row, x).data, x.data + row.data)
        assert check_gradients(lambda: loss().item(), [x, row, W, b]) < 1e-6

    def test_sigmoid_no_overflow(self):
        y = sigmoid(Tensor([1000.0, -1000.0]))
        assert np.all(np.isfinite(y.data))
        assert y.data[0] == pytest.approx(1.0)
        assert y.data[1] == pytest.approx(0.0)

    def test_sigmoid_bit_identical_to_clipped_form(self):
        # the former three-clip, three-exp formula, split by sign
        def clipped(d):
            return np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.clip(d, 0, None))),
                            np.exp(np.clip(d, None, 0)) / (1.0 + np.exp(np.clip(d, None, 0))))

        rng = np.random.default_rng(5)
        special = [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, np.inf, -np.inf, np.nan]
        d = np.concatenate([rng.normal(scale=20.0, size=10**5), special])
        with np.errstate(over="ignore", invalid="ignore"):
            expected = clipped(d)
        assert np.array_equal(ad._sigmoid(d), expected, equal_nan=True)


class TestSoftmax:
    def test_uniform_on_equal_inputs(self):
        y = softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(y.data, [1 / 3] * 3)

    def test_stabilized_against_overflow(self):
        y = softmax(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(y.data))
        assert y.data[0] == pytest.approx(1.0)
        assert y.data[1] == pytest.approx(0.0, abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = softmax(Tensor(rng.normal(scale=5.0, size=7)))
            assert abs(float(np.sum(y.data)) - 1.0) < 1e-9

    def test_axis_rows(self):
        rng = np.random.default_rng(4)
        y = softmax(Tensor(rng.normal(size=(4, 5))), axis=1)
        np.testing.assert_allclose(np.sum(y.data, axis=1), np.ones(4), atol=1e-9)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            softmax(Tensor(np.zeros((0,))))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=6))
        w = rng.normal(size=6)
        with Tape() as tape:
            loss = reduce_sum(mul(softmax(x), Tensor(w)))
        backward(tape, loss)

        def f():
            e = np.exp(x.data - np.max(x.data))
            return float(np.sum(e / e.sum() * w))

        assert relative_error(x.grad, fd(f, x)) < 1e-5


class TestSegmentMax:
    def test_same_word_positions(self):
        scores = Tensor([0.2, 0.9, 0.5])
        out, winners = segment_max(scores, [[0, 2]])
        assert out.data[0] == pytest.approx(0.5)
        assert winners == [2]

    def test_singleton_segments_identity(self):
        scores = Tensor([0.3, -1.0, 2.0])
        out, winners = segment_max(scores, [[0], [1], [2]])
        np.testing.assert_array_equal(out.data, scores.data)
        assert winners == [0, 1, 2]

    def test_tie_goes_to_lowest_index(self):
        out, winners = segment_max(Tensor([1.0, 1.0]), [[1, 0]])
        assert winners == [0]

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError):
            segment_max(Tensor([1.0]), [[]])

    def test_gradient_routed_to_winner(self):
        rng = np.random.default_rng(6)
        scores = Tensor(rng.normal(size=6))
        segs = [[0, 3], [1, 2, 5], [4]]
        with Tape() as tape:
            out, winners = segment_max(scores, segs)
            loss = reduce_sum(out)
        backward(tape, loss)
        expected = np.zeros(6)
        for w in winners:
            expected[w] = 1.0
        np.testing.assert_array_equal(scores.grad, expected)

        def f():
            return float(sum(np.max(scores.data[s]) for s in segs))

        assert relative_error(scores.grad, fd(f, scores)) < 1e-6

    def test_matches_bruteforce_max(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            scores = Tensor(rng.normal(size=n))
            cut = sorted(rng.choice(n, size=min(3, n - 1), replace=False))
            segs, prev = [], 0
            for c in list(cut) + [n]:
                if c > prev:
                    segs.append(list(range(prev, c)))
                    prev = c
            out, _ = segment_max(scores, segs)
            brute = [max(scores.data[i] for i in seg) for seg in segs]
            np.testing.assert_allclose(out.data, brute)

    def test_rows_equal_per_row_calls(self):
        rng = np.random.default_rng(14)
        segs = [[0, 3, 5], [1], [4, 2]]
        scores = rng.normal(size=(4, 6))
        scores[1, [0, 5]] = 2.0  # a tie, won by the lower index
        w = rng.normal(size=(4, 3))
        (out, winners), grad = _weighted_pass(lambda x: segment_max(x, segs), scores, w)
        assert winners[1][0] == 0
        for r in range(4):
            (o, win), g = _weighted_pass(lambda x: segment_max(x, segs), scores[r], w[r])
            assert np.array_equal(out.data[r], o.data) and winners[r] == win
            assert np.array_equal(grad[r], g)

    def test_prebuilt_segments_serve_every_call(self):
        segs = [[0, 3, 5], [1], [4, 2]]
        layout = Segments(segs)
        scores = Tensor(np.random.default_rng(17).normal(size=(2, 6)))
        (a, wa), (b, wb) = segment_max(scores, layout), segment_max(scores, segs)
        assert np.array_equal(a.data, b.data) and wa == wb
        # each call still checks the positions against its own scores
        with pytest.raises(ValueError):
            segment_max(Tensor(np.zeros(5)), layout)
        with pytest.raises(ValueError):
            Segments([])

    def test_rows_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(15)
        segs = [[0, 3, 5], [1], [4, 2]]
        scores = Tensor(rng.normal(size=(3, 6)))
        w = rng.normal(size=(3, 3))

        def f():
            return float(sum(w[r, k] * np.max(scores.data[r, seg])
                             for r in range(3) for k, seg in enumerate(segs)))

        _, grad = _weighted_pass(lambda x: segment_max(x, segs), scores.data, w)
        assert relative_error(grad, fd(f, scores)) < 1e-6


class TestLookup:
    def test_duplicate_ids_duplicate_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = lookup(table, [0, 0])
        np.testing.assert_array_equal(out.data[0], out.data[1])

    def test_scatter_add_multiplicity(self):
        table = Tensor(np.zeros((4, 3)))
        with Tape() as tape:
            out = lookup(table, [0, 2, 0, 0])
            loss = reduce_sum(out)
        backward(tape, loss)
        np.testing.assert_array_equal(table.grad[0], [3.0, 3.0, 3.0])
        np.testing.assert_array_equal(table.grad[2], [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(table.grad[1], [0.0, 0.0, 0.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lookup(Tensor(np.zeros((4, 3))), [4])

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(9)
        table = Tensor(rng.normal(size=(4, 3)))
        ids = [1, 3, 1]
        w = rng.normal(size=(3, 3))
        with Tape() as tape:
            loss = reduce_sum(mul(lookup(table, ids), Tensor(w)))
        backward(tape, loss)

        def f():
            return float(np.sum(table.data[ids] * w))

        assert relative_error(table.grad, fd(f, table)) < 1e-6


class TestScatterSum:
    def test_regrouping(self):
        v = Tensor([0.1, 0.2, 0.3, 0.4])
        out = scatter_sum(v, [0, 2, 0, 1], 3)
        np.testing.assert_allclose(out.data, [0.4, 0.4, 0.2])

    def test_gradient_is_gather(self):
        rng = np.random.default_rng(10)
        v = Tensor(rng.normal(size=5))
        idx = [1, 0, 1, 2, 0]
        w = rng.normal(size=3)
        with Tape() as tape:
            loss = reduce_sum(mul(scatter_sum(v, idx, 3), Tensor(w)))
        backward(tape, loss)
        np.testing.assert_allclose(v.grad, w[idx])

    def test_adds_each_target_in_index_order(self):
        # bit for bit the running sum from 0.0 in index order, whose
        # rounding training's checkpoints depend on
        rng = np.random.default_rng(18)
        idx = rng.integers(0, 4, size=40).tolist()
        v = rng.normal(size=(3, 40)) * 10.0 ** rng.integers(-8, 9, size=(3, 40))
        out = scatter_sum(Tensor(v), idx, 4).data
        for r in range(3):
            acc = [0.0] * 4
            for j, i in enumerate(idx):
                acc[i] += v[r, j]
            assert out[r].tolist() == acc

    def test_rows_equal_per_row_calls(self):
        rng = np.random.default_rng(16)
        idx = [1, 0, 1, 3, 0]
        v = rng.normal(size=(3, 5))
        w = rng.normal(size=(3, 4))
        out, grad = _weighted_pass(lambda x: scatter_sum(x, idx, 4), v, w)
        for r in range(3):
            o, g = _weighted_pass(lambda x: scatter_sum(x, idx, 4), v[r], w[r])
            assert np.array_equal(out.data[r], o.data)
            assert np.array_equal(grad[r], g)

        t = Tensor(v)

        def f():
            return float(sum(w[r, i] * t.data[r, j]
                             for r in range(3) for j, i in enumerate(idx)))

        assert relative_error(grad, fd(f, t)) < 1e-6


class TestCrossEntropy:
    def test_one_hot_correct_is_zero(self):
        loss = cross_entropy(Tensor([0.0, 1.0, 0.0]), 1)
        assert loss.item() == pytest.approx(0.0)

    def test_uniform_over_eight(self):
        loss = cross_entropy(Tensor(np.full(8, 1 / 8)), 3)
        assert loss.item() == pytest.approx(math.log(8), abs=1e-12)

    def test_floor_keeps_loss_finite(self):
        loss = cross_entropy(Tensor([1.0, 0.0]), 1)
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(-math.log(1e-12))

    def test_gold_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor([0.5, 0.5]), 2)

    def test_gradient_through_softmax(self):
        rng = np.random.default_rng(12)
        logits = Tensor(rng.normal(size=6))
        with Tape() as tape:
            loss = cross_entropy(softmax(logits), 2)
        backward(tape, loss)

        def f():
            e = np.exp(logits.data - np.max(logits.data))
            return float(-np.log(e[2] / e.sum()))

        assert relative_error(logits.grad, fd(f, logits)) < 1e-5

    def test_rows_mean_of_per_row_calls(self):
        rng = np.random.default_rng(17)
        probs = Tensor(rng.uniform(0.05, 1.0, size=(5, 7)))
        probs.data[3, 2] = 0.0  # floored: finite loss, no gradient
        golds = [0, 6, 3, 2, 2]
        with Tape() as tape:
            loss = cross_entropy(probs, golds)
        backward(tape, loss)
        per_row = [cross_entropy(Tensor(probs.data[r]), g).item() for r, g in enumerate(golds)]
        assert abs(loss.item() - np.mean(per_row)) <= 1e-15 * loss.item()
        assert per_row[3] == pytest.approx(-math.log(1e-12))
        expected = np.zeros((5, 7))
        for r, g in enumerate(golds):
            if r != 3:
                expected[r, g] = -1.0 / (5 * probs.data[r, g])
        np.testing.assert_allclose(probs.grad, expected, rtol=1e-15)

    def test_rows_gradient_through_softmax(self):
        rng = np.random.default_rng(18)
        logits = Tensor(rng.normal(size=(4, 6)))
        golds = [2, 0, 5, 2]
        with Tape() as tape:
            loss = cross_entropy(softmax(logits, axis=1), golds)
        backward(tape, loss)

        def f():
            e = np.exp(logits.data - np.max(logits.data, axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            return float(np.mean(-np.log(p[np.arange(4), golds])))

        assert relative_error(logits.grad, fd(f, logits)) < 1e-5

    @pytest.mark.parametrize("golds", [[0, 6, 1], [-1, 0, 0], [0, 0, 9], [0, 0]])
    def test_rows_gold_out_of_range_or_miscounted(self, golds):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.full((3, 6), 1 / 6)), golds)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(4.0))
        with Tape() as tape:
            loss = reduce_sum(x)
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, np.ones(4))

    def test_two_branch_reuse_accumulates(self):
        x = Tensor([2.0])
        with Tape() as tape:
            loss = reduce_sum(add(mul(x, 3.0), mul(x, x)))
        backward(tape, loss)
        # d/dx (3x + x^2) = 3 + 2x = 7 at x = 2
        assert x.grad[0] == pytest.approx(7.0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            y = mul(x, 2.0)
        with pytest.raises(ValueError):
            backward(tape, y)

    def test_unreachable_tensor_gets_zero_grad(self):
        x = Tensor([1.0])
        y = Tensor([5.0])
        with Tape() as tape:
            loss = reduce_sum(mul(x, 2.0))
            dead = mul(y, 3.0)  # on tape but not feeding the loss
        backward(tape, loss)
        np.testing.assert_array_equal(y.grad, [0.0])

    def test_untouched_tensor_keeps_none(self):
        x = Tensor([1.0])
        z = Tensor([9.0])
        with Tape() as tape:
            loss = reduce_sum(x)
        backward(tape, loss)
        assert z.grad is None


class TestStructuralOps:
    def test_concat_and_split_gradients(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0, 4.0, 5.0]])
        w = Tensor([[1.0, 2.0, 3.0, 4.0, 5.0]])
        with Tape() as tape:
            loss = reduce_sum(mul(concat([a, b], axis=1), w))
        backward(tape, loss)
        np.testing.assert_array_equal(a.grad, [[1.0, 2.0]])
        np.testing.assert_array_equal(b.grad, [[3.0, 4.0, 5.0]])

    def test_transpose_gradient(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        w = np.arange(6.0).reshape(3, 2)
        with Tape() as tape:
            loss = reduce_sum(mul(transpose(x), Tensor(w)))
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, w.T)

    def test_reshape_roundtrip(self):
        x = Tensor(np.arange(6.0))
        with Tape() as tape:
            loss = reduce_sum(mul(reshape(x, (2, 3)), Tensor(np.ones((2, 3)) * 2)))
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, np.full(6, 2.0))

    def test_reduce_mean(self):
        x = Tensor(np.arange(4.0))
        with Tape() as tape:
            loss = reduce_mean(x)
        backward(tape, loss)
        assert loss.item() == pytest.approx(1.5)
        np.testing.assert_allclose(x.grad, np.full(4, 0.25))


def _lstm_inputs(seed, d_in=3, d=4, n=1):
    """x (n rows), h, c, W, b at a scale that keeps every gate off
    saturation."""
    rng = np.random.default_rng(seed)
    shapes = ((n, d_in), (1, d), (1, d), (d_in + d, 4 * d), (1, 4 * d))
    return [Tensor(rng.normal(scale=0.5, size=s)) for s in shapes]


def _composed_lstm_step(x, h, c, W, b):
    """The same cell from elementwise ops, gates cut out of z by row."""
    d = h.shape[1]
    z = reshape(add(matmul(concat([x, h], axis=1), W), b), (4, d))
    i, f, o, g = (reshape(lookup(z, [k]), (1, d)) for k in range(4))
    c_next = add(mul(sigmoid(f), c), mul(sigmoid(i), tanh(g)))
    return mul(sigmoid(o), tanh(c_next)), c_next


def _pass(x, h, c, W, b, reverse):
    return lstm_step(x, h, c, W, b, reverse=reverse)


def _row_loop(x, h, c, W, b, reverse):
    """The same pass as one-row steps, rows gathered with lookup and the
    hidden states stacked with concat."""
    n = x.shape[0]
    states = [None] * n
    for t in range(n - 1, -1, -1) if reverse else range(n):
        h, c = lstm_step(lookup(x, [t]), h, c, W, b)
        states[t] = h
    return concat(states, axis=0), c


# Which outputs the loss reads: h only, c only, or both.
_LSTM_LOSSES = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]


def _lstm_loss(outputs, on_h, on_c):
    h_next, c_next = outputs
    wh = Tensor(np.linspace(-1.0, 1.5, h_next.data.size).reshape(h_next.shape) * on_h)
    wc = Tensor(np.linspace(0.7, -1.2, c_next.data.size).reshape(c_next.shape) * on_c)
    return add(reduce_sum(mul(h_next, wh)), reduce_sum(mul(c_next, wc)))


class TestLSTMStep:
    @pytest.mark.parametrize("on_h,on_c", _LSTM_LOSSES)
    def test_gradients_vs_finite_differences(self, on_h, on_c):
        inputs = _lstm_inputs(11)
        with Tape() as tape:
            loss = _lstm_loss(lstm_step(*inputs), on_h, on_c)
        backward(tape, loss)

        def f():
            return _lstm_loss(lstm_step(*inputs), on_h, on_c).item()

        assert check_gradients(f, inputs) < 1e-6

    @pytest.mark.parametrize("on_h,on_c", _LSTM_LOSSES)
    def test_bit_identical_to_composed_cell(self, on_h, on_c):
        results = []
        for step in (lstm_step, _composed_lstm_step):
            inputs = _lstm_inputs(12, d_in=5, d=6)
            with Tape() as tape:
                outputs = step(*inputs)
                loss = _lstm_loss(outputs, on_h, on_c)
            backward(tape, loss)
            results.append([t.data for t in outputs] + [t.grad for t in inputs])
        for fused, composed in zip(*results):
            assert np.array_equal(fused, composed)

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("on_h,on_c", _LSTM_LOSSES)
    def test_pass_gradients_vs_finite_differences(self, on_h, on_c, n, reverse):
        inputs = _lstm_inputs(14, n=n)
        with Tape() as tape:
            loss = _lstm_loss(lstm_step(*inputs, reverse=reverse), on_h, on_c)
        backward(tape, loss)

        def f():
            return _lstm_loss(lstm_step(*inputs, reverse=reverse), on_h, on_c).item()

        assert check_gradients(f, inputs) < 1e-6

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    @pytest.mark.parametrize("on_h,on_c", _LSTM_LOSSES)
    def test_pass_bit_identical_to_row_loop(self, on_h, on_c, reverse):
        results = []
        for run in (_pass, _row_loop):
            inputs = _lstm_inputs(15, d_in=5, d=6, n=7)
            with Tape() as tape:
                outputs = run(*inputs, reverse)
                loss = _lstm_loss(outputs, on_h, on_c)
            backward(tape, loss)
            results.append([t.data for t in outputs] + [t.grad for t in inputs])
        for fused, looped in zip(*results):
            assert np.array_equal(fused, looped)

    def test_one_tape_entry_per_step(self):
        # a pass over n rows, in either direction, is one entry
        for n, reverse in [(1, False), (5, False), (5, True)]:
            x, h, c, W, b = _lstm_inputs(13, n=n)
            with Tape() as tape:
                H, c_last = lstm_step(x, h, c, W, b, reverse=reverse)
            assert [(e.op, e.outputs) for e in tape.entries] == [("lstm_step", (H, c_last))]
            assert H.shape == (n, 4) and c_last.shape == (1, 4)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_encoders_tape_one_entry_per_pass(self, n):
        tokens = [f"w{k % 3}" for k in range(n)]
        vocab = Vocabulary(["w0", "w1", "w2"])
        cls_cfg = ClassifierConfig(word_dim=4, encoder_hidden=3, use_answer_embedding=True)
        cls_params = init_classifier(cls_cfg, len(vocab), np.random.default_rng(0)).tensors
        with Tape() as tape:
            encode_summary(tokens, [n - 1], cls_cfg, cls_params, vocab)
        assert [e.op for e in tape.entries].count("lstm_step") == 4
        qg_cfg = QGConfig(word_dim=4, meta_dim=2, encoder_hidden=3, decoder_hidden=5)
        qg_params = init_qg(qg_cfg, len(vocab), np.random.default_rng(0)).tensors
        ids = vocab.encode(tokens)
        seq = TaggedSequence(surfaces=tokens, ids=ids, base_ids=ids,
                             meta=[k % 3 for k in range(n)], oov_words=[])
        with Tape() as tape:
            encode(seq, qg_cfg, qg_params)
        assert [e.op for e in tape.entries].count("lstm_step") == 2


def _cell_inputs(seed, k, d_in=3, d=4):
    """x, h and c with k rows, and W, b, at a scale that keeps every gate
    off saturation."""
    rng = np.random.default_rng(seed)
    shapes = ((k, d_in), (k, d), (k, d), (d_in + d, 4 * d), (1, 4 * d))
    return [Tensor(rng.normal(scale=0.5, size=s)) for s in shapes]


class TestLSTMCell:
    @pytest.mark.parametrize("on_h,on_c", _LSTM_LOSSES)
    def test_one_row_bit_identical_to_lstm_step(self, on_h, on_c):
        results = []
        for step in (lstm_cell, lstm_step):
            inputs = _cell_inputs(20, k=1, d_in=5, d=6)
            with Tape() as tape:
                outputs = step(*inputs)
                loss = _lstm_loss(outputs, on_h, on_c)
            backward(tape, loss)
            results.append([t.data for t in outputs] + [t.grad for t in inputs])
        for cell, step in zip(*results):
            assert np.array_equal(cell, step)

    def test_rows_are_independent_states(self):
        x, h, c, W, b = _cell_inputs(21, k=5, d_in=5, d=6)
        H, C = lstm_cell(x, h, c, W, b)
        for r in range(5):
            h_r, c_r = lstm_step(*(Tensor(t.data[r : r + 1]) for t in (x, h, c)), W, b)
            np.testing.assert_allclose(H.data[r : r + 1], h_r.data, rtol=0, atol=1e-15)
            np.testing.assert_allclose(C.data[r : r + 1], c_r.data, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("on_h,on_c", _LSTM_LOSSES)
    def test_gradients_vs_finite_differences(self, on_h, on_c):
        inputs = _cell_inputs(22, k=3)
        with Tape() as tape:
            loss = _lstm_loss(lstm_cell(*inputs), on_h, on_c)
        backward(tape, loss)
        assert [e.op for e in tape.entries].count("lstm_cell") == 1

        def f():
            return _lstm_loss(lstm_cell(*inputs), on_h, on_c).item()

        assert check_gradients(f, inputs) < 1e-6


class TestAdam:
    def test_zero_grad_zero_decay_unchanged(self):
        p = Tensor([1.0, -2.0])
        p.grad = np.zeros(2)
        params = {"p": p}
        state = AdamState()
        adam_step(params, state, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        # Hand evaluation: constant grad 1.0 gives bias-corrected m=1, v=1,
        # so the first update is lr / (1 + eps).
        p = Tensor([0.0])
        p.grad = np.array([1.0])
        state = AdamState()
        adam_step({"p": p}, state, lr=0.05)
        assert p.data[0] == pytest.approx(-0.05, rel=1e-6)

    def test_weight_decay_shrinks_toward_zero(self):
        p = Tensor([4.0])
        p.grad = np.array([0.0])
        state = AdamState()
        adam_step({"p": p}, state, lr=0.1, weight_decay=0.5)
        assert 0.0 < p.data[0] < 4.0
        assert p.data[0] == pytest.approx(4.0 - 0.1 * 0.5 * 4.0)

    def test_shape_mismatch_rejected(self):
        p = Tensor([1.0, 2.0])
        p.grad = np.zeros(3)
        with pytest.raises(ValueError):
            adam_step({"p": p}, AdamState(), lr=0.1)

    def test_deterministic_given_state(self):
        runs = []
        for _ in range(2):
            p = Tensor([1.5])
            state = AdamState()
            for step in range(5):
                p.grad = np.array([0.3 * (step + 1)])
                adam_step({"p": p}, state, lr=0.01, weight_decay=0.01)
            runs.append(p.data.copy())
        np.testing.assert_array_equal(runs[0], runs[1])


def _random_graph_loss(rng, leaves):
    """Compose a random graph of at least 20 recorded ops over the leaves
    and reduce it to a scalar.  Only smooth ops, so finite differences
    stay clean; the relu kink is covered by its dedicated test."""
    pool = list(leaves)
    n_ops = 0
    while n_ops < 20:
        op = rng.integers(0, 6)
        a = pool[rng.integers(0, len(pool))]
        b = pool[rng.integers(0, len(pool))]
        if op == 0:
            out = mul(add(a, b), 0.5)  # damped so magnitudes stay O(1) for FD
        elif op == 1:
            out = add(mul(a, 0.5), mul(b, 0.25))
        elif op == 2:
            out = tanh(a)
        elif op == 3:
            out = sigmoid(a)
        elif op == 4:
            out = softmax(a)
        else:
            out = mul(tanh(a), sigmoid(b))
        pool.append(out)
        n_ops += 1
    total = pool[len(leaves)]
    for t in pool[len(leaves) + 1 :]:
        total = add(total, t)
    return reduce_sum(total)


class TestInvariants:
    def test_random_composed_graph_matches_finite_differences(self):
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            leaves = [Tensor(rng.normal(size=4)) for _ in range(3)]

            def forward():
                with Tape() as t:
                    loss = _random_graph_loss(np.random.default_rng(1000 + seed), leaves)
                return t, loss

            tape, loss = forward()
            assert len(tape) >= 20
            backward(tape, loss)

            def f():
                _, l2 = forward()
                return l2.item()

            err = check_gradients(f, leaves)
            assert err < 1e-4, f"seed {seed}: rel err {err}"

    def test_bit_identical_given_seed(self):
        def run():
            rng = np.random.default_rng(77)
            a = Tensor(rng.normal(size=(3, 3)))
            b = Tensor(rng.normal(size=(3, 3)))
            with Tape() as tape:
                y = softmax(matmul(tanh(a), sigmoid(b)), axis=1)
                loss = reduce_sum(mul(y, y))
            backward(tape, loss)
            return loss.item(), a.grad.copy(), b.grad.copy()

        l1, ga1, gb1 = run()
        l2, ga2, gb2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(ga1, ga2)
        np.testing.assert_array_equal(gb1, gb2)

    def test_forward_ops_finite_on_finite_inputs(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            x = Tensor(rng.normal(scale=50.0, size=6))
            for out in (sigmoid(x), tanh(x), relu(x), softmax(x)):
                assert np.all(np.isfinite(out.data))

    def test_tensor_contract_shapes(self):
        t = Tensor(np.zeros((2, 3, 4), dtype=np.int64))
        assert t.shape == t.data.shape == (2, 3, 4)
        assert t.data.dtype == np.float64
        assert t.grad is None
