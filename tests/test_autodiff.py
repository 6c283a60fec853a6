"""Tests for the autodiff core: hand-checkable values, finite-difference
gradient verification for every op, and determinism."""

import math

import numpy as np
import pytest

from oracles import (oracle_concat, oracle_lstm_step, oracle_scatter_sum, oracle_sigmoid,
                     oracle_softmax)
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
from qgkit.layers import _STACK_ROWS, linear, padded


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


    @pytest.mark.parametrize("right", [(4, 2), (3, 4, 2)])
    def test_stack_is_its_blocks_products(self, right):
        # a (B x n x k) stack times a shared (k x m) matrix or a
        # (B x k x m) stack: block b is the 2-D product of its operands
        rng = np.random.default_rng(8)
        a, b = Tensor(rng.normal(size=(3, 5, 4))), Tensor(rng.normal(size=right))
        w = Tensor(rng.normal(size=(3, 5, 2)))
        out = matmul(a, b)
        for k in range(3):
            bk = b.data[k] if b.data.ndim == 3 else b.data
            np.testing.assert_allclose(out.data[k], a.data[k] @ bk, rtol=0, atol=1e-14)
        def loss():
            return reduce_sum(mul(matmul(a, b), w))

        with Tape() as tape:
            out = loss()
        backward(tape, out)
        assert check_gradients(lambda: loss().item(), [a, b]) < 1e-6

    @pytest.mark.parametrize("a,b", [((3, 5, 4), (2, 4, 2)), ((5, 4), (3, 4, 2)),
                                     ((3, 5, 4), (3, 5, 2)), ((5, 4), (4,))])
    def test_stack_shape_mismatch(self, a, b):
        with pytest.raises(ValueError):
            matmul(Tensor(np.ones(a)), Tensor(np.ones(b)))


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

    @pytest.mark.parametrize("row", [(1, 3), (2, 1, 3)])
    def test_stack_row_broadcast_gradients_vs_finite_differences(self, row):
        # one row per stack, or per block of it, repeated over its rows
        rng = np.random.default_rng(19)
        x, r = Tensor(rng.normal(size=(2, 4, 3))), Tensor(rng.normal(size=row))
        w = Tensor(rng.normal(size=(2, 4, 3)))
        np.testing.assert_array_equal(add(x, r).data, x.data + r.data)
        np.testing.assert_array_equal(mul(r, x).data, x.data * r.data)

        def loss():
            return reduce_sum(mul(mul(add(x, r), r), w))

        with Tape() as tape:
            out = loss()
        backward(tape, out)
        assert check_gradients(lambda: loss().item(), [x, r]) < 1e-6
        for other in [(3, 1, 3), (2, 4, 1), (2, 3)]:
            with pytest.raises(ValueError):
                add(x, Tensor(np.ones(other)))

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
        assert winners.tolist() == [2]

    def test_singleton_segments_identity(self):
        scores = Tensor([0.3, -1.0, 2.0])
        out, winners = segment_max(scores, [[0], [1], [2]])
        np.testing.assert_array_equal(out.data, scores.data)
        assert winners.tolist() == [0, 1, 2]

    def test_tie_goes_to_lowest_index(self):
        out, winners = segment_max(Tensor([1.0, 1.0]), [[1, 0]])
        assert winners.tolist() == [0]

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
        assert winners.tolist()[1][0] == 0
        for r in range(4):
            (o, win), g = _weighted_pass(lambda x: segment_max(x, segs), scores[r], w[r])
            assert np.array_equal(out.data[r], o.data) and winners[r].tolist() == win.tolist()
            assert np.array_equal(grad[r], g)

    def test_prebuilt_segments_serve_every_call(self):
        segs = [[0, 3, 5], [1], [4, 2]]
        layout = Segments(segs)
        scores = Tensor(np.random.default_rng(17).normal(size=(2, 6)))
        (a, wa), (b, wb) = segment_max(scores, layout), segment_max(scores, segs)
        assert np.array_equal(a.data, b.data) and wa.tolist() == wb.tolist()
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


    def test_stack_blocks_equal_per_block_calls(self):
        # block b owns the b-th third of the segments, over positions
        # b * n + j; padded blocks repeat a real position
        rng = np.random.default_rng(20)
        blocks = [[[0, 3, 5], [1], [4, 2]], [[0], [1, 2], [0]], [[2, 1], [0, 4], [3]]]
        layout = Segments([[b * 6 + j for j in seg] for b, segs in enumerate(blocks)
                           for seg in segs])
        scores = rng.normal(size=(3, 2, 6))
        scores[2, 1, [2, 1]] = 1.5  # a tie, won by the lower index
        w = rng.normal(size=(3, 2, 3))
        (out, winners), grad = _weighted_pass(lambda x: segment_max(x, layout), scores, w)
        assert out.shape == winners.shape == (3, 2, 3) and winners[2, 1, 0] == 1
        for b, segs in enumerate(blocks):
            (o, win), g = _weighted_pass(lambda x: segment_max(x, segs), scores[b], w[b])
            assert np.array_equal(out.data[b], o.data) and np.array_equal(winners[b], win)
            assert np.array_equal(grad[b], g)
        # 9 segments do not split over 2 blocks; 3 blocks of 5 end before 17
        with pytest.raises(ValueError, match="blocks"):
            segment_max(Tensor(np.zeros((2, 2, 6))), layout)
        with pytest.raises(ValueError, match="outside"):
            segment_max(Tensor(np.zeros((3, 2, 5))), layout)

    def test_rows_equal_one_block_stack(self):
        segs = [[0, 3, 5], [1], [4, 2]]
        scores = np.random.default_rng(22).normal(size=(4, 6))
        scores[2, [2, 4]] = 1.5  # a tie, won by the lower index
        w = np.random.default_rng(23).normal(size=(4, 3))
        for x, wx in ((scores, w), (scores[2], w[2])):
            (out, winners), grad = _weighted_pass(lambda t: segment_max(t, segs), x, wx)
            (o, win), g = _weighted_pass(lambda t: segment_max(t, segs), x.reshape(1, -1, 6),
                                         wx.reshape(1, -1, 3))
            assert out.shape == winners.shape == x.shape[:-1] + (3,)
            assert np.array_equal(out.data, o.data.reshape(out.shape))
            assert np.array_equal(winners, win.reshape(winners.shape))
            assert np.array_equal(grad, g.reshape(x.shape))
        assert winners[2] == 2  # the 1-D pass: row 2's tie


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


    def test_stack_blocks_equal_per_block_calls(self):
        # a (B x r x m) stack with one index map per block
        rng = np.random.default_rng(21)
        idx = np.array([[1, 0, 1, 3, 0], [2, 2, 0, 1, 3]])
        v, w = rng.normal(size=(2, 3, 5)), rng.normal(size=(2, 3, 4))
        out, grad = _weighted_pass(lambda x: scatter_sum(x, idx, 4), v, w)
        for b in range(2):
            o, g = _weighted_pass(lambda x: scatter_sum(x, idx[b], 4), v[b], w[b])
            assert np.array_equal(out.data[b], o.data) and np.array_equal(grad[b], g)
        # a 1-D map serves every block, as that map given to each block
        shared, tiled = (_weighted_pass(lambda x: scatter_sum(x, m, 4), v, w)
                         for m in (idx[0], np.tile(idx[0], (2, 1))))
        assert np.array_equal(shared[0].data, tiled[0].data)
        assert np.array_equal(shared[1], tiled[1])
        for bad in (idx[:1], np.hstack([idx, idx[:, :1]])):
            with pytest.raises(ValueError):
                scatter_sum(Tensor(v), bad, 4)


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

    def test_transpose_stack_gradient(self):
        x = Tensor(np.arange(12.0).reshape(2, 2, 3))
        w = np.arange(12.0).reshape(2, 3, 2)
        with Tape() as tape:
            loss = reduce_sum(mul(transpose(x), Tensor(w)))
        backward(tape, loss)
        np.testing.assert_array_equal(transpose(x).data, np.swapaxes(x.data, 1, 2))
        np.testing.assert_array_equal(x.grad, np.swapaxes(w, 1, 2))

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


def _lstm_inputs(seed, d_in=3, d=4, n=1, k=1):
    """x (n*k rows, step-major), h and c (k rows), W, b at a scale that
    keeps every gate off saturation."""
    rng = np.random.default_rng(seed)
    shapes = ((n * k, d_in), (k, d), (k, d), (d_in + d, 4 * d), (1, 4 * d))
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
    """The same pass as one-step calls, each step's k rows gathered with
    lookup and the hidden states stacked with concat."""
    k = h.shape[0]
    n = x.shape[0] // k
    states = [None] * n
    for t in range(n - 1, -1, -1) if reverse else range(n):
        h, c = lstm_step(lookup(x, list(range(t * k, t * k + k))), h, c, W, b)
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
        # k = 3 states over 4 steps, in either direction, as one entry
        for reverse in (False, True):
            inputs = _lstm_inputs(22, n=4, k=3)
            with Tape() as tape:
                loss = _lstm_loss(lstm_step(*inputs, reverse=reverse), on_h, on_c)
            backward(tape, loss)
            assert [e.op for e in tape.entries].count("lstm_step") == 1

            def f():
                return _lstm_loss(lstm_step(*inputs, reverse=reverse), on_h, on_c).item()

            assert check_gradients(f, inputs) < 1e-6

    @pytest.mark.parametrize("on_h,on_c", _LSTM_LOSSES)
    def test_within_rounding_of_composed_cell(self, on_h, on_c):
        # the op sums x @ W[:dim] + b and h @ W[dim:] where the composition
        # multiplies [x, h] by the whole W, so they agree up to rounding
        results = []
        for step in (lstm_step, _composed_lstm_step):
            inputs = _lstm_inputs(12, d_in=5, d=6)
            with Tape() as tape:
                outputs = step(*inputs)
                loss = _lstm_loss(outputs, on_h, on_c)
            backward(tape, loss)
            results.append([t.data for t in outputs] + [t.grad for t in inputs])
        for fused, composed in zip(*results):
            np.testing.assert_allclose(fused, composed, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("on_h,on_c", _LSTM_LOSSES)
    def test_pass_gradients_vs_finite_differences(self, on_h, on_c, n, reverse):
        for k in (1, 3):
            inputs = _lstm_inputs(14, n=n, k=k)
            with Tape() as tape:
                loss = _lstm_loss(lstm_step(*inputs, reverse=reverse), on_h, on_c)
            backward(tape, loss)

            def f():
                return _lstm_loss(lstm_step(*inputs, reverse=reverse), on_h, on_c).item()

            assert check_gradients(f, inputs) < 1e-6

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    @pytest.mark.parametrize("on_h,on_c", _LSTM_LOSSES)
    def test_pass_bit_identical_to_row_loop(self, on_h, on_c, reverse):
        # k = 3 is the decoder's use: one call per step over the live rows.
        # Its values and the gradients of x, h and c are bit-identical, the
        # pass's GEMMs rounding each 3-row block as a 3-row call does; dW
        # and db sum all steps in one GEMM where the calls add step by step.
        # numpy hands a 1-row product to BLAS's vector routine, which rounds
        # otherwise, so k = 1 agrees up to rounding throughout.
        for k in (1, 3):
            results = []
            for run in (_pass, _row_loop):
                inputs = _lstm_inputs(15, d_in=5, d=6, n=7, k=k)
                with Tape() as tape:
                    outputs = run(*inputs, reverse)
                    loss = _lstm_loss(outputs, on_h, on_c)
                backward(tape, loss)
                results.append([t.data for t in outputs] + [t.grad for t in inputs])
            for j, (fused, looped) in enumerate(zip(*results)):
                if k == 3 and j < 5:  # H, c_last and the gradients of x, h, c
                    assert np.array_equal(fused, looped)
                else:
                    np.testing.assert_allclose(fused, looped, rtol=1e-12, atol=0)

    def test_rows_are_independent_states(self):
        # state r follows row r of each step's block, as if it ran alone
        for n in (1, 4):
            for reverse in (False, True):
                x, h, c, W, b = _lstm_inputs(21, d_in=5, d=6, n=n, k=5)
                H, C = lstm_step(x, h, c, W, b, reverse=reverse)
                for r in range(5):
                    h_r, c_r = lstm_step(Tensor(x.data[r::5]), Tensor(h.data[r : r + 1]),
                                         Tensor(c.data[r : r + 1]), W, b, reverse=reverse)
                    np.testing.assert_allclose(H.data[r::5], h_r.data, rtol=0, atol=1e-15)
                    np.testing.assert_allclose(C.data[r : r + 1], c_r.data, rtol=0, atol=1e-15)

    def test_one_tape_entry_per_step(self):
        # a pass of k states over n steps, in either direction, is one entry
        for n, k, reverse in [(1, 1, False), (5, 1, False), (5, 1, True), (4, 3, False),
                              (4, 3, True)]:
            x, h, c, W, b = _lstm_inputs(13, n=n, k=k)
            with Tape() as tape:
                H, c_last = lstm_step(x, h, c, W, b, reverse=reverse)
            assert [(e.op, e.outputs) for e in tape.entries] == [("lstm_step", (H, c_last))]
            assert H.shape == (n * k, 4) and c_last.shape == (k, 4)

    @pytest.mark.parametrize("x_shape,c_shape,message", [
        ((7, 3), (3, 4), "x rows are not a multiple of h rows"),
        ((6, 3), (2, 4), "h and c disagree"),
        ((6, 2), (3, 4), "x and h widths do not sum to W rows"),
    ], ids=["rows", "state", "width"])
    def test_bad_shapes_rejected(self, x_shape, c_shape, message):
        x, h, c = Tensor(np.zeros(x_shape)), Tensor(np.zeros((3, 4))), Tensor(np.zeros(c_shape))
        with pytest.raises(ValueError, match=message):
            lstm_step(x, h, c, Tensor(np.zeros((7, 16))), Tensor(np.zeros((1, 16))))

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_encoders_tape_one_entry_per_pass(self, n):
        tokens = [f"w{k % 3}" for k in range(n)]
        vocab = Vocabulary(["w0", "w1", "w2"])
        cls_cfg = ClassifierConfig(word_dim=4, encoder_hidden=3, use_answer_embedding=True)
        cls_params = init_classifier(cls_cfg, len(vocab), np.random.default_rng(0)).tensors
        with Tape() as tape:
            encode_summary([tokens], [[n - 1]], cls_cfg, cls_params, vocab)
        assert [e.op for e in tape.entries].count("lstm_step") == 2
        qg_cfg = QGConfig(word_dim=4, meta_dim=2, encoder_hidden=3, decoder_hidden=5)
        qg_params = init_qg(qg_cfg, len(vocab), np.random.default_rng(0)).tensors
        ids = vocab.encode(tokens)
        seq = TaggedSequence(surfaces=tokens, ids=ids, meta=[k % 3 for k in range(n)],
                             oov_words=[])
        with Tape() as tape:
            encode([seq], qg_params)
        assert [e.op for e in tape.entries].count("lstm_step") == 1


def _layer_inputs(seed, n, k, d_in=3, d=4):
    """X and a layer's two-direction reading of it as ``run_lstm`` reads
    it, then each direction's W and b: k sequences of at most n rows
    packed in X, the first n long; one is read as it is, several through
    ``padded``, left-aligned forward and right-aligned in reverse."""
    rng = np.random.default_rng(seed)
    lengths = [n, *rng.integers(1, n + 1, size=k - 1)]
    X = Tensor(rng.normal(scale=0.5, size=(sum(lengths), d_in)))
    rows = [padded(lengths, right=r)[0].T.ravel() for r in (False, True)]
    read = (lambda X: (X, X)) if k == 1 else (lambda X: tuple(lookup(X, r) for r in rows))
    Ws = tuple(Tensor(rng.normal(scale=0.5, size=(d_in + d, 4 * d))) for _ in range(2))
    bs = tuple(Tensor(rng.normal(scale=0.5, size=(1, 4 * d))) for _ in range(2))
    return X, read, Ws, bs


def _pair_loss(Hf, Hb, c_last):
    return add(add(reduce_sum(mul(Hf, Tensor(np.linspace(-1.0, 1.5, Hf.data.size)
                                             .reshape(Hf.shape)))),
                   reduce_sum(mul(Hb, Tensor(np.linspace(1.3, -0.4, Hb.data.size)
                                             .reshape(Hb.shape))))),
               reduce_sum(mul(c_last, Tensor(np.linspace(0.7, -1.2, c_last.data.size)
                                             .reshape(c_last.shape)))))


class TestLSTMBothDirections:
    """lstm_step over both directions of a layer in one loop: the bits of
    one call per direction, on the rows run_bilstm reads."""

    # k states per direction: one sequence, and the chunks on either
    # side of run_bilstm's row budget
    @pytest.mark.parametrize("k", [1, _STACK_ROWS // 2, _STACK_ROWS // 2 + 1])
    @pytest.mark.parametrize("n", [1, 5])
    def test_bits_of_one_call_per_direction(self, n, k):
        d = 4
        results = []
        for pair in (True, False):
            X, read, Ws, bs = _layer_inputs(30 + k, n, k, d=d)
            with Tape() as tape:
                xs = read(X)
                if pair:
                    zeros = [Tensor(np.zeros((2 * k, d)))]  # one tensor as both h and c
                    Hf, Hb, c_last = lstm_step(xs, zeros[0], zeros[0], Ws, bs, (False, True))
                else:
                    zeros = [Tensor(np.zeros((k, d))) for _ in range(2)]
                    (Hf, cf), (Hb, cb) = (oracle_lstm_step(xd, z, z, Wd, bd, reverse=r)
                                          for xd, z, Wd, bd, r in zip(xs, zeros, Ws, bs,
                                                                      (False, True)))
                    c_last = concat([cf, cb], axis=0)
                loss = _pair_loss(Hf, Hb, c_last)
            assert [e.op for e in tape.entries].count("lstm_step") == 2 - pair
            backward(tape, loss)
            results.append([Hf.data, Hb.data, c_last.data, X.grad,
                            np.concatenate([z.grad for z in zeros]),
                            *(t.grad for t in Ws + bs)])
        ours, ref = results
        assert [a.shape for a in ours] == [a.shape for a in ref]
        assert [a.tobytes() for a in ours] == [a.tobytes() for a in ref]

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [1, 4])
    def test_gradients_vs_finite_differences(self, n, k):
        X, read, Ws, bs = _layer_inputs(41, n, k)
        rng = np.random.default_rng(42)
        h, c = (Tensor(rng.normal(scale=0.5, size=(2 * k, 4))) for _ in range(2))

        def loss():
            return _pair_loss(*lstm_step(read(X), h, c, Ws, bs, (False, True)))

        with Tape() as tape:
            out = loss()
        backward(tape, out)
        assert check_gradients(lambda: loss().item(), [X, h, c, *Ws, *bs]) < 1e-6

    @pytest.mark.parametrize("rows,state,message", [
        ((6, 6), (3, 4), "x rows are not a multiple of h rows"),
        ((6, 4), (4, 4), "x rows are not a multiple of h rows"),
        ((5, 5), (4, 4), "x rows are not a multiple of h rows"),
    ], ids=["odd-state", "unequal-x", "rows"])
    def test_bad_shapes_rejected(self, rows, state, message):
        xs = tuple(Tensor(np.zeros((r, 3))) for r in rows)
        h = Tensor(np.zeros(state))
        Ws, bs = (Tensor(np.zeros((7, 16))),) * 2, (Tensor(np.zeros((1, 16))),) * 2
        with pytest.raises(ValueError, match=message):
            lstm_step(xs, h, h, Ws, bs, (False, True))


class TestLSTMCell:
    """lstm_step as one cell step (n = 1) over k state rows: the decoder's
    call, one per step over its live rows."""

    @pytest.mark.parametrize("on_h,on_c", _LSTM_LOSSES)
    def test_gradients_vs_finite_differences(self, on_h, on_c):
        inputs = _lstm_inputs(22, n=1, k=3)
        with Tape() as tape:
            loss = _lstm_loss(lstm_step(*inputs), on_h, on_c)
        backward(tape, loss)
        assert [e.op for e in tape.entries].count("lstm_step") == 1

        def f():
            return _lstm_loss(lstm_step(*inputs), on_h, on_c).item()

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

    def test_a_wrong_gradient_shape_changes_nothing(self):
        a, b = Tensor([1.0]), Tensor([1.0, 2.0])
        a.grad, b.grad = np.array([1.0]), np.zeros(3)
        state = AdamState()
        with pytest.raises(ValueError, match="parameter 'b' shape"):
            adam_step({"a": a, "b": b}, state, lr=0.1)
        assert (a.data.tolist(), state.step, state.m, state.v) == ([1.0], 0, {}, {})

    @pytest.mark.parametrize("shape", [(), (2, 3)])
    def test_a_missing_gradient_is_named_and_changes_nothing(self, shape):
        a, p = Tensor([1.0, 2.0]), Tensor(np.full(shape, 0.5))
        a.grad = np.ones(2)
        state = AdamState()
        with pytest.raises(ValueError, match="parameter 'p' has no gradient"):
            adam_step({"a": a, "p": p}, state, lr=0.1)
        assert (a.data.tolist(), state.step, state.m, state.v) == ([1.0, 2.0], 0, {}, {})
        np.testing.assert_array_equal(p.data, np.full(shape, 0.5))

    def test_a_failed_step_after_packing_changes_nothing(self):
        params = {"a": Tensor([1.0, 2.0]), "b": Tensor([[3.0]])}
        for p in params.values():
            p.grad = np.ones_like(p.data)
        state = AdamState()
        adam_step(params, state, lr=0.1)
        before = [(p.data.copy(), state.m[n].copy(), state.v[n].copy())
                  for n, p in params.items()]
        params["b"].grad = None
        with pytest.raises(ValueError, match="'b' has no gradient"):
            adam_step(params, state, lr=0.1)
        assert state.step == 1
        for (n, p), arrays in zip(params.items(), before):
            for got, want in zip((p.data, state.m[n], state.v[n]), arrays):
                np.testing.assert_array_equal(got, want)

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


def _taped(op, inputs, g):
    """``op`` on ``inputs`` as one tape entry: its output, and the
    gradients its backward hands its inputs for ``g``."""
    with Tape() as tape:
        out = op(*inputs)
    [entry] = tape.entries
    return out.data, list(entry.backward_fn(g))


def _same_bits(a, b):
    return a.shape == b.shape and a.strides == b.strides and a.tobytes() == b.tobytes()


class TestFastFormsMatchReferences:
    """The ops' leaner forms against their earlier forms, kept in
    tests/oracles.py: the same bits, in values and gradients."""

    def test_sigmoid_special_and_random_values(self):
        rng = np.random.default_rng(31)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 710.0, -710.0,
                            745.0, -745.0, 746.0, -746.0, 5e-324, -5e-324])
        spread = rng.normal(size=2_000_000) * 10.0 ** rng.integers(-4, 4, size=2_000_000)
        for d in (special, spread, spread.reshape(1000, 2000)[:, ::3]):
            assert _same_bits(ad._sigmoid(d), oracle_sigmoid(d))

    @pytest.mark.parametrize("shapes,axis", [
        ([(2, 3), (4, 3), (1, 3)], 0),
        ([(3, 2), (3, 5), (3, 1)], 1),
        ([(3, 2), (3, 5)], -1),
        ([(2, 3, 4), (2, 1, 4)], 1),
        ([(2, 3, 4), (2, 3, 2), (2, 3, 1)], -1),
        ([(1, 3, 4), (3, 3, 4)], 0),
    ])
    def test_concat_backward_slices_as_split_does(self, shapes, axis):
        rng = np.random.default_rng(32)
        parts = [rng.normal(size=s) for s in shapes]
        g = rng.normal(size=np.concatenate(parts, axis=axis).shape)
        ours = _taped(lambda *t: concat(list(t), axis=axis), [Tensor(p) for p in parts], g)
        ref = _taped(lambda *t: oracle_concat(list(t), axis=axis), [Tensor(p) for p in parts], g)
        assert _same_bits(ours[0], ref[0])
        assert len(ours[1]) == len(ref[1]) == len(parts)
        for a, b in zip(ours[1], ref[1]):
            assert _same_bits(a, b) and np.shares_memory(a, g)

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_softmax_in_place(self, axis):
        rng = np.random.default_rng(33)
        x = rng.normal(scale=30.0, size=(3, 4, 7))
        x[..., 5:] = -np.inf  # padding slots, as the decoder masks them
        x = x if axis == -1 else x[..., :5]
        g = rng.normal(size=x.shape)
        ours = _taped(lambda t: softmax(t, axis=axis), [Tensor(x)], g)
        ref = _taped(lambda t: oracle_softmax(t, axis=axis), [Tensor(x)], g)
        assert _same_bits(ours[0], ref[0]) and _same_bits(ours[1][0], ref[1][0])

    # the copy columns after the vocabulary's V = 5: out-of-vocabulary
    # ids, an in-vocabulary id (2) that lands on a vocabulary column, ids
    # repeated, and last a padding column (value 0) repeating a real one's id
    V, SIZE = 5, 9
    COPIES = [[6, 2, 5, 8, 2, 6], [7, 7, 0, 4, 5, 7]]

    def test_scatter_sum_prefix_is_the_one_bincount_form(self):
        # a map of the copy columns alone lands the V columns before them
        # on their own ids: the bits of one bincount over the full map,
        # those ids written out.  A full-width map scatters every column,
        # whatever its first V ids
        rng = np.random.default_rng(34)
        one, blocks = self.COPIES[0], np.array(self.COPIES)

        def ahead(first, idx):
            idx = np.asarray(idx)
            return np.concatenate([np.broadcast_to(first, idx.shape[:-1] + (self.V,)), idx],
                                  axis=-1)

        for shape, idx in [((11,), one), ((3, 11), one), ((2, 3, 11), blocks),
                           ((2, 3, 11), one)]:
            v = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
            v[..., -1] = 0.0
            g = rng.normal(size=shape[:-1] + (self.SIZE,))
            full, shuffled = ahead(np.arange(self.V), idx), ahead([3, 0, 4, 4, 1], idx)
            for ours_map, ref_map in ((idx, full), (full, full), (shuffled, shuffled),
                                      (idx, idx)):
                ours = _taped(lambda t: scatter_sum(t, ours_map, self.SIZE), [Tensor(v)], g)
                want = _taped(lambda t: oracle_scatter_sum(t, ref_map, self.SIZE), [Tensor(v)], g)
                assert _same_bits(ours[0], want[0]) and _same_bits(ours[1][0], want[1][0])

    def test_scatter_sum_prefix_bounds(self):
        # a map is at most as wide as the values and a (B x m) one gives
        # each block of a stack its own; every target, the identity
        # columns' own ids included, lies in 0 .. size - 1
        v, stack = Tensor(np.ones(4)), Tensor(np.ones((2, 3, 4)))
        for values, bad in [(v, [0, 1, 2, 3, 0]), (stack, np.zeros((2, 5))), (v, 0),
                            (stack, np.zeros((3, 2))), (Tensor(np.ones((2, 4))), np.zeros((2, 2)))]:
            with pytest.raises(ValueError, match="does not fit values"):
                scatter_sum(values, bad, 4)
        for width, idx, size in [(8, [0], 6), (4, [0, 1, 2, 4], 4), (4, [-1], 4)]:
            with pytest.raises(ValueError, match=f"target outside 0..{size - 1}$"):
                scatter_sum(Tensor(np.ones(width)), idx, size)
        # identity columns up to the size: ids 0 .. 5, then the map's
        assert scatter_sum(Tensor(np.ones(7)), [0], 6).data.tolist() == [2.0] + [1.0] * 5
        assert scatter_sum(Tensor(np.ones(4)), [], 4).data.tolist() == [1.0] * 4

    def test_segments_out_of_range_message(self):
        for segs in ([[0], [1, 3]], [[-1, 0], [2]]):
            with pytest.raises(ValueError, match=r"^a segment indexes outside 0\.\.2$"):
                segment_max(Tensor(np.zeros(3)), Segments(segs))
        # a (B x r x n) stack's segments index its B * n positions
        with pytest.raises(ValueError, match=r"^a segment indexes outside 0\.\.5$"):
            segment_max(Tensor(np.zeros((2, 1, 3))), Segments([[0], [6]]))
