"""The taped training step against the references in tests/oracles.py.

``backward``, ``lstm_step``'s backward and ``adam_step`` must give the
same bits as the zero-filling sweep, the gate-by-gate cell and Adam one
parameter at a time: gradient by gradient on small graphs and on the
models' own, and checkpoint by checkpoint over whole training runs."""

import numpy as np
import pytest

from oracles import REFERENCE_PATCHES, oracle_adam_step, oracle_backward, oracle_lstm_step
from qgkit import autodiff as ad
from qgkit.autodiff import AdamState, Tape, Tensor, adam_step, backward, lstm_step
from qgkit.classifier import ClassifierConfig, _class_distribution, init_classifier, train_classifier
from qgkit.data import Vocabulary, build_qg_input, tokenize
from qgkit.generator import QGConfig, init_qg, sequence_loss, target_ids, train_qg
from qgkit.persist import checkpoint_bytes
from qgkit.synthetic import bundled_corpus


@pytest.fixture(scope="module")
def mini():
    corpus = bundled_corpus("mini200")[:20]
    return corpus, Vocabulary.build(corpus)


def tape_tensors(tape):
    seen = {}
    for entry in tape.entries:
        for t in entry.inputs + entry.outputs:
            seen[id(t)] = t
    return list(seen.values())


def assert_backward_matches_oracle(tape, loss):
    """Every gradient on the tape, byte for byte and in the same memory
    layout, after ``backward`` and after the zero-filling reference.
    Returns the tensors."""
    tensors = tape_tensors(tape)
    oracle_backward(tape, loss)
    want = [(t.grad.tobytes(), t.grad.strides) for t in tensors]
    backward(tape, loss)
    assert [(t.grad.tobytes(), t.grad.strides) for t in tensors] == want
    return tensors


def test_generator_graph_one_pair_and_a_chunk(mini):
    corpus, vocab = mini
    config = QGConfig()
    params = init_qg(config, len(vocab), np.random.default_rng(3)).tensors
    pairs = []
    for ex in corpus[:5]:
        seq = build_qg_input(ex, ex.iw_class, vocab)
        pairs.append((seq, target_ids(tokenize(ex.question), vocab, seq.oov_words)))
    seqs, targets = zip(*pairs)
    for source, gold in [(seqs[:1], targets[:1]), (seqs, targets)]:
        with Tape() as tape:
            loss = sequence_loss(source, gold, params)
        on_tape = {id(t) for t in assert_backward_matches_oracle(tape, loss)}
        assert on_tape >= {id(p) for p in params.values()}


def test_classifier_graph(mini):
    corpus, vocab = mini
    config = ClassifierConfig(use_answer_tagging=True, use_answer_embedding=True,
                              use_entity_type=True)
    params = init_classifier(config, len(vocab), np.random.default_rng(4)).tensors
    for ex in corpus[:3]:
        with Tape() as tape:
            loss = ad.cross_entropy(_class_distribution([ex], config, params, vocab),
                                    int(ex.iw_class))
        assert_backward_matches_oracle(tape, loss)


def test_transpose_into_matmul():
    # transpose's backward hands on a Fortran-order view; the product
    # that made its input must still see a C-order gradient
    rng = np.random.default_rng(5)
    a, b, c = (Tensor(rng.normal(size=s)) for s in [(7, 5), (5, 9), (7, 4)])
    with Tape() as tape:
        y = ad.matmul(a, b)
        z = ad.matmul(ad.transpose(y), c)
        loss = ad.reduce_sum(ad.mul(z, Tensor(rng.normal(size=z.shape))))
    assert_backward_matches_oracle(tape, loss)


def test_add_of_a_tensor_to_itself():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(3, 4)))
    with Tape() as tape:
        loss = ad.reduce_sum(ad.mul(ad.add(x, x), Tensor(rng.normal(size=(3, 4)))))
    assert_backward_matches_oracle(tape, loss)


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_step_with_one_tensor_as_h_and_c(reverse):
    # run_bilstm starts both states from one zeros tensor
    rng = np.random.default_rng(7)
    k, d, m, n = 2, 3, 4, 5
    x = Tensor(rng.normal(size=(n * k, m)))
    zeros = Tensor(np.zeros((k, d)))
    W, b = Tensor(rng.normal(size=(m + d, 4 * d))), Tensor(rng.normal(size=(1, 4 * d)))
    with Tape() as tape:
        H, c = lstm_step(x, zeros, zeros, W, b, reverse=reverse)
        loss = ad.add(ad.reduce_sum(ad.mul(H, Tensor(rng.normal(size=H.shape)))),
                      ad.reduce_sum(ad.mul(c, Tensor(rng.normal(size=c.shape)))))
    assert_backward_matches_oracle(tape, loss)


def test_unreached_and_untaped_tensors():
    rng = np.random.default_rng(8)
    x, u, off = (Tensor(rng.normal(size=(2, 3))) for _ in range(3))
    x.grad = np.full((2, 3), 7.0)  # a stale gradient from an earlier pass
    with Tape() as tape:
        dead = ad.tanh(u)
        loss = ad.reduce_sum(ad.mul(x, x))
    assert_backward_matches_oracle(tape, loss)
    assert not u.grad.any() and not dead.grad.any()
    assert off.grad is None
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (6, 1), (4, 3)])
def test_lstm_step_backward_is_the_gate_by_gate_one(n, k, reverse):
    rng = np.random.default_rng(10 * n + k)
    d, m = 4, 3
    inputs = [Tensor(rng.normal(size=s)) for s in
              [(n * k, m), (k, d), (k, d), (m + d, 4 * d), (1, 4 * d)]]
    with Tape() as tape:
        got = lstm_step(*inputs, reverse=reverse)
        want = oracle_lstm_step(*inputs, reverse=reverse)
    assert [t.data.tobytes() for t in got] == [t.data.tobytes() for t in want]
    dH, dc = rng.normal(size=(n * k, d)), rng.normal(size=(k, d))
    ours, ref = (e.backward_fn(dH, dc) for e in tape.entries)
    assert [g.tobytes() for g in ours] == [g.tobytes() for g in ref]


def adam_params(rng):
    return {name: Tensor(rng.normal(size=shape)) for name, shape in
            [("w", (30, 20)), ("s", ()), ("b", (1, 7)), ("v", (3,))]}


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_flat_adam_is_per_parameter_adam(weight_decay):
    ours, ref = adam_params(np.random.default_rng(11)), adam_params(np.random.default_rng(11))
    s_ours, s_ref = AdamState(), AdamState()
    rng = np.random.default_rng(12)
    for step in range(6):
        for name in ours:
            ours[name].grad = rng.normal(size=ours[name].shape)
            ref[name].grad = ours[name].grad.copy()
        if step == 3:
            # a replaced array is packed again, its moments carried over
            ours["w"].data = ours["w"].data.copy()
        adam_step(ours, s_ours, lr=0.01, weight_decay=weight_decay)
        oracle_adam_step(ref, s_ref, lr=0.01, weight_decay=weight_decay)
        assert s_ours.step == s_ref.step == step + 1
        for name in ours:
            assert ours[name].data.tobytes() == ref[name].data.tobytes()
            assert s_ours.m[name].tobytes() == s_ref.m[name].tobytes()
            assert s_ours.v[name].tobytes() == s_ref.v[name].tobytes()


def patch_oracles(monkeypatch):
    for mod, name, ref in REFERENCE_PATCHES:
        monkeypatch.setattr(mod, name, ref)


@pytest.mark.parametrize("kind", ["classifier", "qg"])
def test_training_matches_the_reference_step(mini, monkeypatch, kind):
    corpus, vocab = mini
    train, config = ((train_classifier, ClassifierConfig(epochs=2)) if kind == "classifier"
                     else (train_qg, QGConfig(epochs=2)))

    def run():
        params, log = train(corpus, config, vocab)
        return params, log, checkpoint_bytes(kind, {}, params.tensors, "")

    params, log, blob = run()
    with monkeypatch.context() as m:
        patch_oracles(m)
        _, ref_log, ref_blob = run()
    assert blob == ref_blob
    assert log == ref_log
    # a copy shares no memory with the packed parameters it was taken from
    copy = params.copy()
    for t in copy.tensors.values():
        t.data += 1.0
    assert checkpoint_bytes(kind, {}, params.tensors, "") == blob


def test_reference_step_runs_each_direction_alone(mini, monkeypatch):
    # the reference cell runs each direction of a BiLSTM layer as its own
    # entry, so the comparisons above check the two-direction call
    # against one call per direction, not against itself
    corpus, vocab = mini
    ex = corpus[0]
    qg_cfg, cls_cfg = QGConfig(), ClassifierConfig()
    qg_params = init_qg(qg_cfg, len(vocab), np.random.default_rng(5)).tensors
    cls_params = init_classifier(cls_cfg, len(vocab), np.random.default_rng(5)).tensors
    seq = build_qg_input(ex, ex.iw_class, vocab)
    counts = []
    for patched in (False, True):
        with monkeypatch.context() as m:
            if patched:
                patch_oracles(m)
            with Tape() as qg_tape:
                sequence_loss([seq], [target_ids(tokenize(ex.question), vocab, seq.oov_words)],
                              qg_params)
            with Tape() as cls_tape:
                ad.cross_entropy(_class_distribution([ex], cls_cfg, cls_params, vocab),
                                 int(ex.iw_class))
        counts.append([[e.op for e in t.entries].count("lstm_step") for t in (qg_tape, cls_tape)])
    # one entry per layer and the decoder's, then one per direction
    assert counts == [[2, 2], [3, 4]]


# the ops a taped qg step on one pair records, in order: the encoder's
# lookups, BiLSTM (both directions one entry) and self-attention, the
# fusion gate, the bridge, the decoder's recurrence, then its head (the
# memory is transposed where the head first reads it) and the loss
QG_STEP_OPS = [
    "lookup", "lookup", "concat", "lstm_step", "concat",
    "matmul", "transpose", "matmul", "softmax", "matmul",
    "concat", "matmul", "add", "tanh", "matmul", "add", "sigmoid", "mul", "sub", "mul", "add",
    "lookup", "matmul", "add", "tanh", "matmul", "add", "tanh",
    "lookup", "lstm_step",
    "matmul", "transpose", "matmul", "softmax", "matmul", "concat", "matmul", "add",
    "segment_max", "add", "concat", "softmax", "scatter_sum", "cross_entropy",
]


def test_qg_step_tape_order(mini):
    corpus, vocab = mini
    config = QGConfig()
    params = init_qg(config, len(vocab), np.random.default_rng(5)).tensors
    ex = corpus[0]
    seq = build_qg_input(ex, ex.iw_class, vocab)
    with Tape() as tape:
        sequence_loss([seq], [target_ids(tokenize(ex.question), vocab, seq.oov_words)], params)
    assert [entry.op for entry in tape.entries] == QG_STEP_OPS
