"""Generator tests.

The encoder is checked against a plain-numpy forward pass, the decoder's
combined generate/copy distribution against brute-force enumeration, and
the whole teacher-forced graph against central finite differences.
"""

import dataclasses
from functools import reduce

import numpy as np
import pytest

from oracles import oracle_encode, oracle_final_dist
from qgkit import autodiff as ad
from qgkit.autodiff import Tape, backward
from qgkit.classifier import (
    ClassifierConfig,
    _class_distribution,
    init_classifier,
    oracle_classifier,
)
from qgkit.data import (
    EOS_ID,
    SOS_ID,
    UNK_ID,
    Example,
    IWClass,
    MetaTag,
    TaggedSequence,
    Vocabulary,
    build_qg_input,
    tokenize,
)
from qgkit.gradcheck import check_gradients
from qgkit.generator import (
    QGConfig,
    _copy_layout,
    _copy_segments,
    _decoder_head,
    decode_step,
    encode,
    generate,
    generate_batch,
    init_decoder_state,
    init_qg,
    pipeline_generate,
    qg_loss,
    sequence_loss,
    target_ids,
    train_qg,
)
from qgkit.synthetic import bundled_corpus


def tiny_config(**kw):
    base = dict(word_dim=5, meta_dim=3, encoder_hidden=4, decoder_hidden=6,
                epochs=2, lr=5e-3, seed=0)
    base.update(kw)
    return QGConfig(**base)


def random_sequence(rng, vocab_size, n, max_oov=2):
    """Random tagged source with extended ids and at least one repeated
    word (when length allows)."""
    n_oov = int(rng.integers(0, max_oov + 1))
    oov_words = [f"novel{k}" for k in range(n_oov)]
    pool = list(range(7, vocab_size)) + [vocab_size + k for k in range(n_oov)]
    ids = [int(pool[rng.integers(0, len(pool))]) for _ in range(n)]
    if n >= 2 and len(set(ids)) == len(ids):
        ids[n - 1] = ids[0]
    surfaces = [f"w{i}" if i < vocab_size else oov_words[i - vocab_size] for i in ids]
    base_ids = [i if i < vocab_size else UNK_ID for i in ids]
    meta = [int(rng.integers(0, 3)) for _ in range(n)]
    return TaggedSequence(surfaces=surfaces, ids=ids, base_ids=base_ids,
                          meta=meta, oov_words=oov_words)


def capped_scores(step, enc):
    """Each copy segment's score: the maximum raw attention over its
    positions, in segment order."""
    raw = step.raw_attention.data
    return np.array([max(raw[j] for j in seg) for seg in enc.segments])


def random_model_and_seq(seed, vocab_max=20, len_max=10):
    rng = np.random.default_rng(seed)
    vocab_size = int(rng.integers(15, vocab_max + 1))
    cfg = tiny_config()
    params = init_qg(cfg, vocab_size, rng).tensors
    seq = random_sequence(rng, vocab_size, int(rng.integers(1, len_max + 1)))
    return cfg, params, seq, vocab_size, rng


class TestConfig:
    def test_defaults_valid(self):
        QGConfig().validate()

    @pytest.mark.parametrize("field,bad", [
        ("word_dim", 0), ("epochs", 0), ("max_len", 0), ("beam_size", 0),
        ("lr", 0.0), ("weight_decay", -1e-3),
    ])
    def test_rejects_bad_values(self, field, bad):
        with pytest.raises(ValueError):
            QGConfig(**{field: bad}).validate()

    def test_dict_roundtrip(self):
        cfg = QGConfig(word_dim=10, insert_iw=False, beam_size=3)
        assert QGConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("key,value", [
        ("dropout", 0.1), ("beam_size", None), ("max_len", "30"), ("epochs", True),
        ("insert_iw", 1), ("lr", "0.1"),
    ])
    def test_from_dict_rejects(self, key, value):
        d = QGConfig().to_dict()
        if value is None:
            del d[key]
        else:
            d[key] = value
        with pytest.raises(ValueError):
            QGConfig.from_dict(d)

    def test_from_dict_reads_int_as_float(self):
        cfg = QGConfig.from_dict({**QGConfig().to_dict(), "lr": 1})
        assert type(cfg.lr) is float and cfg.lr == 1.0


class TestEncode:
    def test_matches_numpy_forward(self):
        for seed in range(20):
            cfg, params, seq, _, _ = random_model_and_seq(seed)
            enc = encode(seq, cfg, params)
            P = {k: t.data for k, t in params.items()}
            *_, states = oracle_encode(seq.base_ids, seq.meta, P, cfg.encoder_hidden)
            np.testing.assert_allclose(enc.states.data, states, rtol=0, atol=1e-12)

    def test_shapes_and_final_state(self):
        cfg, params, seq, _, _ = random_model_and_seq(3)
        enc = encode(seq, cfg, params)
        n = len(seq.surfaces)
        assert enc.states.shape == (n, 2 * cfg.encoder_hidden)
        assert len(enc) == n
        # the decoder bridge reads the last fused state
        last = enc.states.data[n - 1 : n]
        h0, c0 = init_decoder_state(enc, cfg, params)
        for t, gate in ((h0, "bridge.h"), (c0, "bridge.c")):
            want = np.tanh(last @ params[f"{gate}.W"].data + params[f"{gate}.b"].data)
            np.testing.assert_array_equal(t.data, want)

    def test_gate_interpolation_bounds(self):
        # each fused coordinate lies between its raw and candidate value
        for seed in range(10):
            cfg, params, seq, _, _ = random_model_and_seq(seed)
            enc = encode(seq, cfg, params)
            P = {k: t.data for k, t in params.items()}
            U, _, F, _, _ = oracle_encode(seq.base_ids, seq.meta, P, cfg.encoder_hidden)
            lo = np.minimum(F, U) - 1e-12
            hi = np.maximum(F, U) + 1e-12
            assert np.all(enc.states.data >= lo)
            assert np.all(enc.states.data <= hi)

    def test_gate_closed_limit(self):
        # zero gate weights + large negative bias: fused states == raw states
        cfg, params, seq, _, _ = random_model_and_seq(5)
        params["fuse.g.W"].data[:] = 0.0
        params["fuse.g.b"].data[:] = -50.0
        enc = encode(seq, cfg, params)
        P = {k: t.data for k, t in params.items()}
        U, *_ = oracle_encode(seq.base_ids, seq.meta, P, cfg.encoder_hidden)
        np.testing.assert_allclose(enc.states.data, U, rtol=0, atol=1e-12)

    def test_single_token_attends_to_itself(self):
        cfg, params, _, vocab_size, _ = random_model_and_seq(7)
        seq = TaggedSequence(surfaces=["w9"], ids=[9], base_ids=[9],
                             meta=[int(MetaTag.Context)], oov_words=[])
        P = {k: t.data for k, t in params.items()}
        U, S, *_ = oracle_encode(seq.base_ids, seq.meta, P, cfg.encoder_hidden)
        np.testing.assert_allclose(S, U, rtol=0, atol=1e-15)
        enc = encode(seq, cfg, params)
        np.testing.assert_allclose(
            enc.states.data,
            oracle_encode(seq.base_ids, seq.meta, P, cfg.encoder_hidden)[4],
            rtol=0, atol=1e-12,
        )

    def test_empty_input_rejected(self):
        cfg, params, _, _, _ = random_model_and_seq(0)
        empty = TaggedSequence(surfaces=[], ids=[], base_ids=[], meta=[], oov_words=[])
        with pytest.raises(ValueError):
            encode(empty, cfg, params)

    def test_copy_segment_grouping(self):
        ids = [5, 9, 5, 14, 9]
        segments = _copy_segments(ids)
        assert segments == [[0, 2], [1, 4], [3]]
        assert [ids[seg[0]] for seg in segments] == [5, 9, 14]


class TestDecodeStep:
    def test_final_dist_matches_enumeration(self):
        for seed in range(200):
            cfg, params, seq, vocab_size, rng = random_model_and_seq(seed)
            enc = encode(seq, cfg, params)
            state = init_decoder_state(enc, cfg, params)
            prev = int(rng.integers(0, vocab_size))
            step, _ = decode_step(prev, state, enc, cfg, params)
            want = oracle_final_dist(
                step.generate_scores.data, step.raw_attention.data,
                seq.ids, vocab_size, len(seq.oov_words),
            )
            np.testing.assert_allclose(step.final_dist.data, want, rtol=0, atol=1e-9)
            assert abs(float(step.final_dist.data.sum()) - 1.0) < 1e-9

    def test_maxout_dominance_exact(self):
        for seed in range(30):
            cfg, params, seq, vocab_size, rng = random_model_and_seq(seed)
            enc = encode(seq, cfg, params)
            state = init_decoder_state(enc, cfg, params)
            step, _ = decode_step(SOS_ID, state, enc, cfg, params)
            # every position of a word copies with the segment's capped
            # logit, so the word's copy mass is len(seg) * exp(cap) / Z
            capped = capped_scores(step, enc)
            gen = step.generate_scores.data
            sizes = np.array([len(seg) for seg in enc.segments])
            shift = max(gen.max(), capped.max())
            z = np.exp(gen - shift).sum() + (sizes * np.exp(capped - shift)).sum()
            gen_share = np.zeros(step.final_dist.shape[0])
            gen_share[:vocab_size] = np.exp(gen - shift) / z
            for k, seg in enumerate(enc.segments):
                wid = seq.ids[seg[0]]
                copy_mass = sizes[k] * np.exp(capped[k] - shift) / z
                assert step.final_dist.data[wid] == pytest.approx(
                    gen_share[wid] + copy_mass, rel=0, abs=1e-12)

    def test_chunk_rows_match_enumeration_of_own_passage(self):
        # both passages hold in-vocabulary word 7 and extended id 18,
        # which names a different word in each; each row is masked to
        # its own passage
        cfg, rng, vocab_size = tiny_config(), np.random.default_rng(5), 18
        params = init_qg(cfg, vocab_size, rng).tensors
        sources = [([7, 18, 9, 7, 19, 18], ["novel0", "novel1"]),
                   ([10, 7, 18, 10, 11], ["other0"])]
        passages = [encode(TaggedSequence(
            surfaces=[f"w{i}" if i < vocab_size else oov[i - vocab_size] for i in ids],
            ids=ids, base_ids=[i if i < vocab_size else UNK_ID for i in ids],
            meta=[int(rng.integers(0, 3)) for _ in ids], oov_words=oov), cfg, params)
            for ids, oov in sources]
        bounds = np.cumsum([0] + [len(p) for p in passages])
        owner = [0, 0, 1, 1, 1]
        mask = np.full((len(owner), bounds[-1]), -np.inf)
        for r, e in enumerate(owner):
            mask[r, bounds[e] : bounds[e + 1]] = 0.0
        H = ad.Tensor(rng.standard_normal((len(owner), cfg.decoder_hidden)))
        step = _decoder_head(H, ad.concat([p.states for p in passages]),
                             _copy_layout(passages, vocab_size), params, ad.Tensor(mask))
        dist = step.final_dist.data
        assert dist.shape == (len(owner), vocab_size + 2)
        for r, e in enumerate(owner):
            ids, oov = sources[e]
            width = vocab_size + len(oov)
            want = oracle_final_dist(step.generate_scores.data[r],
                                     step.raw_attention.data[r, bounds[e] : bounds[e + 1]],
                                     ids, vocab_size, len(oov))
            np.testing.assert_allclose(dist[r, :width], want, rtol=0, atol=1e-12)
            assert not dist[r, width:].any()

    def test_copy_scores_cover_source_words(self):
        cfg, params, seq, _, _ = random_model_and_seq(11)
        enc = encode(seq, cfg, params)
        step, _ = decode_step(SOS_ID, init_decoder_state(enc, cfg, params),
                              enc, cfg, params)
        scored = {seq.surfaces[seg[0]] for seg in enc.segments}
        assert len(scored) == len(enc.segments) == len(capped_scores(step, enc))
        assert scored == set(seq.surfaces)

    def test_singleton_word_gets_plain_pointer_share(self):
        # all-distinct source: each word's probability is its generate
        # share plus exactly its own position's copy share
        cfg = tiny_config()
        rng = np.random.default_rng(42)
        vocab_size = 18
        params = init_qg(cfg, vocab_size, rng).tensors
        ids = [7, 8, 9, 10]
        seq = TaggedSequence(surfaces=[f"w{i}" for i in ids], ids=ids,
                             base_ids=ids, meta=[2, 2, 1, 2], oov_words=[])
        enc = encode(seq, cfg, params)
        step, _ = decode_step(SOS_ID, init_decoder_state(enc, cfg, params),
                              enc, cfg, params)
        z = np.concatenate([step.generate_scores.data, step.raw_attention.data])
        p = np.exp(z - z.max())
        p /= p.sum()
        for j, wid in enumerate(ids):
            np.testing.assert_allclose(
                step.final_dist.data[wid], p[wid] + p[vocab_size + j], atol=1e-12
            )

    def test_extended_prev_token_clamps_to_unk(self):
        cfg, params, seq, vocab_size, _ = random_model_and_seq(9)
        enc = encode(seq, cfg, params)
        state = init_decoder_state(enc, cfg, params)
        a, _ = decode_step(vocab_size + 1, state, enc, cfg, params)
        b, _ = decode_step(UNK_ID, state, enc, cfg, params)
        np.testing.assert_array_equal(a.final_dist.data, b.final_dist.data)


def fd_instance(seed):
    """6-token source, 4 target steps, small dims."""
    cfg = tiny_config()
    rng = np.random.default_rng(seed)
    vocab_size = 16
    params = init_qg(cfg, vocab_size, rng).tensors
    seq = random_sequence(rng, vocab_size, 6)
    targets = [int(rng.integers(0, vocab_size + len(seq.oov_words)))
               for _ in range(3)] + [EOS_ID]
    return cfg, params, seq, targets


def min_segment_gap(cfg, params, seq, targets):
    """Smallest top-two raw-score gap inside any repeated-word group
    over the teacher-forced steps; small gaps make the max switch its
    winner under finite-difference probing."""
    enc = encode(seq, cfg, params)
    state = init_decoder_state(enc, cfg, params)
    prev = SOS_ID
    gaps = [np.inf]
    for tid in targets:
        step, state = decode_step(prev, state, enc, cfg, params)
        raw = step.raw_attention.data
        for seg in enc.segments:
            if len(seg) >= 2:
                vals = np.sort(raw[list(seg)])
                gaps.append(float(vals[-1] - vals[-2]))
        prev = tid
    return min(gaps)


class TestGradients:
    def test_full_graph_vs_finite_differences(self):
        checked = 0
        seed = 0
        worst = 0.0
        while checked < 4:
            cfg, params, seq, targets = fd_instance(seed)
            seed += 1
            if min_segment_gap(cfg, params, seq, targets) < 5e-3:
                continue
            with Tape() as tape:
                loss = sequence_loss(seq, targets, cfg, params)
            backward(tape, loss)
            rng = np.random.default_rng(1000 + seed)
            err = check_gradients(
                lambda: sequence_loss(seq, targets, cfg, params).item(),
                list(params.values()), coords_per_tensor=3, rng=rng,
            )
            worst = max(worst, err)
            checked += 1
        assert worst < 1e-4

    def test_matches_decode_step_loop(self):
        # the one-pass loss against decode_step stepped through the targets
        def looped(seq, targets, cfg, params):
            enc = encode(seq, cfg, params)
            state, prev, losses = init_decoder_state(enc, cfg, params), SOS_ID, []
            for tid in targets:
                step, state = decode_step(prev, state, enc, cfg, params)
                losses.append(ad.cross_entropy(step.final_dist, tid))
                prev = tid
            return ad.mul(reduce(ad.add, losses), 1.0 / len(targets))

        extended_inputs = 0
        for seed in range(12):
            results = []
            for loss_fn in (sequence_loss, looped):
                cfg, params, seq, vocab_size, rng = random_model_and_seq(seed)
                targets = [int(rng.integers(0, vocab_size + len(seq.oov_words)))
                           for _ in range(int(rng.integers(1, 13)))]
                with Tape() as tape:
                    loss = loss_fn(seq, targets, cfg, params)
                backward(tape, loss)
                results.append((loss.item(), {k: t.grad for k, t in params.items()}))
            (value, grads), (want, want_grads) = results
            assert abs(value - want) <= 1e-12 * abs(want)
            for name, g in grads.items():
                scale = np.max(np.abs(want_grads[name]))
                assert np.max(np.abs(g - want_grads[name])) <= 1e-12 * scale, name
            extended_inputs += any(t >= vocab_size for t in targets[:-1])
        assert extended_inputs >= 3

    def test_every_tensor_reached(self):
        # the loss must touch all parameters, else updates silently no-op
        cfg, params, seq, targets = fd_instance(2)
        with Tape() as tape:
            loss = sequence_loss(seq, targets, cfg, params)
        backward(tape, loss)
        for name, t in params.items():
            assert t.grad is not None, name
            assert np.any(t.grad != 0.0) or t.data.size == 0, name


def test_training_tapes_stay_small():
    # one recurrent pass per direction and one decoder pass: the tape does
    # not grow with the passage or the question
    corpus = bundled_corpus("mini200")
    vocab = Vocabulary.build(corpus)
    qg_cfg, cls_cfg = QGConfig(), ClassifierConfig()
    qg_params = init_qg(qg_cfg, len(vocab), np.random.default_rng(0)).tensors
    cls_params = init_classifier(cls_cfg, len(vocab), np.random.default_rng(0)).tensors
    for ex in corpus[:20]:
        seq = build_qg_input(ex, ex.iw_class, vocab)
        with Tape() as tape:
            sequence_loss(seq, target_ids(tokenize(ex.question), vocab, seq.oov_words),
                          qg_cfg, qg_params)
        ops = [e.op for e in tape.entries]
        assert len(ops) <= 45 and ops.count("lstm_step") == 3
        with Tape() as tape:
            ad.cross_entropy(_class_distribution(ex, cls_cfg, cls_params, vocab), int(ex.iw_class))
        assert len(tape) <= 14


class TestTargets:
    def test_extended_and_unk_targets(self):
        vocab = Vocabulary(["the", "probe", "recorded", "near", "ridge", "."])
        oov = ["zanqor"]
        ids = target_ids(["the", "zanqor", "mystery", "."], vocab, oov)
        assert ids[0] == vocab.id("the")
        assert ids[1] == len(vocab)          # copyable via the source
        assert ids[2] == UNK_ID              # absent everywhere
        assert ids[-1] == EOS_ID

    def test_empty_targets_rejected(self):
        cfg, params, seq, _ = fd_instance(0)
        with pytest.raises(ValueError):
            sequence_loss(seq, [], cfg, params)


@pytest.fixture(scope="module")
def corpus():
    return bundled_corpus("overfit10")


@pytest.fixture(scope="module")
def vocab(corpus):
    return Vocabulary.build(corpus)


class TestTraining:
    def test_initial_loss_near_uniform(self, corpus, vocab):
        # untrained model: per-token loss sits near ln of the per-example
        # effective vocabulary (fixed words + that example's copy slots);
        # random init is only approximately uniform, hence the loose band
        cfg = QGConfig(seed=0)
        params = init_qg(cfg, len(vocab), np.random.default_rng(0))
        loss0 = qg_loss(corpus, cfg, params.tensors, vocab)
        expected = np.mean([
            np.log(len(vocab) + len(build_qg_input(ex, ex.iw_class, vocab).oov_words))
            for ex in corpus
        ])
        assert abs(loss0 - expected) < 0.5

    def test_loss_decreases(self, corpus, vocab):
        cfg = tiny_config(epochs=3)
        params, log = train_qg(corpus[:3], cfg, vocab)
        assert log[0]["epoch"] == 0
        assert len(log) == cfg.epochs + 1
        assert log[-1]["per_token_loss"] < log[0]["per_token_loss"]

    def test_deterministic(self, corpus, vocab):
        cfg = tiny_config(epochs=2)
        p1, log1 = train_qg(corpus[:3], cfg, vocab)
        p2, log2 = train_qg(corpus[:3], cfg, vocab)
        assert log1 == log2
        for k in p1.tensors:
            np.testing.assert_array_equal(p1.tensors[k].data, p2.tensors[k].data)

    def test_all_tensors_finite_after_training(self, corpus, vocab):
        cfg = tiny_config(epochs=2)
        params, _ = train_qg(corpus[:3], cfg, vocab)
        for name, t in params.tensors.items():
            assert np.all(np.isfinite(t.data)), name

    def test_empty_dataset_rejected(self, vocab):
        with pytest.raises(ValueError):
            train_qg([], tiny_config(), vocab)


@pytest.fixture(scope="module")
def untrained(corpus, vocab):
    cfg = tiny_config(epochs=1)
    params = init_qg(cfg, len(vocab), np.random.default_rng(0))
    return corpus, vocab, cfg, params


class TestGenerate:
    def test_attention_rows_are_distributions(self, untrained):
        corpus, vocab, cfg, params = untrained
        res = generate(corpus[0], corpus[0].iw_class, cfg, params.tensors, vocab)
        n_in = len(res.source.surfaces)
        assert res.attention.shape == (len(res.tokens), n_in)
        if len(res.tokens):
            np.testing.assert_allclose(res.attention.sum(axis=1),
                                       np.ones(len(res.tokens)), atol=1e-9)

    def test_max_len_cap(self, untrained):
        corpus, vocab, cfg, params = untrained
        capped = dataclasses.replace(cfg, max_len=3)
        res = generate(corpus[1], corpus[1].iw_class, capped, params.tensors, vocab)
        assert len(res.tokens) <= 3

    def test_deterministic(self, untrained):
        corpus, vocab, cfg, params = untrained
        a = generate(corpus[2], corpus[2].iw_class, cfg, params.tensors, vocab)
        b = generate(corpus[2], corpus[2].iw_class, cfg, params.tensors, vocab)
        assert a.tokens == b.tokens
        np.testing.assert_array_equal(a.attention, b.attention)

    def test_overfit_copies_oov_word(self):
        # vocabulary built elsewhere, so the marker is only reachable
        # through its extended copy id; the trained decoder must emit it
        ex = Example.from_record({
            "id": "copy-1",
            "passage": "zanqor is located in the north valley .",
            "question": "where is zanqor located ?",
            "answer_text": "the north valley",
            "answer_start": 21,
        })
        vocab = Vocabulary.build(bundled_corpus("mini200"))
        assert vocab.id("zanqor") == UNK_ID
        cfg = QGConfig(word_dim=12, meta_dim=4, encoder_hidden=10,
                       decoder_hidden=20, epochs=200, lr=5e-3, seed=1)
        params, _ = train_qg([ex], cfg, vocab)
        res = generate(ex, ex.iw_class, cfg, params.tensors, vocab)
        assert res.tokens == tokenize(ex.question)
        assert "zanqor" in res.tokens

    def test_beam_width_one_equals_greedy(self, untrained):
        corpus, vocab, cfg, params = untrained
        cfg = dataclasses.replace(cfg, beam_size=1, max_len=12)
        for ex in corpus[:4]:
            # greedy reference: argmax over decode_step until [EOS] or the cap
            seq = build_qg_input(ex, ex.iw_class, vocab)
            encoded = encode(seq, cfg, params.tensors)
            state = init_decoder_state(encoded, cfg, params.tensors)
            prev, ids, rows = SOS_ID, [], []
            for _ in range(cfg.max_len):
                step, state = decode_step(prev, state, encoded, cfg, params.tensors)
                prev = int(np.argmax(step.final_dist.data))
                if prev == EOS_ID:
                    break
                ids.append(prev)
                rows.append(step.attention.data)
            res = generate(ex, ex.iw_class, cfg, params.tensors, vocab)
            assert res.tokens == vocab.decode_extended(ids, seq.oov_words)
            np.testing.assert_array_equal(
                res.attention, np.array(rows).reshape(len(rows), len(seq.surfaces)))

    def test_wider_beam_stays_within_cap(self, untrained):
        corpus, vocab, cfg, params = untrained
        beam_cfg = dataclasses.replace(cfg, beam_size=3, max_len=6)
        res = generate(corpus[0], corpus[0].iw_class, beam_cfg, params.tensors, vocab)
        assert len(res.tokens) <= 6
        if res.tokens:
            np.testing.assert_allclose(res.attention.sum(axis=1),
                                       np.ones(len(res.tokens)), atol=1e-9)


@pytest.fixture(scope="module")
def copying():
    """A generator briefly trained on mini200 against the vocabulary of
    its first 20 examples: most sources hold OOV words, the decoder
    copies some of them, and its decodes stop at different steps."""
    corpus = bundled_corpus("mini200")
    vocab = Vocabulary.build(corpus[:20])
    cfg = tiny_config(epochs=4, lr=1e-2, max_len=12)
    params, _ = train_qg(corpus[100:140], cfg, vocab)
    return corpus, vocab, cfg, params.tensors


class TestGenerateBatch:
    @pytest.mark.parametrize("classes", ["gold", "oracle"])
    @pytest.mark.parametrize("beam", [1, 3])
    def test_chunks_decode_as_chunks_of_one(self, copying, beam, classes):
        corpus, vocab, cfg, params = copying
        cfg = dataclasses.replace(cfg, beam_size=beam)
        rng = np.random.default_rng(3)
        pairs = [(ex, ex.iw_class if classes == "gold"
                  else oracle_classifier(ex.iw_class, 0.6, rng)) for ex in corpus]
        batched = generate_batch(pairs, cfg, params, vocab)
        alone = [generate(ex, iw, cfg, params, vocab) for ex, iw in pairs]
        assert len(batched) == len(alone)
        for a, b in zip(alone, batched):
            assert (b.tokens, b.predicted_iw, b.source) == (a.tokens, a.predicted_iw, a.source)
            assert b.attention.shape == a.attention.shape
            np.testing.assert_allclose(b.attention, a.attention, rtol=0, atol=1e-12)
        # the cases a chunk must keep apart: passages of different
        # lengths, copied OOV words, and rows that stop at different steps
        assert len({len(r.source.surfaces) for r in alone}) > 1
        assert any(t in r.source.oov_words for r in alone for t in r.tokens)
        lengths = {len(r.tokens) for r in alone}
        assert len(lengths) > 1 and min(lengths) < cfg.max_len


class TestInsertionEffect:
    def setup_method(self):
        self.corpus = bundled_corpus("overfit10")
        self.vocab = Vocabulary.build(self.corpus)
        self.cfg = tiny_config()
        self.params = init_qg(self.cfg, len(self.vocab),
                              np.random.default_rng(4)).tensors

    def test_changing_iw_changes_one_position(self):
        ex = self.corpus[0]
        a = build_qg_input(ex, IWClass.Who, self.vocab)
        b = build_qg_input(ex, IWClass.What, self.vocab)
        diffs = [i for i, (x, y) in enumerate(zip(a.surfaces, b.surfaces)) if x != y]
        assert len(a.surfaces) == len(b.surfaces)
        assert len(diffs) == 1
        assert a.meta[diffs[0]] == MetaTag.Interrogative

    def test_others_inserts_nothing(self):
        ex = self.corpus[0]
        plain = build_qg_input(ex, IWClass.Others, self.vocab)
        with_iw = build_qg_input(ex, IWClass.Who, self.vocab)
        assert len(plain.surfaces) == len(with_iw.surfaces) - 1

    def test_zeroed_attention_maps_make_step_one_scores_iw_blind(self):
        # with both bilinear maps zeroed, the first step's raw attention
        # and copy logits are identically zero whichever word is
        # inserted, so attention is uniform and copy adds no preference
        self.params["att.Ws"].data[:] = 0.0
        self.params["att.Wa"].data[:] = 0.0
        ex = self.corpus[0]
        steps = {}
        for iw in (IWClass.Who, IWClass.What):
            seq = build_qg_input(ex, iw, self.vocab)
            enc = encode(seq, self.cfg, self.params)
            step, _ = decode_step(SOS_ID, init_decoder_state(enc, self.cfg, self.params),
                                  enc, self.cfg, self.params)
            steps[iw] = step
            n = len(seq.surfaces)
            np.testing.assert_array_equal(step.raw_attention.data, np.zeros(n))
            np.testing.assert_allclose(step.attention.data, np.full(n, 1.0 / n),
                                       atol=1e-12)
            assert all(v == 0.0 for v in capped_scores(step, enc))
        np.testing.assert_array_equal(
            steps[IWClass.Who].raw_attention.data,
            steps[IWClass.What].raw_attention.data,
        )


class TestPipeline:
    def setup_method(self):
        self.corpus = bundled_corpus("overfit10")
        self.vocab = Vocabulary.build(self.corpus)
        self.cfg = tiny_config()
        self.qg = init_qg(self.cfg, len(self.vocab), np.random.default_rng(6))

    def test_gold_predictor_matches_direct_generation(self):
        ex = self.corpus[3]
        via_pipeline = pipeline_generate(ex, lambda e: e.iw_class, self.qg, self.vocab)
        direct = generate(ex, ex.iw_class, self.cfg, self.qg.tensors, self.vocab)
        assert via_pipeline.tokens == direct.tokens
        assert via_pipeline.predicted_iw == ex.iw_class

    def test_predicted_class_recorded(self):
        ex = self.corpus[3]
        res = pipeline_generate(ex, lambda e: IWClass.Why, self.qg, self.vocab)
        assert res.predicted_iw == IWClass.Why

    def test_classifier_params_accepted(self):
        ex = self.corpus[0]
        cls_cfg = ClassifierConfig(word_dim=8, encoder_hidden=6)
        cls = init_classifier(cls_cfg, len(self.vocab), np.random.default_rng(0))
        res = pipeline_generate(ex, cls, self.qg, self.vocab)
        assert isinstance(res.predicted_iw, IWClass)
