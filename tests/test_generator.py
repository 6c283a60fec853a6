"""Generator tests.

The encoder is checked against a plain-numpy forward pass, the decoder's
combined generate/copy distribution against brute-force enumeration, and
the whole teacher-forced graph against central finite differences.
"""

import dataclasses
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest

from oracles import oracle_encode, oracle_final_dist, oracle_top_ids
from qgkit import autodiff as ad
from qgkit import generator
from qgkit.autodiff import Tape, backward
from qgkit.classifier import (
    ClassifierConfig,
    _class_distribution,
    classify,
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
    _CHUNK,
    _DECODE_BUDGET,
    QGConfig,
    _copy_segments,
    _decoder_head,
    _top_ids,
    decode_step,
    encode,
    generate,
    generate_batch,
    init_decoder_state,
    init_qg,
    pipeline_generate,
    predict_iw,
    qg_loss,
    sequence_loss,
    target_ids,
    train_qg,
)
from qgkit.persist import InputError
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
    meta = [int(rng.integers(0, 3)) for _ in range(n)]
    return TaggedSequence(surfaces=surfaces, ids=ids, meta=meta, oov_words=oov_words)


def gold_pairs(examples, vocab):
    """(source, targets) of each example under gold-class insertion."""
    pairs = []
    for ex in examples:
        seq = build_qg_input(ex, ex.iw_class, vocab)
        pairs.append((seq, target_ids(tokenize(ex.question), vocab, seq.oov_words)))
    return pairs


# two full chunks of pairs and a short one
SPAN = 2 * _CHUNK + _CHUNK // 4


def tiled(seq, n=110):
    """``seq`` repeated and cut to ``n`` tokens, OOV list unchanged."""
    def cut(xs):
        return (list(xs) * -(-n // len(xs)))[:n]
    return TaggedSequence(surfaces=cut(seq.surfaces), ids=cut(seq.ids), meta=cut(seq.meta),
                          oov_words=seq.oov_words)


def peak_bytes(fn, *args):
    """Peak traced allocation while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def widened(vocab, params, extra, rng):
    """``vocab`` and ``params`` with ``extra`` unused words appended: random
    embeddings and output weights, and an output bias 8 below the
    vocabulary's least, so each is unlikely but none is ruled out."""
    wide = Vocabulary(vocab.corpus_tokens + [f"unused{i}" for i in range(extra)])
    embed, W, b = (params[name].data for name in ("embed", "out.W", "out.b"))
    return wide, {**params,
                  "embed": ad.Tensor(np.vstack([embed, rng.normal(0, 0.1, (extra, embed.shape[1]))])),
                  "out.W": ad.Tensor(np.hstack([W, rng.normal(0, 0.1, (W.shape[0], extra))])),
                  "out.b": ad.Tensor(np.hstack([b, np.full((1, extra), b.min() - 8.0)]))}


def capped_scores(step, seq):
    """Each copy segment of ``seq``'s one-passage step: the maximum raw
    attention over its positions, in segment order."""
    raw = step.raw_attention.data
    return np.array([max(raw[j] for j in seg) for seg in _copy_segments(seq.ids)])


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
            enc = encode([seq], params)
            P = {k: t.data for k, t in params.items()}
            *_, states = oracle_encode(seq.ids, seq.meta, P, cfg.encoder_hidden)
            np.testing.assert_allclose(enc.states.data, states, rtol=0, atol=1e-12)

    def test_shapes_and_final_state(self):
        cfg, params, seq, _, _ = random_model_and_seq(3)
        enc = encode([seq], params)
        n = len(seq.surfaces)
        assert enc.states.shape == (n, 2 * cfg.encoder_hidden)
        assert enc.bounds == [0, n]
        # the decoder bridge reads the last fused state
        last = enc.states.data[n - 1 : n]
        h0, c0 = init_decoder_state(enc, params)
        for t, gate in ((h0, "bridge.h"), (c0, "bridge.c")):
            want = np.tanh(last @ params[f"{gate}.W"].data + params[f"{gate}.b"].data)
            np.testing.assert_array_equal(t.data, want)

    def test_gate_interpolation_bounds(self):
        # each fused coordinate lies between its raw and candidate value
        for seed in range(10):
            cfg, params, seq, _, _ = random_model_and_seq(seed)
            enc = encode([seq], params)
            P = {k: t.data for k, t in params.items()}
            U, _, F, _, _ = oracle_encode(seq.ids, seq.meta, P, cfg.encoder_hidden)
            lo = np.minimum(F, U) - 1e-12
            hi = np.maximum(F, U) + 1e-12
            assert np.all(enc.states.data >= lo)
            assert np.all(enc.states.data <= hi)

    def test_gate_closed_limit(self):
        # zero gate weights + large negative bias: fused states == raw states
        cfg, params, seq, _, _ = random_model_and_seq(5)
        params["fuse.g.W"].data[:] = 0.0
        params["fuse.g.b"].data[:] = -50.0
        enc = encode([seq], params)
        P = {k: t.data for k, t in params.items()}
        U, *_ = oracle_encode(seq.ids, seq.meta, P, cfg.encoder_hidden)
        np.testing.assert_allclose(enc.states.data, U, rtol=0, atol=1e-12)

    def test_single_token_attends_to_itself(self):
        cfg, params, _, vocab_size, _ = random_model_and_seq(7)
        seq = TaggedSequence(surfaces=["w9"], ids=[9], meta=[int(MetaTag.Context)], oov_words=[])
        P = {k: t.data for k, t in params.items()}
        U, S, *_ = oracle_encode(seq.ids, seq.meta, P, cfg.encoder_hidden)
        np.testing.assert_allclose(S, U, rtol=0, atol=1e-15)
        enc = encode([seq], params)
        np.testing.assert_allclose(
            enc.states.data,
            oracle_encode(seq.ids, seq.meta, P, cfg.encoder_hidden)[4],
            rtol=0, atol=1e-12,
        )

    def test_empty_input_rejected(self):
        cfg, params, _, _, _ = random_model_and_seq(0)
        empty = TaggedSequence(surfaces=[], ids=[], meta=[], oov_words=[])
        with pytest.raises(ValueError):
            encode([empty], params)

    def test_chunk_rows_match_numpy_forward(self):
        # passages of mixed lengths, one of them a single token, encoded
        # in one pass: each passage's rows are its solo oracle states
        cfg, params, _, vocab_size, rng = random_model_and_seq(4)
        seqs = [random_sequence(rng, vocab_size, n) for n in (6, 1, 9, 3, 6)]
        enc = encode(seqs, params)
        P = {k: t.data for k, t in params.items()}
        assert enc.bounds == [0, 6, 7, 16, 19, 25]
        for seq, start, end in zip(seqs, enc.bounds, enc.bounds[1:]):
            *_, states = oracle_encode(seq.ids, seq.meta, P, cfg.encoder_hidden)
            np.testing.assert_allclose(enc.states.data[start:end], states, rtol=0, atol=1e-12)
        # each passage's copy columns group its own positions: block p's
        # real columns, at memory slots p * n_max + j, are its segments
        n_max, w_max = 9, enc.index_map.shape[1]
        cols = np.split(enc.columns.order, enc.columns.starts[1:])
        for p, seq in enumerate(seqs):
            segments = _copy_segments(seq.ids)
            assert [(col - p * n_max).tolist()
                    for col in cols[p * w_max : p * w_max + len(segments)]] == segments

    def test_chunk_layout_is_each_passage_layout_padded(self):
        # the decoder's memory, copy columns, final-id maps and widths for
        # a chunk are what each passage gives alone, padded to the chunk's
        # longest passage and its largest distinct-word count
        cfg, params, _, vocab_size, rng = random_model_and_seq(6)
        seqs = [random_sequence(rng, vocab_size, n, max_oov=3) for n in (5, 2, 7)]
        enc = encode(seqs, params)
        alone = [encode([seq], params) for seq in seqs]
        n_max, w_max = 7, max(len(one.log_count.data[0]) for one in alone)
        assert enc.memory.shape == (3, n_max, 2 * cfg.encoder_hidden)
        assert enc.padding.shape == (3, 1, n_max)
        assert enc.log_count.shape == (3, 1, w_max)
        assert enc.index_map.shape == (3, w_max)
        for p, (one, seq, n) in enumerate(zip(alone, seqs, (5, 2, 7))):
            assert one.padding is None and one.memory is one.states
            np.testing.assert_allclose(enc.memory.data[p, :n], one.states.data, rtol=0, atol=1e-12)
            assert not enc.padding[p, 0, :n].any()
            assert np.all(enc.padding[p, 0, n:] == -np.inf)
            w = len(one.log_count.data[0])
            np.testing.assert_array_equal(enc.log_count.data[p, 0, :w], one.log_count.data[0])
            assert np.all(enc.log_count.data[p, 0, w:] == -np.inf)
            # a passage's map holds its copy columns' extended ids, no more
            assert one.index_map.tolist() == [seq.ids[seg[0]] for seg in _copy_segments(seq.ids)]
            np.testing.assert_array_equal(enc.index_map[p, :w], one.index_map)
            # block p's copy columns are its own, moved to positions p * n_max + j
            cols = enc.columns.order[enc.columns.owner // w_max == p]
            assert set(cols) == {p * n_max + j for j in range(n)}
        # one passage's columns are its copy segments, unpadded
        np.testing.assert_array_equal(
            alone[0].columns.order, np.concatenate(_copy_segments(seqs[0].ids)))
        assert enc.width == max(one.width for one in alone)
        assert [one.width for one in alone] == [vocab_size + len(seq.oov_words) for seq in seqs]

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_empty_passage_in_chunk_rejected(self, where):
        cfg, params, _, vocab_size, rng = random_model_and_seq(0)
        seqs = [random_sequence(rng, vocab_size, 4) for _ in range(2)]
        seqs.insert(where, TaggedSequence(surfaces=[], ids=[], meta=[], oov_words=[]))
        with pytest.raises(ValueError, match="empty generator input"):
            encode(seqs, params)

    def test_chunk_memory_grows_with_its_passages(self):
        # a chunk of mini200 passages tiled to 110 tokens each.  A chunk
        # holds every passage's rows at once, so its peak may grow with
        # the number of passages P, but not with P squared, as one
        # (N x N) self-attention product over the whole chunk would: at
        # 16 passages that took ~150 times one passage's peak, and
        # per-passage attention ~12 times, so the bound is P times
        corpus = bundled_corpus("mini200")
        vocab = Vocabulary.build(corpus)
        cfg = QGConfig()
        params = init_qg(cfg, len(vocab), np.random.default_rng(0)).tensors
        seqs = [tiled(seq) for seq, _ in gold_pairs(corpus[:_CHUNK], vocab)]
        chunk, one = (peak_bytes(encode, s, params) for s in (seqs, seqs[:1]))
        assert chunk < len(seqs) * one, (chunk, one)

    def test_copy_segment_grouping(self):
        ids = [5, 9, 5, 14, 9]
        segments = _copy_segments(ids)
        assert segments == [[0, 2], [1, 4], [3]]
        assert [ids[seg[0]] for seg in segments] == [5, 9, 14]


class TestDecodeStep:
    def test_final_dist_matches_enumeration(self):
        for seed in range(200):
            cfg, params, seq, vocab_size, rng = random_model_and_seq(seed)
            enc = encode([seq], params)
            state = init_decoder_state(enc, params)
            prev = int(rng.integers(0, vocab_size))
            step, _ = decode_step(prev, state, enc, params)
            want = oracle_final_dist(
                step.generate_scores.data, step.raw_attention.data,
                seq.ids, vocab_size, len(seq.oov_words),
            )
            np.testing.assert_allclose(step.final_dist.data, want, rtol=0, atol=1e-9)
            assert abs(float(step.final_dist.data.sum()) - 1.0) < 1e-9

    def test_maxout_dominance_exact(self):
        for seed in range(30):
            cfg, params, seq, vocab_size, rng = random_model_and_seq(seed)
            enc = encode([seq], params)
            state = init_decoder_state(enc, params)
            step, _ = decode_step(SOS_ID, state, enc, params)
            # every position of a word copies with the segment's capped
            # logit, so the word's copy mass is len(seg) * exp(cap) / Z
            segments = _copy_segments(seq.ids)
            capped = capped_scores(step, seq)
            gen = step.generate_scores.data
            sizes = np.array([len(seg) for seg in segments])
            shift = max(gen.max(), capped.max())
            z = np.exp(gen - shift).sum() + (sizes * np.exp(capped - shift)).sum()
            gen_share = np.zeros(step.final_dist.shape[0])
            gen_share[:vocab_size] = np.exp(gen - shift) / z
            for k, seg in enumerate(segments):
                wid = seq.ids[seg[0]]
                copy_mass = sizes[k] * np.exp(capped[k] - shift) / z
                assert step.final_dist.data[wid] == pytest.approx(
                    gen_share[wid] + copy_mass, rel=0, abs=1e-12)

    def test_chunk_rows_match_enumeration_of_own_passage(self):
        # both passages hold in-vocabulary word 7 and extended id 18,
        # which names a different word in each; each block of rows
        # reads only its own passage
        cfg, rng, vocab_size = tiny_config(), np.random.default_rng(5), 18
        params = init_qg(cfg, vocab_size, rng).tensors
        sources = [([7, 18, 9, 7, 19, 18], ["novel0", "novel1"]),
                   ([10, 7, 18, 10, 11], ["other0"])]
        enc = encode([TaggedSequence(
            surfaces=[f"w{i}" if i < vocab_size else oov[i - vocab_size] for i in ids],
            ids=ids, meta=[int(rng.integers(0, 3)) for _ in ids], oov_words=oov)
            for ids, oov in sources], params)
        H = ad.Tensor(rng.standard_normal((2, 3, cfg.decoder_hidden)))
        step = _decoder_head(H, enc, params)
        dist = step.final_dist.data
        assert dist.shape == (2, 3, vocab_size + 2)
        for e, (ids, oov) in enumerate(sources):
            width = vocab_size + len(oov)
            for r in range(3):
                want = oracle_final_dist(step.generate_scores.data[e, r],
                                         step.raw_attention.data[e, r, : len(ids)],
                                         ids, vocab_size, len(oov))
                np.testing.assert_allclose(dist[e, r, :width], want, rtol=0, atol=1e-12)
                assert not dist[e, r, width:].any()

    def test_copy_scores_cover_source_words(self):
        cfg, params, seq, _, _ = random_model_and_seq(11)
        enc = encode([seq], params)
        step, _ = decode_step(SOS_ID, init_decoder_state(enc, params),
                              enc, params)
        segments = _copy_segments(seq.ids)
        scored = {seq.surfaces[seg[0]] for seg in segments}
        assert len(scored) == len(segments) == len(enc.columns.starts) \
            == len(capped_scores(step, seq))
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
                             meta=[2, 2, 1, 2], oov_words=[])
        enc = encode([seq], params)
        step, _ = decode_step(SOS_ID, init_decoder_state(enc, params),
                              enc, params)
        z = np.concatenate([step.generate_scores.data, step.raw_attention.data])
        p = np.exp(z - z.max())
        p /= p.sum()
        for j, wid in enumerate(ids):
            np.testing.assert_allclose(
                step.final_dist.data[wid], p[wid] + p[vocab_size + j], atol=1e-12
            )

    def test_decode_step_rejects_a_chunk(self):
        # one state row over several passages would score every
        # passage's positions and copy columns
        cfg, params, _, vocab_size, rng = random_model_and_seq(3)
        enc = encode([random_sequence(rng, vocab_size, n) for n in (4, 6, 2)], params)
        h0, c0 = init_decoder_state(enc, params)
        with pytest.raises(ValueError, match="chunk of 3"):
            decode_step(SOS_ID, (ad.Tensor(h0.data[:1]), ad.Tensor(c0.data[:1])),
                        enc, params)

    def test_padded_head_on_ragged_chunk(self):
        # passages of 1, 4 and n_max = 9 tokens, with 1, 2 and 8
        # distinct words and 1, 0 and 3 OOV words; block p holds p + 1
        # decoder states, so blocks 0 and 1 end in all-zero padding rows.
        # Each real row scores as decode_step on its passage alone, and
        # padding positions and padded copy columns weigh exactly 0
        cfg, rng, vocab_size = tiny_config(), np.random.default_rng(8), 18
        params = init_qg(cfg, vocab_size, rng).tensors
        sources = [([18], ["solo0"]), ([7, 9, 7, 7], []),
                   ([7, 18, 9, 10, 19, 18, 11, 12, 20], ["x0", "x1", "x2"])]
        seqs = [TaggedSequence(
            surfaces=[f"w{i}" if i < vocab_size else oov[i - vocab_size] for i in ids],
            ids=ids, meta=[int(rng.integers(0, 3)) for _ in ids], oov_words=oov)
            for ids, oov in sources]
        enc = encode(seqs, params)
        H = np.zeros((3, 3, cfg.decoder_hidden))
        want = {}
        for p, seq in enumerate(seqs):
            alone = encode([seq], params)
            state = init_decoder_state(alone, params)
            for i, prev in enumerate([SOS_ID, 7, vocab_size][: p + 1]):
                want[p, i], (h, _) = decode_step(prev, state, alone, params)
                H[p, i] = h.data[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step = _decoder_head(ad.Tensor(H), enc, params)
            maxima, _ = ad.segment_max(step.raw_attention, enc.columns)
            combined = ad.softmax(ad.concat([step.generate_scores, ad.add(maxima, enc.log_count)],
                                            axis=-1), axis=-1).data
        assert step.final_dist.shape == (3, 3, vocab_size + 3)
        assert np.all(np.isfinite(step.final_dist.data))
        for (p, i), alone in want.items():
            n, width = len(seqs[p].ids), vocab_size + len(seqs[p].oov_words)
            for got, ref in ((step.raw_attention.data[p, i, :n], alone.raw_attention.data),
                             (step.attention.data[p, i, :n], alone.attention.data),
                             (step.final_dist.data[p, i, :width], alone.final_dist.data)):
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
            assert not step.attention.data[p, i, n:].any()
            assert not step.final_dist.data[p, i, width:].any()
            assert not combined[p, i, vocab_size + len(set(seqs[p].ids)):].any()

    def test_extended_prev_token_clamps_to_unk(self):
        cfg, params, seq, vocab_size, _ = random_model_and_seq(9)
        enc = encode([seq], params)
        state = init_decoder_state(enc, params)
        a, _ = decode_step(vocab_size + 1, state, enc, params)
        b, _ = decode_step(UNK_ID, state, enc, params)
        np.testing.assert_array_equal(a.final_dist.data, b.final_dist.data)


def fd_instance(seed):
    """6-token source, 4 target steps, small dims."""
    rng = np.random.default_rng(seed)
    vocab_size = 16
    params = init_qg(tiny_config(), vocab_size, rng).tensors
    seq = random_sequence(rng, vocab_size, 6)
    targets = [int(rng.integers(0, vocab_size + len(seq.oov_words)))
               for _ in range(3)] + [EOS_ID]
    return params, seq, targets


def min_segment_gap(params, seq, targets):
    """Smallest top-two raw-score gap inside any repeated-word group
    over the teacher-forced steps; small gaps make the max switch its
    winner under finite-difference probing."""
    enc = encode([seq], params)
    state = init_decoder_state(enc, params)
    prev = SOS_ID
    gaps = [np.inf]
    for tid in targets:
        step, state = decode_step(prev, state, enc, params)
        raw = step.raw_attention.data
        for seg in _copy_segments(seq.ids):
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
            params, seq, targets = fd_instance(seed)
            seed += 1
            if min_segment_gap(params, seq, targets) < 5e-3:
                continue
            with Tape() as tape:
                loss = sequence_loss([seq], [targets], params)
            backward(tape, loss)
            rng = np.random.default_rng(1000 + seed)
            err = check_gradients(
                lambda: sequence_loss([seq], [targets], params).item(),
                list(params.values()), coords_per_tensor=3, rng=rng,
            )
            worst = max(worst, err)
            checked += 1
        assert worst < 1e-4

    def test_matches_decode_step_loop(self):
        # the one-pass loss against decode_step stepped through the targets
        def looped(seq, targets, params):
            enc = encode([seq], params)
            state, prev, losses = init_decoder_state(enc, params), SOS_ID, []
            for tid in targets:
                step, state = decode_step(prev, state, enc, params)
                losses.append(ad.cross_entropy(step.final_dist, tid))
                prev = tid
            return ad.mul(reduce(ad.add, losses), 1.0 / len(targets))

        extended_inputs = 0
        for seed in range(12):
            results = []
            for one_pass in (True, False):
                cfg, params, seq, vocab_size, rng = random_model_and_seq(seed)
                targets = [int(rng.integers(0, vocab_size + len(seq.oov_words)))
                           for _ in range(int(rng.integers(1, 13)))]
                with Tape() as tape:
                    loss = (sequence_loss([seq], [targets], params) if one_pass
                            else looped(seq, targets, params))
                backward(tape, loss)
                results.append((loss.item(), {k: t.grad for k, t in params.items()}))
            (value, grads), (want, want_grads) = results
            assert abs(value - want) <= 1e-12 * abs(want)
            for name, g in grads.items():
                scale = np.max(np.abs(want_grads[name]))
                assert np.max(np.abs(g - want_grads[name])) <= 1e-12 * scale, name
            extended_inputs += any(t >= vocab_size for t in targets[:-1])
        assert extended_inputs >= 3

    def test_chunk_gradients_are_the_token_weighted_pair_gradients(self):
        # a taped chunk, passages and targets of different lengths and OOV
        # counts, against each pair alone: the padding rows, positions and
        # copy columns pass no gradient
        cfg, params, _, vocab_size, rng = random_model_and_seq(12)
        seqs = [random_sequence(rng, vocab_size, n, max_oov=3) for n in (6, 1, 9, 4)]
        targets = [[int(rng.integers(0, vocab_size + len(seq.oov_words))) for _ in range(k)]
                   for seq, k in zip(seqs, (3, 7, 1, 5))]
        total = sum(map(len, targets))
        want = {k: np.zeros_like(t.data) for k, t in params.items()}
        for seq, tgt in zip(seqs, targets):
            with Tape() as tape:
                loss = sequence_loss([seq], [tgt], params)
            backward(tape, loss)
            for k, t in params.items():
                want[k] += t.grad * (len(tgt) / total)
        with Tape() as tape:
            loss = sequence_loss(seqs, targets, params)
        backward(tape, loss)
        for k, t in params.items():
            np.testing.assert_allclose(t.grad, want[k], rtol=0,
                                       atol=1e-12 * max(np.abs(want[k]).max(), 1e-300), err_msg=k)

    def test_every_tensor_reached(self):
        # the loss must touch all parameters, else updates silently no-op
        params, seq, targets = fd_instance(2)
        with Tape() as tape:
            loss = sequence_loss([seq], [targets], params)
        backward(tape, loss)
        for name, t in params.items():
            assert t.grad is not None, name
            assert np.any(t.grad != 0.0) or t.data.size == 0, name


def test_training_tapes_stay_small():
    # one recurrent pass for both directions of each encoder layer and one
    # decoder pass: the tape does not grow with the passage or the question
    corpus = bundled_corpus("mini200")
    vocab = Vocabulary.build(corpus)
    qg_cfg, cls_cfg = QGConfig(), ClassifierConfig()
    qg_params = init_qg(qg_cfg, len(vocab), np.random.default_rng(0)).tensors
    cls_params = init_classifier(cls_cfg, len(vocab), np.random.default_rng(0)).tensors
    for ex in corpus[:20]:
        seq = build_qg_input(ex, ex.iw_class, vocab)
        with Tape() as tape:
            sequence_loss([seq], [target_ids(tokenize(ex.question), vocab, seq.oov_words)],
                          qg_params)
        ops = [e.op for e in tape.entries]
        assert len(ops) <= 44 and ops.count("lstm_step") == 2
        with Tape() as tape:
            ad.cross_entropy(_class_distribution([ex], cls_cfg, cls_params, vocab),
                             int(ex.iw_class))
        assert len(tape) <= 12


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
        params, seq, _ = fd_instance(0)
        with pytest.raises(ValueError):
            sequence_loss([seq], [[]], params)

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_empty_targets_in_chunk_rejected(self, where):
        params, seq, targets = fd_instance(0)
        chunk = [targets, targets]
        chunk.insert(where, [])
        with pytest.raises(ValueError, match="empty target sequence"):
            sequence_loss([seq] * 3, chunk, params)


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
        pairs = gold_pairs(corpus, vocab)
        loss0 = qg_loss(pairs, params.tensors)
        expected = np.mean([np.log(len(vocab) + len(seq.oov_words)) for seq, _ in pairs])
        assert abs(loss0 - expected) < 0.5

    def test_chunked_loss_matches_per_example_mean_on_mini200(self):
        # a vocabulary of the other examples leaves these passages with
        # OOV words; SPAN pairs make two full chunks and a short one
        mini = bundled_corpus("mini200")
        vocab = Vocabulary.build(mini[: len(mini) - SPAN])
        examples = mini[-SPAN:]
        assert len(examples) == SPAN
        # one question of one token, and one copying a passage's second
        # OOV word, whose extended id lies beyond the width of every
        # passage with fewer OOV words
        copier = next(i for i, (seq, _) in enumerate(gold_pairs(examples, vocab))
                      if len(seq.oov_words) == 2)
        oov = gold_pairs([examples[copier]], vocab)[0][0].oov_words[1]
        examples[copier] = dataclasses.replace(examples[copier], question=f"what is {oov} ?")
        examples[3] = dataclasses.replace(examples[3], question="why")
        pairs = gold_pairs(examples, vocab)
        assert pairs[3][1] == [vocab.id("why"), EOS_ID]
        assert len(vocab) + 1 in pairs[copier][1]
        chunk = pairs[copier // _CHUNK * _CHUNK :][:_CHUNK]
        assert any(len(seq.oov_words) < 2 for seq, _ in chunk)
        assert len({len(targets) for _, targets in pairs}) >= 3

        cfg = QGConfig()
        params = init_qg(cfg, len(vocab), np.random.default_rng(3)).tensors
        total = sum(sequence_loss([seq], [targets], params).item() * len(targets)
                    for seq, targets in pairs)
        assert qg_loss(pairs, params) == pytest.approx(
            total / sum(len(targets) for _, targets in pairs), rel=1e-12, abs=0)

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
            encoded = encode([seq], params.tensors)
            state = init_decoder_state(encoded, params.tensors)
            prev, ids, rows = SOS_ID, [], []
            for _ in range(cfg.max_len):
                step, state = decode_step(prev, state, encoded, params.tensors)
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


def reference_beam(ex, iw, cfg, params, vocab):
    """Beam search of width ``cfg.beam_size`` over ``decode_step`` for one
    pair: a beam's candidates are its top ids by (-p, id), each costing
    -log p, the beams kept are the best candidates by (cost, ids), and a
    beam that emitted [EOS] keeps competing until ``cfg.max_len``."""
    seq = build_qg_input(ex, iw, vocab)
    encoded = encode([seq], params)
    # beam: (cost, ids, attention rows, decoder state, or None once ended)
    beams = [(0.0, [], [], init_decoder_state(encoded, params))]
    for _ in range(cfg.max_len):
        candidates = [b for b in beams if b[3] is None]
        for cost, ids, rows, state in beams:
            if state is None:
                continue
            step, state = decode_step(ids[-1] if ids else SOS_ID, state, encoded, params)
            p = step.final_dist.data
            for tid in sorted(range(len(p)), key=lambda i: (-p[i], i))[: cfg.beam_size]:
                new_cost = cost + float(-np.log(max(p[tid], ad.PROB_FLOOR)))
                candidates.append((new_cost, ids, rows, None) if tid == EOS_ID else
                                  (new_cost, ids + [tid], rows + [step.attention.data], state))
        beams = sorted(candidates, key=lambda b: (b[0], b[1]))[: cfg.beam_size]
    _, ids, rows, _ = beams[0]
    return (vocab.decode_extended(ids, seq.oov_words),
            np.array(rows).reshape(len(rows), len(seq.surfaces)))


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
                  else oracle_classifier(ex.iw_class, 0.6, rng)) for ex in corpus[:SPAN]]
        assert len(pairs) == SPAN
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

    @pytest.mark.parametrize("beam", [2, 3, 5])
    def test_matches_reference_beam_search(self, copying, beam):
        corpus, vocab, cfg, params = copying
        cfg = dataclasses.replace(cfg, beam_size=beam)
        pairs = [(ex, ex.iw_class) for ex in corpus[:SPAN]]
        assert len(pairs) == SPAN
        for (ex, iw), res in zip(pairs, generate_batch(pairs, cfg, params, vocab)):
            tokens, attention = reference_beam(ex, iw, cfg, params, vocab)
            assert res.tokens == tokens
            assert res.attention.shape == attention.shape
            np.testing.assert_allclose(res.attention, attention, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("eos_bias", [0.0, -5.0])
    def test_exact_ties_and_beam_wider_than_distribution(self, eos_bias):
        # every passage word is an extended id, and with the output
        # layer and the decoder attention zeroed every step's final
        # distribution is the same one, full of exact ties: before
        # normalising, 1 per vocabulary id (e**eos_bias for [EOS]) plus
        # each word's count in its passage.  Every pair's distribution
        # is narrower than the beam
        corpus = bundled_corpus("mini200")[:_CHUNK]
        vocab = Vocabulary([])
        cfg = tiny_config(beam_size=24, max_len=5)
        params = init_qg(cfg, len(vocab), np.random.default_rng(0)).tensors
        for name in ("out.W", "out.b", "att.Wa"):
            params[name].data[:] = 0.0
        params["out.b"].data[:, EOS_ID] = eos_bias
        pairs = [(ex, ex.iw_class) for ex in corpus]
        seqs = [build_qg_input(ex, iw, vocab) for ex, iw in pairs]
        assert min(len(vocab) + len(seq.oov_words) for seq in seqs) < cfg.beam_size
        batched = generate_batch(pairs, cfg, params, vocab)
        for (ex, iw), seq, res in zip(pairs, seqs, batched):
            tokens, _ = reference_beam(ex, iw, cfg, params, vocab)
            assert res.tokens == tokens
            assert generate(ex, iw, cfg, params, vocab).tokens == tokens
            if eos_bias == 0.0:
                # [EOS] first costs less than any longer decode
                assert tokens == []
            else:
                # the cheapest decode repeats the likeliest word, the
                # smallest id among equally likely ones
                weight = np.r_[np.ones(len(vocab)), np.zeros(len(seq.oov_words))]
                weight[EOS_ID] = np.exp(eos_bias)
                np.add.at(weight, seq.ids, 1.0)
                best = int(np.argmax(weight))
                assert tokens == vocab.decode_extended([best] * cfg.max_len, seq.oov_words)

    @pytest.mark.parametrize("beam", [1, 4])
    def test_padded_vocabulary_decodes_as_the_stable_sort(self, copying, beam, monkeypatch):
        corpus, vocab, cfg, params = copying
        wide, params = widened(vocab, params, 2_000, np.random.default_rng(1))
        cfg = dataclasses.replace(cfg, beam_size=beam)
        pairs = [(ex, ex.iw_class) for ex in corpus[:_CHUNK]]
        batched = generate_batch(pairs, cfg, params, wide)
        with monkeypatch.context() as patch:
            patch.setattr(generator, "_top_ids", oracle_top_ids)
            sorted_rows = generate_batch(pairs, cfg, params, wide)
        for (ex, iw), a, b in zip(pairs, batched, sorted_rows):
            assert a.tokens == b.tokens
            assert a.attention.tobytes() == b.attention.tobytes()
            alone = generate(ex, iw, cfg, params, wide)
            assert alone.tokens == a.tokens
            np.testing.assert_allclose(alone.attention, a.attention, rtol=0, atol=1e-12)
        lengths = {len(r.tokens) for r in batched}
        assert len(lengths) > 1 and min(lengths) < cfg.max_len

    def test_unallocatable_beam_fails_before_encoding(self, copying, monkeypatch):
        corpus, vocab, cfg, params = copying
        cfg = dataclasses.replace(cfg, beam_size=10**17)

        def never(*args):
            raise AssertionError("encoded before the decoder rows were allocated")

        monkeypatch.setattr(generator, "encode", never)
        with pytest.raises(InputError, match="beam_size 100000000000000000"):
            generate_batch([(ex, ex.iw_class) for ex in corpus[:SPAN]], cfg, params, vocab)


class TestTopIds:
    """``_top_ids`` against the stable sort of whole rows, on rows of ties
    drawn from 3 to 5 values, some of them 0, with trailing zero columns
    (a pair's columns past its own extended ids), for k from 1 to 7, k
    equal to the row's width and k wider than it."""

    @pytest.mark.parametrize("n_values", [3, 4, 5])
    def test_matches_stable_sort(self, n_values):
        rng = np.random.default_rng(n_values)
        for _ in range(400):
            values = rng.random(n_values)
            values[: int(rng.integers(0, 2))] = 0.0
            rows, width = int(rng.integers(1, 6)), int(rng.integers(1, 11))
            dist = np.hstack([rng.choice(values, (rows, width)),
                              np.zeros((rows, int(rng.integers(0, 5))))])
            full = dist.shape[1]
            for k in [*range(1, 8), full, full + 2]:
                np.testing.assert_array_equal(_top_ids(dist, k), oracle_top_ids(dist, k),
                                              err_msg=f"k={k}\n{dist}")


class TestDecoderMemory:
    """A decoder step or a teacher-forced chunk scores its R rows over
    their own passages, padded to the chunk's longest (R x n_max), not
    over all N positions of the chunk (R x N).  On a chunk of passages
    tiled to ~110 tokens the peak stays under P times one pair's.  A
    decode chunk's rows x final-distribution width stay within
    ``_DECODE_BUDGET``, so a wide vocabulary means fewer pairs per chunk
    and the same tokens."""

    @pytest.fixture(scope="class")
    def mini(self):
        corpus = bundled_corpus("mini200")[:_CHUNK]
        vocab = Vocabulary.build(corpus)
        cfg = QGConfig(beam_size=4, max_len=2)
        return corpus, vocab, cfg, init_qg(cfg, len(vocab), np.random.default_rng(0)).tensors

    def test_beam_decode(self, mini):
        corpus, vocab, cfg, params = mini
        pairs = [(dataclasses.replace(
            ex, passage=" ".join([ex.passage] * -(-110 // len(tokenize(ex.passage))))),
            ex.iw_class) for ex in corpus]
        assert min(len(build_qg_input(ex, iw, vocab).surfaces) for ex, iw in pairs) > 100
        chunk, one = (peak_bytes(generate_batch, p, cfg, params, vocab)
                      for p in (pairs, pairs[:1]))
        assert chunk < len(pairs) * one, (chunk, one)

    @pytest.fixture
    def chunk_sizes(self, monkeypatch):
        """The pairs of each decode chunk ``generate_batch`` runs."""
        sizes, decode_chunk = [], generator._decode_chunk

        def counted(chunk, *rest):
            sizes.append(len(chunk))
            return decode_chunk(chunk, *rest)

        monkeypatch.setattr(generator, "_decode_chunk", counted)
        return sizes

    def test_wide_vocabulary_decode_fits_the_budget(self, mini, chunk_sizes, monkeypatch):
        # with ~10k words, one beam-4 chunk of all 64 pairs peaks near
        # 150 MB here; chunks sized to the budget peak at a few of its
        # (8-byte) arrays
        corpus, vocab, cfg, params = mini
        wide, params = widened(vocab, params, 10_000, np.random.default_rng(0))
        pairs = [(ex, ex.iw_class) for ex in corpus]
        bounded = []
        peak = peak_bytes(lambda: bounded.extend(generate_batch(pairs, cfg, params, wide)))
        width = len(wide) + max(len(r.source.oov_words) for r in bounded)
        size = _DECODE_BUDGET // (cfg.beam_size * width)
        assert len(chunk_sizes) > 1 and chunk_sizes[:-1] == [size] * (len(chunk_sizes) - 1)
        assert sum(chunk_sizes) == len(pairs)
        assert peak < 12 * 8 * _DECODE_BUDGET, peak
        monkeypatch.setattr(generator, "_DECODE_BUDGET", 2**62)
        whole = generate_batch(pairs, cfg, params, wide)
        assert chunk_sizes[-1] == len(pairs)
        assert [r.tokens for r in bounded] == [r.tokens for r in whole]

    def test_mini200_keeps_full_chunks(self, chunk_sizes):
        corpus = bundled_corpus("mini200")
        vocab = Vocabulary.build(corpus)
        cfg = tiny_config(max_len=1)
        params = init_qg(cfg, len(vocab), np.random.default_rng(0)).tensors
        generate_batch([(ex, ex.iw_class) for ex in corpus], cfg, params, vocab)
        assert chunk_sizes == [_CHUNK] * 3 + [len(corpus) - 3 * _CHUNK]

    def test_teacher_forced_chunk(self, mini):
        corpus, vocab, cfg, params = mini
        pairs = [(tiled(seq), targets) for seq, targets in gold_pairs(corpus, vocab)]
        seqs, targets = zip(*pairs)
        chunk, one = (peak_bytes(sequence_loss, s, t, params)
                      for s, t in ((seqs, targets), (seqs[:1], targets[:1])))
        assert chunk < len(pairs) * one, (chunk, one)


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
            enc = encode([seq], self.params)
            step, _ = decode_step(SOS_ID, init_decoder_state(enc, self.params),
                                  enc, self.params)
            steps[iw] = step
            n = len(seq.surfaces)
            np.testing.assert_array_equal(step.raw_attention.data, np.zeros(n))
            np.testing.assert_allclose(step.attention.data, np.full(n, 1.0 / n),
                                       atol=1e-12)
            assert all(v == 0.0 for v in capped_scores(step, seq))
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

    def biased_classifier(self, iw: IWClass):
        """Classifier parameters whose output bias makes ``iw`` the argmax
        class for every input."""
        cls = init_classifier(ClassifierConfig(word_dim=8, encoder_hidden=6),
                              len(self.vocab), np.random.default_rng(0))
        cls.tensors["ff.b"].data[0, int(iw)] += 100.0
        return cls

    def test_gold_predictor_matches_direct_generation(self):
        ex = self.corpus[3]
        cls = self.biased_classifier(ex.iw_class)
        via_pipeline = pipeline_generate(ex, cls, self.qg, self.vocab)
        direct = generate(ex, ex.iw_class, self.cfg, self.qg.tensors, self.vocab)
        assert via_pipeline.tokens == direct.tokens
        assert via_pipeline.predicted_iw == ex.iw_class

    def test_predicted_class_recorded(self):
        ex = self.corpus[3]
        assert ex.iw_class != IWClass.Why
        res = pipeline_generate(ex, self.biased_classifier(IWClass.Why), self.qg, self.vocab)
        assert res.predicted_iw == IWClass.Why

    def test_classifier_class_decoded_and_recorded(self):
        ex = self.corpus[3]
        cls = init_classifier(ClassifierConfig(word_dim=8, encoder_hidden=6),
                              len(self.vocab), np.random.default_rng(0))
        [predicted] = predict_iw([ex], cls, self.vocab)
        [probs] = classify([ex], cls.config, cls.tensors, self.vocab)
        # not the gold class: the decode inserts the prediction
        assert predicted == IWClass(int(np.argmax(probs))) != ex.iw_class
        via_pipeline = pipeline_generate(ex, cls, self.qg, self.vocab)
        direct = generate(ex, predicted, self.cfg, self.qg.tensors, self.vocab)
        assert via_pipeline.tokens == direct.tokens
        assert via_pipeline.predicted_iw == predicted

    def test_classifier_params_accepted(self):
        ex = self.corpus[0]
        cls_cfg = ClassifierConfig(word_dim=8, encoder_hidden=6)
        cls = init_classifier(cls_cfg, len(self.vocab), np.random.default_rng(0))
        res = pipeline_generate(ex, cls, self.qg, self.vocab)
        assert isinstance(res.predicted_iw, IWClass)
