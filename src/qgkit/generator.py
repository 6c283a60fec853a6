"""Sequence-to-sequence question generation with a maxout copy pointer.

The encoder runs a bidirectional recurrent pass over word-plus-role
embeddings, then refines each state with gated self-attention: every
position attends over the whole sequence through a bilinear form and a
fusion gate interpolates between the raw and the attended state.  The
decoder attends over the fused states, scores generation over the fixed
vocabulary, and scores copying once per distinct source word: the
maximum attention over the word's positions plus the log of how many
there are, so a word seen c times weighs c times its best position.  One
softmax runs over both, and each copy column lands on its word's id.
Out-of-vocabulary source words are addressable through per-example
extended ids.

Training is teacher-forced on the gold question with the gold
interrogative class inserted into the source; inference inserts the
predicted class instead.  The decoder's only input is the previous
token, so one decoder serves both: training feeds it every gold token in
one pass and scores all targets at once, and a decoding step feeds it one
token per row.

Inference has one batched decoder, ``generate_batch``.  It packs the
passages of a chunk of (example, class) pairs end to end, runs each step
with one row per live beam of every pair, and masks each row to its own
passage, so a pair decodes as it would alone.  ``generate`` is the chunk
of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tape, Tensor, adam_step, backward, uniform_init
from .classifier import classify
from .data import (
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
from .layers import init_bilstm, init_linear, init_lstm, linear, lstm_step, run_bilstm
from .persist import InputError, ModelConfig, ModelParams, build_model

__all__ = [
    "DecodeStep",
    "EncodedPassage",
    "GenerationResult",
    "QGConfig",
    "decode_step",
    "encode",
    "generate",
    "generate_batch",
    "init_decoder_state",
    "init_qg",
    "pipeline_generate",
    "predict_iw",
    "qg_loss",
    "sequence_loss",
    "target_ids",
    "train_qg",
]

NUM_META_TAGS = len(MetaTag)


@dataclass
class QGConfig(ModelConfig):
    """Generator hyperparameters.

    ``insert_iw`` switches interrogative-word insertion; turning it off
    gives the no-insertion baseline encoder input.  Decoding is one beam
    search; ``beam_size`` 1 makes it greedy."""

    word_dim: int = 24
    meta_dim: int = 6
    encoder_hidden: int = 24
    decoder_hidden: int = 48
    epochs: int = 60
    lr: float = 2e-3
    weight_decay: float = 0.0
    seed: int = 0
    max_len: int = 30
    insert_iw: bool = True
    beam_size: int = 1


def init_qg(config: QGConfig, vocab_size: int, rng: np.random.Generator) -> ModelParams:
    config.validate()
    h = config.encoder_hidden
    dh = config.decoder_hidden
    tensors: dict[str, Tensor] = {}
    tensors["embed"] = uniform_init(rng, (vocab_size, config.word_dim), fan_in=config.word_dim)
    tensors["meta_embed"] = uniform_init(rng, (NUM_META_TAGS, config.meta_dim),
                                         fan_in=config.meta_dim)
    tensors.update(init_bilstm(rng, config.word_dim + config.meta_dim, h, "enc"))
    tensors["att.Ws"] = uniform_init(rng, (2 * h, 2 * h), fan_in=2 * h)
    tensors.update(init_linear(rng, 4 * h, 2 * h, "fuse.f"))
    tensors.update(init_linear(rng, 4 * h, 2 * h, "fuse.g"))
    tensors.update(init_linear(rng, 2 * h, dh, "bridge.h"))
    tensors.update(init_linear(rng, 2 * h, dh, "bridge.c"))
    tensors.update(init_lstm(rng, config.word_dim, dh, "dec"))
    tensors["att.Wa"] = uniform_init(rng, (dh, 2 * h), fan_in=dh)
    tensors.update(init_linear(rng, dh + 2 * h, vocab_size, "out"))
    return ModelParams(config=config, tensors=tensors)


@dataclass
class EncodedPassage:
    """Fused encoder states plus copy-addressing structure.

    ``segments`` groups source positions by extended word id (first
    occurrence order); each segment is one copy column of the decoder."""

    states: Tensor
    source_tokens: TaggedSequence
    segments: list[list[int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.source_tokens.surfaces)


def _copy_segments(ids: Sequence[int]) -> list[list[int]]:
    segments: dict[int, list[int]] = {}
    for j, wid in enumerate(ids):
        segments.setdefault(wid, []).append(j)
    return list(segments.values())


def encode(seq: TaggedSequence, config: QGConfig, params: dict[str, Tensor]) -> EncodedPassage:
    """Fused passage states (n x 2h).

    u = bidirectional pass over [word; meta] rows; A = softmax over
    rows of U (U Ws)', so a_tj is the softmax over j of u_j' Ws u_t;
    S = A U; f = tanh([u; s] Wf + bf),
    g = sigmoid([u; s] Wg + bg); state = g * f + (1 - g) * u."""
    if not seq.surfaces:
        raise ValueError("empty generator input")
    words = ad.lookup(params["embed"], seq.base_ids)
    meta = ad.lookup(params["meta_embed"], seq.meta)
    U = run_bilstm(ad.concat([words, meta], axis=1), params, "enc", config.encoder_hidden)
    A = ad.softmax(ad.matmul(U, ad.transpose(ad.matmul(U, params["att.Ws"]))), axis=1)
    S = ad.matmul(A, U)
    fused_in = ad.concat([U, S], axis=1)
    F = ad.tanh(linear(fused_in, params["fuse.f.W"], params["fuse.f.b"]))
    G = ad.sigmoid(linear(fused_in, params["fuse.g.W"], params["fuse.g.b"]))
    states = ad.add(ad.mul(G, F), ad.mul(ad.sub(1.0, G), U))
    return EncodedPassage(states=states, source_tokens=seq, segments=_copy_segments(seq.ids))


def init_decoder_state(
    encoded: EncodedPassage, config: QGConfig, params: dict[str, Tensor]
) -> tuple[Tensor, Tensor]:
    """Learned bridge from the last fused encoder state to (h0, c0)."""
    last = ad.lookup(encoded.states, [len(encoded) - 1])
    h0 = ad.tanh(linear(last, params["bridge.h.W"], params["bridge.h.b"]))
    c0 = ad.tanh(linear(last, params["bridge.c.W"], params["bridge.c.b"]))
    return h0, c0


@dataclass
class DecodeStep:
    """Decoder scores and distributions, one row per decoder state.

    ``raw_attention``/``attention`` hold one score per source position
    (pre/post softmax); a word's copy score is the maximum raw attention
    over its segment positions plus the log of their count;
    ``final_dist`` covers the vocabulary followed by the extended ids
    (for a chunk, as many as its longest OOV list).  ``decode_step``
    returns the one-state case with every field 1-D."""

    raw_attention: Tensor
    attention: Tensor
    generate_scores: Tensor
    final_dist: Tensor


def _embed(tokens: Sequence[int], params: dict[str, Tensor]) -> Tensor:
    """Decoder input rows; extended ids read [UNK]'s embedding."""
    vocab_size = params["embed"].shape[0]
    return ad.lookup(params["embed"], [t if t < vocab_size else UNK_ID for t in tokens])


@dataclass
class _CopyLayout:
    """Where copy scores go, for one passage or for a chunk of passages
    laid end to end: the copy segments, the (1 x S) row of the log of
    each segment's size, the final-distribution column of each
    combined-softmax column (the vocabulary, then one per segment), and
    the final distribution's width."""

    segments: ad.Segments
    log_count: Tensor
    index_map: np.ndarray
    size: int


def _copy_layout(passages: Sequence[EncodedPassage], vocab_size: int) -> _CopyLayout:
    """The copy layout of ``passages`` laid end to end.  Extended ids keep
    their own passage's numbering, so the final distribution is as wide
    as the vocabulary plus the longest OOV list."""
    firsts = np.cumsum([0] + [len(p) for p in passages[:-1]]).tolist()
    segments = ad.Segments([[first + j for j in seg]
                            for p, first in zip(passages, firsts) for seg in p.segments])
    ids = np.concatenate([p.source_tokens.ids for p in passages])
    return _CopyLayout(
        segments=segments,
        log_count=Tensor(np.log(np.bincount(segments.owner))[None, :]),
        # a segment's extended id is the id at its first position
        index_map=np.concatenate([np.arange(vocab_size),
                                  ids[segments.order[segments.starts]]]),
        size=vocab_size + max(len(p.source_tokens.oov_words) for p in passages),
    )


def _decoder_head(H: Tensor, states: Tensor, layout: _CopyLayout,
                  params: dict[str, Tensor], mask: Tensor | None = None) -> DecodeStep:
    """Attention, generate + maxout copy scores and the regrouped final
    distribution for each row of the decoder states ``H`` (R x dh), over
    the source ``states`` (N x 2h) that ``layout`` describes.  ``mask``
    (R x N) holds 0 or -inf and is added to the attention scores before
    both softmaxes, so that each row reads only its own passage."""
    raw = ad.matmul(ad.matmul(H, params["att.Wa"]), ad.transpose(states))
    if mask is not None:
        raw = ad.add(raw, mask)
    attn = ad.softmax(raw, axis=1)
    context = ad.matmul(attn, states)
    gen = linear(ad.concat([H, context], axis=1), params["out.W"], params["out.b"])
    maxima, _ = ad.segment_max(raw, layout.segments)
    # c positions of a word copy with c * exp(max) = exp(max + log c)
    copy = ad.add(maxima, layout.log_count)
    combined = ad.softmax(ad.concat([gen, copy], axis=1), axis=1)
    final = ad.scatter_sum(combined, layout.index_map, layout.size)
    return DecodeStep(raw_attention=raw, attention=attn, generate_scores=gen, final_dist=final)


def decode_step(
    prev_token: int,
    state: tuple[Tensor, Tensor],
    encoded: EncodedPassage,
    config: QGConfig,
    params: dict[str, Tensor],
) -> tuple[DecodeStep, tuple[Tensor, Tensor]]:
    """Recurrent update, bilinear attention, generate + maxout copy.

    ``prev_token`` may be an extended id; it is clamped to [UNK] for the
    embedding lookup.  Each source word's copy logit is the maximum raw
    attention score over its positions plus the log of their count; the
    combined softmax is regrouped by word id into ``final_dist``."""
    h, c = lstm_step(_embed([prev_token], params), *state, params["dec.W"], params["dec.b"])
    layout = _copy_layout([encoded], params["embed"].shape[0])
    row = _decoder_head(h, encoded.states, layout, params)
    step = DecodeStep(*(ad.reshape(t, (t.shape[1],)) for t in (
        row.raw_attention, row.attention, row.generate_scores, row.final_dist)))
    return step, (h, c)


def target_ids(question_tokens: Sequence[str], vocab: Vocabulary,
               oov_words: Sequence[str]) -> list[int]:
    """Teacher-forcing targets: extended ids against the source's OOV
    list (uncopyable unknowns fall back to [UNK]), closed by [EOS]."""
    return [vocab.extended_id(t, oov_words) for t in question_tokens] + [EOS_ID]


def sequence_loss(
    seq: TaggedSequence,
    targets: Sequence[int],
    config: QGConfig,
    params: dict[str, Tensor],
) -> Tensor:
    """Mean per-token cross-entropy of a teacher-forced pass.  Every
    decoder input is a gold token, so the recurrence is one pass over
    [SOS] + targets[:-1] and the head scores all targets at once."""
    if not targets:
        raise ValueError("empty target sequence")
    encoded = encode(seq, config, params)
    h0, c0 = init_decoder_state(encoded, config, params)
    H, _ = lstm_step(_embed([SOS_ID, *targets[:-1]], params), h0, c0,
                     params["dec.W"], params["dec.b"])
    layout = _copy_layout([encoded], params["embed"].shape[0])
    step = _decoder_head(H, encoded.states, layout, params)
    return ad.cross_entropy(step.final_dist, list(targets))


def _example_source_and_targets(
    example: Example, config: QGConfig, vocab: Vocabulary
) -> tuple[TaggedSequence, list[int]]:
    seq = build_qg_input(example, example.iw_class, vocab, insert_iw=config.insert_iw)
    return seq, target_ids(tokenize(example.question), vocab, seq.oov_words)


def qg_loss(
    dataset: Sequence[Example],
    config: QGConfig,
    params: dict[str, Tensor],
    vocab: Vocabulary,
) -> float:
    """Corpus per-token loss (total cross-entropy / total target tokens)
    under gold-class insertion, without recording gradients."""
    total, count = 0.0, 0
    for ex in dataset:
        seq, targets = _example_source_and_targets(ex, config, vocab)
        total += sequence_loss(seq, targets, config, params).item() * len(targets)
        count += len(targets)
    return total / count if count else 0.0


def train_qg(
    dataset: Sequence[Example],
    config: QGConfig,
    vocab: Vocabulary,
) -> tuple[ModelParams, list[dict]]:
    """Per-example Adam on teacher-forced cross-entropy.

    Sources are built with the GOLD interrogative class so the decoder
    always sees the inserted word during training.  The log starts with
    an epoch-0 entry (untrained corpus loss, near ln of the effective
    vocabulary) followed by one running-loss entry per epoch.
    Deterministic for a fixed config."""
    config.validate()
    if not dataset:
        raise InputError("empty training set")
    ss = np.random.SeedSequence(config.seed)
    init_rng, order_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    params = build_model(init_qg, config, len(vocab), init_rng)
    state = AdamState()
    log = [{"epoch": 0, "per_token_loss": qg_loss(dataset, config, params.tensors, vocab)}]
    prepared = [_example_source_and_targets(ex, config, vocab) for ex in dataset]
    for epoch in range(1, config.epochs + 1):
        total, count = 0.0, 0
        for i in order_rng.permutation(len(prepared)):
            seq, targets = prepared[i]
            with Tape() as tape:
                loss = sequence_loss(seq, targets, config, params.tensors)
            if not np.isfinite(loss.item()):
                raise InputError(f"non-finite loss {loss.item()} at epoch {epoch}")
            backward(tape, loss)
            adam_step(params.tensors, state, lr=config.lr,
                      weight_decay=config.weight_decay)
            total += loss.item() * len(targets)
            count += len(targets)
        log.append({"epoch": epoch, "per_token_loss": total / count})
    return params, log


@dataclass
class GenerationResult:
    """Decoded question plus its attention matrix.

    ``attention`` has one post-softmax row per emitted token (n_out x
    n_in); ``source`` is the tagged input the attention columns index."""

    tokens: list[str]
    attention: np.ndarray
    predicted_iw: IWClass
    source: TaggedSequence

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


# pairs decoded together; a step costs R x N over the chunk's packed
# passage (R live beams, N source positions), so a chunk stays small
_CHUNK = 16


def generate(
    example: Example,
    predicted_iw: IWClass,
    config: QGConfig,
    params: dict[str, Tensor],
    vocab: Vocabulary,
) -> GenerationResult:
    """Decode a question for ``example`` with ``predicted_iw`` inserted.

    Beam search of width ``config.beam_size`` on summed log
    probabilities, from [SOS] until every beam has emitted [EOS] or
    ``config.max_len`` steps have run; ties break toward the
    lexicographically smaller id sequence, and width 1 is greedy argmax
    decoding.  Emitted extended ids decode to their source surface
    forms.  This is ``generate_batch`` on one pair."""
    return _decode_chunk([(example, predicted_iw)], config, params, vocab)[0]


def generate_batch(
    pairs: Sequence[tuple[Example, IWClass]],
    config: QGConfig,
    params: dict[str, Tensor],
    vocab: Vocabulary,
) -> list[GenerationResult]:
    """``generate`` for each (example, predicted class) pair, in order.

    Pairs are decoded a chunk at a time: each step runs the decoder once,
    with one row per live beam of every pair in the chunk."""
    return [result for start in range(0, len(pairs), _CHUNK)
            for result in _decode_chunk(pairs[start : start + _CHUNK], config, params, vocab)]


def _decode_chunk(
    pairs: Sequence[tuple[Example, IWClass]],
    config: QGConfig,
    params: dict[str, Tensor],
    vocab: Vocabulary,
) -> list[GenerationResult]:
    """Beam search for every pair at once.  The passages are encoded one
    by one and packed end to end; each row of a step is one live beam,
    masked to its own passage, so its scores are, up to rounding, the
    ones its pair would get alone.  Ranking and stopping stay per pair,
    and a finished beam leaves the rows."""
    vocab_size = params["embed"].shape[0]
    seqs = [build_qg_input(ex, iw, vocab, insert_iw=config.insert_iw) for ex, iw in pairs]
    passages = [encode(seq, config, params) for seq in seqs]
    starts = [init_decoder_state(p, config, params) for p in passages]
    states = ad.concat([p.states for p in passages])
    layout = _copy_layout(passages, vocab_size)
    bounds = np.cumsum([0] + [len(p) for p in passages]).tolist()
    # row e: 0 over the positions of passage e, -inf over the others
    owner = np.repeat(np.arange(len(pairs)), np.diff(bounds))
    foreign = np.where(owner == np.arange(len(pairs))[:, None], 0.0, -np.inf)
    h = np.vstack([h0.data for h0, _ in starts])
    c = np.vstack([c0.data for _, c0 in starts])
    # beam item: (cost, id sequence, prev id, state row, attention rows, done)
    beams = [[(0.0, [], SOS_ID, e, [], False)] for e in range(len(pairs))]
    for _ in range(config.max_len):
        live = [(e, b) for e, bs in enumerate(beams) for b in bs if not b[5]]
        if not live:
            break
        rows = [b[3] for _, b in live]
        h_t, c_t = lstm_step(_embed([b[2] for _, b in live], params), Tensor(h[rows]),
                             Tensor(c[rows]), params["dec.W"], params["dec.b"])
        mask = Tensor(foreign[[e for e, _ in live]]) if len(pairs) > 1 else None
        step = _decoder_head(h_t, states, layout, params, mask)
        h, c = h_t.data, c_t.data
        dist, attention = step.final_dist.data, step.attention.data
        # a stable sort ranks tied ids in id order, as np.argmax does; a
        # pair's own ids come first among its zero-probability columns
        top = np.argsort(-dist, axis=1, kind="stable")[:, : config.beam_size]
        # each candidate's cost: the cross-entropy of its token
        nll = -np.log(np.maximum(np.take_along_axis(dist, top, axis=1), ad.PROB_FLOOR))
        top, nll = top.tolist(), nll.tolist()
        r = 0
        for e, bs in enumerate(beams):
            if all(b[5] for b in bs):
                continue
            width = vocab_size + len(seqs[e].oov_words)
            candidates = []
            for beam in bs:
                cost, ids, _, _, att, done = beam
                if done:
                    candidates.append(beam)
                    continue
                row = attention[r, bounds[e] : bounds[e + 1]].copy()
                for tid, step_cost in zip(top[r][:width], nll[r]):
                    if tid == EOS_ID:
                        candidates.append((cost + step_cost, ids, tid, r, att, True))
                    else:
                        candidates.append((cost + step_cost, ids + [tid], tid, r,
                                           att + [row], False))
                r += 1
            candidates.sort(key=lambda b: (b[0], b[1]))
            beams[e] = candidates[: config.beam_size]
    results = []
    for (_, predicted_iw), seq, bs in zip(pairs, seqs, beams):
        _, ids, _, _, att, _ = bs[0]
        results.append(GenerationResult(
            tokens=vocab.decode_extended(ids, seq.oov_words),
            attention=np.vstack(att) if att else np.zeros((0, len(seq.surfaces))),
            predicted_iw=predicted_iw,
            source=seq,
        ))
    return results


def predict_iw(
    example: Example,
    classifier: ModelParams | Callable[[Example], IWClass],
    vocab: Vocabulary,
) -> IWClass:
    """The interrogative class predicted for ``example``.  ``classifier``
    is either trained classifier parameters (their argmax class) or any
    ``example -> IWClass`` predictor (for accuracy-controlled oracles)."""
    if isinstance(classifier, ModelParams):
        probs = classify(example, classifier.config, classifier.tensors, vocab)
        return IWClass(int(np.argmax(probs)))
    return classifier(example)


def pipeline_generate(
    example: Example,
    classifier: ModelParams | Callable[[Example], IWClass],
    qg_params: ModelParams,
    vocab: Vocabulary,
) -> GenerationResult:
    """Two-stage inference: predict the interrogative class with
    ``predict_iw``, then decode with that class inserted; the prediction
    is recorded on the result."""
    predicted = predict_iw(example, classifier, vocab)
    return generate(example, predicted, qg_params.config, qg_params.tensors, vocab)
