"""Sequence-to-sequence question generation with a maxout copy pointer.

The encoder runs a bidirectional recurrent pass over word-plus-role
embeddings, then refines each state with gated self-attention: every
position attends over its whole passage through a bilinear form and a
fusion gate interpolates between the raw and the attended state.  It
encodes a chunk of passages packed end to end: one recurrent pass per
direction for all of them, then self-attention one passage at a time
over that passage's own rows, so a chunk costs the sum of its passages'
squared lengths, not the square of its total length.  The decoder
attends over the fused states, scores generation over the fixed
vocabulary, and scores copying once per distinct source word: the
maximum attention over the word's positions plus the log of how many
there are, so a word seen c times weighs c times its best position.  One
softmax runs over both, and each copy column lands on its word's id.
Out-of-vocabulary source words are addressable through per-example
extended ids.

Training is teacher-forced on the gold question with the gold
interrogative class inserted into the source; inference inserts the
predicted class instead.  The decoder's only input is the previous
token, so one decoder serves both: a teacher-forced pass feeds it every
gold token of a chunk of pairs in one packed recurrence and scores all
targets at once, and a decoding step feeds it one token per row.

Both work on chunks of up to 64 pairs (``_CHUNK``, the classifier's
chunk), a decode chunk fewer where its rows would outgrow
``_DECODE_BUDGET`` final-distribution values, and a pair scores and
decodes as it would alone.  The decoder reads a chunk's passages in the
``layers.padded`` layout, n_max slots per passage with the padding
masked, and lays its R rows out in one block per passage, so a step
costs R x n_max, not R x N over the chunk's N positions.
``generate_batch`` encodes the passages of a chunk of (example, class)
pairs together and runs each step with one row per live beam of every
pair; ``generate`` is the chunk of one.
``qg_loss`` scores a chunk of (source, targets) pairs per
``sequence_loss`` call, and the taped training step is the chunk of
one, which reads its passage as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tape, Tensor, adam_step, backward, uniform_init
from .classifier import _CHUNK, classify
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
)
from .layers import (init_bilstm, init_linear, init_lstm, linear, lstm_step, padded, run_bilstm,
                     run_lstm)
from .persist import InputError, ModelConfig, ModelParams, build_model

__all__ = [
    "DecodeStep",
    "EncodedChunk",
    "GenerationResult",
    "QGConfig",
    "check_passages",
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
class EncodedChunk:
    """Fused encoder states of a chunk of passages, plus everything a
    decoder row reads besides them.

    Passage p is at rows ``bounds[p]:bounds[p + 1]`` of the (N x 2h)
    ``states``, packed end to end.  The decoder reads the
    ``layers.padded`` layout of the passages and of their copy columns,
    one per distinct extended word id of a passage, in first occurrence
    order: for one passage, ``memory`` is ``states``; for P > 1, it is
    (P x n_max x 2h), and the (P x 1 x n_max) ``padding`` holds 0 over
    the real slots and -inf over the rest.  ``columns`` gives
    ``segment_max`` the W_max copy columns of each passage, each the
    positions p * n_max + j of its word in the memory.  So a decoder row
    costs its passage's n_max positions and W_max copy columns, not the
    chunk's N positions and S columns.  ``log_count`` (1 x W, or
    P x 1 x W_max) is the log of each column's size, -inf on padding, so
    a padding column weighs nothing; ``index_map`` (W, or P x W_max) is
    the final-distribution id of each copy column, the word's extended
    id, while each combined-softmax column before them, the
    vocabulary's, lands on its own id (as ``scatter_sum`` reads a map
    narrower than its values); and ``width`` is the final distribution's
    width: extended ids keep their own passage's numbering, so it is the
    vocabulary plus the longest OOV list.
    ``memory_t``, the transposed memory, is taken by the first decoder
    head that reads the chunk and reused by every later one, so a taped
    pass records it where it first reads it."""

    states: Tensor
    bounds: list[int]
    memory: Tensor
    padding: np.ndarray | None
    columns: ad.Segments
    log_count: Tensor
    index_map: np.ndarray
    width: int
    memory_t: Tensor | None = field(default=None, repr=False, compare=False)


def _copy_segments(ids: Sequence[int]) -> list[list[int]]:
    segments: dict[int, list[int]] = {}
    for j, wid in enumerate(ids):
        segments.setdefault(wid, []).append(j)
    return list(segments.values())


# positions squared that one (n x n) self-attention array of a passage may
# hold.  An untaped encode holds two such arrays of a passage at once and
# a taped step up to about six (the scores and weights on its tape and
# their gradients), so 2^22 caps each array at 32 MB and a step's at
# ~200 MB, and admits passages of up to 2,047 tokens
_ATTEND_BUDGET = 2**22


def check_passages(examples: Sequence[Example]) -> None:
    """Reject, by arithmetic on lengths and before anything is encoded, a
    passage whose self-attention arrays would outgrow ``_ATTEND_BUDGET``:
    the encoder reads a passage's n tokens and at most one inserted
    interrogative word, and attends with (n + 1) x (n + 1) arrays.  The
    InputError names the first such example and its token count."""
    for ex in examples:
        n = len(ex.passage_tokens)
        if (n + 1) ** 2 > _ATTEND_BUDGET:
            raise InputError(f"example {ex.id}: its passage has {n} tokens, more than the "
                             f"{math.isqrt(_ATTEND_BUDGET) - 1} the encoder's self-attention "
                             "budget admits")


def _self_attend(U: Tensor, params: dict[str, Tensor]) -> Tensor:
    """S = A U over the rows of one passage, A = softmax(U (U Ws)')."""
    return ad.matmul(ad.softmax(ad.matmul(U, ad.transpose(ad.matmul(U, params["att.Ws"]))),
                                axis=1), U)


def _embed(tokens: Sequence[int], params: dict[str, Tensor]) -> Tensor:
    """Word embedding rows; extended ids read [UNK]'s embedding."""
    vocab_size = params["embed"].shape[0]
    return ad.lookup(params["embed"], [t if t < vocab_size else UNK_ID for t in tokens])


def encode(seqs: Sequence[TaggedSequence], params: dict[str, Tensor]) -> EncodedChunk:
    """Fused states (N x 2h) of a chunk of passages packed end to end, a
    chunk of one included, with the padded memory, copy columns and
    final-id maps every decoder row reads.

    u = bidirectional pass over [word; meta] rows; A = softmax over
    rows of U (U Ws)', so a_tj is the softmax over j of u_j' Ws u_t,
    j ranging over t's own passage; S = A U; f = tanh([u; s] Wf + bf),
    g = sigmoid([u; s] Wg + bg); state = g * f + (1 - g) * u.  The
    recurrence is one packed pass for the whole chunk; A and S are taken
    per passage, over its own rows of U, and S is one concat of them.
    One passage is its own memory; a chunk's is one gather of the
    states in the ``layers.padded`` layout, as are its copy columns'
    log counts and final-id maps."""
    if not seqs or not all(seq.surfaces for seq in seqs):
        raise ValueError("empty generator input")
    lengths = [len(seq.surfaces) for seq in seqs]
    bounds = list(accumulate(lengths, initial=0))
    words = _embed([i for seq in seqs for i in seq.ids], params)
    meta = ad.lookup(params["meta_embed"], [m for seq in seqs for m in seq.meta])
    U = run_bilstm(ad.concat([words, meta], axis=1), lengths, params, "enc")
    if len(seqs) == 1:
        S = _self_attend(U, params)
    else:
        S = ad.concat([_self_attend(ad.lookup(U, range(start, end)), params)
                       for start, end in zip(bounds, bounds[1:])], axis=0)
    fused_in = ad.concat([U, S], axis=1)
    F = ad.tanh(linear(fused_in, params["fuse.f.W"], params["fuse.f.b"]))
    G = ad.sigmoid(linear(fused_in, params["fuse.g.W"], params["fuse.g.b"]))
    states = ad.add(ad.mul(G, F), ad.mul(ad.sub(1.0, G), U))

    vocab_size = params["embed"].shape[0]
    P, n_max = len(seqs), max(lengths)
    copies = [_copy_segments(seq.ids) for seq in seqs]
    # the copy columns, one per distinct word of each passage, padded
    cols, real = padded([len(segs) for segs in copies])
    in_memory = [[p * n_max + j for j in seg] for p, segs in enumerate(copies) for seg in segs]
    log_count = np.where(real, np.log([len(seg) for seg in in_memory])[cols], -np.inf)
    # a column's extended id is the id at its first position
    first_ids = np.array([seq.ids[seg[0]] for seq, segs in zip(seqs, copies) for seg in segs])
    index_map = first_ids[cols]
    if P == 1:
        memory, padding, index_map = states, None, index_map[0]
    else:
        rows, real = padded(lengths)
        memory = ad.lookup(states, rows)
        padding = np.where(real, 0.0, -np.inf)[:, None, :]
        log_count = log_count[:, None, :]
    return EncodedChunk(
        states=states, bounds=bounds, memory=memory, padding=padding,
        columns=ad.Segments([in_memory[c] for c in cols.flat]),
        log_count=Tensor(log_count), index_map=index_map,
        width=vocab_size + max(len(seq.oov_words) for seq in seqs),
    )


def init_decoder_state(encoded: EncodedChunk, params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Learned bridge from each passage's last fused encoder state to
    (h0, c0), one row per passage."""
    last = ad.lookup(encoded.states, [end - 1 for end in encoded.bounds[1:]])
    h0 = ad.tanh(linear(last, params["bridge.h.W"], params["bridge.h.b"]))
    c0 = ad.tanh(linear(last, params["bridge.c.W"], params["bridge.c.b"]))
    return h0, c0


@dataclass
class DecodeStep:
    """Decoder scores and distributions, laid out as the decoder states
    are: one row per state, or for a chunk of P passages a (P x r_max)
    block of rows, block p reading passage p.

    ``raw_attention``/``attention`` hold one score per position of the
    memory (pre/post softmax; 0 attention on padding); a word's copy
    score is the maximum raw attention over its segment positions plus
    the log of their count; ``final_dist`` covers the vocabulary followed
    by the extended ids (for a chunk, as many as its longest OOV list).
    ``decode_step`` returns the one-state case with every field 1-D."""

    raw_attention: Tensor
    attention: Tensor
    generate_scores: Tensor
    final_dist: Tensor


def _decoder_head(H: Tensor, encoded: EncodedChunk, params: dict[str, Tensor]) -> DecodeStep:
    """Attention, generate + maxout copy scores and the regrouped final
    distribution for each row of the decoder states ``H``: (R x dh) over
    one passage, or (P x r_max x dh) over a chunk of P (P = 1 included),
    block p reading only passage p.  A row pays for its own passage's
    padded length, copy columns and final ids, not for the chunk's."""
    query = ad.matmul(H, params["att.Wa"])
    if encoded.memory_t is None:
        encoded.memory_t = ad.transpose(encoded.memory)
    raw = ad.matmul(query, encoded.memory_t)
    if encoded.padding is not None:
        raw = ad.add(raw, Tensor(encoded.padding))
    attn = ad.softmax(raw, axis=-1)
    context = ad.matmul(attn, encoded.memory)
    gen = linear(ad.concat([H, context], axis=-1), params["out.W"], params["out.b"])
    maxima, _ = ad.segment_max(raw, encoded.columns)
    # c positions of a word copy with c * exp(max) = exp(max + log c)
    copy = ad.add(maxima, encoded.log_count)
    combined = ad.softmax(ad.concat([gen, copy], axis=-1), axis=-1)
    final = ad.scatter_sum(combined, encoded.index_map, encoded.width)
    return DecodeStep(raw_attention=raw, attention=attn, generate_scores=gen, final_dist=final)


def decode_step(
    prev_token: int,
    state: tuple[Tensor, Tensor],
    encoded: EncodedChunk,
    params: dict[str, Tensor],
) -> tuple[DecodeStep, tuple[Tensor, Tensor]]:
    """Recurrent update, bilinear attention, generate + maxout copy,
    over the one passage of ``encoded``, through the copy columns
    ``encode`` laid out.

    ``prev_token`` may be an extended id; it is clamped to [UNK] for the
    embedding lookup.  Each source word's copy logit is the maximum raw
    attention score over its positions plus the log of their count; the
    combined softmax is regrouped by word id into ``final_dist``."""
    if len(encoded.bounds) != 2:
        raise ValueError(f"decode_step reads one passage, got a chunk of {len(encoded.bounds) - 1}")
    h, c = lstm_step(_embed([prev_token], params), *state, params["dec.W"], params["dec.b"])
    row = _decoder_head(h, encoded, params)
    step = DecodeStep(*(ad.reshape(t, (t.shape[1],)) for t in (
        row.raw_attention, row.attention, row.generate_scores, row.final_dist)))
    return step, (h, c)


def target_ids(question_tokens: Sequence[str], vocab: Vocabulary,
               oov_words: Sequence[str]) -> list[int]:
    """Teacher-forcing targets: extended ids against the source's OOV
    list (uncopyable unknowns fall back to [UNK]), closed by [EOS]."""
    return [vocab.extended_id(t, oov_words) for t in question_tokens] + [EOS_ID]


def sequence_loss(
    seqs: Sequence[TaggedSequence],
    targets: Sequence[Sequence[int]],
    params: dict[str, Tensor],
) -> Tensor:
    """Mean per-token cross-entropy of a teacher-forced pass over a chunk
    of sources, a chunk of one included, ``targets[p]`` being passage
    p's, every target of the chunk weighing the same.
    Every decoder input is a gold token, so the recurrence is one
    ``run_lstm`` over each pair's [SOS] + targets[:-1], packed as
    ``encode`` packs the passages, and the head scores all targets at
    once.  For a chunk, the rows are gathered into the ``layers.padded``
    layout of the targets, (P x r_max), and the real slots gathered back
    out of the final distributions."""
    if not all(targets):
        raise ValueError("empty target sequence")
    encoded = encode(seqs, params)
    h0, c0 = init_decoder_state(encoded, params)
    lengths = [len(t) for t in targets]
    H = run_lstm(_embed([i for t in targets for i in (SOS_ID, *t[:-1])], params), lengths,
                 h0, c0, params["dec.W"], params["dec.b"])
    golds = [i for t in targets for i in t]
    if len(seqs) == 1:
        return ad.cross_entropy(_decoder_head(H, encoded, params).final_dist, golds)
    rows, real = padded(lengths)
    final = _decoder_head(ad.lookup(H, rows), encoded, params).final_dist
    return ad.cross_entropy(ad.lookup(ad.reshape(final, (-1, encoded.width)), np.flatnonzero(real)),
                            golds)


def qg_loss(
    pairs: Sequence[tuple[TaggedSequence, Sequence[int]]],
    params: dict[str, Tensor],
) -> float:
    """Per-token loss (total cross-entropy / total target tokens) of
    (source, targets) pairs, one ``sequence_loss`` call per chunk of
    pairs, without recording gradients."""
    total = 0.0
    for start in range(0, len(pairs), _CHUNK):
        seqs, targets = zip(*pairs[start : start + _CHUNK])
        total += sequence_loss(seqs, targets, params).item() * sum(map(len, targets))
    count = sum(len(targets) for _, targets in pairs)
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
    prepared = []
    for ex in dataset:
        seq = build_qg_input(ex, ex.iw_class, vocab, insert_iw=config.insert_iw)
        prepared.append((seq, target_ids(ex.question_tokens, vocab, seq.oov_words)))
    log = [{"epoch": 0, "per_token_loss": qg_loss(prepared, params.tensors)}]
    for epoch in range(1, config.epochs + 1):
        total, count = 0.0, 0
        for i in order_rng.permutation(len(prepared)):
            seq, targets = prepared[i]
            with Tape() as tape:
                loss = sequence_loss([seq], [targets], params.tensors)
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
    return generate_batch([(example, predicted_iw)], config, params, vocab)[0]


# decoder rows x final-distribution width a decode chunk may hold.  A step
# holds five to seven arrays of that size at once, so the budget caps each
# array at 4 MB, not the step's peak: 21-29 MB at a vocabulary of ~10k
_DECODE_BUDGET = 2**19


def generate_batch(
    pairs: Sequence[tuple[Example, IWClass]],
    config: QGConfig,
    params: dict[str, Tensor],
    vocab: Vocabulary,
) -> list[GenerationResult]:
    """``generate`` for each (example, predicted class) pair, in order.

    Pairs are decoded a chunk at a time: each step runs the decoder once,
    with one row per live beam of every pair in the chunk.  A chunk holds
    up to ``_CHUNK`` pairs, and fewer where their beams' final
    distributions would outgrow ``_DECODE_BUDGET`` values: the width is
    the vocabulary plus the longest OOV list of the pairs."""
    seqs = [build_qg_input(ex, iw, vocab, insert_iw=config.insert_iw) for ex, iw in pairs]
    width = params["embed"].shape[0] + max((len(seq.oov_words) for seq in seqs), default=0)
    size = max(1, min(_CHUNK, _DECODE_BUDGET // (config.beam_size * width)))
    return [result for start in range(0, len(pairs), size)
            for result in _decode_chunk(pairs[start : start + size], seqs[start : start + size],
                                        config, params, vocab)]


def _top_ids(dist: np.ndarray, k: int) -> np.ndarray:
    """The ids of each row's k likeliest columns, likeliest first and
    equal probabilities in id order: ``np.argsort(-dist, axis=1,
    kind="stable")[:, :k]`` without sorting the rows.  ``argpartition``
    finds k columns holding a row's k largest values, but where more
    columns tie at the k-th value than it kept, which of them it kept is
    arbitrary, so those rows keep the smallest tied ids instead; one
    ``lexsort`` then orders each row's k by (-p, id).  A k wider than
    the row keeps every column, as the sort's ``[:, :k]`` does."""
    if k == 1:
        return dist.argmax(axis=1)[:, None]
    width = dist.shape[1]
    k = min(k, width)
    rows = np.arange(len(dist))[:, None]
    top = np.argpartition(dist, width - k, axis=1)[:, width - k :]
    p = dist[rows, top]
    kth = p.min(axis=1, keepdims=True)
    tied = dist == kth
    kept = np.count_nonzero(p == kth, axis=1)
    over = np.flatnonzero(np.count_nonzero(tied, axis=1) > kept)
    ties = tied[over]
    keep = (dist[over] > kth[over]) | (ties & (np.cumsum(ties, axis=1) <= kept[over, None]))
    top[over] = np.nonzero(keep)[1].reshape(-1, k)
    return top[rows, np.lexsort((top, -dist[rows, top]), axis=1)]


def _decode_chunk(
    pairs: Sequence[tuple[Example, IWClass]],
    seqs: Sequence[TaggedSequence],
    config: QGConfig,
    params: dict[str, Tensor],
    vocab: Vocabulary,
) -> list[GenerationResult]:
    """Beam search for every pair at once, ``seqs`` holding their tagged
    sources.  The (P x beam_size x dh) decoder rows, dh read off the
    decoder's (1 x 4dh) gate bias, are allocated first, so a
    ``beam_size`` too wide for numpy fails before any work.  The
    passages are encoded in one pass, packed end to end, and bridged to
    their first decoder states in one call.  Each step writes its live
    beams into their slots, one row in its pair's block, and the head
    reads every block, a chunk of one pair too, each row its own pair's
    passage; so a beam's scores are, up to rounding, the ones its pair
    would get alone.  Ranking and stopping stay per pair: each step, a
    pair's ended beams and the extensions of its live ones compete on
    (cost, ids), and an ended beam leaves the rows but stays while it
    ranks among the best ``beam_size``."""
    vocab_size = params["embed"].shape[0]
    beam_size = config.beam_size
    try:
        H = np.zeros((len(pairs), beam_size, params["dec.b"].shape[1] // 4))
    except (MemoryError, ValueError) as e:
        raise InputError(f"beam_size {beam_size} lays out more decoder rows than numpy "
                         f"can allocate: {e}") from None
    encoded = encode(seqs, params)
    h0, c0 = init_decoder_state(encoded, params)
    h, c = h0.data, c0.data
    # each pair's source length and the ids it may emit: its vocabulary
    # and its own OOV list's extended ids
    n_src = [len(seq.surfaces) for seq in seqs]
    limit = [vocab_size + len(seq.oov_words) for seq in seqs]
    rank = itemgetter(0, 1)
    # beam: (cost, id sequence, attention rows, state row), the state row
    # None once it has emitted [EOS]; a live beam's previous id is its
    # last id, or [SOS] before its first
    beams = [[(0.0, [], [], e)] for e in range(len(pairs))]
    for _ in range(config.max_len):
        # a live beam's slot in the (P x beam_size) layout: row j of its
        # pair's block, j its place among the pair's beams
        live = [(e * beam_size + j, e, b) for e, bs in enumerate(beams) for j, b in enumerate(bs)
                if b[3] is not None]
        if not live:
            break
        slots, rows = [s for s, _, _ in live], [b[3] for _, _, b in live]
        h_t, c_t = lstm_step(_embed([b[1][-1] if b[1] else SOS_ID for _, _, b in live], params),
                             Tensor(h[rows]), Tensor(c[rows]), params["dec.W"], params["dec.b"])
        h, c = h_t.data, c_t.data
        # ended beams' and finished pairs' rows keep stale values, never read
        H.reshape(len(pairs) * beam_size, -1)[slots] = h
        step = _decoder_head(Tensor(H), encoded, params)
        dist, attention = (t.data.reshape(len(pairs) * beam_size, -1)[slots]
                           for t in (step.final_dist, step.attention))
        # each row's beam_size likeliest ids, tied ids in id order: a
        # pair's own ids come first among its zero-probability columns
        top = _top_ids(dist, beam_size)
        # each candidate's cost: the cross-entropy of its token
        nll = -np.log(np.maximum(dist[np.arange(len(top))[:, None], top], ad.PROB_FLOOR))
        top, nll = top.tolist(), nll.tolist()
        # an ended beam keeps competing; row r extends live beam r, and
        # its attention row is a view of this step's (live x n_max) array
        candidates = [[b for b in bs if b[3] is None] for bs in beams]
        for r, (_, e, (cost, ids, att, _)) in enumerate(live):
            row = attention[r, : n_src[e]]
            candidates[e] += [
                (cost + step_cost, ids, att, None) if tid == EOS_ID
                else (cost + step_cost, ids + [tid], att + [row], r)
                for tid, step_cost in zip(top[r][: limit[e]], nll[r])]
        beams = [sorted(bs, key=rank)[:beam_size] for bs in candidates]
    return [GenerationResult(
        tokens=vocab.decode_extended(ids, seq.oov_words),
        attention=np.array(att) if att else np.zeros((0, len(seq.surfaces))),
        predicted_iw=predicted_iw,
        source=seq,
    ) for (_, predicted_iw), seq, [(_, ids, att, _), *_] in zip(pairs, seqs, beams)]


def predict_iw(
    examples: Sequence[Example],
    classifier: ModelParams,
    vocab: Vocabulary,
) -> list[IWClass]:
    """The interrogative class that trained ``classifier`` parameters
    predict for each of ``examples``, in order: their argmax class, from
    one ``classify`` call."""
    probs = classify(examples, classifier.config, classifier.tensors, vocab)
    return [IWClass(int(c)) for c in np.argmax(probs, axis=1)]


def pipeline_generate(
    example: Example,
    classifier: ModelParams,
    qg_params: ModelParams,
    vocab: Vocabulary,
) -> GenerationResult:
    """Two-stage inference: the class that trained ``classifier``
    parameters predict (``predict_iw``), then a decode with that class
    inserted; the prediction is recorded on the result."""
    [predicted] = predict_iw([example], classifier, vocab)
    return generate(example, predicted, qg_params.config, qg_params.tensors, vocab)
