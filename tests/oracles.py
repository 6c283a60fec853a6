"""Brute-force reference implementations used to check the fast paths.

Everything here trades efficiency for obviousness: explicit loops,
exhaustive enumeration, no shared code with the library internals beyond
the stemmer (the alignment oracle checks the search, not the stemmer,
which has its own direct tests) and, for the training-step references,
the tape they replay, Adam's constants and the names they stand in
for."""

import math
from itertools import combinations

import numpy as np

from qgkit import autodiff as ad
from qgkit import classifier, generator, layers
from qgkit.data import UNK_ID
from qgkit.metrics import stem


def oracle_clipped_counts(cand, ref, n):
    """Clipped and total n-gram counts by direct list counting."""
    cgrams = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
    rgrams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
    clipped = 0
    for g in set(cgrams):
        clipped += min(cgrams.count(g), rgrams.count(g))
    return clipped, len(cgrams)


def oracle_bleu(candidates, references, k):
    precisions = []
    for n in range(1, k + 1):
        clip_sum = 0
        total_sum = 0
        for c, r in zip(candidates, references):
            clip, total = oracle_clipped_counts(c, r, n)
            clip_sum += clip
            total_sum += total
        precisions.append(clip_sum / total_sum if total_sum else 0.0)
    c_len = sum(len(c) for c in candidates)
    r_len = sum(len(r) for r in references)
    if c_len == 0 or any(p == 0.0 for p in precisions):
        return 0.0
    bp = min(1.0, math.exp(1.0 - r_len / c_len))
    prod = 1.0
    for p in precisions:
        prod *= p
    return bp * prod ** (1.0 / k)


def oracle_lcs(a, b):
    """Longest common subsequence by trying every index subset of the
    shorter sequence, longest first."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)

    def is_subseq(sub, seq):
        it = iter(seq)
        return all(tok in it for tok in sub)

    for size in range(len(short), 0, -1):
        for idx in combinations(range(len(short)), size):
            if is_subseq([short[i] for i in idx], long_):
                return size
    return 0


def oracle_lcs_dp(a, b):
    """Longest common subsequence length by the classic DP, rolling rows."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def oracle_chunks(pairs):
    if not pairs:
        return 0
    ordered = sorted(pairs)
    chunks = 1
    for (c0, r0), (c1, r1) in zip(ordered, ordered[1:]):
        if c1 != c0 + 1 or r1 != r0 + 1:
            chunks += 1
    return chunks


def oracle_align(cand, ref):
    """Optimal alignment by enumerating every injective matching.

    Returns (exact, total, chunks, pairs) under the lexicographic
    objective: max exact, max total, min chunks, smallest pair tuple."""
    best = [None]

    def rec(i, used, pairs, exact, total):
        if i == len(cand):
            key = (-exact, -total, oracle_chunks(pairs), tuple(pairs))
            if best[0] is None or key < best[0]:
                best[0] = key
            return
        for j, rt in enumerate(ref):
            if j in used:
                continue
            if rt == cand[i]:
                rec(i + 1, used | {j}, pairs + [(i, j)], exact + 1, total + 1)
            elif stem(rt) == stem(cand[i]):
                rec(i + 1, used | {j}, pairs + [(i, j)], exact, total + 1)
        rec(i + 1, used, pairs, exact, total)

    rec(0, frozenset(), [], 0, 0)
    b = best[0]
    return -b[0], -b[1], b[2], b[3]


def oracle_meteor_pair(cand, ref):
    if list(cand) == list(ref):
        return 1.0 if cand else 0.0
    if not cand or not ref:
        return 0.0
    _, m, chunks, _ = oracle_align(cand, ref)
    if m == 0:
        return 0.0
    p = m / len(cand)
    r = m / len(ref)
    f_mean = (10.0 * p * r) / (r + 9.0 * p)
    return f_mean * (1.0 - 0.5 * (chunks / m) ** 3)


# Vocabulary with deliberate stem collisions for random-pair generation.
ALIGN_VOCAB = [
    "cat", "cats", "dog", "dogs", "run", "running", "jump", "jumped",
    "the", "a",
]


def random_token_pair(rng, max_len=8, vocab=ALIGN_VOCAB):
    n1 = int(rng.integers(1, max_len + 1))
    n2 = int(rng.integers(1, max_len + 1))
    cand = [vocab[i] for i in rng.integers(0, len(vocab), size=n1)]
    ref = [vocab[i] for i in rng.integers(0, len(vocab), size=n2)]
    return cand, ref


# ---------------------------------------------------------------------------
# Generator references: plain-numpy encoder forward and the combined
# generate/copy distribution by direct enumeration.
# ---------------------------------------------------------------------------


def _np_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _np_lstm(rows, W, b, hidden, reverse=False):
    h = np.zeros((1, hidden))
    c = np.zeros((1, hidden))
    order = range(len(rows) - 1, -1, -1) if reverse else range(len(rows))
    outs = [None] * len(rows)
    for t in order:
        z = np.concatenate([rows[t], h], axis=1) @ W + b
        i = _np_sigmoid(z[:, :hidden])
        f = _np_sigmoid(z[:, hidden : 2 * hidden])
        o = _np_sigmoid(z[:, 2 * hidden : 3 * hidden])
        g = np.tanh(z[:, 3 * hidden :])
        c = f * c + i * g
        h = o * np.tanh(c)
        outs[t] = h
    return outs, h


def oracle_encode(ids, meta, P, hidden):
    """Encoder forward in plain numpy; returns (U, S, F, G, states).
    ``ids`` may hold extended ids, which read [UNK]'s embedding."""
    vocab_size = len(P["embed"])
    rows = [
        np.concatenate([P["embed"][[i if i < vocab_size else UNK_ID]], P["meta_embed"][[m]]],
                       axis=1)
        for i, m in zip(ids, meta)
    ]
    fwd, _ = _np_lstm(rows, P["enc.fwd.W"], P["enc.fwd.b"], hidden)
    bwd, _ = _np_lstm(rows, P["enc.bwd.W"], P["enc.bwd.b"], hidden, reverse=True)
    U = np.concatenate(
        [np.concatenate([f, b], axis=1) for f, b in zip(fwd, bwd)], axis=0
    )
    M = U @ P["att.Ws"] @ U.T
    A = np.exp(M - M.max(axis=0, keepdims=True))
    A = A / A.sum(axis=0, keepdims=True)
    S = A.T @ U
    C = np.concatenate([U, S], axis=1)
    F = np.tanh(C @ P["fuse.f.W"] + P["fuse.f.b"])
    G = _np_sigmoid(C @ P["fuse.g.W"] + P["fuse.g.b"])
    states = G * F + (1.0 - G) * U
    return U, S, F, G, states


def oracle_final_dist(gen_scores, raw_scores, ext_ids, vocab_size, n_oov):
    """Combined distribution by enumeration: cap each position's copy
    logit at the max over positions with the same id, softmax over
    [generate scores; per-position capped scores], then add each
    position's probability onto its word's slot."""
    n = len(ext_ids)
    capped = np.empty(n)
    for j in range(n):
        capped[j] = max(raw_scores[k] for k in range(n) if ext_ids[k] == ext_ids[j])
    z = np.concatenate([np.asarray(gen_scores, dtype=float), capped])
    z = z - z.max()
    p = np.exp(z)
    p = p / p.sum()
    final = np.zeros(vocab_size + n_oov)
    for i in range(vocab_size):
        final[i] = p[i]
    for j in range(n):
        final[ext_ids[j]] += p[vocab_size + j]
    return final


def oracle_top_ids(dist, k):
    """Each row's k likeliest ids, likeliest first, equal probabilities
    in id order: a stable sort of the whole row."""
    return np.argsort(-dist, axis=1, kind="stable")[:, :k]


# ---------------------------------------------------------------------------
# Training-step references: the zero-filling reverse sweep, the LSTM cell
# one gate at a time, and Adam one parameter at a time.  The library's
# fast paths must give the same bits.
# ---------------------------------------------------------------------------


def oracle_backward(tape, loss):
    """``backward`` by zero-filling a gradient buffer for every tensor on
    the tape, then adding each op's gradients into it in reverse tape
    order."""
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    seen = {}
    for entry in tape.entries:
        for t in entry.inputs + entry.outputs:
            seen[id(t)] = t
    for t in seen.values():
        t.grad = np.zeros_like(t.data)
    loss.grad = np.ones_like(loss.data)
    for entry in reversed(tape.entries):
        grads = entry.backward_fn(*(t.grad for t in entry.outputs))
        for t, g in zip(entry.inputs, grads):
            if g is not None:
                t.grad += g


def oracle_lstm_step(x, h, c, W, b, reverse=False):
    """``lstm_step`` with a backward that computes each gate's gradient
    on its own, factor by factor, at every step.  Both directions of a
    layer (pairs of ``x``, ``W``, ``b`` and ``reverse``) are one call per
    direction, each from its own rows of ``h`` and ``c``."""
    if not isinstance(x, ad.Tensor):
        k = h.data.shape[0] // len(x)
        rows = [list(range(j * k, j * k + k)) for j in range(len(x))]
        runs = [oracle_lstm_step(xd, ad.lookup(h, r), ad.lookup(c, r), Wd, bd, rev)
                for xd, r, Wd, bd, rev in zip(x, rows, W, b, reverse)]
        return (*(H for H, _ in runs), ad.concat([c_last for _, c_last in runs], axis=0))
    k, d = h.data.shape
    n, m = x.data.shape[0] // k, x.data.shape[1]
    Wx, Wh = W.data[:m], W.data[m:]
    Z = x.data @ Wx
    Z += b.data
    H, steps = np.empty((n * k, d)), []
    h_t, c_t = h.data, c.data
    for t in reversed(range(n)) if reverse else range(n):
        rows = slice(t * k, t * k + k)
        z = h_t @ Wh
        z += Z[rows]
        e = np.exp(-np.abs(z[:, : 3 * d]))
        s = np.where(z[:, : 3 * d] >= 0, 1.0, e) / (1.0 + e)
        i, f, o = s[:, :d], s[:, d : 2 * d], s[:, 2 * d :]
        g = np.tanh(z[:, 3 * d :])
        c_prev, c_t = c_t, f * c_t + i * g
        tc = np.tanh(c_t)
        H[rows] = h_t = o * tc
        steps.append((rows, c_prev, i, f, o, g, tc))

    def back(dH, dc):
        DZ, dh = np.empty((n * k, 4 * d)), np.zeros_like(h.data)
        for rows, c_prev, i, f, o, g, tc in reversed(steps):
            dh = dH[rows] + dh
            dc = dc + dh * o * (1.0 - tc * tc)
            dz = DZ[rows]
            dz[:, :d] = dc * g * i * (1.0 - i)
            dz[:, d : 2 * d] = dc * c_prev * f * (1.0 - f)
            dz[:, 2 * d : 3 * d] = dh * tc * o * (1.0 - o)
            dz[:, 3 * d :] = dc * i * (1.0 - g * g)
            dh = dz @ Wh.T
            dc = dc * f
        if reverse:
            first, rest, prev = slice((n - 1) * k, None), slice(0, (n - 1) * k), slice(k, None)
        else:
            first, rest, prev = slice(0, k), slice(k, None), slice(0, (n - 1) * k)
        dW = np.empty_like(W.data)
        dW[:m] = x.data.T @ DZ
        dW[m:] = h.data.T @ DZ[first] + H[prev].T @ DZ[rest]
        return DZ @ Wx.T, dh, dc, dW, DZ.sum(0, keepdims=True)

    out, c_last = ad.Tensor(H), ad.Tensor(c_t)
    ad._record("lstm_step", (x, h, c, W, b), (out, c_last), back)
    return out, c_last


def oracle_adam_step(params, state, lr, weight_decay=0.0):
    """``adam_step`` one parameter at a time, with a temporary array for
    each operation, its moments kept in ``state.m``/``state.v`` by name."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ad.ADAM_BETA1**t
    bc2 = 1.0 - ad.ADAM_BETA2**t
    for name, p in params.items():
        g = np.asarray(p.grad, dtype=np.float64)
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= ad.ADAM_BETA1
        m += (1.0 - ad.ADAM_BETA1) * g
        v *= ad.ADAM_BETA2
        v += (1.0 - ad.ADAM_BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ad.ADAM_EPS)
        if weight_decay:
            update = update + weight_decay * p.data
        p.data -= lr * update


# ---------------------------------------------------------------------------
# Op references: the earlier forms of ops whose fast forms must give the
# same bits, each able to stand in for its op in ``qgkit.autodiff``.
# ---------------------------------------------------------------------------


def oracle_sigmoid(d):
    """The logistic function as 1 / (1 + e) for x >= 0 and e / (1 + e)
    below, e = exp(-|x|), chosen by ``np.where``."""
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0, e) / (1.0 + e)


def oracle_softmax(x, axis=-1):
    """``softmax`` with a shifted copy, its ``exp`` and a division, each
    a new array."""
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=axis, keepdims=True)
    out = ad.Tensor(y)

    def back(g):
        inner = np.sum(g * y, axis=axis, keepdims=True)
        return ((g - inner) * y,)

    ad._record("softmax", (x,), (out,), back)
    return out


def oracle_concat(tensors, axis=0):
    """``concat`` whose backward splits the gradient with ``np.split``
    at the cumulative sizes."""
    parts = [t.data for t in tensors]
    out = ad.Tensor(np.concatenate(parts, axis=axis))
    splits = np.cumsum([p.shape[axis] for p in parts])[:-1]
    ad._record("concat", tuple(tensors), (out,),
               lambda g: tuple(np.split(g, splits, axis=axis)))
    return out


def oracle_scatter_sum(values, index_map, size):
    """``scatter_sum`` as one ``bincount`` over the whole map, the ids of
    the identity columns the map leaves out written ahead of its own,
    with the rows laid end to end, and a backward that gathers the
    gradient at every column's target."""
    shape = values.data.shape
    idx = np.asarray(index_map, dtype=np.intp)
    k = shape[-1] - idx.shape[-1]
    idx = np.concatenate([np.broadcast_to(np.arange(k), idx.shape[:-1] + (k,)), idx], axis=-1)
    idx = idx[:, None, :] if idx.ndim == 2 else idx
    lead = shape[:-1]
    rows = math.prod(lead)
    flat = (idx + size * np.arange(rows).reshape(lead + (1,))).ravel()
    acc = np.bincount(flat, weights=values.data.ravel(), minlength=rows * size)
    out = ad.Tensor(acc.reshape(lead + (size,)))
    ad._record("scatter_sum", (values,), (out,), lambda g: (g.ravel()[flat].reshape(shape),))
    return out


# The reference training step: setting each ``module.name`` to its
# reference makes both trainers take every step through the references
# above, each direction of a BiLSTM layer as its own call.
REFERENCE_PATCHES = [
    (generator, "backward", oracle_backward),
    (classifier, "backward", oracle_backward),
    (generator, "adam_step", oracle_adam_step),
    (classifier, "adam_step", oracle_adam_step),
    (generator, "lstm_step", oracle_lstm_step),
    (layers, "lstm_step", oracle_lstm_step),
    (ad, "concat", oracle_concat),
    (layers, "concat", oracle_concat),
    (ad, "softmax", oracle_softmax),
    (ad, "scatter_sum", oracle_scatter_sum),
    (ad, "_sigmoid", oracle_sigmoid),
]
