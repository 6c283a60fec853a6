"""Corpus evaluation metrics implemented from first principles.

BLEU-1..4 (corpus-level, clipped, no smoothing), ROUGE-L (LCS F-measure,
beta = 1), a METEOR variant restricted to exact and stem matching
(reported as "METEOR-ex"), and interrogative-word recall/precision.

Scoring is two steps.  ``score_pair`` scores one (candidate, reference)
pair into a ``PairScore``: its lengths, clipped and total n-gram counts,
ROUGE-L and METEOR-ex scores and interrogative labels.  ``pool_scores``
pools a sequence of them into an ``EvalReport``: BLEU from the summed
counts, ROUGE-L and METEOR-ex as means, the interrogative table from the
labels.  So a pair shared by several corpora is scored once.
``evaluate_generation`` is the two steps over aligned candidate/reference
lists of token sequences, and each single-metric function runs the same
per-pair helper and the same pooling arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .data import IWClass, label_interrogative_class

__all__ = [
    "AlignmentResult",
    "BLEU_N_MAX",
    "ClassScore",
    "EvalReport",
    "IWScores",
    "METEOR_LABEL",
    "PairScore",
    "ROUGE_L_BETA",
    "align_tokens",
    "bleu_n",
    "class_scores",
    "evaluate_generation",
    "iw_recall_precision",
    "lcs_length",
    "meteor_variant",
    "pool_scores",
    "rouge_l",
    "score_pair",
    "stem",
]

ROUGE_L_BETA = 1.0
BLEU_N_MAX = 4
METEOR_LABEL = "METEOR-ex"

TokenSeq = Sequence[str]


def _check_aligned(candidates: Sequence[TokenSeq], references: Sequence[TokenSeq]) -> None:
    if len(candidates) != len(references):
        raise ValueError(
            f"{len(candidates)} candidates vs {len(references)} references"
        )


def _mean(values: Sequence[float]) -> float:
    """Mean of per-pair scores, summed in order; 0.0 for no pairs."""
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# BLEU

def _ngram_counts(tokens: TokenSeq, n_max: int) -> Counter:
    """Every n-gram of orders 1..n_max in one table; a key's order is its length."""
    return Counter(tuple(tokens[i : i + n])
                   for n in range(1, n_max + 1) for i in range(len(tokens) - n + 1))


def _ngram_matches(cand: TokenSeq, ref: TokenSeq,
                   n_max: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One pair's clipped n-gram matches and candidate n-gram totals,
    each for n = 1..n_max."""
    ref_counts = _ngram_counts(ref, n_max)
    clipped = [0] * n_max
    for gram, k in _ngram_counts(cand, n_max).items():
        if gram in ref_counts:
            clipped[len(gram) - 1] += min(k, ref_counts[gram])
    return tuple(clipped), tuple(max(len(cand) - n + 1, 0) for n in range(1, n_max + 1))


def _corpus_bleu(counts: Iterable[tuple[int, int, Sequence[int], Sequence[int]]],
                 n_max: int) -> tuple[float, ...]:
    """BLEU-1..n_max from per-pair (candidate length, reference length,
    clipped, total) counts, summed over the corpus first."""
    clipped = [0] * n_max
    total = [0] * n_max
    cand_len = 0
    ref_len = 0
    for pair_cand_len, pair_ref_len, pair_clipped, pair_total in counts:
        cand_len += pair_cand_len
        ref_len += pair_ref_len
        for k in range(n_max):
            clipped[k] += pair_clipped[k]
            total[k] += pair_total[k]
    if cand_len == 0:
        return tuple(0.0 for _ in range(n_max))
    bp = min(1.0, math.exp(1.0 - ref_len / cand_len))
    precisions = [
        (clipped[i] / total[i]) if total[i] > 0 else 0.0 for i in range(n_max)
    ]
    scores = []
    for k in range(1, n_max + 1):
        ps = precisions[:k]
        if any(p == 0.0 for p in ps):
            scores.append(0.0)
        else:
            scores.append(bp * math.exp(sum(math.log(p) for p in ps) / k))
    return tuple(scores)


def bleu_n(
    candidates: Sequence[TokenSeq],
    references: Sequence[TokenSeq],
    n_max: int = BLEU_N_MAX,
) -> tuple[float, ...]:
    """Corpus BLEU-1 through BLEU-n_max.

    Clipped n-gram counts and lengths are pooled over the corpus before
    any ratio is taken; BP = min(1, exp(1 - r/c)).  A zero pooled
    precision at any order zeroes that BLEU-k and every higher one (no
    smoothing)."""
    _check_aligned(candidates, references)
    return _corpus_bleu(((len(c), len(r), *_ngram_matches(c, r, n_max))
                         for c, r in zip(candidates, references)), n_max)


# ---------------------------------------------------------------------------
# ROUGE-L

def lcs_length(a: TokenSeq, b: TokenSeq) -> int:
    """Longest common subsequence length, bit-parallel over ``b``
    (Allison and Dix 1986; Hyyrö 2004): bit j of ``v`` is clear where
    the DP row's value steps up at column j, so the length is the count
    of clear bits.  Each token of ``a`` advances the whole row with a
    handful of integer operations, and the integers equal the DP's."""
    if not a or not b:
        return 0
    masks: dict = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def _rouge_pair(cand: TokenSeq, ref: TokenSeq) -> float:
    if not cand and not ref:
        return 1.0
    if not cand or not ref:
        return 0.0
    lcs = lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    p = lcs / len(cand)
    r = lcs / len(ref)
    return 2.0 * p * r / (p + r)


def rouge_l(candidates: Sequence[TokenSeq], references: Sequence[TokenSeq]) -> float:
    """Mean per-pair LCS F-measure with beta = 1 (see ROUGE_L_BETA)."""
    _check_aligned(candidates, references)
    return _mean([_rouge_pair(c, r) for c, r in zip(candidates, references)])


# ---------------------------------------------------------------------------
# METEOR-ex

_SIBILANT_ENDINGS = ("s", "x", "z", "ch", "sh")
_VOWELS = set("aeiou")


def _undouble(s: str) -> str:
    if len(s) >= 2 and s[-1] == s[-2] and s[-1] not in _VOWELS:
        return s[:-1]
    return s


@lru_cache(maxsize=1 << 16)
def stem(token: str) -> str:
    """Tiny suffix stripper: one plural/inflection rule, then a final-e
    strip, so 'loves', 'loved', 'loving' and 'love' share a stem.  Never
    shrinks a token below two characters."""
    t = token.lower()
    out = t
    if t.endswith("ies") and len(t) >= 5:
        out = t[:-3] + "y"
    elif t.endswith("ss"):
        out = t
    elif t.endswith("es") and len(t) >= 4 and t[:-2].endswith(_SIBILANT_ENDINGS):
        out = t[:-2]
    elif t.endswith("s") and len(t) >= 4:
        out = t[:-1]
    elif t.endswith("ing") and len(t) >= 6:
        out = _undouble(t[:-3])
    elif t.endswith("ed") and len(t) >= 5:
        out = _undouble(t[:-2])
    elif t.endswith("ly") and len(t) >= 5:
        out = t[:-2]
    if out.endswith("e") and len(out) >= 4:
        out = out[:-1]
    return out if len(out) >= 2 else t


@dataclass
class AlignmentResult:
    """Best unigram alignment between a candidate and a reference.

    ``pairs`` maps candidate position to reference position.  The
    objective is lexicographic: most exact matches, then most matches
    overall, then fewest chunks, then smallest pair list; that makes the
    winner unique and the search reproducible."""

    exact: int
    total: int
    chunks: int
    pairs: tuple[tuple[int, int], ...]
    complete: bool


_NODE_BUDGET = 500_000


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _greedy_runs(here: list[int], exact_at: list[int]) -> tuple[list[tuple[int, int]], int, int]:
    """Greedy longest-common-run alignment: the maximal diagonal runs of
    matchable pairs, longest first (then most exact, then earliest), each
    adding the pairs whose two positions are still free.  Returns the
    pairs in candidate order, their exact count and their chunk count."""
    n = len(here)
    runs = []
    for i, mask in enumerate(here):
        starts = mask & ~(here[i - 1] << 1) if i else mask
        for j in _bits(starts) if starts else ():
            length = exact = 0
            while i + length < n and here[i + length] >> (j + length) & 1:
                exact += exact_at[i + length] >> (j + length) & 1
                length += 1
            runs.append((-length, -exact, i, j))
    runs.sort()
    used_cand = used_ref = 0
    pairs = []
    for neg_length, _, i, j in runs:
        for d in range(-neg_length):
            if not (used_cand >> (i + d) & 1 or used_ref >> (j + d) & 1):
                used_cand |= 1 << (i + d)
                used_ref |= 1 << (j + d)
                pairs.append((i + d, j + d))
    pairs.sort()
    exact = chunks = 0
    last_i = last_j = -2
    for i, j in pairs:
        exact += exact_at[i] >> j & 1
        chunks += i != last_i + 1 or j != last_j + 1
        last_i, last_j = i, j
    return pairs, exact, chunks


def _bigram_kinds(here: list[int]) -> tuple[list[tuple[tuple[int, int], ...]], list[int]]:
    """What bounds the run extensions after each position.

    Position k can extend a run into the references ``here[k] &
    here[k - 1] << 1`` (k - 1 can take the reference before).  Positions
    with the same such set are one bigram kind, and no more of a kind
    extend runs than its count or the references in its set that are
    still free together with the one before.  For each position p this
    returns the (set, count) pairs of the kinds after p, except that the
    kinds whose count is never the smaller are merged into one set (the
    second list)."""
    n = len(here)
    scarce: list[tuple[tuple[int, int], ...]] = [()] * (n + 1)
    plenty = [0] * (n + 1)
    kinds: dict[int, int] = {}
    split: tuple = ((), 0)
    for p in range(n - 1, -1, -1):
        scarce[p], plenty[p] = split
        links = here[p] and p and here[p] & here[p - 1] << 1
        if links:
            kinds[links] = kinds.get(links, 0) + 1
            merged = 0
            for refs, count in kinds.items():
                if count >= refs.bit_count():
                    merged |= refs
            split = (tuple((refs, count) for refs, count in kinds.items()
                           if count < refs.bit_count()), merged)
    return scarce, plenty


def align_tokens(cand: TokenSeq, ref: TokenSeq) -> AlignmentResult:
    """Find the objective-optimal injective candidate-to-reference matching.

    The objective is additive along the candidate, so one integer ranks
    it: ``(exact * scale + total) * scale - chunks`` with ``scale = n + 1``.
    A memoised depth-first search runs over states (candidate position,
    used-reference bitmask, previous reference position); a state's value
    is what its best completion adds, and positions whose options are all
    used are skipped on the way to the next state.  Each position tries
    its matches by reference position and then the skip, and only a
    strictly better value replaces the best so far, which is the
    ``pairs`` tie-break.  A greedy longest-common-run alignment is the
    first incumbent, and a state is not expanded when its bound cannot
    beat what its caller already holds: one more match per remaining
    position with an option (no more than the free references), exact
    for no more of them than have an exact option or than there are free
    references they match exactly, each opening a chunk unless it extends
    a run, with no more run extensions than the free reference bigrams of
    their kind allow (``_bigram_kinds``).  The search keeps its own
    stack, so a long candidate does not deepen Python's.

    The node budget counts expanded states.  ``complete`` is False only
    if it ran out (pathological repeated-token inputs: minimising chunks
    is NP-hard when every token matches); the greedy incumbent is then
    returned."""
    n, n_ref = len(cand), len(ref)
    exact_bits: dict[str, int] = {}  # token -> bitmask of its reference positions
    stem_bits: dict[str, int] = {}  # stem -> bitmask of the positions with it
    for j, t in enumerate(ref):
        exact_bits[t] = exact_bits.get(t, 0) | 1 << j
        s = stem(t)
        stem_bits[s] = stem_bits.get(s, 0) | 1 << j
    exact_at = [exact_bits.get(t, 0) for t in cand]
    here = [stem_bits.get(stem(t), 0) for t in cand]  # every option, exact ones too
    if not any(here):
        return AlignmentResult(0, 0, 0, (), True)

    # Each position's choices in tie-break order, listed when the search
    # first reaches it: matches by reference position, then the skip
    # (coded n_ref).  step_to[i] is the first position from i on with
    # any option.  Over each suffix: the references its positions can
    # use (exactly or at all), and how many of them have an exact or any
    # option.
    choices: list[list[int] | None] = [None] * n
    step_to = [n] * (n + 1)
    reach = [0] * (n + 1)
    exact_reach = [0] * (n + 1)
    can_exact = [0] * (n + 1)
    can_any = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        step_to[i] = i if here[i] else step_to[i + 1]
        reach[i] = reach[i + 1] | here[i]
        exact_reach[i] = exact_reach[i + 1] | exact_at[i]
        can_exact[i] = can_exact[i + 1] + (exact_at[i] != 0)
        can_any[i] = can_any[i + 1] + (here[i] != 0)
    greedy, greedy_exact, greedy_chunks = _greedy_runs(here, exact_at)

    scale = n + 1  # a value is (exact * scale + total) * scale - chunks
    exact_gain = scale * scale
    width = n_ref + 2  # decision codes: j matches ref[j], n_ref skips,
    unsettled = n_ref + 1  # and this one marks a stored upper bound
    memo: dict[int, int] = {}  # state key -> value * width + decision

    bigram_kinds: tuple = ()  # _bigram_kinds(here), once a bound needs it

    def extensions(p, free):
        # the most run extensions the positions after p can make while
        # only the references in ``free`` are left
        nonlocal bigram_kinds
        if not bigram_kinds:
            bigram_kinds = _bigram_kinds(here)
        scarce, plenty = bigram_kinds
        bigrams = free & free << 1
        total = (plenty[p] & bigrams).bit_count()
        for refs, count in scarce[p]:
            usable = (refs & bigrams).bit_count()
            total += usable if usable < count else count
        return total

    def key_of(i, mask, cont):
        return (mask * (n_ref + 1) + cont + 1) * (n + 1) + i

    def settle(i, mask):
        # the first position from i on that still has a free option: the
        # positions before it can only be skipped
        i = step_to[i]
        while i < n and not here[i] & ~mask:
            i = step_to[i + 1]
        return i

    def visit(i, mask, cont, key, floor):
        # A generator: it yields each child it must expand, is sent the
        # child's value and returns its own.  A value at or below
        # ``floor`` is only an upper bound.
        best, choice = -1, unsettled
        skip_to = settle(i + 1, mask)
        order = choices[i]
        if order is None:
            order = choices[i] = _bits(here[i]) + [n_ref]
        for j in order:
            top = floor if floor > best else best
            if j < n_ref:
                if mask >> j & 1:
                    continue
                gain = scale - (j != cont) + (exact_at[i] >> j & 1) * exact_gain
                child_mask = mask | 1 << j
                nxt = (skip_to if skip_to == n or here[skip_to] & ~child_mask
                       else settle(skip_to, child_mask))
                child_cont = j + 1 if nxt == i + 1 else -1
            else:
                gain, child_mask, child_cont, nxt = 0, mask, -1, skip_to
            ahead = reach[nxt]
            child_mask &= ahead
            free = ahead & ~child_mask
            n_free = free.bit_count()
            if not n_free:
                value = 0
            else:
                if child_cont >= 0 and not (free & here[nxt]) >> child_cont & 1:
                    child_cont = -1
                child_floor = top - gain
                # Bound the child first; then no value stored for it can
                # beat its floor either.  It makes at most ``most`` more
                # matches, ``most_exact`` of them exact, and each one opens
                # a chunk unless it extends a run: the prefix's
                # (child_cont) or one of ``extensions``.  Its bound cannot
                # beat the floor while slack >= 0.
                most = n_free if n_free < can_any[nxt] else can_any[nxt]
                most_exact = (free & exact_reach[nxt]).bit_count()
                if most_exact > can_exact[nxt]:
                    most_exact = can_exact[nxt]
                slack = child_floor - most_exact * exact_gain - most * (scale - 1)
                if slack < most:
                    slack -= child_cont >= 0
                    if slack >= 0:
                        slack -= extensions(nxt, free)
                if slack >= 0:
                    value = child_floor
                else:
                    child_key = key_of(nxt, child_mask, child_cont)
                    # a stored value is never negative, so an absent state
                    # reads as (-1, unsettled)
                    value, decision = divmod(memo.get(child_key, unsettled - width), width)
                    if decision == unsettled and (value < 0 or value > child_floor):
                        value = yield nxt, child_mask, child_cont, child_key, child_floor
            if value + gain > best:
                best, choice = value + gain, j
        if best <= floor:
            choice = unsettled
        memo[key] = best * width + choice
        return best

    first = step_to[0]
    # the greedy alignment is feasible, so the optimum is at least its value
    floor = (greedy_exact * scale + len(greedy)) * scale - greedy_chunks - 1
    request, sent = (first, 0, -1, key_of(first, 0, -1), floor), None
    stack = []
    expanded = 0
    while True:
        if request is not None:
            expanded += 1
            if expanded > _NODE_BUDGET:
                return AlignmentResult(greedy_exact, len(greedy), greedy_chunks,
                                       tuple(greedy), False)
            stack.append(visit(*request))
            sent = None
        try:
            request = stack[-1].send(sent)
        except StopIteration as done:
            stack.pop()
            if not stack:
                break
            request, sent = None, done.value

    # follow the stored decisions from the root
    pairs = []
    exact = chunks = 0
    i, mask, cont = first, 0, -1
    while i < n:
        mask &= reach[i]
        if cont >= 0 and not (reach[i] & ~mask & here[i]) >> cont & 1:
            cont = -1
        j = memo[key_of(i, mask, cont)] % width
        if j < n_ref:
            pairs.append((i, j))
            exact += exact_at[i] >> j & 1
            chunks += j != cont
            mask |= 1 << j
        nxt = settle(i + 1, mask)
        cont = j + 1 if j < n_ref and nxt == i + 1 else -1
        i = nxt
    return AlignmentResult(exact, len(pairs), chunks, tuple(pairs), True)


def _meteor_pair(cand: TokenSeq, ref: TokenSeq) -> tuple[float, bool]:
    """Score and whether the alignment search finished."""
    if list(cand) == list(ref):
        # token-for-token identity scores 1.0 by definition here, ahead
        # of the fragmentation penalty
        return (1.0 if cand else 0.0), True
    if not cand or not ref:
        return 0.0, True
    aligned = align_tokens(cand, ref)
    m = aligned.total
    if m == 0:
        return 0.0, aligned.complete
    p = m / len(cand)
    r = m / len(ref)
    f_mean = 10.0 * p * r / (r + 9.0 * p)
    penalty = 0.5 * (aligned.chunks / m) ** 3
    return f_mean * (1.0 - penalty), aligned.complete


def meteor_variant(candidates: Sequence[TokenSeq], references: Sequence[TokenSeq]) -> float:
    """Mean per-pair METEOR-ex: exact+stem unigram alignment, F_mean =
    10PR/(R+9P), fragmentation penalty 0.5*(chunks/matches)^3.  Whether
    each pair's alignment search finished is in its ``PairScore``."""
    _check_aligned(candidates, references)
    return _mean([_meteor_pair(c, r)[0] for c, r in zip(candidates, references)])


# ---------------------------------------------------------------------------
# Interrogative-word recall / precision

@dataclass
class ClassScore:
    recall: float
    precision: float
    support: int


@dataclass
class IWScores:
    per_class: dict[IWClass, ClassScore]
    total_recall: float


def class_scores(
    predicted: Sequence[IWClass], gold: Sequence[IWClass]
) -> dict[IWClass, ClassScore]:
    """Score every class over aligned label lists.  recall(c) = matches
    within gold class c / gold support of c; precision(c) = matches
    within predicted class c / predictions of c; 0.0 when undefined."""
    support, n_predicted = Counter(gold), Counter(predicted)
    hits = Counter(p for p, g in zip(predicted, gold) if p == g)
    return {c: ClassScore(
        recall=hits[c] / support[c] if support[c] else 0.0,
        precision=hits[c] / n_predicted[c] if n_predicted[c] else 0.0,
        support=support[c],
    ) for c in IWClass}


def _iw_scores(gen_labels: Sequence[IWClass], gold_labels: Sequence[IWClass]) -> IWScores:
    hits = sum(1 for a, b in zip(gen_labels, gold_labels) if a == b)
    total = hits / len(gold_labels) if gold_labels else 0.0
    return IWScores(per_class=class_scores(gen_labels, gold_labels), total_recall=total)


def iw_recall_precision(
    generated: Sequence[TokenSeq], gold: Sequence[TokenSeq]
) -> IWScores:
    """Label both sides with the interrogative-word scan and score per
    class (see ``class_scores``); total is the overall match rate."""
    _check_aligned(generated, gold)
    return _iw_scores([label_interrogative_class(q) for q in generated],
                      [label_interrogative_class(q) for q in gold])


# ---------------------------------------------------------------------------
# One pair scored, many pooled

class PairScore(NamedTuple):
    """What the corpus metrics read of one (candidate, reference) pair.

    ``clipped`` and ``total`` hold the clipped n-gram matches and the
    candidate's n-grams for n = 1..BLEU_N_MAX; ``complete`` is False when
    the METEOR-ex alignment search ran out of its node budget.  A named
    tuple, not a frozen dataclass: it is as immutable and builds in a
    quarter of the time, which every pair ``evaluate`` scores pays."""

    cand_len: int
    ref_len: int
    clipped: tuple[int, ...]
    total: tuple[int, ...]
    rouge_l: float
    meteor_variant: float
    complete: bool
    cand_iw: IWClass
    ref_iw: IWClass


def score_pair(cand: TokenSeq, ref: TokenSeq) -> PairScore:
    """Score one pair for ``pool_scores``."""
    clipped, total = _ngram_matches(cand, ref, BLEU_N_MAX)
    meteor, complete = _meteor_pair(cand, ref)
    return PairScore(len(cand), len(ref), clipped, total, _rouge_pair(cand, ref), meteor,
                     complete, label_interrogative_class(cand), label_interrogative_class(ref))


# ---------------------------------------------------------------------------
# Report bundle

@dataclass
class EvalReport:
    """All corpus metrics for one generation run."""

    bleu: tuple[float, float, float, float]
    rouge_l: float
    meteor_variant: float
    iw_scores: IWScores
    n_examples: int
    incomplete_pairs: int

    def to_json_dict(self) -> dict:
        """JSON-ready mapping; records the metric conventions alongside
        the numbers so reports are self-describing."""
        return {
            "n_examples": self.n_examples,
            "incomplete_pairs": self.incomplete_pairs,
            **dict(self.metric_columns()),
            "rouge_l_beta": ROUGE_L_BETA,
            "meteor_label": METEOR_LABEL,
            "iw_table": {
                c.name: {
                    "recall": s.recall,
                    "precision": s.precision,
                    "support": s.support,
                }
                for c, s in self.iw_scores.per_class.items()
            },
        }

    def metric_columns(self) -> list[tuple[str, float]]:
        """Flat (name, value) pairs for CSV aggregation."""
        return [
            ("bleu_1", self.bleu[0]),
            ("bleu_2", self.bleu[1]),
            ("bleu_3", self.bleu[2]),
            ("bleu_4", self.bleu[3]),
            ("rouge_l", self.rouge_l),
            ("meteor_variant", self.meteor_variant),
            ("total_iw_recall", self.iw_scores.total_recall),
        ]


def pool_scores(scores: Sequence[PairScore]) -> EvalReport:
    """Every corpus metric over the pairs ``scores`` were taken from, in
    order; one record may stand for several pairs of a corpus."""
    return EvalReport(
        bleu=_corpus_bleu(((s.cand_len, s.ref_len, s.clipped, s.total) for s in scores),
                          BLEU_N_MAX),
        rouge_l=_mean([s.rouge_l for s in scores]),
        meteor_variant=_mean([s.meteor_variant for s in scores]),
        iw_scores=_iw_scores([s.cand_iw for s in scores], [s.ref_iw for s in scores]),
        n_examples=len(scores),
        incomplete_pairs=sum(1 for s in scores if not s.complete),
    )


def evaluate_generation(
    candidates: Sequence[TokenSeq], references: Sequence[TokenSeq]
) -> EvalReport:
    """Bundle every metric over aligned candidate/reference corpora."""
    _check_aligned(candidates, references)
    return pool_scores([score_pair(c, r) for c, r in zip(candidates, references)])
