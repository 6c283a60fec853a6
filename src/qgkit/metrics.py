"""Corpus evaluation metrics implemented from first principles.

BLEU-1..4 (corpus-level, clipped, no smoothing), ROUGE-L (LCS F-measure,
beta = 1), a METEOR variant restricted to exact and stem matching
(reported as "METEOR-ex"), and interrogative-word recall/precision.
All functions take aligned candidate/reference lists of token sequences.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .data import IWClass, label_interrogative_class

__all__ = [
    "AlignmentResult",
    "ClassScore",
    "EvalReport",
    "IWScores",
    "METEOR_LABEL",
    "ROUGE_L_BETA",
    "align_tokens",
    "bleu_n",
    "class_scores",
    "evaluate_generation",
    "iw_recall_precision",
    "lcs_length",
    "meteor_variant",
    "rouge_l",
    "stem",
]

ROUGE_L_BETA = 1.0
METEOR_LABEL = "METEOR-ex"

TokenSeq = Sequence[str]


def _check_aligned(candidates: Sequence[TokenSeq], references: Sequence[TokenSeq]) -> None:
    if len(candidates) != len(references):
        raise ValueError(
            f"{len(candidates)} candidates vs {len(references)} references"
        )


# ---------------------------------------------------------------------------
# BLEU

def _ngram_counts(tokens: TokenSeq, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_n(
    candidates: Sequence[TokenSeq],
    references: Sequence[TokenSeq],
    n_max: int = 4,
) -> tuple[float, ...]:
    """Corpus BLEU-1 through BLEU-n_max.

    Clipped n-gram counts and lengths are pooled over the corpus before
    any ratio is taken; BP = min(1, exp(1 - r/c)).  A zero pooled
    precision at any order zeroes that BLEU-k and every higher one (no
    smoothing)."""
    _check_aligned(candidates, references)
    clipped = [0] * n_max
    total = [0] * n_max
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, n_max + 1):
            cc = _ngram_counts(cand, n)
            rc = _ngram_counts(ref, n)
            total[n - 1] += sum(cc.values())
            clipped[n - 1] += sum(min(k, rc[g]) for g, k in cc.items())
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


# ---------------------------------------------------------------------------
# ROUGE-L

def lcs_length(a: TokenSeq, b: TokenSeq) -> int:
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
    if not candidates:
        return 0.0
    return sum(_rouge_pair(c, r) for c, r in zip(candidates, references)) / len(candidates)


# ---------------------------------------------------------------------------
# METEOR-ex

_SIBILANT_ENDINGS = ("s", "x", "z", "ch", "sh")
_VOWELS = set("aeiou")


def _undouble(s: str) -> str:
    if len(s) >= 2 and s[-1] == s[-2] and s[-1] not in _VOWELS:
        return s[:-1]
    return s


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


def _chunk_count(pairs: Sequence[tuple[int, int]]) -> int:
    if not pairs:
        return 0
    chunks = 1
    for (c0, r0), (c1, r1) in zip(pairs, pairs[1:]):
        if c1 != c0 + 1 or r1 != r0 + 1:
            chunks += 1
    return chunks


def align_tokens(cand: TokenSeq, ref: TokenSeq) -> AlignmentResult:
    """Search every injective candidate-to-reference matching and keep
    the objective-optimal one.

    Depth-first over candidate positions with an admissible bound on the
    first two objective components.  ``complete`` is False only if the
    node budget ran out (pathological repeated-token inputs); the search
    still runs to its first full alignment and returns the best found."""
    n_cand = len(cand)
    exact_opts: list[list[int]] = []
    stem_opts: list[list[int]] = []
    ref_stems = [stem(t) for t in ref]
    for tok in cand:
        s = stem(tok)
        exact_opts.append([j for j, t in enumerate(ref) if t == tok])
        stem_opts.append(
            [j for j, t in enumerate(ref) if t != tok and ref_stems[j] == s]
        )
    # suffix bounds: how many exact / any matches could still be made
    can_exact = [0] * (n_cand + 1)
    can_any = [0] * (n_cand + 1)
    for i in range(n_cand - 1, -1, -1):
        can_exact[i] = can_exact[i + 1] + (1 if exact_opts[i] else 0)
        can_any[i] = can_any[i + 1] + (1 if exact_opts[i] or stem_opts[i] else 0)

    best: list = [None]  # objective tuple (-exact, -total, chunks, pairs)
    nodes = [0]
    used = [False] * len(ref)
    pairs: list[tuple[int, int]] = []

    def dfs(i: int, exact: int, total: int) -> None:
        if nodes[0] > _NODE_BUDGET and best[0] is not None:
            return
        nodes[0] += 1
        if best[0] is not None:
            b_exact, b_total = -best[0][0], -best[0][1]
            hi_exact = exact + can_exact[i]
            hi_total = total + can_any[i]
            if (hi_exact, hi_total) < (b_exact, b_total):
                return
        if i == n_cand:
            key = (-exact, -total, _chunk_count(pairs), tuple(pairs))
            if best[0] is None or key < best[0]:
                best[0] = key
            return
        for j in exact_opts[i]:
            if not used[j]:
                used[j] = True
                pairs.append((i, j))
                dfs(i + 1, exact + 1, total + 1)
                pairs.pop()
                used[j] = False
        for j in stem_opts[i]:
            if not used[j]:
                used[j] = True
                pairs.append((i, j))
                dfs(i + 1, exact, total + 1)
                pairs.pop()
                used[j] = False
        dfs(i + 1, exact, total)

    dfs(0, 0, 0)
    b = best[0]
    return AlignmentResult(
        exact=-b[0],
        total=-b[1],
        chunks=b[2],
        pairs=b[3],
        complete=nodes[0] <= _NODE_BUDGET,
    )


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


def meteor_variant(
    candidates: Sequence[TokenSeq],
    references: Sequence[TokenSeq],
    *,
    return_incomplete: bool = False,
) -> float | tuple[float, int]:
    """Mean per-pair METEOR-ex: exact+stem unigram alignment, F_mean =
    10PR/(R+9P), fragmentation penalty 0.5*(chunks/matches)^3.

    With ``return_incomplete``, also return how many pairs were scored
    from an alignment that the node budget cut short."""
    _check_aligned(candidates, references)
    pairs = [_meteor_pair(c, r) for c, r in zip(candidates, references)]
    score = sum(s for s, _ in pairs) / len(pairs) if pairs else 0.0
    if return_incomplete:
        return score, sum(1 for _, complete in pairs if not complete)
    return score


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
    per_class = {}
    for c in IWClass:
        support = sum(1 for g in gold if g == c)
        n_predicted = sum(1 for p in predicted if p == c)
        hits = sum(1 for p, g in zip(predicted, gold) if p == g == c)
        per_class[c] = ClassScore(
            recall=hits / support if support else 0.0,
            precision=hits / n_predicted if n_predicted else 0.0,
            support=support,
        )
    return per_class


def iw_recall_precision(
    generated: Sequence[TokenSeq], gold: Sequence[TokenSeq]
) -> IWScores:
    """Label both sides with the interrogative-word scan and score per
    class (see ``class_scores``); total is the overall match rate."""
    _check_aligned(generated, gold)
    gen_labels = [label_interrogative_class(q) for q in generated]
    gold_labels = [label_interrogative_class(q) for q in gold]
    hits = sum(1 for a, b in zip(gen_labels, gold_labels) if a == b)
    total = hits / len(gold) if gold else 0.0
    return IWScores(per_class=class_scores(gen_labels, gold_labels), total_recall=total)


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


def evaluate_generation(
    candidates: Sequence[TokenSeq], references: Sequence[TokenSeq]
) -> EvalReport:
    """Bundle every metric over aligned candidate/reference corpora."""
    _check_aligned(candidates, references)
    meteor, incomplete = meteor_variant(candidates, references, return_incomplete=True)
    return EvalReport(
        bleu=bleu_n(candidates, references),
        rouge_l=rouge_l(candidates, references),
        meteor_variant=meteor,
        iw_scores=iw_recall_precision(candidates, references),
        n_examples=len(candidates),
        incomplete_pairs=incomplete,
    )
