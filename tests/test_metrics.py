"""Tests for BLEU, ROUGE-L, METEOR-ex and the interrogative-word table,
checked against the brute-force oracles."""

import functools
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    oracle_align,
    oracle_bleu,
    oracle_clipped_counts,
    oracle_lcs,
    oracle_meteor_pair,
    random_token_pair,
)
from qgkit import metrics
from qgkit.data import IWClass
from qgkit.metrics import (
    METEOR_LABEL,
    ROUGE_L_BETA,
    EvalReport,
    align_tokens,
    bleu_n,
    evaluate_generation,
    iw_recall_precision,
    lcs_length,
    meteor_variant,
    pool_scores,
    rouge_l,
    score_pair,
    stem,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

# Word families that share a stem, so that pairs also match by stem only.
STEM_FAMILIES = (("cat", "cats"), ("run", "running"), ("dog",), ("the",))


def repeated_token_pair(rng):
    """Candidate and reference drawn from one to three word families:
    heavy repeats, stem-only matches, unequal lengths of at most 12
    tokens together (small enough for the enumeration oracle)."""
    picked = rng.choice(len(STEM_FAMILIES), size=int(rng.integers(1, 4)), replace=False)
    words = [w for f in picked for w in STEM_FAMILIES[f]]
    n_cand = int(rng.integers(1, 9))
    n_ref = int(rng.integers(1, 13 - n_cand))
    return ([str(w) for w in rng.choice(words, n_cand)],
            [str(w) for w in rng.choice(words, n_ref)])


def permutation_pair(words, repeats, seed=0):
    """Two seeded orders of one multiset: ``words`` letters, each
    ``repeats`` times."""
    rng = np.random.default_rng(seed)
    bag = [w for w in "abcdefghijklmnop"[:words] for _ in range(repeats)]
    return [str(t) for t in rng.permutation(bag)], [str(t) for t in rng.permutation(bag)]


def greedy_exact(cand, ref):
    """Exact matches in the aligner's greedy longest-run alignment."""
    here = [sum(1 << j for j, r in enumerate(ref) if stem(r) == stem(t)) for t in cand]
    exact_at = [sum(1 << j for j, r in enumerate(ref) if r == t) for t in cand]
    return metrics._greedy_runs(here, exact_at)[1]


def fewest_chunks_all_matched(cand, ref):
    """Fewest chunks over the alignments that match every candidate token
    to an equal reference token, by memoised recursion over (position,
    used references, previous reference)."""

    @functools.lru_cache(maxsize=None)
    def go(i, used, prev):
        if i == len(cand):
            return 0
        return min(go(i + 1, used | 1 << j, j) + (prev != j - 1)
                   for j, tok in enumerate(ref) if tok == cand[i] and not used >> j & 1)

    return go(0, 0, -2)


class TestBleu:
    def test_identity_is_one(self):
        corpus = [["the", "cat", "sat"], ["a", "dog", "ran", "home"]]
        assert bleu_n(corpus, corpus) == (1.0, 1.0, 1.0, 1.0)

    def test_clipping_hand_case(self):
        # "the the the" vs "the cat sat": unigram count 3, clipped to 1
        scores = bleu_n([["the", "the", "the"]], [["the", "cat", "sat"]])
        assert scores[0] == pytest.approx(1 / 3)
        assert scores[1] == 0.0

    def test_brevity_penalty_hand_case(self):
        # perfect unigrams, candidate half the reference length
        scores = bleu_n([["a", "b", "c"]], [["a", "b", "c", "d", "e", "f"]], n_max=1)
        assert scores[0] == pytest.approx(math.exp(-1.0))

    def test_no_penalty_when_candidate_longer(self):
        scores = bleu_n([["a", "b", "c", "d"]], [["a", "b"]], n_max=1)
        assert scores[0] == pytest.approx(0.5)  # 2/4 unigrams, BP = 1

    def test_zero_overlap_is_zero(self):
        assert bleu_n([["x", "y"]], [["p", "q"]]) == (0.0, 0.0, 0.0, 0.0)

    def test_empty_candidate(self):
        assert bleu_n([[]], [["a"]]) == (0.0, 0.0, 0.0, 0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bleu_n([["a"]], [["a"], ["b"]])

    def test_clipped_never_exceeds_total(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            cand, ref = random_token_pair(rng)
            for n in range(1, 5):
                clipped, total = oracle_clipped_counts(cand, ref, n)
                assert 0 <= clipped <= total

    def test_matches_oracle_on_random_corpora(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n_pairs = int(rng.integers(1, 5))
            pairs = [random_token_pair(rng) for _ in range(n_pairs)]
            cands = [c for c, _ in pairs]
            refs = [r for _, r in pairs]
            got = bleu_n(cands, refs)
            for k in range(1, 5):
                want = oracle_bleu(cands, refs, k)
                assert got[k - 1] == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_corpus_level_pooling(self):
        # pooled counts differ from averaging per-sentence scores: the
        # second pair alone has zero overlap yet the corpus BLEU-1 is
        # positive because counts pool before the ratio
        cands = [["a", "a", "a"], ["x"]]
        refs = [["a", "a", "a"], ["y"]]
        assert bleu_n(cands, refs, n_max=1)[0] == pytest.approx(3 / 4)


class TestRougeL:
    def test_identity_is_one(self):
        corpus = [["the", "cat"], ["a", "dog", "ran"]]
        assert rouge_l(corpus, corpus) == 1.0

    def test_swap_hand_case(self):
        assert rouge_l([["the", "cat"]], [["cat", "the"]]) == pytest.approx(0.5)

    def test_disjoint_is_zero(self):
        assert rouge_l([["a", "b"]], [["x", "y"]]) == 0.0

    def test_mean_over_corpus(self):
        cands = [["the", "cat"], ["the", "cat"]]
        refs = [["the", "cat"], ["cat", "the"]]
        assert rouge_l(cands, refs) == pytest.approx(0.75)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rouge_l([], [["a"]])

    def test_lcs_matches_exhaustive_search(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            cand, ref = random_token_pair(rng, max_len=10)
            assert lcs_length(cand, ref) == oracle_lcs(cand, ref)

    def test_lcs_known_values(self):
        assert lcs_length(list("abcde"), list("ace")) == 3
        assert lcs_length(list("abc"), list("cba")) == 1
        assert lcs_length([], list("abc")) == 0


class TestStemmer:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("cats", "cat"),
            ("cities", "city"),
            ("boxes", "box"),
            ("watches", "watch"),
            ("glass", "glass"),
            ("running", "run"),
            ("planned", "plan"),
            ("quickly", "quick"),
            ("make", "mak"),
            ("makes", "mak"),
            ("making", "mak"),
            ("ties", "tie"),
            ("tie", "tie"),
            ("is", "is"),
            ("a", "a"),
        ],
    )
    def test_rules(self, token, expected):
        assert stem(token) == expected

    def test_inflection_family_shares_stem(self):
        assert len({stem(t) for t in ["love", "loves", "loved", "loving"]}) == 1

    def test_never_below_two_characters(self):
        for token in ["as", "es", "ed", "we", "be", "so"]:
            assert len(stem(token)) >= 2


class TestMeteor:
    def test_identity_is_one(self):
        corpus = [["what", "is", "this", "?"]]
        assert meteor_variant(corpus, corpus) == 1.0

    def test_zero_matches_is_zero(self):
        assert meteor_variant([["x", "y"]], [["p", "q"]]) == 0.0

    def test_stem_layer_matches(self):
        # single stem match, one chunk: F_mean 1, penalty 0.5
        assert meteor_variant([["cats"]], [["cat"]]) == pytest.approx(0.5)

    def test_penalty_hand_case_swapped(self):
        # both tokens match exactly but in two chunks: penalty 0.5
        assert meteor_variant([["b", "a"]], [["a", "b"]]) == pytest.approx(0.5)

    def test_penalty_hand_case_partial(self):
        # 2 of 3 match in one chunk: P=R=2/3, F_mean=2/3, penalty=1/16
        got = meteor_variant([["a", "b", "x"]], [["a", "b", "y"]])
        assert got == pytest.approx((2 / 3) * (15 / 16))

    def test_exact_match_preferred_over_stem(self):
        res = align_tokens(["cat"], ["cats", "cat"])
        assert res.pairs == ((0, 1),)
        assert res.exact == 1

    def test_alignment_injective(self):
        res = align_tokens(["the", "the"], ["the"])
        assert res.total == 1

    def test_alignment_matches_enumeration(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            cand, ref = random_token_pair(rng)
            res = align_tokens(cand, ref)
            assert res.complete
            exact, total, chunks, pairs = oracle_align(cand, ref)
            assert (res.exact, res.total, res.chunks, res.pairs) == (
                exact, total, chunks, pairs,
            )

    def test_score_matches_oracle(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            cand, ref = random_token_pair(rng)
            got = meteor_variant([cand], [ref])
            want = oracle_meteor_pair(cand, ref)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            meteor_variant([["a"]], [])

    def test_repeated_tokens_match_enumeration(self):
        rng = np.random.default_rng(30)
        # beats_greedy: the optimum has more exact matches than the greedy
        # alignment, whose value is the search's first floor
        stem_only = unequal = beats_greedy = 0
        for _ in range(500):
            cand, ref = repeated_token_pair(rng)
            res = align_tokens(cand, ref)
            assert res.complete
            assert (res.exact, res.total, res.chunks, res.pairs) == oracle_align(cand, ref)
            stem_only += res.total > res.exact
            unequal += len(cand) != len(ref)
            beats_greedy += res.exact > greedy_exact(cand, ref)
        assert stem_only >= 50 and unequal >= 400 and beats_greedy >= 50

    @pytest.mark.parametrize("words,repeats,truncated", [(5, 4, 16), (4, 5, 16), (10, 3, 27)])
    def test_seeded_permutations_complete(self, words, repeats, truncated):
        # ``truncated``: the chunks of the alignment that a depth-first
        # search bounded only on match counts returned when its budget ran
        # out on these pairs
        cand, ref = permutation_pair(words, repeats)
        res = align_tokens(cand, ref)
        assert res.complete and (res.exact, res.total) == (len(cand), len(cand))
        assert res.chunks <= truncated
        if words * repeats <= 20:
            assert res.chunks == fewest_chunks_all_matched(cand, ref)

    def test_long_workload_pairs_stay_far_under_budget(self, monkeypatch, tmp_path):
        # the benchmark's nine seed-0 repeated-token pairs each finish
        # within 5% of the budget of expanded states
        spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        inputs = workloads.make_inputs("long", tmp_path, 0)
        lines = inputs.files["pairs"].read_text().splitlines()
        assert len(lines) == len(workloads.PAIR_SHAPES) == 9
        monkeypatch.setattr(metrics, "_NODE_BUDGET", metrics._NODE_BUDGET // 20)
        for line in lines:
            pair = json.loads(line)
            assert align_tokens(pair["generated"], pair["gold"]).complete

    @pytest.mark.parametrize("budget", [0, 1])
    def test_budget_spent_before_first_alignment(self, monkeypatch, budget):
        # the budget counts expanded states, and this search expands more
        # than one; cut short, it returns its greedy longest-run
        # incumbent, which is optimal here, and flags it incomplete
        monkeypatch.setattr(metrics, "_NODE_BUDGET", budget)
        cand, ref = ["b", "a", "cats"], ["a", "cat", "b"]
        res = align_tokens(cand, ref)
        assert not res.complete
        assert res.pairs == ((0, 2), (1, 0), (2, 1))
        assert (res.exact, res.total, res.chunks) == (2, 3, 2)
        assert meteor_variant([cand], [ref]) == pytest.approx(oracle_meteor_pair(cand, ref))


class TestIWScores:
    GOLD = [
        ["what", "is", "it", "?"],
        ["which", "one", "?"],
        ["where", "is", "it", "?"],
        ["when", "was", "it", "?"],
        ["who", "did", "it", "?"],
        ["why", "though", "?"],
        ["how", "big", "?"],
        ["name", "the", "city", "."],
    ]

    def test_perfect_match(self):
        scores = iw_recall_precision(self.GOLD, self.GOLD)
        assert scores.total_recall == 1.0
        for c in IWClass:
            assert scores.per_class[c].recall == 1.0
            assert scores.per_class[c].precision == 1.0
            assert scores.per_class[c].support == 1

    def test_all_what_against_uniform_gold(self):
        generated = [["what", "is", "it", "?"]] * 8
        scores = iw_recall_precision(generated, self.GOLD)
        assert scores.total_recall == pytest.approx(1 / 8)
        assert scores.per_class[IWClass.What].recall == 1.0
        assert scores.per_class[IWClass.What].precision == pytest.approx(1 / 8)
        for c in IWClass:
            if c != IWClass.What:
                assert scores.per_class[c].recall == 0.0

    def test_support_sums_to_corpus_size(self):
        rng = np.random.default_rng(26)
        starters = ["what", "who", "why", "name", "how", "where"]
        gold = [[starters[i], "x", "?"] for i in rng.integers(0, 6, size=40)]
        gen = [[starters[i], "y", "?"] for i in rng.integers(0, 6, size=40)]
        scores = iw_recall_precision(gen, gold)
        assert sum(s.support for s in scores.per_class.values()) == 40

    def test_total_is_support_weighted_recall(self):
        rng = np.random.default_rng(27)
        starters = ["what", "who", "why", "name", "how", "where"]
        gold = [[starters[i], "x", "?"] for i in rng.integers(0, 6, size=60)]
        gen = [[starters[i], "y", "?"] for i in rng.integers(0, 6, size=60)]
        scores = iw_recall_precision(gen, gold)
        weighted = sum(
            s.recall * s.support for s in scores.per_class.values()
        ) / 60
        assert scores.total_recall == pytest.approx(weighted)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            iw_recall_precision([["what"]], [])


class TestEvalReport:
    def _random_corpus(self, rng, n):
        pairs = [random_token_pair(rng) for _ in range(n)]
        return [c for c, _ in pairs], [r for _, r in pairs]

    def _mixed_corpus(self, rng, n):
        """Random pairs, plus empty candidates, identical pairs and
        question words on either side, in a seeded order with one pair
        repeated."""
        cands, refs = self._random_corpus(rng, n)
        cands += [[], [], ["what", "is", "it", "?"], ["who", "ran", "?"], ["where", "cats", "run"]]
        refs += [["a"], [], ["what", "is", "it", "?"], ["what", "ran", "?"], ["where", "cat", "runs"]]
        order = [int(k) for k in rng.permutation(len(cands))]
        order += [order[0]] * 3
        return [cands[k] for k in order], [refs[k] for k in order]

    def test_bundle_matches_individual_metrics(self, monkeypatch):
        rng = np.random.default_rng(28)
        # at a budget of 1 expanded state most searches are cut short
        for budget in (metrics._NODE_BUDGET, 1):
            monkeypatch.setattr(metrics, "_NODE_BUDGET", budget)
            for n in (0, 1, 10):
                cands, refs = self._mixed_corpus(rng, n)
                report = evaluate_generation(cands, refs)
                assert report.bleu == bleu_n(cands, refs)
                assert report.rouge_l == rouge_l(cands, refs)
                assert report.meteor_variant == meteor_variant(cands, refs)
                assert report.iw_scores == iw_recall_precision(cands, refs)
                assert report.incomplete_pairs == sum(
                    1 for c, r in zip(cands, refs)
                    if c and r and c != r and not align_tokens(c, r).complete)
                assert report.n_examples == len(cands) == n + 8
        assert report.incomplete_pairs > 0

    def test_empty_corpus(self):
        report = evaluate_generation([], [])
        assert report == pool_scores([])
        assert (report.bleu, report.rouge_l, report.meteor_variant) == ((0.0,) * 4, 0.0, 0.0)
        assert (report.iw_scores.total_recall, report.n_examples, report.incomplete_pairs) == (
            0.0, 0, 0)

    def test_pooling_a_shared_record_equals_scoring_each_repeat(self):
        # a sweep cell pools one record for every cell-pair that repeats it
        rng = np.random.default_rng(30)
        cands, refs = self._mixed_corpus(rng, 6)
        records = [score_pair(c, r) for c, r in zip(cands, refs)]
        for k in (1, 2, 5):
            for (c, r), record in zip(zip(cands, refs), records):
                assert pool_scores([record] * k) == evaluate_generation([c] * k, [r] * k)
        drawn = [int(k) for k in rng.integers(0, len(records), size=40)]
        assert pool_scores([records[k] for k in drawn]) == evaluate_generation(
            [cands[k] for k in drawn], [refs[k] for k in drawn])

    def test_all_values_in_unit_interval(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            cands, refs = self._random_corpus(rng, 5)
            report = evaluate_generation(cands, refs)
            values = list(report.bleu) + [
                report.rouge_l,
                report.meteor_variant,
                report.iw_scores.total_recall,
            ]
            for s in report.iw_scores.per_class.values():
                values += [s.recall, s.precision]
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_json_records_conventions(self):
        report = evaluate_generation([["what", "?"]], [["what", "?"]])
        d = report.to_json_dict()
        assert d["rouge_l_beta"] == ROUGE_L_BETA == 1.0
        assert d["meteor_label"] == METEOR_LABEL == "METEOR-ex"
        assert d["bleu_1"] == 1.0
        assert set(d["iw_table"].keys()) == {c.name for c in IWClass}

    def test_metric_columns_flat(self):
        report = evaluate_generation([["a"]], [["a"]])
        cols = report.metric_columns()
        assert [name for name, _ in cols] == [
            "bleu_1", "bleu_2", "bleu_3", "bleu_4",
            "rouge_l", "meteor_variant", "total_iw_recall",
        ]
