"""Tests for the interrogative-word classifier and the noise oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qgkit import autodiff as ad
from qgkit.classifier import (
    ClassifierConfig,
    _class_distribution,
    _mean_loss,
    classify,
    encode_summary,
    eval_classifier,
    init_classifier,
    oracle_classifier,
    train_classifier,
)
from qgkit.data import IWClass, Vocabulary, build_classifier_input
from qgkit.persist import ModelParams
from qgkit.synthetic import bundled_corpus, make_separable_corpus


@pytest.fixture(scope="module")
def corpus():
    return make_separable_corpus(12, seed=1)


@pytest.fixture(scope="module")
def heldout():
    return make_separable_corpus(6, seed=9)


@pytest.fixture(scope="module")
def vocab(corpus):
    return Vocabulary.build(corpus)


def small_config(**kw):
    base = dict(word_dim=12, encoder_hidden=16, epochs=3, lr=5e-3, seed=0)
    base.update(kw)
    return ClassifierConfig(**base)


@pytest.fixture(scope="module")
def trained(corpus, vocab):
    cfg = small_config(use_answer_tagging=True, use_entity_type=True)
    params, log = train_classifier(corpus, cfg, vocab)
    return params, log


class TestConfig:
    def test_entity_dim_positive(self):
        with pytest.raises(ValueError):
            ClassifierConfig(entity_embed_dim=0).validate()

    @pytest.mark.parametrize("field,bad", [
        ("lr", 0.0), ("weight_decay", -0.1),
        ("lr", float("nan")), ("lr", float("inf")), ("weight_decay", float("inf")),
    ])
    def test_rejects_bad_values(self, field, bad):
        with pytest.raises(ValueError):
            ClassifierConfig(**{field: bad}).validate()

    @pytest.mark.parametrize(
        "flags,label",
        [
            (dict(), "CLS"),
            (dict(use_entity_type=True), "CLS + NER"),
            (dict(use_answer_embedding=True), "CLS + AE"),
            (dict(use_answer_tagging=True), "CLS + AT"),
            (dict(use_answer_tagging=True, use_entity_type=True), "CLS + AT + NER"),
        ],
    )
    def test_ablation_labels(self, flags, label):
        assert ClassifierConfig(**flags).ablation_label() == label

    def test_dict_roundtrip(self):
        cfg = small_config(use_answer_embedding=True)
        assert ClassifierConfig.from_dict(cfg.to_dict()) == cfg


class TestEncodeSummary:
    def _setup(self, vocab, corpus, **flags):
        cfg = small_config(**flags)
        params = init_classifier(cfg, len(vocab), np.random.default_rng(3))
        built = build_classifier_input(corpus[0], cfg.use_answer_tagging)
        return cfg, params, built

    def test_width_without_answer_embedding(self, vocab, corpus):
        cfg, params, built = self._setup(vocab, corpus)
        out = encode_summary([built.tokens], [built.answer_positions], cfg,
                             params.tensors, vocab)
        assert out.shape == (1, 2 * cfg.encoder_hidden)

    def test_width_with_answer_embedding(self, vocab, corpus):
        cfg, params, built = self._setup(vocab, corpus, use_answer_embedding=True)
        out = encode_summary([built.tokens], [built.answer_positions], cfg,
                             params.tensors, vocab)
        assert out.shape == (1, 4 * cfg.encoder_hidden)

    def test_order_sensitive(self, vocab, corpus):
        cfg, params, built = self._setup(vocab, corpus)
        base = encode_summary([built.tokens], [built.answer_positions], cfg,
                              params.tensors, vocab)
        swapped = list(built.tokens)
        swapped[1], swapped[2] = swapped[2], swapped[1]  # non-answer context
        other = encode_summary([swapped], [built.answer_positions], cfg,
                               params.tensors, vocab)
        assert not np.allclose(base.data, other.data)

    def test_answer_tagging_changes_summary(self, vocab, corpus):
        cfg = small_config()
        params = init_classifier(cfg, len(vocab), np.random.default_rng(3))
        plain = build_classifier_input(corpus[0], answer_tagging=False)
        tagged = build_classifier_input(corpus[0], answer_tagging=True)
        a = encode_summary([plain.tokens], [plain.answer_positions], cfg,
                           params.tensors, vocab)
        b = encode_summary([tagged.tokens], [tagged.answer_positions], cfg,
                           params.tensors, vocab)
        assert not np.allclose(a.data, b.data)

    def test_empty_input_rejected(self, vocab):
        cfg = small_config()
        params = init_classifier(cfg, len(vocab), np.random.default_rng(3))
        with pytest.raises(ValueError):
            encode_summary([], [], cfg, params.tensors, vocab)


class TestClassify:
    def test_probability_vector(self, vocab, corpus):
        cfg = small_config(use_answer_tagging=True, use_entity_type=True)
        params = init_classifier(cfg, len(vocab), np.random.default_rng(4))
        for ex in corpus[:10]:
            probs = classify([ex], cfg, params.tensors, vocab)[0]
            assert probs.shape == (8,)
            assert np.all(probs >= 0)
            assert abs(probs.sum() - 1.0) < 1e-9

    def test_untrained_near_uniform(self, vocab, corpus):
        cfg = small_config()
        params = init_classifier(cfg, len(vocab), np.random.default_rng(5))
        probs = classify([corpus[0]], cfg, params.tensors, vocab)[0]
        assert np.all(probs > 0.02)
        assert np.all(probs < 0.4)

    def test_zeroed_head_exactly_uniform(self, vocab, corpus):
        cfg = small_config()
        params = init_classifier(cfg, len(vocab), np.random.default_rng(6))
        params.tensors["ff.W"].data[:] = 0.0
        params.tensors["ff.b"].data[:] = 0.0
        probs = classify([corpus[0]], cfg, params.tensors, vocab)[0]
        np.testing.assert_allclose(probs, np.full(8, 1 / 8))

    def test_entity_row_permutation_permutes_output(self, vocab, corpus):
        # swapping two entity embedding rows must swap the corresponding
        # inputs' distributions, showing the feature is actually wired in
        cfg = small_config(use_entity_type=True)
        params = init_classifier(cfg, len(vocab), np.random.default_rng(7))
        ex = corpus[0]
        from qgkit.data import EntityType
        ex_a = replace(ex, entity_type=EntityType.Person)
        ex_b = replace(ex, entity_type=EntityType.Org)
        before_a = classify([ex_a], cfg, params.tensors, vocab)[0]
        table = params.tensors["entity_embed"].data
        i, j = int(EntityType.Person), int(EntityType.Org)
        table[[i, j]] = table[[j, i]]
        after_b = classify([ex_b], cfg, params.tensors, vocab)[0]
        np.testing.assert_allclose(before_a, after_b)

    @pytest.mark.parametrize("flags", [{}, dict(use_answer_tagging=True, use_answer_embedding=True,
                                               use_entity_type=True)],
                             ids=["plain", "AT+AE+NER"])
    def test_batch_matches_one_at_a_time_on_mini200(self, flags):
        # more examples than one packed pass holds, of mixed lengths
        mini = bundled_corpus("mini200")
        mini_vocab = Vocabulary.build(mini)
        cfg = ClassifierConfig(**flags)
        params = init_classifier(cfg, len(mini_vocab), np.random.default_rng(11))
        batched = classify(mini, cfg, params.tensors, mini_vocab)
        alone = np.vstack([classify([ex], cfg, params.tensors, mini_vocab) for ex in mini])
        assert batched.shape == (len(mini), len(IWClass))
        np.testing.assert_allclose(batched, alone, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(batched.argmax(axis=1), alone.argmax(axis=1))

    def test_empty_batch(self, vocab):
        cfg = small_config()
        params = init_classifier(cfg, len(vocab), np.random.default_rng(4))
        assert classify([], cfg, params.tensors, vocab).shape == (0, len(IWClass))


class TestTraining:
    def test_initial_loss_near_ln8(self, trained):
        _, log = trained
        assert log[0]["epoch"] == 0
        assert abs(log[0]["train_loss"] - math.log(8)) < 0.1

    def test_loss_decreases_across_epochs(self, trained):
        _, log = trained
        losses = [row["train_loss"] for row in log]
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_separable_accuracy(self, trained, heldout, vocab):
        params, _ = trained
        assert eval_classifier(heldout, params, vocab).accuracy >= 0.95

    def test_same_seed_identical_params(self, vocab):
        corpus = make_separable_corpus(4, seed=2)
        cfg = small_config(encoder_hidden=8, epochs=2)
        a, _ = train_classifier(corpus, cfg, vocab)
        b, _ = train_classifier(corpus, cfg, vocab)
        for name, t in a.tensors.items():
            np.testing.assert_array_equal(t.data, b.tensors[name].data)

    def test_different_seed_differs(self, vocab):
        corpus = make_separable_corpus(4, seed=2)
        a, _ = train_classifier(corpus, small_config(encoder_hidden=8, epochs=1), vocab)
        b, _ = train_classifier(
            corpus, small_config(encoder_hidden=8, epochs=1, seed=5), vocab
        )
        assert any(
            not np.array_equal(t.data, b.tensors[k].data)
            for k, t in a.tensors.items()
        )

    def test_answer_tagging_beats_plain_encoder(self, corpus, heldout, vocab):
        # class identity lives in the answer span; the plain encoder sees
        # two candidate markers and cannot tell which is the answer
        plain, _ = train_classifier(corpus, small_config(), vocab)
        tagged, _ = train_classifier(
            corpus, small_config(use_answer_tagging=True), vocab
        )
        acc_plain = eval_classifier(heldout, plain, vocab).accuracy
        acc_tagged = eval_classifier(heldout, tagged, vocab).accuracy
        assert acc_tagged >= acc_plain

    def test_empty_dataset_rejected(self, vocab):
        with pytest.raises(ValueError):
            train_classifier([], small_config(), vocab)

    @pytest.mark.parametrize("flags", [{}, dict(use_answer_tagging=True, use_answer_embedding=True,
                                               use_entity_type=True)],
                             ids=["plain", "AT+AE+NER"])
    def test_mean_loss_matches_per_example_mean_on_mini200(self, flags):
        mini = bundled_corpus("mini200")
        mini_vocab = Vocabulary.build(mini)
        cfg = ClassifierConfig(**flags)
        params = init_classifier(cfg, len(mini_vocab), np.random.default_rng(11)).tensors
        alone = [ad.cross_entropy(_class_distribution([ex], cfg, params, mini_vocab),
                                  int(ex.iw_class)).item() for ex in mini]
        assert _mean_loss(mini, cfg, params, mini_vocab) == pytest.approx(
            math.fsum(alone) / len(alone), rel=1e-12, abs=0)

    def test_epoch0_loss_is_mean_loss_of_train_split(self, corpus, vocab):
        cfg = small_config(epochs=1)
        _, log = train_classifier(corpus, cfg, vocab)
        # the trainer's seeded draws: initial parameters, then the split,
        # whose first tenth is the dev set
        init_rng, split_rng, _ = (np.random.default_rng(s)
                                  for s in np.random.SeedSequence(cfg.seed).spawn(3))
        params = init_classifier(cfg, len(vocab), init_rng)
        order = split_rng.permutation(len(corpus))
        train = [corpus[i] for i in order[len(corpus) // 10 :]]
        assert log[0]["train_loss"] == _mean_loss(train, cfg, params.tensors, vocab)


class TestEvalClassifier:
    def _constant_predictor(self, vocab, target: IWClass):
        cfg = small_config()
        params = init_classifier(cfg, len(vocab), np.random.default_rng(8))
        params.tensors["ff.W"].data[:] = 0.0
        params.tensors["ff.b"].data[:] = 0.0
        params.tensors["ff.b"].data[0, int(target)] = 50.0
        return ModelParams(config=cfg, tensors=params.tensors)

    def test_constant_predictor_on_balanced_data(self, vocab):
        balanced = make_separable_corpus(4, seed=3)
        params = self._constant_predictor(vocab, IWClass.What)
        result = eval_classifier(balanced, params, vocab)
        assert result.accuracy == pytest.approx(1 / 8)
        assert result.per_class[IWClass.What].recall == 1.0
        assert result.per_class[IWClass.What].precision == pytest.approx(1 / 8)
        assert result.per_class[IWClass.Who].recall == 0.0

    def test_perfect_predictor(self, trained, vocab, corpus):
        params, _ = trained
        result = eval_classifier(corpus, params, vocab)
        if result.accuracy == 1.0:  # trained to convergence on train set
            for score in result.per_class.values():
                assert score.recall == 1.0
                assert score.precision == 1.0

    def test_zero_support_classes_absent(self, vocab, corpus):
        params = self._constant_predictor(vocab, IWClass.What)
        only_who = [ex for ex in corpus if ex.iw_class == IWClass.Who]
        result = eval_classifier(only_who, params, vocab)
        assert set(result.per_class) == {IWClass.Who}

    def test_empty_dataset(self, trained, vocab):
        params, _ = trained
        result = eval_classifier([], params, vocab)
        assert result.accuracy == 0.0
        assert result.per_class == {}

    def test_support_sums_to_size(self, trained, heldout, vocab):
        params, _ = trained
        result = eval_classifier(heldout, params, vocab)
        assert sum(s.support for s in result.per_class.values()) == len(heldout)


class TestOracle:
    def test_accuracy_one_always_gold(self):
        rng = np.random.default_rng(0)
        assert all(
            oracle_classifier(IWClass.Why, 1.0, rng) == IWClass.Why
            for _ in range(200)
        )

    def test_accuracy_zero_never_gold(self):
        rng = np.random.default_rng(1)
        assert all(
            oracle_classifier(IWClass.Why, 0.0, rng) != IWClass.Why
            for _ in range(200)
        )

    def test_out_of_range_rejected(self):
        rng = np.random.default_rng(2)
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                oracle_classifier(IWClass.What, bad, rng)

    def test_calibration_quick(self):
        rng = np.random.default_rng(4)
        n = 20_000
        a = 0.7
        hits = sum(
            oracle_classifier(IWClass.How, a, rng) == IWClass.How for _ in range(n)
        )
        sigma = math.sqrt(n * a * (1 - a))
        assert abs(hits - n * a) <= 4 * sigma

    def test_errors_spread_over_other_classes(self):
        rng = np.random.default_rng(5)
        counts = {c: 0 for c in IWClass}
        n = 14_000
        for _ in range(n):
            counts[oracle_classifier(IWClass.What, 0.0, rng)] += 1
        assert counts[IWClass.What] == 0
        expected = n / 7
        for c in IWClass:
            if c != IWClass.What:
                assert abs(counts[c] - expected) < 5 * math.sqrt(expected)

    def test_paired_draw_consumption(self):
        # identical streams stay aligned across different accuracy levels
        r1 = np.random.default_rng(6)
        r2 = np.random.default_rng(6)
        for _ in range(50):
            oracle_classifier(IWClass.Who, 0.2, r1)
            oracle_classifier(IWClass.Who, 0.95, r2)
        assert r1.random() == r2.random()
