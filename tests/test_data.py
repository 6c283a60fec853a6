"""Tests for tokenization, labeling, entity rules, downsampling,
vocabulary, input builders, and corpus IO."""

import json
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from qgkit import data
from qgkit.data import (
    ANS_ID,
    CLS_ID,
    EOS_ID,
    CorpusError,
    EntityType,
    Example,
    IWClass,
    MetaTag,
    PAD_ID,
    RESERVED_TOKENS,
    SEP_ID,
    SOS_ID,
    UNK_ID,
    Vocabulary,
    answer_token_span,
    assign_entity_type,
    build_classifier_input,
    build_qg_input,
    class_counts,
    corpus_text,
    downsample,
    label_interrogative_class,
    load_corpus,
    tokenize,
    tokenize_with_offsets,
)


ASSETS = Path(__file__).resolve().parents[1] / "src" / "qgkit" / "assets"


def make_example(passage, question, answer, **kwargs):
    return Example.from_record(
        {
            "id": kwargs.pop("id", "x1"),
            "passage": passage,
            "question": question,
            "answer_text": answer,
            "answer_start": kwargs.pop("answer_start", passage.index(answer)),
            **kwargs,
        }
    )


class TestTokenize:
    def test_words_and_punctuation(self):
        assert tokenize("The cat sat.") == ["the", "cat", "sat", "."]

    def test_clitic_split(self):
        assert tokenize("Newcastle's bridge") == ["newcastle", "'s", "bridge"]

    def test_hyphen_and_commas(self):
        assert tokenize("well-known, right?") == [
            "well", "-", "known", ",", "right", "?",
        ]

    def test_offsets_index_original_text(self):
        text = "Marie Curie, 1903."
        for tok, s, e in tokenize_with_offsets(text):
            assert text[s:e].lower() == tok

    def test_deterministic(self):
        text = "One two, three's four!"
        assert tokenize(text) == tokenize(text)

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   ") == []


class TestLabel:
    @pytest.mark.parametrize(
        "question,expected",
        [
            ("What is this ?", IWClass.What),
            ("Which team won ?", IWClass.Which),
            ("Where is the station ?", IWClass.Where),
            ("When did it open ?", IWClass.When),
            ("Who wrote it ?", IWClass.Who),
            ("Why did it fail ?", IWClass.Why),
            ("How long is it ?", IWClass.How),
            ("Name the capital city .", IWClass.Others),
        ],
    )
    def test_each_class(self, question, expected):
        assert label_interrogative_class(tokenize(question)) == expected

    def test_whom_and_whose_count_as_who(self):
        assert label_interrogative_class(tokenize("Whom did they call?")) == IWClass.Who
        assert label_interrogative_class(tokenize("Whose coat is this?")) == IWClass.Who

    def test_first_interrogative_wins(self):
        toks = tokenize("How many people know what time it is?")
        assert label_interrogative_class(toks) == IWClass.How

    def test_mid_sentence_interrogative(self):
        toks = tokenize("In what year did it end?")
        assert label_interrogative_class(toks) == IWClass.What

    def test_total_over_arbitrary_input(self):
        rng = np.random.default_rng(0)
        words = ["the", "a", "ran", "blue", "what", "who", "tree", "name"]
        for _ in range(200):
            toks = [words[i] for i in rng.integers(0, len(words), size=5)]
            assert label_interrogative_class(toks) in list(IWClass)

    def test_codes_are_stable(self):
        assert [c.value for c in IWClass] == list(range(8))
        assert IWClass.What == 0 and IWClass.Others == 7


class TestEntityRules:
    @pytest.mark.parametrize(
        "answer,expected",
        [
            ("1932", EntityType.DateTime),
            ("march 1903", EntityType.DateTime),
            ("the 19th century", EntityType.DateTime),
            ("forty minutes", EntityType.Numeric),
            ("42", EntityType.Numeric),
            ("3.5%", EntityType.Numeric),
            ("marie curie", EntityType.Person),
            ("lisbon", EntityType.LocationGpe),
            ("unesco", EntityType.Org),
            ("a telescope", EntityType.Misc),
        ],
    )
    def test_rules(self, answer, expected):
        assert assign_entity_type(tokenize(answer)) == expected

    def test_year_beats_numeric(self):
        # a bare year is a date, not a quantity
        assert assign_entity_type(["1903"]) == EntityType.DateTime

    def test_from_name_roundtrip(self):
        for e in EntityType:
            assert EntityType.from_name(e.name.lower()) is e
        with pytest.raises(ValueError):
            EntityType.from_name("planet")


class TestAnswerSpan:
    def test_simple(self):
        p = "The old bridge opened in 1932 ."
        lo, hi = answer_token_span(p, "1932", p.index("1932"))
        assert tokenize(p)[lo:hi] == ["1932"]

    def test_multi_token(self):
        p = "It was painted by Marie Curie in Paris."
        lo, hi = answer_token_span(p, "Marie Curie", p.index("Marie"))
        assert tokenize(p)[lo:hi] == ["marie", "curie"]

    def test_clitic_subword(self):
        p = "Newcastle's bridge is old."
        lo, hi = answer_token_span(p, "Newcastle", 0)
        assert tokenize(p)[lo:hi] == ["newcastle"]

    def test_misaligned_offset_rejected(self):
        p = "The telescope was heavy."
        with pytest.raises(ValueError):
            answer_token_span(p, "tele", p.index("tele"))

    def test_offset_outside_passage_rejected(self):
        with pytest.raises(ValueError):
            answer_token_span("short", "short", 99)

    def test_wrong_text_at_offset_rejected(self):
        p = "The map was ancient."
        with pytest.raises(ValueError):
            answer_token_span(p, "modern", 4)


class TestDownsample:
    def _corpus(self, sizes):
        template = {
            IWClass.What: "What is item {i} ?",
            IWClass.Who: "Who made item {i} ?",
            IWClass.Why: "Why is item {i} here ?",
        }
        examples = []
        for cls, n in sizes.items():
            for i in range(n):
                p = f"Item {i} sits on shelf {i} today."
                examples.append(
                    make_example(p, template[cls].format(i=i), f"shelf {i}",
                                 id=f"{cls.name}-{i}")
                )
        return examples

    def test_counts_are_min_of_count_and_cap(self):
        examples = self._corpus({IWClass.What: 30, IWClass.Who: 7, IWClass.Why: 12})
        out = downsample(examples, cap=10, rng=np.random.default_rng(1))
        counts = class_counts(out)
        assert counts[IWClass.What] == 10
        assert counts[IWClass.Who] == 7
        assert counts[IWClass.Why] == 10

    def test_under_cap_classes_untouched(self):
        examples = self._corpus({IWClass.Who: 5})
        out = downsample(examples, cap=10, rng=np.random.default_rng(2))
        assert [e.id for e in out] == [e.id for e in examples]

    def test_order_preserved(self):
        examples = self._corpus({IWClass.What: 40, IWClass.Why: 40})
        out = downsample(examples, cap=15, rng=np.random.default_rng(3))
        pos = {e.id: i for i, e in enumerate(examples)}
        assert [pos[e.id] for e in out] == sorted(pos[e.id] for e in out)

    def test_same_seed_same_subset(self):
        examples = self._corpus({IWClass.What: 50})
        a = downsample(examples, cap=20, rng=np.random.default_rng(7))
        b = downsample(examples, cap=20, rng=np.random.default_rng(7))
        assert [e.id for e in a] == [e.id for e in b]

    def test_cap_zero_empties_every_class(self):
        examples = self._corpus({IWClass.What: 3})
        assert downsample(examples, cap=0, rng=np.random.default_rng(0)) == []


class TestVocabulary:
    def test_reserved_block_is_stable(self):
        v = Vocabulary()
        assert len(v) == 14
        assert (PAD_ID, UNK_ID, SOS_ID, EOS_ID, ANS_ID, CLS_ID, SEP_ID) == tuple(range(7))
        assert v.token(0) == "[PAD]"
        assert v.id("what") == 7
        assert v.id("how") == 13

    def test_build_orders_by_count_then_token(self):
        exs = [
            make_example("the zebra saw the apple near the zebra pen .",
                         "What did the zebra see ?", "the apple"),
        ]
        v = Vocabulary.build(exs)
        toks = v.corpus_tokens
        assert toks[0] == "the"  # 4 occurrences
        assert toks[1] == "zebra"  # 3 occurrences
        # remaining tokens all tie on count, so they come out alphabetical
        ones = [t for t in toks if t not in ("the", "zebra")]
        assert ones == sorted(ones)
        assert toks.index("apple") < toks.index("pen")

    def test_unknown_maps_to_unk(self):
        v = Vocabulary(["cat"])
        assert v.id("cat") == 14
        assert v.id("dog") == UNK_ID

    def test_duplicates_and_reserved_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["cat", "cat"])
        with pytest.raises(ValueError):
            Vocabulary(["what"])
        with pytest.raises(ValueError):
            Vocabulary([" padded "])

    def test_encode_extended_assigns_fresh_ids(self):
        v = Vocabulary(["cat"])
        ids, oov = v.encode_extended(["cat", "dog", "emu", "dog"])
        assert ids == [14, 15, 16, 15]
        assert oov == ["dog", "emu"]

    def test_extended_id_lookup(self):
        v = Vocabulary(["cat"])
        assert v.extended_id("cat", []) == 14
        assert v.extended_id("dog", ["dog"]) == 15
        assert v.extended_id("dog", []) == UNK_ID

    def test_decode_extended_roundtrip(self):
        v = Vocabulary(["cat"])
        ids, oov = v.encode_extended(["cat", "dog", "what"])
        assert v.decode_extended(ids, oov) == ["cat", "dog", "what"]
        with pytest.raises(ValueError):
            v.decode_extended([99], oov)

    def test_save_load_roundtrip(self, tmp_path):
        v = Vocabulary(["cat", "dog", "emu"])
        path = tmp_path / "vocab.txt"
        path.write_text(v.text(), encoding="utf-8")
        w = Vocabulary.load(path)
        assert w.corpus_tokens == v.corpus_tokens
        assert all(w.id(t) == v.id(t) for t in ["cat", "dog", "emu", "what", "[PAD]"])
        assert w.content_hash() == v.content_hash()

    def test_content_hash_tracks_content(self):
        assert Vocabulary(["a"]).content_hash() != Vocabulary(["b"]).content_hash()


class TestClassifierInput:
    def setup_method(self):
        self.ex = make_example(
            "The old bridge opened in 1932 .", "When did the bridge open ?", "1932"
        )

    def test_without_answer_tagging(self):
        out = build_classifier_input(self.ex, answer_tagging=False)
        assert out.tokens[0] == "[CLS]"
        assert out.tokens[-1] == "[SEP]"
        assert "[ANS]" not in out.tokens
        assert [out.tokens[i] for i in out.answer_positions] == ["1932"]

    def test_with_answer_tagging(self):
        out = build_classifier_input(self.ex, answer_tagging=True)
        assert out.tokens.count("[ANS]") == 2
        a, b = (i for i, t in enumerate(out.tokens) if t == "[ANS]")
        assert out.tokens[a + 1 : b] == ["1932"]
        assert [out.tokens[i] for i in out.answer_positions] == ["1932"]

    def test_multi_token_answer_tagging(self):
        ex = make_example("A team led by Marie Curie won.", "Who led the team ?",
                          "Marie Curie")
        out = build_classifier_input(ex, answer_tagging=True)
        a, b = (i for i, t in enumerate(out.tokens) if t == "[ANS]")
        assert out.tokens[a + 1 : b] == ["marie", "curie"]
        assert [out.tokens[i] for i in out.answer_positions] == ["marie", "curie"]


class TestQGInput:
    def setup_method(self):
        self.vocab = Vocabulary(["the", "old", "bridge", "opened", "in", "."])
        self.ex = make_example(
            "The old bridge opened in 1932 .", "When did the bridge open ?", "1932"
        )

    def test_interrogative_inserted_before_answer_span(self):
        seq = build_qg_input(self.ex, IWClass.When, self.vocab)
        # passage: the old bridge opened in 1932 .  (answer at index 5)
        assert seq.surfaces[5] == "when"
        assert seq.meta[5] == MetaTag.Interrogative
        assert seq.surfaces[6] == "1932"
        assert seq.meta[6] == MetaTag.Answer

    def test_dropping_insertion_recovers_passage(self):
        seq = build_qg_input(self.ex, IWClass.When, self.vocab)
        kept = [s for s, m in zip(seq.surfaces, seq.meta) if m != MetaTag.Interrogative]
        assert kept == tokenize(self.ex.passage)

    def test_insertion_at_passage_start(self):
        ex = make_example("The fox ran home .", "Who ran home ?", "The fox")
        seq = build_qg_input(ex, IWClass.Who, self.vocab)
        assert seq.surfaces[0] == "who"
        assert seq.meta[0] == MetaTag.Interrogative
        assert seq.meta[1] == MetaTag.Answer

    def test_answer_span_tagged(self):
        seq = build_qg_input(self.ex, IWClass.When, self.vocab)
        tags = {s: m for s, m in zip(seq.surfaces, seq.meta)}
        assert tags["1932"] == MetaTag.Answer
        assert tags["bridge"] == MetaTag.Context

    def test_others_inserts_nothing(self):
        seq = build_qg_input(self.ex, IWClass.Others, self.vocab)
        assert seq.surfaces == tokenize(self.ex.passage)
        assert MetaTag.Interrogative not in seq.meta

    def test_insertion_disabled(self):
        seq = build_qg_input(self.ex, IWClass.When, self.vocab, insert_iw=False)
        assert seq.surfaces == tokenize(self.ex.passage)

    def test_oov_gets_extended_id_and_unk_base(self):
        seq = build_qg_input(self.ex, IWClass.When, self.vocab)
        i = seq.surfaces.index("1932")
        assert seq.oov_words == ["1932"]
        assert seq.ids[i] == len(self.vocab)
        assert self.vocab.id("1932") == UNK_ID

    def test_in_vocab_ids_match(self):
        seq = build_qg_input(self.ex, IWClass.When, self.vocab)
        i = seq.surfaces.index("bridge")
        assert seq.ids[i] == self.vocab.id("bridge") != UNK_ID

    def test_roundtrip_through_decode(self):
        seq = build_qg_input(self.ex, IWClass.When, self.vocab)
        assert self.vocab.decode_extended(seq.ids, seq.oov_words) == seq.surfaces

    def test_parallel_lengths(self):
        seq = build_qg_input(self.ex, IWClass.When, self.vocab)
        assert len(seq.surfaces) == len(seq.ids) == len(seq.meta)


class TestCorpusIO:
    def _write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_load_parses_fields(self, tmp_path):
        rec = {
            "id": "r1",
            "passage": "The old bridge opened in 1932 .",
            "question": "When did the bridge open ?",
            "answer_text": "1932",
            "answer_start": 25,
        }
        path = self._write(tmp_path, [json.dumps(rec)])
        (ex,) = load_corpus(path)
        assert ex.id == "r1"
        assert ex.iw_class == IWClass.When
        assert ex.entity_type == EntityType.DateTime

    def test_explicit_entity_type_wins(self, tmp_path):
        rec = {
            "id": "r1",
            "passage": "The fox ran home .",
            "question": "Who ran home ?",
            "answer_text": "The fox",
            "answer_start": 0,
            "entity_type": "person",
        }
        path = self._write(tmp_path, [json.dumps(rec)])
        (ex,) = load_corpus(path)
        assert ex.entity_type == EntityType.Person

    def test_all_bad_records_reported(self, tmp_path):
        good = {
            "id": "ok",
            "passage": "A map hangs here .",
            "question": "What hangs here ?",
            "answer_text": "A map",
            "answer_start": 0,
        }
        missing_key = {"id": "bad1", "passage": "x", "question": "Why ?"}
        misaligned = {
            "id": "bad2",
            "passage": "The telescope was heavy .",
            "question": "What was heavy ?",
            "answer_text": "tele",
            "answer_start": 4,
        }
        lines = [json.dumps(good), json.dumps(missing_key), "{not json",
                 json.dumps(misaligned)]
        path = self._write(tmp_path, lines)
        with pytest.raises(CorpusError) as err:
            load_corpus(path)
        assert err.value.bad_ids == ["bad1", "line 3", "bad2"]

    def test_blank_lines_skipped(self, tmp_path):
        rec = {
            "id": "r1",
            "passage": "A map hangs here .",
            "question": "What hangs here ?",
            "answer_text": "A map",
            "answer_start": 0,
        }
        path = self._write(tmp_path, ["", json.dumps(rec), ""])
        assert len(load_corpus(path)) == 1

    def test_save_load_roundtrip(self, tmp_path):
        ex = make_example("The red kite flew over Lisbon .",
                          "Where did the kite fly ?", "Lisbon")
        path = tmp_path / "out.jsonl"
        path.write_text(corpus_text([ex]), encoding="utf-8")
        (back,) = load_corpus(path)
        assert back == ex

    def test_empty_answer_rejected(self, tmp_path):
        rec = {
            "id": "r1",
            "passage": "A map hangs here .",
            "question": "What hangs here ?",
            "answer_text": "   ",
            "answer_start": 0,
        }
        path = self._write(tmp_path, [json.dumps(rec)])
        with pytest.raises(CorpusError):
            load_corpus(path)


class TestTokensOnce:
    """An Example carries its passage tokens, question tokens and answer
    span, so loading a corpus and building every model input tokenizes
    each text once."""

    @pytest.mark.parametrize("name", ["mini200", "overfit10"])
    def test_one_tokenizer_call_per_text(self, name, monkeypatch):
        texts = []

        def counted(text):
            texts.append(text)
            return tokenize_with_offsets(text)

        monkeypatch.setattr(data, "tokenize_with_offsets", counted)
        corpus = load_corpus(ASSETS / f"{name}.jsonl")
        vocab = Vocabulary.build(corpus)
        for ex in corpus:
            build_classifier_input(ex, answer_tagging=False)
            build_classifier_input(ex, answer_tagging=True)
            build_qg_input(ex, ex.iw_class, vocab)
            assert ex.question_tokens
        assert Counter(texts) == Counter(
            text for ex in corpus for text in (ex.passage, ex.question, ex.answer_text))

    @pytest.mark.parametrize("built", ["from_record", "directly"])
    def test_cached_fields_equal_fresh_results(self, built):
        corpus = load_corpus(ASSETS / "mini200.jsonl")
        if built == "directly":
            corpus = [Example(**{f.name: getattr(ex, f.name) for f in fields(Example)})
                      for ex in corpus]
        for ex in corpus:
            assert ex.passage_tokens == tokenize(ex.passage)
            assert ex.question_tokens == tokenize(ex.question)
            assert ex.answer_span == answer_token_span(ex.passage, ex.answer_text,
                                                       ex.answer_start)

    def test_replace_drops_the_old_tokens(self):
        ex = make_example("The red kite flew over Lisbon .",
                          "Where did the kite fly ?", "Lisbon")
        assert ex.question_tokens[0] == "where"
        asked = replace(ex, question="Who saw the kite ?")
        assert asked.question_tokens == ["who", "saw", "the", "kite", "?"]
        moved = replace(ex, passage="Long ago, " + ex.passage,
                        answer_start=ex.answer_start + len("Long ago, "))
        assert moved.passage_tokens == ["long", "ago", ","] + ex.passage_tokens
        assert moved.answer_span == (ex.answer_span[0] + 3, ex.answer_span[1] + 3)
        assert (ex.passage_tokens, ex.question_tokens) == (
            tokenize(ex.passage), tokenize(ex.question))

    def test_fields_cannot_be_assigned(self):
        ex = make_example("A map hangs here .", "What hangs here ?", "A map")
        with pytest.raises(FrozenInstanceError):
            ex.question = "Who hangs here ?"

    def test_direct_example_checks_its_span_on_use(self):
        ex = Example("x", "The telescope was heavy .", "What was heavy ?", "tele", 4)
        with pytest.raises(ValueError, match="does not align"):
            build_qg_input(ex, IWClass.What, Vocabulary())

    @pytest.mark.parametrize("passage,answer,start,message", [
        ("The telescope was heavy .", "tele", 4,
         "answer text 'tele' does not align with passage tokens ['telescope']"),
        ("The map was ancient .", "modern", 4,
         "answer text 'modern' does not align with passage tokens ['map', 'was']"),
        ("short", "short", 99, "answer_start outside passage"),
        ("A  map", "x", 1, "answer span covers no tokens"),
    ], ids=["inside-word", "wrong-text", "outside", "no-tokens"])
    def test_misaligned_answer_rejected(self, tmp_path, passage, answer, start, message):
        rec = {"id": "bad", "passage": passage, "question": "What ?",
               "answer_text": answer, "answer_start": start}
        with pytest.raises(ValueError) as err:
            Example.from_record(rec)
        assert str(err.value) == message
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError) as err:
            load_corpus(path)
        assert str(err.value) == "invalid corpus records: bad"
