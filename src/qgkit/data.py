"""Data pipeline: tokenization, interrogative-word labels, entity typing,
class-cap downsampling, vocabulary, and model input construction.

Corpora are JSON Lines files, one record per line with keys ``id``,
``passage``, ``question``, ``answer_text``, ``answer_start`` and
optionally ``entity_type``.  ``answer_start`` is a character offset into
``passage``.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .persist import InputError, read_input

__all__ = [
    "ANS_ID",
    "CLS_ID",
    "ClassifierInput",
    "CorpusError",
    "DOWNSAMPLE_CAP",
    "EOS_ID",
    "EntityType",
    "Example",
    "IWClass",
    "IW_SURFACES",
    "MetaTag",
    "PAD_ID",
    "RESERVED_TOKENS",
    "SEP_ID",
    "SOS_ID",
    "SPECIAL_TOKENS",
    "TaggedSequence",
    "UNK_ID",
    "Vocabulary",
    "answer_token_span",
    "assign_entity_type",
    "build_classifier_input",
    "build_qg_input",
    "class_counts",
    "corpus_text",
    "downsample",
    "label_interrogative_class",
    "load_corpus",
    "tokenize",
    "tokenize_with_offsets",
]


# ---------------------------------------------------------------------------
# Tokenization

# Clitics ('s, 'll, ...) split off first, then word runs, then single
# punctuation marks.  Whitespace never appears in a token.
_TOKEN_RE = re.compile(r"'\w+|\w+|[^\w\s]")


def tokenize_with_offsets(text: str) -> list[tuple[str, int, int]]:
    """Lowercased tokens with their [start, end) character offsets into
    the original text."""
    return [(m.group(0).lower(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


def tokenize(text: str) -> list[str]:
    return [tok for tok, _, _ in tokenize_with_offsets(text)]


# ---------------------------------------------------------------------------
# Interrogative-word classes

class IWClass(IntEnum):
    """The eight question classes; all but Others name the word a question
    starts from."""

    What = 0
    Which = 1
    Where = 2
    When = 3
    Who = 4
    Why = 5
    How = 6
    Others = 7

    @property
    def surface(self) -> str | None:
        """Token inserted into generator input; Others inserts nothing."""
        if self is IWClass.Others:
            return None
        return self.name.lower()


IW_SURFACES: tuple[str, ...] = tuple(
    c.surface for c in IWClass if c.surface is not None
)

# Possessive and objective forms count toward Who.
_IW_BY_TOKEN = {c.surface: c for c in IWClass if c.surface is not None}
_IW_BY_TOKEN["whom"] = IWClass.Who
_IW_BY_TOKEN["whose"] = IWClass.Who


def label_interrogative_class(question_tokens: Sequence[str]) -> IWClass:
    """Class of the first interrogative token, scanning left to right;
    questions with none are Others.  Total: every question gets exactly
    one of the eight classes."""
    for tok in question_tokens:
        found = _IW_BY_TOKEN.get(tok)
        if found is not None:
            return found
    return IWClass.Others


# ---------------------------------------------------------------------------
# Entity typing

class EntityType(IntEnum):
    Person = 0
    LocationGpe = 1
    Org = 2
    DateTime = 3
    Numeric = 4
    Misc = 5
    NONE = 6

    @classmethod
    def from_name(cls, name: str) -> "EntityType":
        found = _ENTITY_BY_NAME.get(name.strip().lower()) if isinstance(name, str) else None
        if found is None:
            raise ValueError(f"unknown entity type: {name!r}")
        return found


_ENTITY_BY_NAME = {e.name.lower(): e for e in EntityType}

_MONTHS = {
    "january", "february", "march", "april", "may", "june", "july",
    "august", "september", "october", "november", "december",
}
_WEEKDAYS = {
    "monday", "tuesday", "wednesday", "thursday", "friday", "saturday",
    "sunday",
}
_DATE_WORDS = _MONTHS | _WEEKDAYS | {
    "century", "decade", "today", "tomorrow", "yesterday", "midnight",
    "noon", "spring", "summer", "autumn", "winter",
}
_NUMBER_WORDS = {
    "zero", "one", "two", "three", "four", "five", "six", "seven",
    "eight", "nine", "ten", "eleven", "twelve", "thirteen", "fourteen",
    "fifteen", "sixteen", "seventeen", "eighteen", "nineteen", "twenty",
    "thirty", "forty", "fifty", "sixty", "seventy", "eighty", "ninety",
    "hundred", "thousand", "million", "billion", "dozen", "half",
}
_YEAR_RE = re.compile(r"[12]\d{3}")
_NUMERIC_RE = re.compile(r"\d[\d,.]*%?")


@lru_cache(maxsize=None)
def _gazetteer(name: str) -> frozenset[str]:
    path = resources.files("qgkit").joinpath("assets", f"gazetteer_{name}.txt")
    tokens = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip().lower()
        if line:
            tokens.add(line)
    return frozenset(tokens)


def assign_entity_type(answer_tokens: Sequence[str]) -> EntityType:
    """Rule-based type for an answer span.  Date cues win over bare
    numbers so years tag as DateTime, then gazetteers, then Misc."""
    toks = [t.lower() for t in answer_tokens]
    if any(t in _DATE_WORDS or _YEAR_RE.fullmatch(t) for t in toks):
        return EntityType.DateTime
    if any(t in _NUMBER_WORDS or _NUMERIC_RE.fullmatch(t) for t in toks):
        return EntityType.Numeric
    if any(t in _gazetteer("person") for t in toks):
        return EntityType.Person
    if any(t in _gazetteer("place") for t in toks):
        return EntityType.LocationGpe
    if any(t in _gazetteer("org") for t in toks):
        return EntityType.Org
    return EntityType.Misc


# ---------------------------------------------------------------------------
# Examples and corpus IO

class CorpusError(InputError):
    """Raised after a full validation pass; carries every offending id so
    a bad corpus is reported once, not one record at a time."""

    def __init__(self, bad_ids: Sequence[str]):
        self.bad_ids = list(bad_ids)
        shown = ", ".join(self.bad_ids[:20])
        extra = "" if len(self.bad_ids) <= 20 else f" (+{len(self.bad_ids) - 20} more)"
        super().__init__(f"invalid corpus records: {shown}{extra}")


@dataclass(frozen=True)
class Example:
    """One passage/question/answer record with derived labels attached.

    ``passage_tokens``, ``question_tokens`` and ``answer_span`` (the
    answer's half-open token span in the passage) are each computed once:
    ``from_record`` keeps the ones it computes to validate a record, and an
    Example built directly computes each on first use.  Callers share
    these lists and must not modify them.  An Example is frozen, so
    ``dataclasses.replace`` is the way to edit one, and it builds a new
    Example that computes its own."""

    id: str
    passage: str
    question: str
    answer_text: str
    answer_start: int
    entity_type: EntityType = EntityType.NONE
    iw_class: IWClass = field(default=IWClass.Others)

    @cached_property
    def passage_tokens(self) -> list[str]:
        return tokenize(self.passage)

    @cached_property
    def question_tokens(self) -> list[str]:
        return tokenize(self.question)

    @cached_property
    def answer_span(self) -> tuple[int, int]:
        return answer_token_span(self.passage, self.answer_text, self.answer_start)

    @classmethod
    def from_record(cls, rec: dict) -> "Example":
        for key in ("id", "passage", "question", "answer_text", "answer_start"):
            if key not in rec:
                raise ValueError(f"missing key {key!r}")
        ex_id = str(rec["id"])
        passage = rec["passage"]
        question = rec["question"]
        answer = rec["answer_text"]
        start = rec["answer_start"]
        if not isinstance(passage, str) or not isinstance(question, str) \
                or not isinstance(answer, str):
            raise ValueError("passage, question and answer must be strings")
        if not isinstance(start, int) or isinstance(start, bool):
            raise ValueError("answer_start must be an integer")
        question_tokens = tokenize(question)
        if not question_tokens:
            raise ValueError("question has no tokens")
        answer_tokens = tokenize(answer)
        if not answer_tokens:
            raise ValueError("answer has no tokens")
        # Raises ValueError when the character span does not line up with
        # token boundaries of the passage.
        passage_tokens, span = _align_answer(passage, answer, start, answer_tokens)
        if "entity_type" in rec and rec["entity_type"] is not None:
            entity = EntityType.from_name(rec["entity_type"])
        else:
            entity = assign_entity_type(answer_tokens)
        example = cls(
            id=ex_id,
            passage=passage,
            question=question,
            answer_text=answer,
            answer_start=start,
            entity_type=entity,
            iw_class=label_interrogative_class(question_tokens),
        )
        # the cached properties' values, kept from the checks above
        example.__dict__.update(passage_tokens=passage_tokens,
                                question_tokens=question_tokens, answer_span=span)
        return example

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "passage": self.passage,
            "question": self.question,
            "answer_text": self.answer_text,
            "answer_start": self.answer_start,
            "entity_type": self.entity_type.name.lower(),
        }


def answer_token_span(passage: str, answer_text: str, answer_start: int) -> tuple[int, int]:
    """Half-open token-index span of the answer inside the passage.

    The character window must cover a contiguous run of tokens whose
    surfaces reproduce the tokenized answer; anything else raises
    ValueError so misaligned offsets are caught at load time."""
    return _align_answer(passage, answer_text, answer_start, tokenize(answer_text))[1]


def _align_answer(passage: str, answer_text: str, answer_start: int,
                  answer_tokens: list[str]) -> tuple[list[str], tuple[int, int]]:
    """The passage's tokens, and ``answer_token_span`` given the answer's
    tokens."""
    if answer_start < 0 or answer_start >= len(passage):
        raise ValueError("answer_start outside passage")
    spans = tokenize_with_offsets(passage)
    lo_char, hi_char = answer_start, answer_start + len(answer_text)
    hit = [i for i, (_, s, e) in enumerate(spans) if s < hi_char and e > lo_char]
    if not hit:
        raise ValueError("answer span covers no tokens")
    lo, hi = hit[0], hit[-1] + 1
    tokens = [tok for tok, _, _ in spans]
    if tokens[lo:hi] != answer_tokens:
        raise ValueError(
            f"answer text {answer_text!r} does not align with passage tokens {tokens[lo:hi]!r}"
        )
    return tokens, (lo, hi)


def load_corpus(path: str | Path) -> list[Example]:
    """Parse a JSONL corpus, validating every record before failing."""
    examples: list[Example] = []
    bad: list[str] = []
    for line_no, line in enumerate(read_input(path, "data").split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        label = f"line {line_no}"
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError("record is not an object")
            if "id" in rec:
                label = str(rec["id"])
            examples.append(Example.from_record(rec))
        except (ValueError, TypeError, RecursionError):  # bad JSON included
            bad.append(label)
    if bad:
        raise CorpusError(bad)
    return examples


def corpus_text(examples: Iterable[Example]) -> str:
    """JSONL serialization (sorted keys, newline-terminated)."""
    lines = [json.dumps(ex.to_record(), sort_keys=True) for ex in examples]
    return "\n".join(lines) + ("\n" if lines else "")


def class_counts(examples: Iterable[Example]) -> dict[IWClass, int]:
    counts = {c: 0 for c in IWClass}
    for ex in examples:
        counts[ex.iw_class] += 1
    return counts


DOWNSAMPLE_CAP = 4000


def downsample(
    examples: Sequence[Example], cap: int, rng: np.random.Generator
) -> list[Example]:
    """Cap each interrogative class at ``cap`` examples.

    Classes over the cap keep a seeded uniform sample without
    replacement; classes at or under it are untouched.  Original corpus
    order is preserved, so per-class counts come out as min(count, cap)
    exactly."""
    if cap < 0:
        raise ValueError("cap must be non-negative")
    by_class: dict[IWClass, list[int]] = {c: [] for c in IWClass}
    for i, ex in enumerate(examples):
        by_class[ex.iw_class].append(i)
    keep: set[int] = set()
    for cls in IWClass:  # fixed class order keeps rng consumption stable
        idx = by_class[cls]
        if len(idx) <= cap:
            keep.update(idx)
        else:
            chosen = rng.choice(len(idx), size=cap, replace=False)
            keep.update(idx[j] for j in chosen)
    return [ex for i, ex in enumerate(examples) if i in keep]


# ---------------------------------------------------------------------------
# Vocabulary

SPECIAL_TOKENS: tuple[str, ...] = (
    "[PAD]", "[UNK]", "[SOS]", "[EOS]", "[ANS]", "[CLS]", "[SEP]",
)
PAD_ID, UNK_ID, SOS_ID, EOS_ID, ANS_ID, CLS_ID, SEP_ID = range(7)

# Interrogative surfaces sit directly after the specials so their ids are
# stable across corpora.
RESERVED_TOKENS: tuple[str, ...] = SPECIAL_TOKENS + IW_SURFACES


class Vocabulary:
    """Fixed token/id mapping with a reserved prefix.

    Ids 0..13 are the reserved block (specials, then the interrogative
    surfaces); corpus tokens follow in build order.  Extended ids at and
    above ``len(vocab)`` name out-of-vocabulary source words for the
    copy mechanism and exist only relative to an ``oov_words`` list."""

    def __init__(self, corpus_tokens: Sequence[str] = ()):
        seen = set(RESERVED_TOKENS)
        for tok in corpus_tokens:
            if not tok or tok != tok.strip():
                raise ValueError(f"bad vocabulary token: {tok!r}")
            if tok in seen:
                raise ValueError(f"duplicate vocabulary token: {tok!r}")
            seen.add(tok)
        self._tokens: list[str] = list(RESERVED_TOKENS) + list(corpus_tokens)
        self._index = {tok: i for i, tok in enumerate(self._tokens)}

    @classmethod
    def build(cls, examples: Iterable[Example]) -> "Vocabulary":
        """Every token of the passages and questions, most frequent first
        (ties alphabetical) so the mapping is deterministic."""
        counts: dict[str, int] = {}
        for ex in examples:
            for tok in ex.passage_tokens + ex.question_tokens:
                counts[tok] = counts.get(tok, 0) + 1
        kept = sorted(
            (tok for tok in counts if tok not in RESERVED_TOKENS),
            key=lambda t: (-counts[t], t),
        )
        return cls(kept)

    def __len__(self) -> int:
        return len(self._tokens)

    @property
    def corpus_tokens(self) -> list[str]:
        return self._tokens[len(RESERVED_TOKENS):]

    def id(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    def token(self, idx: int) -> str:
        if not 0 <= idx < len(self._tokens):
            raise ValueError(f"token id {idx} out of range")
        return self._tokens[idx]

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self.id(t) for t in tokens]

    def extended_id(self, token: str, oov_words: Sequence[str]) -> int:
        """Vocabulary id, or an extended id when the token appears in
        ``oov_words``, else UNK."""
        idx = self.id(token)
        if idx != UNK_ID or token in self._index:
            return idx
        try:
            return len(self) + list(oov_words).index(token)
        except ValueError:
            return UNK_ID

    def encode_extended(self, tokens: Sequence[str]) -> tuple[list[int], list[str]]:
        """Encode with per-sequence extended ids for OOV tokens, in
        first-occurrence order."""
        ids, oov_words = [], []
        for tok in tokens:
            idx = self.id(tok)
            if idx == UNK_ID and tok not in self._index:
                if tok not in oov_words:
                    oov_words.append(tok)
                idx = len(self) + oov_words.index(tok)
            ids.append(idx)
        return ids, oov_words

    def decode_extended(self, ids: Sequence[int], oov_words: Sequence[str]) -> list[str]:
        out = []
        for idx in ids:
            if idx < len(self):
                out.append(self.token(idx))
            else:
                k = idx - len(self)
                if k >= len(oov_words):
                    raise ValueError(f"extended id {idx} beyond oov list")
                out.append(oov_words[k])
        return out

    def text(self) -> str:
        """One corpus token per line; the reserved block is implicit."""
        return "".join(tok + "\n" for tok in self.corpus_tokens)

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        tokens = [line for line in read_input(path, "vocabulary").splitlines() if line]
        try:
            return cls(tokens)
        except ValueError as e:
            raise InputError(f"{path}: {e}") from None

    def content_hash(self) -> str:
        return hashlib.sha256(self.text().encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Model inputs

@dataclass
class ClassifierInput:
    """Token surfaces for the class predictor plus where the answer sits.

    ``answer_positions`` indexes the answer tokens themselves, never the
    [ANS] markers, so mean-pooling over them is marker-free."""

    tokens: list[str]
    answer_positions: list[int]


def build_classifier_input(example: Example, answer_tagging: bool) -> ClassifierInput:
    lo, hi = example.answer_span
    tokens = ["[CLS]"]
    positions = []
    for i, tok in enumerate(example.passage_tokens):
        if answer_tagging and i == lo:
            tokens.append("[ANS]")
        if lo <= i < hi:
            positions.append(len(tokens))
        tokens.append(tok)
        if answer_tagging and i == hi - 1:
            tokens.append("[ANS]")
    tokens.append("[SEP]")
    return ClassifierInput(tokens=tokens, answer_positions=positions)


class MetaTag(IntEnum):
    """Per-token role in the generator source sequence."""

    Interrogative = 0
    Answer = 1
    Context = 2


@dataclass
class TaggedSequence:
    """Generator source: surfaces, ids, and per-token roles.

    ``ids`` may contain extended ids (>= vocabulary size) for OOV words,
    which the generator embeds as [UNK]."""

    surfaces: list[str]
    ids: list[int]
    meta: list[int]
    oov_words: list[str]


def build_qg_input(
    example: Example,
    iw_class: IWClass,
    vocab: Vocabulary,
    insert_iw: bool = True,
) -> TaggedSequence:
    """Source sequence for the generator: passage tokens with the
    interrogative surface (if any, and if insertion is on) placed just
    before the answer span, each token tagged with its role.

    Dropping the Interrogative-tagged position recovers the passage
    tokens unchanged."""
    lo, hi = example.answer_span
    surfaces: list[str] = []
    meta: list[int] = []
    iw_surface = iw_class.surface if insert_iw else None
    for i, tok in enumerate(example.passage_tokens):
        if iw_surface is not None and i == lo:
            surfaces.append(iw_surface)
            meta.append(MetaTag.Interrogative)
        surfaces.append(tok)
        meta.append(MetaTag.Answer if lo <= i < hi else MetaTag.Context)
    ids, oov_words = vocab.encode_extended(surfaces)
    return TaggedSequence(
        surfaces=surfaces,
        ids=ids,
        meta=meta,
        oov_words=oov_words,
    )
