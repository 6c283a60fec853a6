"""Deterministic synthetic corpora for training-dynamics tests and demos.

Two generators plus loaders for the two bundled corpora:

* ``make_separable_corpus``: eight-class corpus where the question class
  is carried by the answer marker (and its entity type), while the
  passage frame is deliberately ambiguous for six of the classes.  With
  ``novel=True`` the markers come from a disjoint pool, so models that
  memorized surface forms lose that signal but dataset-level entity
  types survive.
* ``make_mini_corpus``: 200 natural-looking examples with an unbalanced
  class mix, used to exercise preparation, downsampling and vocabulary
  building.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .data import EntityType, Example, IWClass, load_corpus

__all__ = [
    "ENTITY_FOR_CLASS",
    "bundled_corpus",
    "make_mini_corpus",
    "make_separable_corpus",
    "marker_token",
]

# Which entity type tags a class's answer marker.  Why and Others answers
# carry no entity, which is exactly what makes them rely on context words.
ENTITY_FOR_CLASS: dict[IWClass, EntityType] = {
    IWClass.Who: EntityType.Person,
    IWClass.Where: EntityType.LocationGpe,
    IWClass.Which: EntityType.Org,
    IWClass.When: EntityType.DateTime,
    IWClass.How: EntityType.Numeric,
    IWClass.What: EntityType.Misc,
    IWClass.Why: EntityType.NONE,
    IWClass.Others: EntityType.NONE,
}

# The six classes whose passage frame is shared (and hence ambiguous
# without the answer span); ordering fixes who distracts whom.
_FRAME_CLASSES = (
    IWClass.What, IWClass.Which, IWClass.Where,
    IWClass.When, IWClass.Who, IWClass.How,
)

_MARKER_PREFIX = {
    IWClass.What: "zam",
    IWClass.Which: "quor",
    IWClass.Where: "lub",
    IWClass.When: "dake",
    IWClass.Who: "pemb",
    IWClass.Why: "ruv",
    IWClass.How: "nok",
    IWClass.Others: "fiz",
}
# first half of the syllables builds the training pool, second half the
# novel (held-out) pool
_SYLLABLES = (
    "an", "el", "ir", "od", "un", "ay", "ew", "is",
    "ok", "ub", "af", "eg", "im", "ol", "ut", "ac",
)
_POOL = 8


def marker_token(cls: IWClass, k: int, novel: bool = False) -> str:
    """Nonsense-but-pronounceable marker; pools are disjoint per class
    and per split."""
    if not 0 <= k < _POOL:
        raise ValueError(f"marker index {k} outside pool of {_POOL}")
    return _MARKER_PREFIX[cls] + _SYLLABLES[k + (_POOL if novel else 0)]


def _record(ex_id, tokens, lo, hi, question, entity):
    passage = " ".join(tokens)
    start = len(" ".join(tokens[:lo])) + (1 if lo else 0)
    return {
        "id": ex_id,
        "passage": passage,
        "question": question,
        "answer_text": " ".join(tokens[lo:hi]),
        "answer_start": start,
        "entity_type": entity.name.lower(),
    }


def make_separable_corpus(
    n_per_class: int,
    seed: int,
    novel: bool = False,
) -> list[Example]:
    """Eight classes, ``n_per_class`` each, shuffled deterministically.

    Frame classes share the passage "the report described A beside B in
    detail ." where one of A/B (a class marker) is the answer and the
    other a distractor from the next frame class; the answer side is a
    coin flip, so passage tokens alone leave two classes possible.  Why
    and Others keep private frames whose context words give them away."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be positive")
    rng = np.random.default_rng(seed)
    split = "novel" if novel else "train"
    examples: list[Example] = []
    for cls in IWClass:
        for i in range(n_per_class):
            ex_id = f"{split}-{cls.name.lower()}-{i}"
            if cls in _FRAME_CLASSES:
                ans = marker_token(cls, int(rng.integers(0, _POOL)), novel)
                nxt = _FRAME_CLASSES[(_FRAME_CLASSES.index(cls) + 1) % len(_FRAME_CLASSES)]
                dis = marker_token(nxt, int(rng.integers(0, _POOL)), novel)
                ans_first = bool(rng.integers(0, 2))
                first, second = (ans, dis) if ans_first else (dis, ans)
                tokens = ["the", "report", "described", first, "beside",
                          second, "in", "detail", "."]
                lo = 3 if ans_first else 5
                question = f"{cls.surface} did the report describe ?"
                rec = _record(ex_id, tokens, lo, lo + 1, question,
                              ENTITY_FOR_CLASS[cls])
            elif cls is IWClass.Why:
                m = marker_token(cls, int(rng.integers(0, _POOL)), novel)
                tokens = ["the", "launch", "was", "delayed", "because",
                          "of", m, "overnight", "."]
                question = "why was the launch delayed ?"
                rec = _record(ex_id, tokens, 6, 7, question, EntityType.NONE)
            else:  # Others
                m = marker_token(cls, int(rng.integers(0, _POOL)), novel)
                tokens = ["the", "charter", "named", m, "as", "the",
                          "founding", "city", "."]
                question = "name the founding city ."
                rec = _record(ex_id, tokens, 3, 4, question, EntityType.NONE)
            examples.append(Example.from_record(rec))
    order = rng.permutation(len(examples))
    return [examples[i] for i in order]


# ---------------------------------------------------------------------------
# Mini corpus

_MINI_COUNTS = {
    IWClass.What: 56,
    IWClass.Which: 18,
    IWClass.Where: 24,
    IWClass.When: 22,
    IWClass.Who: 34,
    IWClass.Why: 9,
    IWClass.How: 21,
    IWClass.Others: 16,
}

_OBJECTS = ["telescope", "compass", "tapestry", "sundial", "globe",
            "manuscript", "lantern", "medal"]
_COLORS = ["red", "blue", "green", "amber", "silver", "violet"]
_CITIES = ["lisbon", "oslo", "kyoto", "prague", "athens", "dublin"]
_NAMES = [("marie", "curie"), ("ada", "lovelace"), ("alan", "turing"),
          ("grace", "hopper"), ("isaac", "newton"), ("nikola", "tesla")]
_WEATHER = ["storm", "fog", "flood"]
_DURATIONS = ["forty", "twenty", "ninety", "15", "30"]


def _mini_record(cls: IWClass, i: int, rng: np.random.Generator) -> dict:
    ex_id = f"mini-{cls.name.lower()}-{i:03d}"
    if cls is IWClass.What:
        obj = _OBJECTS[int(rng.integers(0, len(_OBJECTS)))]
        if i % 2 == 0:
            tokens = ["the", "museum", "displayed", "a", obj, "near",
                      "the", "entrance", "."]
            q = "what did the museum display ?"
            lo, hi = 3, 5
        else:
            tokens = ["a", obj, "hung", "inside", "the", "old",
                      "library", "."]
            q = "what hung inside the library ?"
            lo, hi = 0, 2
        return _record(ex_id, tokens, lo, hi, q, EntityType.Misc)
    if cls is IWClass.Which:
        color = _COLORS[int(rng.integers(0, len(_COLORS)))]
        tokens = ["the", color, "team", "won", "the", "spring",
                  "contest", "."]
        q = "which team won the contest ?"
        return _record(ex_id, tokens, 0, 3, q, EntityType.Misc)
    if cls is IWClass.Where:
        city = _CITIES[int(rng.integers(0, len(_CITIES)))]
        tokens = ["the", "harvest", "festival", "took", "place", "in",
                  city, "."]
        q = "where did the festival take place ?"
        return _record(ex_id, tokens, 6, 7, q, EntityType.LocationGpe)
    if cls is IWClass.When:
        year = str(1850 + int(rng.integers(0, 130)))
        tokens = ["the", "stone", "bridge", "opened", "in", year, "."]
        q = "when did the bridge open ?"
        return _record(ex_id, tokens, 5, 6, q, EntityType.DateTime)
    if cls is IWClass.Who:
        first, last = _NAMES[int(rng.integers(0, len(_NAMES)))]
        tokens = [first, last, "painted", "the", "harbor", "mural", "."]
        q = "who painted the mural ?"
        return _record(ex_id, tokens, 0, 2, q, EntityType.Person)
    if cls is IWClass.Why:
        w = _WEATHER[int(rng.integers(0, len(_WEATHER)))]
        tokens = ["the", "ferry", "was", "cancelled", "because", "of",
                  "the", w, "."]
        q = "why was the ferry cancelled ?"
        return _record(ex_id, tokens, 6, 8, q, EntityType.NONE)
    if cls is IWClass.How:
        num = _DURATIONS[int(rng.integers(0, len(_DURATIONS)))]
        tokens = ["the", "baker", "prepared", "the", "loaf", "in", num,
                  "minutes", "."]
        q = "how long did the baker need ?"
        return _record(ex_id, tokens, 6, 8, q, EntityType.Numeric)
    # Others: imperative question with no interrogative token
    city = _CITIES[int(rng.integers(0, len(_CITIES)))]
    tokens = ["the", "council", "named", city, "the", "host", "city", "."]
    q = "name the host city ."
    return _record(ex_id, tokens, 3, 4, q, EntityType.LocationGpe)


def make_mini_corpus(seed: int = 0) -> list[Example]:
    """Exactly 200 examples with the fixed unbalanced class mix, in a
    seeded shuffled order."""
    rng = np.random.default_rng(seed)
    examples = []
    for cls in IWClass:
        for i in range(_MINI_COUNTS[cls]):
            examples.append(Example.from_record(_mini_record(cls, i, rng)))
    order = rng.permutation(len(examples))
    return [examples[i] for i in order]


def bundled_corpus(name: str) -> list[Example]:
    """Load a corpus shipped with the package ("overfit10" or "mini200")."""
    ref = resources.files("qgkit").joinpath("assets", f"{name}.jsonl")
    with resources.as_file(ref) as path:
        return load_corpus(path)
