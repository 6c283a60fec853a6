"""Interrogative-word class prediction.

A two-layer bidirectional recurrent encoder reads the tagged passage and
produces a summary vector (its final states), optionally extended with
the mean answer-token state (AE) and a learned entity-type embedding
(NER); a single feed-forward layer maps that to the eight class logits.
Several passages are classified in one pass: they are packed end to end,
each layer's recurrence advances all of them at once, and each gets its
own row of summaries and probabilities.  Only the taped training step
classifies one example at a time; the untrained loss over the train
split and each dev pass go through ``classify``.  Also provides a
noise-controlled oracle predictor for accuracy sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tape, Tensor, adam_step, backward, uniform_init
from .data import EntityType, Example, IWClass, Vocabulary, build_classifier_input
from .layers import init_bilstm, init_linear, linear, run_bilstm
from .metrics import ClassScore, class_scores
from .persist import InputError, ModelConfig, ModelParams, build_model

__all__ = [
    "ClassifierConfig",
    "ClassifierEval",
    "classify",
    "encode_summary",
    "eval_classifier",
    "init_classifier",
    "oracle_classifier",
    "train_classifier",
]

NUM_ENTITY_TYPES = len(EntityType)


@dataclass
class ClassifierConfig(ModelConfig):
    """Hyperparameters plus the three ablation switches.

    AT marks the answer span with [ANS] tokens, AE appends the mean
    answer-position state to the summary, NER appends the entity-type
    embedding to the feed-forward input."""

    use_answer_tagging: bool = False
    use_answer_embedding: bool = False
    use_entity_type: bool = False
    word_dim: int = 24
    encoder_hidden: int = 32
    entity_embed_dim: int = 5
    epochs: int = 3
    lr: float = 1e-3
    weight_decay: float = 0.01
    seed: int = 0

    @property
    def summary_dim(self) -> int:
        base = 2 * self.encoder_hidden
        return base * 2 if self.use_answer_embedding else base

    @property
    def ff_input_dim(self) -> int:
        return self.summary_dim + (self.entity_embed_dim if self.use_entity_type else 0)

    def ablation_label(self) -> str:
        parts = ["CLS"]
        if self.use_answer_embedding:
            parts.append("AE")
        if self.use_answer_tagging:
            parts.append("AT")
        if self.use_entity_type:
            parts.append("NER")
        return " + ".join(parts)


def init_classifier(
    config: ClassifierConfig, vocab_size: int, rng: np.random.Generator
) -> ModelParams:
    config.validate()
    h = config.encoder_hidden
    tensors: dict[str, Tensor] = {}
    tensors["embed"] = uniform_init(rng, (vocab_size, config.word_dim), fan_in=config.word_dim)
    tensors.update(init_bilstm(rng, config.word_dim, h, "enc1"))
    tensors.update(init_bilstm(rng, 2 * h, h, "enc2"))
    if config.use_entity_type:
        tensors["entity_embed"] = uniform_init(rng, (NUM_ENTITY_TYPES, config.entity_embed_dim),
                                               fan_in=config.entity_embed_dim)
    tensors.update(init_linear(rng, config.ff_input_dim, len(IWClass), "ff"))
    return ModelParams(config=config, tensors=tensors)


def encode_summary(
    tokens: Sequence[Sequence[str]],
    answer_positions: Sequence[Sequence[int]],
    config: ClassifierConfig,
    params: dict[str, Tensor],
    vocab: Vocabulary,
) -> Tensor:
    """Summary vectors (P x summary_dim), one row per tagged token
    sequence of ``tokens``, all encoded in one packed pass.  ``config``
    gives only the AE switch; every width is the tensors'."""
    if not tokens or not all(tokens):
        raise ValueError("empty classifier input")
    lengths = [len(seq) for seq in tokens]
    starts = list(accumulate(lengths[:-1], initial=0))
    rows = ad.lookup(params["embed"], [i for seq in tokens for i in vocab.encode(seq)])
    layer2 = run_bilstm(run_bilstm(rows, lengths, params, "enc1"), lengths, params, "enc2")
    h = layer2.shape[1] // 2
    # final state [forward at end-1; backward at start]: rows 2*end-2 and
    # 2*start+1 of the (2N x h) view
    n2 = 2 * layer2.shape[0]
    picks = [i for start, n in zip(starts, lengths) for i in (2 * (start + n) - 2, 2 * start + 1)]
    final = ad.reshape(ad.lookup(ad.reshape(layer2, (n2, h)), picks), (len(tokens), 2 * h))
    if not config.use_answer_embedding:
        return final
    if not all(answer_positions):
        raise ValueError("answer embedding requested but no answer positions")
    # row p averages sequence p's answer rows
    weights = np.zeros((len(tokens), layer2.shape[0]))
    for p, (start, positions) in enumerate(zip(starts, answer_positions)):
        np.add.at(weights[p], start + np.asarray(positions), 1.0 / len(positions))
    answer_mean = ad.matmul(Tensor(weights), layer2)
    return ad.concat([final, answer_mean], axis=1)


def _class_distribution(
    examples: Sequence[Example],
    config: ClassifierConfig,
    params: dict[str, Tensor],
    vocab: Vocabulary,
) -> Tensor:
    """Class probabilities (P x 8), one row per example."""
    built = [build_classifier_input(ex, config.use_answer_tagging) for ex in examples]
    features = encode_summary([b.tokens for b in built], [b.answer_positions for b in built],
                              config, params, vocab)
    if config.use_entity_type:
        entity = ad.lookup(params["entity_embed"], [int(ex.entity_type) for ex in examples])
        features = ad.concat([features, entity], axis=1)
    logits = linear(features, params["ff.W"], params["ff.b"])
    return ad.softmax(logits, axis=1)


# examples classified in one pass, and pairs the generator decodes or
# scores in one.  A pass reads its sequences in the ``layers.padded``
# layout, so the chunk bounds padding and memory; on mini200, chunks of
# 32 to 128 ran fastest
_CHUNK = 64


def classify(
    examples: Sequence[Example],
    config: ClassifierConfig,
    params: dict[str, Tensor],
    vocab: Vocabulary,
) -> np.ndarray:
    """Probabilities over the eight classes, in IWClass code order, one
    row per example (P x 8).  Examples are classified a chunk at a time,
    each chunk in one packed pass."""
    chunks = [_class_distribution(examples[start : start + _CHUNK], config, params, vocab).data
              for start in range(0, len(examples), _CHUNK)]
    return np.vstack([np.empty((0, len(IWClass)))] + chunks)


def _mean_loss(dataset, config, params, vocab) -> float:
    golds = [int(ex.iw_class) for ex in dataset]
    return ad.cross_entropy(Tensor(classify(dataset, config, params, vocab)), golds).item()


def train_classifier(
    dataset: Sequence[Example],
    config: ClassifierConfig,
    vocab: Vocabulary,
) -> tuple[ModelParams, list[dict]]:
    """Per-example Adam training with best-dev-accuracy selection.

    The dev set is a seeded 90/10 split of ``dataset``, taken first.
    The log starts with an epoch-0 entry holding the untrained loss and
    accuracy (the loss should sit near ln 8), then one entry per epoch.
    Deterministic for a fixed config."""
    config.validate()
    if not dataset:
        raise InputError("empty training set")
    ss = np.random.SeedSequence(config.seed)
    init_rng, split_rng, order_rng = (np.random.default_rng(s) for s in ss.spawn(3))
    order = split_rng.permutation(len(dataset))
    n_dev = max(1, len(dataset) // 10)
    if n_dev >= len(dataset):
        raise InputError("dataset too small to split a dev set")
    dev = [dataset[i] for i in order[:n_dev]]
    train = [dataset[i] for i in order[n_dev:]]

    params = build_model(init_classifier, config, len(vocab), init_rng)
    state = AdamState()
    log = [{
        "epoch": 0,
        "train_loss": _mean_loss(train, config, params.tensors, vocab),
        "dev_accuracy": eval_classifier(dev, params, vocab).accuracy,
    }]
    best = params.copy()
    best_acc = log[0]["dev_accuracy"]
    for epoch in range(1, config.epochs + 1):
        total = 0.0
        for i in order_rng.permutation(len(train)):
            ex = train[i]
            with Tape() as tape:
                dist = _class_distribution([ex], config, params.tensors, vocab)
                loss = ad.cross_entropy(dist, int(ex.iw_class))
            if not np.isfinite(loss.item()):
                raise InputError(f"non-finite loss {loss.item()} at epoch {epoch}")
            backward(tape, loss)
            adam_step(params.tensors, state, lr=config.lr,
                      weight_decay=config.weight_decay)
            total += loss.item()
        acc = eval_classifier(dev, params, vocab).accuracy
        log.append({
            "epoch": epoch,
            "train_loss": total / len(train),
            "dev_accuracy": acc,
        })
        if acc > best_acc:
            best_acc = acc
            best = params.copy()
    return best, log


@dataclass
class ClassifierEval:
    """Accuracy plus per-class scores; classes without gold support are
    absent from the table rather than reported as zero."""

    accuracy: float
    per_class: dict[IWClass, ClassScore] = field(default_factory=dict)


def eval_classifier(
    dataset: Sequence[Example],
    params: ModelParams,
    vocab: Vocabulary,
) -> ClassifierEval:
    probs = classify(dataset, params.config, params.tensors, vocab)
    predictions = [IWClass(int(c)) for c in np.argmax(probs, axis=1)]
    golds = [ex.iw_class for ex in dataset]
    hits = sum(1 for p, g in zip(predictions, golds) if p == g)
    return ClassifierEval(
        accuracy=hits / len(dataset) if dataset else 0.0,
        per_class={c: s for c, s in class_scores(predictions, golds).items() if s.support},
    )


def oracle_classifier(
    gold: IWClass,
    accuracy: float,
    rng: np.random.Generator,
) -> IWClass:
    """Gold with probability ``accuracy``, else uniform over the other
    seven classes.

    Both random draws are consumed on every call, so the stream position
    after n calls is independent of the outcomes; sweeping different
    accuracy levels against identically seeded streams then reuses the
    same underlying noise (paired draws)."""
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError(f"accuracy {accuracy} outside [0, 1]")
    u = rng.random()
    alt = int(rng.integers(0, len(IWClass) - 1))
    if u < accuracy:
        return gold
    return [c for c in IWClass if c != gold][alt]
