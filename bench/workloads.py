"""The benchmark's workloads: what each one builds in set-up and which
qgkit commands one cycle runs.

Every workload makes its inputs from the seed alone: the corpus is
``synthetic.make_mini_corpus(seed)`` (seed 0 is the bundled
``mini200.jsonl`` byte for byte), and ``long`` adds seeded
repeated-token pairs.  The commands only ever see the generated files.

One cycle runs every throughput-bearing command once, so each workload
reports every end-to-end metric; the sizes below decide which commands
dominate the time.  Commands outside a workload's focus run as small
probes at a fixed size.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# Sweep grids always hold 1.0 and two seeds, so the accuracy-1.0 rows
# can be checked for equality across seeds.
SIZES = {
    # the taped path: classifier and generator training
    "train": {
        "cls": (16, 1), "qg": (24, 2), "generate": 8,
        "sweep": (8, "0.5,1.0", "0,1"),
        # The probes decode with the barely trained model of this cycle,
        # whose output length swings with the seed; capping it at 4 steps
        # (gold questions have 5-7 tokens) makes their work seed-independent.
        "max_len": 4,
    },
    # the paper's experiment: untaped decoding with trained checkpoints
    "sweep": {
        "setup_cls": (48, 1), "setup_qg": (32, 4),
        "cls": (8, 1), "qg": (8, 2), "generate": 32,
        "sweep": (20, "0.6,0.8,1.0", "0,1"),
    },
    # 30-step decodes of an untrained generator, and costly alignments
    "long": {
        "cls": (8, 1), "qg": (16, 2), "generate": 24,
        "sweep": (16, "0.5,1.0", "0,1"),
    },
}

# Repeated-token METEOR pairs: candidate and reference are two seeded
# orders of one multiset, so the aligner must weigh every permutation of
# the repeats.  The multiplicities keep each search inside the aligner's
# node budget (tens of milliseconds each).
PAIR_POOL = ("the", "a", "of", "is", "it", "in")
PAIR_SHAPES = ((3, 3, 3, 3), (4, 3, 3, 3), (3, 3, 3, 3, 3)) * 3


@dataclass
class Call:
    """One CLI command.  ``work`` is what its throughput metric counts;
    ``check`` returns the failures found in its outputs and the values
    pinned for seed 0."""

    label: str
    argv: list[str]
    work: float
    check: Callable[[], tuple[list[str], object]]


@dataclass
class Inputs:
    work: Path
    seed: int
    files: dict[str, Path] = field(default_factory=dict)


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _subset(src: Path, dst: Path, n: int) -> int:
    """Write ``n`` examples of ``src``, taken round-robin over the
    interrogative classes (each class in file order).  The mini corpus
    draws each class from its own question templates, so this keeps the
    template mix, and with it the work per example, the same for every
    seed."""
    from qgkit.data import Example

    by_class: dict = {}
    for line in _lines(src):
        by_class.setdefault(Example.from_record(json.loads(line)).iw_class, []).append(line)
    queues = [by_class[c] for c in sorted(by_class)]
    picked = [q[k] for k in range(max(map(len, queues))) for q in queues if k < len(q)][:n]
    dst.write_text("\n".join(picked) + "\n", encoding="utf-8")
    return len(picked)


def _config(path: Path, epochs: int, max_len: int | None) -> Path:
    text = f"[classifier]\nepochs = {epochs}\n[qg]\nepochs = {epochs}\n"
    if max_len is not None:
        text += f"max_len = {max_len}\n"
    path.write_text(text, encoding="utf-8")
    return path


def make_inputs(name: str, work: Path, seed: int) -> Inputs:
    """The seeded files every command reads; built by the benchmark, untimed."""
    from qgkit.data import corpus_text
    from qgkit.synthetic import make_mini_corpus

    work.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(work, seed)
    corpus = work / "corpus.jsonl"
    corpus.write_text(corpus_text(make_mini_corpus(seed)), encoding="utf-8")
    inputs.files["corpus"] = corpus
    if name == "long":
        rng = np.random.default_rng(seed)
        lines = []
        for k, shape in enumerate(PAIR_SHAPES):
            words = rng.choice(PAIR_POOL, size=len(shape), replace=False)
            bag = [str(w) for w, m in zip(words, shape) for _ in range(m)]
            lines.append(json.dumps({
                "id": f"pair-{k}",
                "generated": [str(t) for t in rng.permutation(bag)],
                "gold": [str(t) for t in rng.permutation(bag)],
            }))
        pairs = work / "pairs.jsonl"
        pairs.write_text("\n".join(lines) + "\n", encoding="utf-8")
        inputs.files["pairs"] = pairs
    return inputs


# -- calls and their checks --------------------------------------------------


def prepare_call(inp: Inputs) -> Call:
    out = inp.work / "prep"

    def check():
        names = ("classifier_train.jsonl", "qg_train.jsonl", "vocab.txt", "stats.csv")
        missing = [f"prepare wrote no {f}" for f in names if not (out / f).is_file()]
        if missing:
            return missing, None
        fails = []
        if _lines(out / "qg_train.jsonl") != _lines(inp.files["corpus"]):
            fails.append("qg_train.jsonl is not the input corpus")
        digest = hashlib.sha256(b"".join((out / f).read_bytes() for f in names)).hexdigest()
        return fails, {"outputs_sha256": digest}

    n = len(_lines(inp.files["corpus"]))
    return Call("prepare", ["prepare", "--data", str(inp.files["corpus"]), "--out", str(out),
                        "--seed", str(inp.seed)], n, check)


def _target_tokens(path: Path) -> int:
    from qgkit.data import load_corpus, tokenize

    return sum(len(tokenize(ex.question)) + 1 for ex in load_corpus(path))


def train_call(inp: Inputs, kind: str, n: int, epochs: int, tag: str,
               label: str | None = None, max_len: int | None = None) -> Call:
    """``train --kind classifier|qg`` on ``n`` prepared examples;
    ``max_len`` caps the decode length stored in a qg checkpoint."""
    src = inp.work / "prep" / ("classifier_train.jsonl" if kind == "classifier"
                               else "qg_train.jsonl")
    data = inp.work / f"{tag}.jsonl"
    rows = _subset(src, data, n)
    config = _config(inp.work / f"{tag}.ini", epochs, max_len)
    out = inp.work / tag
    ckpt = out / f"{kind}.ckpt"
    # qg: teacher-forced target tokens over the epoch-0 pass and every
    # epoch; classifier: examples x epochs
    work = _target_tokens(data) * (epochs + 1) if kind == "qg" else rows * epochs

    def check():
        from qgkit.persist import checkpoint_bytes, load_checkpoint

        fails = []
        losses = [[float(v) for v in line.split(",")[1:]]
                  for line in _lines(out / "loss.csv")[1:]]
        if len(losses) != epochs + 1:
            fails.append(f"loss.csv has {len(losses)} epochs, expected {epochs + 1}")
        if not all(math.isfinite(v) for row in losses for v in row):
            fails.append("non-finite loss")
        elif kind == "qg" and losses and not losses[-1][0] < losses[0][0]:
            fails.append(f"qg loss did not fall: {losses[0][0]} -> {losses[-1][0]}")
        ck = load_checkpoint(ckpt)
        blob = ckpt.read_bytes()
        if checkpoint_bytes(ck.kind, ck.config, ck.tensors, ck.vocab_hash) != blob:
            fails.append("checkpoint load -> bytes is not identical")
        return fails, {"loss": losses, "checkpoint_sha256": hashlib.sha256(blob).hexdigest()}

    argv = ["train", "--kind", kind, "--data", str(data),
            "--vocab", str(inp.work / "prep" / "vocab.txt"), "--out", str(out),
            "--config", str(config), "--seed", str(inp.seed)]
    default = "train_cls" if kind == "classifier" else "train_qg"
    return Call(label or default, argv, work, check)


def generate_call(inp: Inputs, qg: Path, n: int, classifier: Path | None) -> Call:
    """``generate`` with a classifier checkpoint, or the oracle at 1.0."""
    data = inp.work / "gen_data.jsonl"
    _subset(inp.work / "prep" / "qg_train.jsonl", data, n)
    out = inp.work / "gen"
    ids = [json.loads(line)["id"] for line in _lines(data)]
    choice = ["--classifier", str(classifier)] if classifier else ["--oracle", "1.0"]

    def check():
        records = [json.loads(line) for line in _lines(out / "dump.jsonl")]
        fails = []
        if [r["id"] for r in records] != ids:
            fails.append(f"dump has {len(records)} lines for {len(ids)} examples")
        tokens = [[r["id"], r["predicted_iw"], r["generated"]] for r in records]
        digest = hashlib.sha256(json.dumps(tokens).encode()).hexdigest()
        return fails, {"generated_sha256": digest}

    argv = ["generate", "--qg", str(qg), *choice, "--data", str(data),
            "--vocab", str(inp.work / "prep" / "vocab.txt"), "--out", str(out),
            "--seed", str(inp.seed)]
    return Call("generate", argv, n, check)


def evaluate_call(inp: Inputs, dump: Path, n: int) -> Call:
    out = inp.work / "eval"

    def check():
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        fails = []
        if report["n_examples"] != n:
            fails.append(f"report scores {report['n_examples']} pairs, expected {n}")
        scores = {k: v for k, v in report.items()
                  if k.startswith(("bleu_", "rouge_l", "meteor_variant", "total_iw"))
                  and k != "rouge_l_beta"}
        if not all(0.0 <= v <= 1.0 for v in scores.values()):
            fails.append(f"score outside [0, 1]: {scores}")
        return fails, scores

    return Call("evaluate", ["evaluate", "--dump", str(dump), "--out", str(out),
                             "--seed", str(inp.seed)], n, check)


def sweep_call(inp: Inputs, qg: Path, n: int, grid: str, seeds: str) -> Call:
    data = inp.work / "sweep_data.jsonl"
    _subset(inp.work / "prep" / "qg_train.jsonl", data, n)
    out = inp.work / "sweep"
    accs, sds = grid.split(","), seeds.split(",")

    def check():
        rows = [line.split(",") for line in _lines(out / "sweep.csv")]
        fails = []
        if len(rows) != 1 + len(accs) * (len(sds) + 1):
            fails.append(f"sweep.csv has {len(rows)} rows")
        values = [[float(v) for v in row[2:]] for row in rows[1:]]
        if not all(math.isfinite(v) for row in values for v in row):
            fails.append("non-finite sweep value")
        exact = {tuple(row[2:]) for row in rows[1:] if row[0] == "1.0" and row[1] != "mean"}
        if len(exact) != 1:
            fails.append("accuracy-1.0 rows differ across seeds")
        return fails, {"rows": [row[:2] + [float(v) for v in row[2:]] for row in rows[1:]]}

    argv = ["sweep", "--qg", str(qg), "--data", str(data),
            "--vocab", str(inp.work / "prep" / "vocab.txt"), "--grid", grid,
            "--seeds", seeds, "--out", str(out), "--seed", str(inp.seed)]
    return Call("sweep", argv, n * len(accs) * len(sds), check)


# -- set-up and cycle of each workload ----------------------------------------


def setup(name: str, inp: Inputs, run_call, timed) -> None:
    """Build the workload's program-side inputs.  ``run_call`` runs a CLI
    call (timed), ``timed`` a direct program call; only those count as
    set-up time."""
    sizes = SIZES[name]
    run_call(prepare_call(inp))
    if name == "sweep":
        n, e = sizes["setup_cls"]
        run_call(train_call(inp, "classifier", n, e, "cls0", label="setup.train_cls"))
        n, e = sizes["setup_qg"]
        run_call(train_call(inp, "qg", n, e, "qg0", label="setup.train_qg"))
    elif name == "long":
        timed(lambda: _untrained_checkpoint(inp))


def _untrained_checkpoint(inp: Inputs) -> None:
    from qgkit.data import Vocabulary
    from qgkit.generator import QGConfig, init_qg
    from qgkit.persist import atomic_write_bytes, checkpoint_bytes

    vocab = Vocabulary.load(inp.work / "prep" / "vocab.txt")
    config = QGConfig(seed=inp.seed)
    params = init_qg(config, len(vocab), np.random.default_rng(inp.seed))
    blob = checkpoint_bytes("qg", config.to_dict(), params.tensors, vocab.content_hash())
    atomic_write_bytes(inp.work / "qg0.ckpt", blob)


def cycle(name: str, inp: Inputs) -> Iterator[Call]:
    """The cycle's calls, in order; each is built just before it runs,
    because later calls read what earlier ones wrote."""
    sizes = SIZES[name]
    n, e = sizes["cls"]
    yield train_call(inp, "classifier", n, e, "cls")
    n, e = sizes["qg"]
    yield train_call(inp, "qg", n, e, "qg", max_len=sizes.get("max_len"))
    if name == "train":
        qg, cls = inp.work / "qg" / "qg.ckpt", None
    elif name == "sweep":
        qg, cls = inp.work / "qg0" / "qg.ckpt", inp.work / "cls0" / "classifier.ckpt"
    else:
        qg, cls = inp.work / "qg0.ckpt", None
    yield generate_call(inp, qg, sizes["generate"], cls)
    dump = inp.work / "gen" / "dump.jsonl"
    n_pairs = sizes["generate"]
    if name == "long":
        combined = inp.work / "eval_dump.jsonl"
        pairs = _lines(inp.files["pairs"])
        combined.write_text("\n".join(_lines(dump) + pairs) + "\n", encoding="utf-8")
        dump, n_pairs = combined, n_pairs + len(pairs)
    yield evaluate_call(inp, dump, n_pairs)
    yield sweep_call(inp, qg, *sizes["sweep"])
