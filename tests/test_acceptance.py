"""Release acceptance gate.

Nine criteria, one test each, every test printing a single [PASS] or
[FAIL] line to the terminal (bypassing capture) before asserting:

  A1  gradient suite: every op plus the full generator graph vs central
      finite differences, 100 seeded instances, worst relative error
      below 1e-4, under 60 seconds
  A2  combined generate/copy distribution vs brute-force enumeration,
      1000 seeded instances, within 1e-9
  A3  ten-example overfit: per-token loss below 0.1 and all ten
      questions reproduced exactly, under five minutes
  A4  oracle classifier calibration at 0.6 and 0.9 over 100k draws,
      within four binomial standard deviations
  A5  oracle-accuracy sweep on the overfit model over a 50-example
      set: mean BLEU-4 and total interrogative recall across five
      seeds non-decreasing from 0.6 to 1.0, recall at 1.0 >= 99%
  A6  insertion pipeline beats a no-insertion baseline on held-out
      synthetic data (strict recall improvement)
  A7  metric implementations vs brute-force oracles on 500 random
      pairs, plus perfect scores on an identity corpus
  A8  downsampling yields min(count, cap) per class on a realistic
      class histogram (a real corpus file is checked too when
      QGKIT_SQUAD_TRAIN points at one)
  A9  a full prepare/train/generate/evaluate chain rerun with the same
      config and seeds produces byte-identical artifacts
"""

import dataclasses
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    oracle_bleu,
    oracle_final_dist,
    oracle_lcs,
    oracle_meteor_pair,
    random_token_pair,
)
from qgkit import autodiff as ad
from qgkit.autodiff import Tape, Tensor, backward
from qgkit.classifier import ClassifierConfig, oracle_classifier, train_classifier
from qgkit.cli import main as cli_main
from qgkit.data import (
    EOS_ID,
    SOS_ID,
    IWClass,
    MetaTag,
    TaggedSequence,
    Vocabulary,
    class_counts,
    downsample,
    load_corpus,
    tokenize,
)
from qgkit.gradcheck import check_gradients
from qgkit.generator import (
    QGConfig,
    _copy_segments,
    decode_step,
    encode,
    generate,
    init_decoder_state,
    init_qg,
    pipeline_generate,
    sequence_loss,
    train_qg,
)
from qgkit.metrics import bleu_n, evaluate_generation, meteor_variant, rouge_l
from qgkit.synthetic import bundled_corpus, make_separable_corpus


def verdict(capsys, criterion: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def note(capsys, text: str) -> None:
    with capsys.disabled():
        print(f"[info] {text}")


# ---------------------------------------------------------------------------
# A1: gradient suite.
# ---------------------------------------------------------------------------


def _weighted(out: Tensor, rng) -> Tensor:
    """Reduce to a scalar against a fixed random cotangent."""
    return ad.reduce_sum(ad.mul(out, Tensor(rng.standard_normal(out.shape))))


def _case_add(rng):
    x, y = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((3, 4)))
    return lambda: _weighted(ad.add(x, y), np.random.default_rng(0)), [x, y]


def _two(rng):
    return Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((3, 4)))


def _make_cases():
    """One builder per op; each returns (loss_fn, tensors_to_check) with
    the loss closing over fixed cotangents so finite differences probe a
    stable function."""

    def binary(op):
        def build(rng):
            x, y = _two(rng)
            R = Tensor(rng.standard_normal((3, 4)))
            return lambda: ad.reduce_sum(ad.mul(op(x, y), R)), [x, y]
        return build

    def unary(op, draw=None):
        def build(rng):
            x = Tensor(draw(rng) if draw else rng.standard_normal((3, 4)))
            R = Tensor(rng.standard_normal(x.shape))
            return lambda: ad.reduce_sum(ad.mul(op(x), R)), [x]
        return build

    def mul_scalar(rng):
        x = Tensor(rng.standard_normal((3, 4)))
        s = Tensor(rng.standard_normal((1,)))
        R = Tensor(rng.standard_normal((3, 4)))
        return lambda: ad.reduce_sum(ad.mul(ad.mul(x, s), R)), [x, s]

    def away_from_zero(rng):
        # relu has a kink at 0; keep probes clear of it
        return rng.uniform(0.1, 1.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))

    def matmul(rng):
        a, b = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((4, 2)))
        R = Tensor(rng.standard_normal((3, 2)))
        return lambda: ad.reduce_sum(ad.mul(ad.matmul(a, b), R)), [a, b]

    def transpose(rng):
        x = Tensor(rng.standard_normal((3, 4)))
        R = Tensor(rng.standard_normal((4, 3)))
        return lambda: ad.reduce_sum(ad.mul(ad.transpose(x), R)), [x]

    def reshape(rng):
        x = Tensor(rng.standard_normal((3, 4)))
        R = Tensor(rng.standard_normal((2, 6)))
        return lambda: ad.reduce_sum(ad.mul(ad.reshape(x, (2, 6)), R)), [x]

    def concat(rng):
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((1, 3)))
        d = Tensor(rng.standard_normal((2, 2)))
        R0 = Tensor(rng.standard_normal((3, 3)))
        R1 = Tensor(rng.standard_normal((2, 5)))

        def loss():
            rows = ad.reduce_sum(ad.mul(ad.concat([a, b], axis=0), R0))
            cols = ad.reduce_sum(ad.mul(ad.concat([a, d], axis=1), R1))
            return ad.add(rows, cols)

        return loss, [a, b, d]

    def reduce_sum(rng):
        x = Tensor(rng.standard_normal((3, 4)))
        R = Tensor(rng.standard_normal((3, 1)))

        def loss():
            partial = ad.mul(ad.reduce_sum(x, axis=1, keepdims=True), R)
            return ad.add(ad.reduce_sum(x), ad.reduce_sum(partial))

        return loss, [x]

    def reduce_mean(rng):
        x = Tensor(rng.standard_normal((3, 4)))
        return lambda: ad.reduce_mean(x), [x]

    def softmax(rng):
        x = Tensor(rng.standard_normal((3, 5)))
        R0 = Tensor(rng.standard_normal((3, 5)))
        R1 = Tensor(rng.standard_normal((3, 5)))

        def loss():
            rows = ad.reduce_sum(ad.mul(ad.softmax(x, axis=-1), R0))
            cols = ad.reduce_sum(ad.mul(ad.softmax(x, axis=0), R1))
            return ad.add(rows, cols)

        return loss, [x]

    def segment_max(rng):
        # spread values so no segment has a near-tie at the max
        scores = Tensor(rng.permutation(7) * 0.3 + rng.uniform(-0.1, 0.1, 7))
        segments = [[0, 2], [1, 4, 5], [3], [6]]
        R = Tensor(rng.standard_normal((4,)))
        return lambda: ad.reduce_sum(ad.mul(ad.segment_max(scores, segments)[0], R)), \
            [scores]

    def lookup(rng):
        table = Tensor(rng.standard_normal((6, 3)))
        ids = [0, 2, 2, 5]  # repeated row exercises gradient accumulation
        R = Tensor(rng.standard_normal((4, 3)))
        return lambda: ad.reduce_sum(ad.mul(ad.lookup(table, ids), R)), [table]

    def scatter_sum(rng):
        values = Tensor(rng.standard_normal((6,)))
        R = Tensor(rng.standard_normal((5,)))
        return lambda: ad.reduce_sum(
            ad.mul(ad.scatter_sum(values, [0, 2, 1, 2, 0, 4], 5), R)
        ), [values]

    def cross_entropy(rng):
        p = Tensor(rng.uniform(0.1, 1.0, (5,)))
        gold = int(rng.integers(0, 5))
        return lambda: ad.cross_entropy(p, gold), [p]

    return [
        ("add", binary(ad.add)),
        ("sub", binary(ad.sub)),
        ("mul", binary(ad.mul)),
        ("mul_scalar", mul_scalar),
        ("sigmoid", unary(ad.sigmoid)),
        ("tanh", unary(ad.tanh)),
        ("relu", unary(ad.relu, draw=away_from_zero)),
        ("matmul", matmul),
        ("transpose", transpose),
        ("reshape", reshape),
        ("concat", concat),
        ("reduce_sum", reduce_sum),
        ("reduce_mean", reduce_mean),
        ("softmax", softmax),
        ("segment_max", segment_max),
        ("lookup", lookup),
        ("scatter_sum", scatter_sum),
        ("cross_entropy", cross_entropy),
    ]


def _tiny_qg_config(**kw):
    base = dict(word_dim=5, meta_dim=3, encoder_hidden=4, decoder_hidden=6,
                epochs=2, lr=5e-3, seed=0)
    base.update(kw)
    return QGConfig(**base)


def _random_sequence(rng, vocab_size, n, max_oov=2):
    n_oov = int(rng.integers(0, max_oov + 1))
    oov_words = [f"novel{k}" for k in range(n_oov)]
    pool = list(range(7, vocab_size)) + [vocab_size + k for k in range(n_oov)]
    ids = [int(pool[rng.integers(0, len(pool))]) for _ in range(n)]
    if n >= 2 and len(set(ids)) == len(ids):
        ids[n - 1] = ids[0]
    surfaces = [f"w{i}" if i < vocab_size else oov_words[i - vocab_size] for i in ids]
    meta = [int(rng.integers(0, 3)) for _ in range(n)]
    return TaggedSequence(surfaces=surfaces, ids=ids, meta=meta, oov_words=oov_words)


def _graph_instance(seed):
    rng = np.random.default_rng(seed)
    vocab_size = 16
    params = init_qg(_tiny_qg_config(), vocab_size, rng).tensors
    seq = _random_sequence(rng, vocab_size, 6)
    targets = [int(rng.integers(0, vocab_size + len(seq.oov_words)))
               for _ in range(3)] + [EOS_ID]
    return params, seq, targets


def _min_segment_gap(params, seq, targets):
    """Closest top-two raw-attention race inside any repeated-word group;
    finite differences flip the segment max when this is tiny."""
    enc = encode([seq], params)
    state = init_decoder_state(enc, params)
    prev = SOS_ID
    gaps = [np.inf]
    for tid in targets:
        step, state = decode_step(prev, state, enc, params)
        raw = step.raw_attention.data
        for seg in _copy_segments(seq.ids):
            if len(seg) >= 2:
                vals = np.sort(raw[list(seg)])
                gaps.append(float(vals[-1] - vals[-2]))
        prev = tid
    return min(gaps)


def test_a1_gradient_suite(capsys):
    start = time.time()
    worst = 0.0
    instances = 0
    for name, build in _make_cases():
        for seed in range(5):
            rng = np.random.default_rng(1000 * instances + seed)
            loss_fn, inputs = build(rng)
            with Tape() as tape:
                loss = loss_fn()
            backward(tape, loss)
            err = check_gradients(lambda: loss_fn().item(), inputs)
            assert err < 1e-4, f"{name} seed {seed}: {err:.2e}"
            worst = max(worst, err)
            instances += 1
    checked = 0
    seed = 0
    while checked < 10:
        params, seq, targets = _graph_instance(seed)
        seed += 1
        if _min_segment_gap(params, seq, targets) < 5e-3:
            continue
        with Tape() as tape:
            loss = sequence_loss([seq], [targets], params)
        backward(tape, loss)
        rng = np.random.default_rng(5000 + seed)
        err = check_gradients(
            lambda: sequence_loss([seq], [targets], params).item(),
            list(params.values()), coords_per_tensor=2, rng=rng,
        )
        worst = max(worst, err)
        instances += 1
        checked += 1
    elapsed = time.time() - start
    ok = worst < 1e-4 and instances == 100 and elapsed < 60.0
    verdict(capsys, "A1 gradient suite",
            ok, f"{instances} instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# A2: copy distribution vs enumeration.
# ---------------------------------------------------------------------------


def test_a2_copy_distribution_oracle(capsys):
    worst = 0.0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        vocab_size = int(rng.integers(15, 21))
        params = init_qg(_tiny_qg_config(), vocab_size, rng).tensors
        seq = _random_sequence(rng, vocab_size, int(rng.integers(1, 11)))
        enc = encode([seq], params)
        state = init_decoder_state(enc, params)
        prev = int(rng.integers(0, vocab_size))
        step, _ = decode_step(prev, state, enc, params)
        want = oracle_final_dist(
            step.generate_scores.data, step.raw_attention.data,
            seq.ids, vocab_size, len(seq.oov_words),
        )
        worst = max(worst, float(np.max(np.abs(step.final_dist.data - want))))
        worst = max(worst, abs(float(step.final_dist.data.sum()) - 1.0))
    ok = worst < 1e-9
    verdict(capsys, "A2 copy distribution",
            ok, f"1000 instances vs enumeration, worst dev {worst:.2e}")


# ---------------------------------------------------------------------------
# A3 + A5 share one overfit model.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def overfit():
    corpus = bundled_corpus("overfit10")
    vocab = Vocabulary.build(corpus)
    config = QGConfig()
    start = time.time()
    params, log = train_qg(corpus, config, vocab)
    elapsed = time.time() - start
    return {"corpus": corpus, "vocab": vocab, "config": config,
            "params": params, "log": log, "elapsed": elapsed}


def test_a3_overfit_ten_examples(capsys, overfit):
    corpus, vocab = overfit["corpus"], overfit["vocab"]
    config, params = overfit["config"], overfit["params"]
    start = time.time()
    loss = overfit["log"][-1]["per_token_loss"]
    exact = 0
    iw_hits = iw_total = 0
    for ex in corpus:
        res = generate(ex, ex.iw_class, config, params.tensors, vocab)
        exact += int(res.tokens == tokenize(ex.question))
        meta = list(res.source.meta)
        if int(MetaTag.Interrogative) in meta and res.attention.shape[0]:
            iw_total += 1
            iw_pos = meta.index(int(MetaTag.Interrogative))
            iw_hits += int(int(np.argmax(res.attention[0])) == iw_pos)
    elapsed = overfit["elapsed"] + (time.time() - start)
    # first-step attention on the inserted word is informative, not gated
    note(capsys, f"A3 first-step attention argmax on inserted word: "
                 f"{iw_hits}/{iw_total}")
    ok = loss < 0.1 and exact == 10 and elapsed < 300.0
    verdict(capsys, "A3 overfit",
            ok, f"per-token loss {loss:.4f}, {exact}/10 exact, {elapsed:.1f}s")


def test_a5_sweep_monotonic(capsys, overfit):
    corpus, vocab = overfit["corpus"], overfit["vocab"]
    config, params = overfit["config"], overfit["params"]
    eval_set = corpus * 5
    references = [tokenize(ex.question) for ex in eval_set]
    grid = [0.6, 0.7, 0.8, 0.9, 1.0]
    seeds = [0, 1, 2, 3, 4]
    mean_bleu4 = []
    mean_recall = []
    for accuracy in grid:
        b4, rec = [], []
        for sd in seeds:
            rng = np.random.default_rng(sd)
            candidates = [
                generate(ex, oracle_classifier(ex.iw_class, accuracy, rng),
                         config, params.tensors, vocab).tokens
                for ex in eval_set
            ]
            report = evaluate_generation(candidates, references)
            b4.append(report.bleu[3])
            rec.append(report.iw_scores.total_recall)
        mean_bleu4.append(sum(b4) / len(b4))
        mean_recall.append(sum(rec) / len(rec))
    monotone = all(a <= b + 1e-12 for a, b in zip(mean_bleu4, mean_bleu4[1:])) \
        and all(a <= b + 1e-12 for a, b in zip(mean_recall, mean_recall[1:]))
    ok = monotone and mean_recall[-1] >= 0.99
    verdict(capsys, "A5 sweep monotonicity", ok,
            f"BLEU-4 {mean_bleu4[0]:.3f}->{mean_bleu4[-1]:.3f}, "
            f"recall {mean_recall[0]:.3f}->{mean_recall[-1]:.3f}, "
            f"recall@1.0 {mean_recall[-1]:.3f}")


# ---------------------------------------------------------------------------
# A4: oracle calibration.
# ---------------------------------------------------------------------------


def test_a4_oracle_calibration(capsys):
    n = 100_000
    devs = []
    for accuracy in (0.6, 0.9):
        rng = np.random.default_rng(11)
        hits = sum(
            oracle_classifier(IWClass.Who, accuracy, rng) == IWClass.Who
            for _ in range(n)
        )
        sigma = (accuracy * (1.0 - accuracy) / n) ** 0.5
        devs.append(abs(hits / n - accuracy) / sigma)
    ok = all(d <= 4.0 for d in devs)
    verdict(capsys, "A4 oracle calibration",
            ok, f"100k draws, deviations {devs[0]:.2f} and {devs[1]:.2f} sigma")


# ---------------------------------------------------------------------------
# A6: insertion vs no-insertion on held-out synthetic data.
# ---------------------------------------------------------------------------


def test_a6_insertion_beats_baseline(capsys):
    train = make_separable_corpus(6, seed=0)
    held = make_separable_corpus(3, seed=1, novel=True)
    vocab = Vocabulary.build(train)
    cls_config = ClassifierConfig(
        use_answer_tagging=True, use_entity_type=True,
        word_dim=12, encoder_hidden=16, epochs=3, lr=5e-3, seed=0,
    )
    classifier, _ = train_classifier(train, cls_config, vocab)
    qg_dims = dict(word_dim=10, meta_dim=4, encoder_hidden=8, decoder_hidden=16,
                   epochs=8, lr=5e-3, seed=0)
    with_iw, _ = train_qg(train, QGConfig(**qg_dims), vocab)
    base_config = QGConfig(insert_iw=False, **qg_dims)
    without_iw, _ = train_qg(train, base_config, vocab)
    references = [tokenize(ex.question) for ex in held]
    piped = [pipeline_generate(ex, classifier, with_iw, vocab).tokens for ex in held]
    plain = [generate(ex, ex.iw_class, base_config, without_iw.tensors, vocab).tokens
             for ex in held]
    recall_piped = evaluate_generation(piped, references).iw_scores.total_recall
    recall_plain = evaluate_generation(plain, references).iw_scores.total_recall
    ok = recall_piped > recall_plain
    verdict(capsys, "A6 insertion effect", ok,
            f"held-out recall {recall_piped:.3f} with insertion vs "
            f"{recall_plain:.3f} without")


# ---------------------------------------------------------------------------
# A7: metric oracles.
# ---------------------------------------------------------------------------


def test_a7_metric_oracles(capsys):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(500):
        cand, ref = random_token_pair(rng, max_len=8)
        got = bleu_n([cand], [ref], 4)
        want = tuple(oracle_bleu([cand], [ref], k) for k in range(1, 5))
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
        lcs = oracle_lcs(cand, ref)
        f1 = 2.0 * lcs / (len(cand) + len(ref)) if lcs else 0.0
        worst = max(worst, abs(rouge_l([cand], [ref]) - f1))
        worst = max(worst,
                    abs(meteor_variant([cand], [ref]) - oracle_meteor_pair(cand, ref)))
    identity = [tokenize(ex.question) for ex in bundled_corpus("mini200")[:20]]
    report = evaluate_generation(identity, identity)
    identity_ok = all(
        abs(v - 1.0) < 1e-12
        for v in (*report.bleu, report.rouge_l, report.meteor_variant,
                  report.iw_scores.total_recall)
    )
    ok = worst < 1e-12 and identity_ok
    verdict(capsys, "A7 metric oracles", ok,
            f"500 pairs worst dev {worst:.2e}, identity corpus all 1.0: {identity_ok}")


# ---------------------------------------------------------------------------
# A8: downsampling counts at realistic scale.
# ---------------------------------------------------------------------------

# class histogram characteristic of a large reading-comprehension corpus
_HISTOGRAM = {
    IWClass.What: 50385,
    IWClass.Which: 6111,
    IWClass.Where: 3731,
    IWClass.When: 5437,
    IWClass.Who: 9162,
    IWClass.Why: 1224,
    IWClass.How: 9408,
    IWClass.Others: 9408,
}
_CAP = 4000


def test_a8_downsampling_counts(capsys):
    templates = {ex.iw_class: ex for ex in make_separable_corpus(1, seed=0)}
    replica = [
        dataclasses.replace(templates[cls], id=f"{cls.name.lower()}-{i}")
        for cls, count in _HISTOGRAM.items()
        for i in range(count)
    ]
    balanced = downsample(replica, _CAP, np.random.default_rng(0))
    counts = class_counts(balanced)
    expected = {cls: min(count, _CAP) for cls, count in _HISTOGRAM.items()}
    ok = counts == expected
    detail = f"replica of {len(replica)} examples capped at {_CAP}"
    squad_path = os.environ.get("QGKIT_SQUAD_TRAIN")
    if squad_path:
        real = load_corpus(squad_path)
        real_counts = class_counts(downsample(real, _CAP, np.random.default_rng(0)))
        ok = ok and real_counts == expected
        detail += f"; real corpus at {squad_path} checked"
    else:
        detail += "; no real corpus configured"
    verdict(capsys, "A8 downsampling", ok, detail)


# ---------------------------------------------------------------------------
# A9: end-to-end rerun reproducibility.
# ---------------------------------------------------------------------------

_A9_INI = """\
[qg]
word_dim = 8
meta_dim = 3
encoder_hidden = 6
decoder_hidden = 12
epochs = 2
"""


def _run_chain(root: Path, data: Path, ini: Path) -> Path:
    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    run("prepare", "--data", data, "--out", root / "prep", "--seed", 0)
    run("train", "--kind", "qg", "--data", root / "prep" / "qg_train.jsonl",
        "--vocab", root / "prep" / "vocab.txt", "--config", ini,
        "--out", root / "model", "--seed", 0)
    run("generate", "--qg", root / "model" / "qg.ckpt", "--oracle", "0.9",
        "--data", root / "prep" / "qg_train.jsonl",
        "--vocab", root / "prep" / "vocab.txt", "--out", root / "gen", "--seed", 7)
    run("evaluate", "--dump", root / "gen" / "dump.jsonl", "--out", root / "eval")
    return root


def test_a9_rerun_reproducibility(capsys, tmp_path):
    data = Path(__file__).resolve().parents[1] / "src" / "qgkit" / "assets" / \
        "overfit10.jsonl"
    ini = tmp_path / "a9.ini"
    ini.write_text(_A9_INI)
    first = _run_chain(tmp_path / "run1", data, ini)
    second = _run_chain(tmp_path / "run2", data, ini)
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    mismatches = []
    manifests = 0
    for rel in files:
        a, b = first / rel, second / rel
        if rel.name == "manifest.json":
            manifests += 1
            ma = json.loads(a.read_text())
            mb = json.loads(b.read_text())
            ma.pop("created"), mb.pop("created")
            if ma != mb:
                mismatches.append(str(rel))
        elif a.read_bytes() != b.read_bytes():
            mismatches.append(str(rel))
    ok = not mismatches and manifests == 4 and len(files) > manifests
    verdict(capsys, "A9 rerun reproducibility", ok,
            f"{len(files)} artifacts byte-identical across reruns"
            if ok else f"mismatched: {mismatches}")
