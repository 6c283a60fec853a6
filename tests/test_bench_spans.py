"""The benchmark's span tracer against the real modules.

``bench/spans.py`` wraps qgkit functions at the module attributes their
callers look them up through, and raises AttributeError on a missing
name.  Installing it here makes renaming or deleting a traced function
fail the test suite rather than only the traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_uninstall_restores():
    from qgkit import classifier, cli, generator

    spans = load_spans()
    before = {(m, a): getattr(m, a) for m in (cli, generator, classifier)
              for a in dir(m) if not a.startswith("__")}
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert generator.classify is not before[(generator, "classify")]
        assert cli.generate.__wrapped__ is before[(cli, "generate")]
    finally:
        tracer.uninstall()
    after = {(m, a): getattr(m, a) for (m, a) in before}
    assert after == before


def test_traced_sweep_decodes_each_pair_once(tmp_path):
    from qgkit import cli
    from qgkit.data import Vocabulary
    from qgkit.generator import QGConfig, init_qg
    from qgkit.persist import atomic_write_bytes, checkpoint_bytes

    prep = tmp_path / "prep"
    corpus = ROOT / "src" / "qgkit" / "assets" / "overfit10.jsonl"
    assert cli.main(["prepare", "--data", str(corpus), "--out", str(prep)]) == 0
    vocab = Vocabulary.load(prep / "vocab.txt")
    config = QGConfig(word_dim=8, meta_dim=4, encoder_hidden=8, decoder_hidden=8, max_len=4)
    params = init_qg(config, len(vocab), np.random.default_rng(0))
    atomic_write_bytes(tmp_path / "qg.ckpt", checkpoint_bytes(
        "qg", config.to_dict(), params.tensors, vocab.content_hash()))

    spans = load_spans()
    tracer = spans.Tracer()
    handed = []
    try:
        spans.install(tracer)
        # the sweep hands its pairs to generate_batch, which install() does
        # not wrap; wrap it here to see them
        tracer.wrap(cli, "generate_batch", "generator.generate_batch",
                    lambda _tr, args, _result: handed.extend(
                        (ex.id, int(predicted)) for ex, predicted in args[0]))
        with tracer.root("sweep"):
            assert cli.main(["sweep", "--qg", str(tmp_path / "qg.ckpt"),
                             "--data", str(prep / "qg_train.jsonl"),
                             "--grid", "0.5,0.8,1.0", "--seeds", "0,1",
                             "--out", str(tmp_path / "sweep")]) == 0
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans if s is not None]
    assert names.count("generator.generate_batch") == 1
    assert len(set(handed)) == len(handed) > 0
    # 10 examples x 3 accuracies x 2 seeds cells share the decodes
    assert names.count("classifier.oracle_classifier") == 60 > len(handed)


def test_traced_training_records_each_layer(tmp_path):
    # a refactor that moves a call off the module attribute the tracer
    # wraps leaves these spans, and the metrics built on them, empty
    from qgkit import cli

    prep = tmp_path / "prep"
    corpus = ROOT / "src" / "qgkit" / "assets" / "overfit10.jsonl"
    assert cli.main(["prepare", "--data", str(corpus), "--out", str(prep)]) == 0
    ini = tmp_path / "one_epoch.ini"
    ini.write_text("[classifier]\nepochs = 1\n\n[qg]\nepochs = 1\n")
    taped = {"autodiff.backward", "autodiff.adam_step", "layers.lstm_step"}
    want = {
        "classifier": taped | {"classifier.classify", "classifier.encode_summary"},
        "qg": taped | {"generator.sequence_loss", "generator.encode"},
    }
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        for kind in want:
            with tracer.root(kind):
                assert cli.main(["train", "--kind", kind, "--config", str(ini),
                                 "--data", str(prep / f"{kind}_train.jsonl"),
                                 "--vocab", str(prep / "vocab.txt"),
                                 "--out", str(tmp_path / kind)]) == 0
    finally:
        tracer.uninstall()
    for kind, names in want.items():
        seen = {s[0] for s in tracer.spans if s is not None and s[5] == kind}
        assert names <= seen, sorted(names - seen)
