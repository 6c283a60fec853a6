"""End-to-end tests for the experiment CLI.

Commands run in-process through main() so exit codes and stdout are
asserted directly.  A module-scoped workspace prepares the bundled
corpus and trains one tiny model of each kind; the slow steps happen
once."""

import errno
import json
import math
import os
import struct
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qgkit import autodiff, cli, generator, metrics
from qgkit.classifier import oracle_classifier
from qgkit.cli import main
from qgkit.data import IWClass, Vocabulary, class_counts, corpus_text, load_corpus, tokenize
from qgkit.generator import QGConfig, generate, generate_batch
from qgkit.metrics import evaluate_generation
from qgkit.autodiff import Tensor
from qgkit.persist import checkpoint_bytes, load_checkpoint, sha256_bytes

ASSETS = Path(__file__).resolve().parents[1] / "src" / "qgkit" / "assets"

SMALL_INI = """\
[classifier]
word_dim = 10
encoder_hidden = 12
epochs = 2

[qg]
word_dim = 10
meta_dim = 4
encoder_hidden = 8
decoder_hidden = 16
epochs = 2
"""


# `qgkit prepare --print-config` with no config file: every section and
# default, in schema order
DEFAULT_CONFIG_TEXT = """\
[run]
seed = 0

[prepare]
cap = 4000

[classifier]
use_answer_tagging = false
use_answer_embedding = false
use_entity_type = false
word_dim = 24
encoder_hidden = 32
entity_embed_dim = 5
epochs = 3
lr = 0.001
weight_decay = 0.01

[qg]
word_dim = 24
meta_dim = 6
encoder_hidden = 24
decoder_hidden = 48
epochs = 60
lr = 0.002
weight_decay = 0.0
max_len = 30
insert_iw = true
beam_size = 1

[sweep]
grid = 0.6,0.7,0.8,0.9,1.0
seeds = 0,1,2,3,4

"""


def run(*argv) -> int:
    return main([str(a) for a in argv])


def assert_one_error_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


def with_header(blob: bytes, edit) -> bytes:
    """Checkpoint bytes whose JSON header is replaced by ``edit(header)``
    (a dict is re-serialized; bytes are used as they are)."""
    n = struct.unpack("<Q", blob[4:12])[0]
    header = edit(json.loads(blob[12 : 12 + n]))
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    return blob[:4] + struct.pack("<Q", len(raw)) + raw + blob[12 + n :]


def edit_config(**changes):
    """Header edit setting (or, for a None value, deleting) config keys."""
    def edit(header):
        for key, value in changes.items():
            if value is None:
                del header["config"][key]
            else:
                header["config"][key] = value
        return header
    return edit


def drop_key(key):
    def edit(header):
        del header[key]
        return header
    return edit


def edit_dim(name, change):
    """Header edit passing tensor ``name``'s first dimension through ``change``."""
    def edit(header):
        shape = next(e["shape"] for e in header["tensors"] if e["name"] == name)
        shape[0] = change(shape[0])
        return header
    return edit


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Prepared corpus plus one trained checkpoint of each kind."""
    root = tmp_path_factory.mktemp("cliws")
    ini = root / "small.ini"
    ini.write_text(SMALL_INI)
    prep = root / "prep"
    assert run("prepare", "--data", ASSETS / "mini200.jsonl", "--out", prep,
               "--cap", 20, "--seed", 0) == 0
    tiny = root / "tiny"
    assert run("prepare", "--data", ASSETS / "overfit10.jsonl", "--out", tiny,
               "--seed", 0) == 0
    cls_dir = root / "cls"
    assert run("train", "--kind", "classifier", "--data", prep / "classifier_train.jsonl",
               "--vocab", prep / "vocab.txt", "--config", ini, "--out", cls_dir,
               "--seed", 0) == 0
    qg_dir = root / "qg"
    assert run("train", "--kind", "qg", "--data", prep / "qg_train.jsonl",
               "--vocab", prep / "vocab.txt", "--config", ini, "--out", qg_dir,
               "--seed", 0) == 0
    gen_dir = root / "gen"
    assert run("generate", "--qg", qg_dir / "qg.ckpt", "--oracle", "1.0",
               "--data", prep / "qg_train.jsonl", "--vocab", prep / "vocab.txt",
               "--out", gen_dir, "--seed", 3) == 0
    return {
        "root": root, "ini": ini, "prep": prep, "tiny": tiny,
        "cls": cls_dir / "classifier.ckpt", "qg": qg_dir / "qg.ckpt",
        "cls_dir": cls_dir, "qg_dir": qg_dir,
        "dump": gen_dir / "dump.jsonl",
    }


class TestConfig:
    def test_print_config_defaults(self, capsys):
        assert run("prepare", "--print-config") == 0
        out = capsys.readouterr().out
        assert "[run]" in out and "seed = 0" in out
        assert "cap = 4000" in out
        assert "beam_size = 1" in out

    def test_print_config_reflects_file_and_seed(self, tmp_path, capsys):
        ini = tmp_path / "c.ini"
        ini.write_text("[qg]\nepochs = 7\n")
        assert run("train", "--config", ini, "--seed", 9, "--print-config") == 0
        out = capsys.readouterr().out
        assert "epochs = 7" in out
        assert "seed = 9" in out

    def test_unknown_section_fatal(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[nonsense]\nx = 1\n")
        assert run("train", "--config", ini, "--kind", "qg",
                   "--data", "x", "--out", tmp_path / "o") == 2

    def test_unknown_key_fatal(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[qg]\nbogus = 1\n")
        assert run("train", "--config", ini, "--kind", "qg",
                   "--data", "x", "--out", tmp_path / "o") == 2

    def test_bad_value_fatal_before_compute(self, tmp_path):
        # config rejection must precede any data access: data path is bogus
        ini = tmp_path / "c.ini"
        ini.write_text("[qg]\nepochs = banana\n")
        assert run("train", "--config", ini, "--kind", "qg",
                   "--data", tmp_path / "missing.jsonl", "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()

    def test_print_config_is_exact(self, capsys):
        assert run("prepare", "--print-config") == 0
        assert capsys.readouterr().out == DEFAULT_CONFIG_TEXT

    @pytest.mark.parametrize("kind,ini", [
        ("qg", "[qg]\nepochs = 0\n"),
        ("classifier", "[classifier]\nlr = -1\n"),
        ("classifier", "[classifier]\nweight_decay = -0.1\n"),
        ("qg", "[qg]\nlr = nan\n"),
        ("classifier", "[classifier]\nweight_decay = inf\n"),
    ], ids=["qg-epochs", "classifier-lr", "classifier-weight_decay", "qg-lr-nan",
            "classifier-weight_decay-inf"])
    def test_out_of_range_value_fatal(self, ws, tmp_path, capsys, kind, ini):
        path = tmp_path / "c.ini"
        path.write_text(ini)
        data = ws["prep"] / ("qg_train.jsonl" if kind == "qg" else "classifier_train.jsonl")
        assert run("train", "--config", path, "--kind", kind, "--data", data,
                   "--vocab", ws["prep"] / "vocab.txt", "--out", tmp_path / "o") == 2
        assert_one_error_line(capsys)
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, tmp_path):
        assert run("prepare", "--config", tmp_path / "nope.ini",
                   "--data", "x", "--out", tmp_path / "o") == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        assert run("frobnicate") == 2
        assert "invalid choice: 'frobnicate'" in assert_one_error_line(capsys)


class TestPrepare:
    def test_outputs_exist(self, ws):
        for name in ("classifier_train.jsonl", "qg_train.jsonl", "vocab.txt",
                     "stats.csv", "manifest.json"):
            assert (ws["prep"] / name).is_file()

    def test_counts_are_min_of_count_and_cap(self, ws):
        original = class_counts(load_corpus(ASSETS / "mini200.jsonl"))
        balanced = class_counts(load_corpus(ws["prep"] / "classifier_train.jsonl"))
        for c in IWClass:
            assert balanced[c] == min(original[c], 20)

    def test_qg_set_is_full_corpus(self, ws):
        full = corpus_text(load_corpus(ASSETS / "mini200.jsonl"))
        assert (ws["prep"] / "qg_train.jsonl").read_text() == full

    def test_stats_csv_matches_counts(self, ws):
        original = class_counts(load_corpus(ASSETS / "mini200.jsonl"))
        lines = (ws["prep"] / "stats.csv").read_text().splitlines()
        assert lines[0] == "class,original,downsampled"
        rows = dict()
        for line in lines[1:]:
            name, before, after = line.split(",")
            rows[name] = (int(before), int(after))
        assert list(rows) == [c.name for c in IWClass]
        for c in IWClass:
            assert rows[c.name] == (original[c], min(original[c], 20))

    def test_vocab_matches_builder(self, ws):
        built = Vocabulary.build(load_corpus(ASSETS / "mini200.jsonl"))
        assert (ws["prep"] / "vocab.txt").read_text() == built.text()

    def test_prints_stats_table(self, tmp_path, capsys):
        assert run("prepare", "--data", ASSETS / "overfit10.jsonl",
                   "--out", tmp_path / "o", "--seed", 0) == 0
        out = capsys.readouterr().out
        assert "class" in out and "Others" in out

    def test_manifest_hashes_artifacts(self, ws):
        manifest = json.loads((ws["prep"] / "manifest.json").read_text())
        assert manifest["command"] == "prepare"
        assert manifest["seeds"] == [0]
        for name, digest in manifest["artifacts"].items():
            assert sha256_bytes((ws["prep"] / name).read_bytes()) == digest
        assert "created" in manifest

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        assert run("prepare", "--data", ASSETS / "mini200.jsonl",
                   "--out", tmp_path / "again", "--cap", 20, "--seed", 0) == 0
        for name in ("classifier_train.jsonl", "qg_train.jsonl", "vocab.txt", "stats.csv"):
            assert (tmp_path / "again" / name).read_bytes() == \
                (ws["prep"] / name).read_bytes()

    def test_empty_input_no_partial_outputs(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run("prepare", "--data", empty, "--out", tmp_path / "o") != 0
        assert not (tmp_path / "o").exists()

    def test_malformed_records_listed(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "r1", "nope": 1}\n{"id": "r2"}\n')
        assert run("prepare", "--data", bad, "--out", tmp_path / "o") != 0
        err = capsys.readouterr().err
        assert "r1" in err and "r2" in err
        assert not (tmp_path / "o").exists()

    def test_missing_data_file(self, tmp_path):
        assert run("prepare", "--data", tmp_path / "nope.jsonl",
                   "--out", tmp_path / "o") == 2


class TestTrain:
    def test_classifier_checkpoint_loads(self, ws):
        ck = load_checkpoint(ws["cls"])
        assert ck.kind == "classifier"
        vocab = Vocabulary.load(ws["prep"] / "vocab.txt")
        assert ck.vocab_hash == vocab.content_hash()
        assert ck.config["epochs"] == 2 and ck.config["word_dim"] == 10

    def test_qg_checkpoint_loads(self, ws):
        ck = load_checkpoint(ws["qg"])
        assert ck.kind == "qg"
        assert ck.config["decoder_hidden"] == 16

    def test_loss_csv_headers(self, ws):
        cls_lines = (ws["cls_dir"] / "loss.csv").read_text().splitlines()
        assert cls_lines[0] == "epoch,train_loss,dev_accuracy"
        assert len(cls_lines) == 1 + 3  # epoch 0 plus two training epochs
        qg_lines = (ws["qg_dir"] / "loss.csv").read_text().splitlines()
        assert qg_lines[0] == "epoch,per_token_loss"
        assert float(qg_lines[-1].split(",")[1]) < float(qg_lines[1].split(",")[1])

    def test_same_config_same_seed_identical_checkpoint(self, ws, tmp_path):
        out = tmp_path / "retrain"
        assert run("train", "--kind", "qg", "--data", ws["prep"] / "qg_train.jsonl",
                   "--vocab", ws["prep"] / "vocab.txt", "--config", ws["ini"],
                   "--out", out, "--seed", 0) == 0
        assert (out / "qg.ckpt").read_bytes() == Path(ws["qg"]).read_bytes()
        assert (out / "loss.csv").read_bytes() == (ws["qg_dir"] / "loss.csv").read_bytes()

    def test_missing_vocab(self, ws, tmp_path):
        assert run("train", "--kind", "qg", "--data", ws["prep"] / "qg_train.jsonl",
                   "--vocab", tmp_path / "nope.txt", "--config", ws["ini"],
                   "--out", tmp_path / "o") == 2


def assert_qg_checkpoint_fatal(ws, tmp_path, capsys, command, blob) -> str:
    """``command`` given ``blob`` as its qg checkpoint ends in one error
    line, exit 1 and no output directory; returns the line."""
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob)
    extra = ["--oracle", "1.0"] if command == "generate" else ["--grid", "1.0", "--seeds", "0"]
    capsys.readouterr()
    assert run(command, "--qg", bad, "--data", ws["prep"] / "qg_train.jsonl",
               "--vocab", ws["prep"] / "vocab.txt", "--out", tmp_path / "o", *extra) == 1
    assert not (tmp_path / "o").exists()
    return assert_one_error_line(capsys)


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("edit", [
    edit_config(dropout=0.1),
    edit_config(beam_size=None),
    edit_config(max_len="30"),
    edit_config(epochs=True),
    edit_config(epochs=0),
    lambda header: b"{not json",
    drop_key("tensors"),
    edit_dim("att.Wa", lambda n: n + 0.9),
    edit_dim("att.Wa", str),
    edit_dim("out.b", bool),
], ids=["extra-key", "missing-key", "ill-typed", "bool-as-int", "out-of-range",
        "bad-json", "no-tensors", "float-dim", "str-dim", "bool-dim"])
def test_bad_checkpoint_fatal(ws, tmp_path, capsys, command, edit):
    assert_qg_checkpoint_fatal(ws, tmp_path, capsys, command,
                               with_header(Path(ws["qg"]).read_bytes(), edit))


@pytest.mark.parametrize("command", ["generate", "sweep"])
def test_repeated_tensor_name_fatal(ws, tmp_path, capsys, command):
    # a second, zero-filled att.Wa after the real one's payload would
    # replace it if it loaded
    shape = load_checkpoint(ws["qg"]).tensors["att.Wa"].shape

    def repeat(header):
        header["tensors"].append({"name": "att.Wa", "shape": list(shape)})
        return header

    blob = with_header(Path(ws["qg"]).read_bytes(), repeat) + bytes(8 * shape[0] * shape[1])
    assert "listed twice" in assert_qg_checkpoint_fatal(ws, tmp_path, capsys, command, blob)


class TestGenerate:
    def test_dump_schema(self, ws):
        lines = Path(ws["dump"]).read_text().splitlines()
        corpus = load_corpus(ws["prep"] / "qg_train.jsonl")
        assert len(lines) == len(corpus)
        rec = json.loads(lines[0])
        assert sorted(rec) == ["attention", "generated", "gold", "id",
                               "manifest", "predicted_iw", "provenance"]
        assert rec["manifest"] == "manifest.json"
        assert rec["provenance"] == "oracle@1.0"

    def test_oracle_at_one_predicts_gold(self, ws):
        corpus = {ex.id: ex for ex in load_corpus(ws["prep"] / "qg_train.jsonl")}
        for line in Path(ws["dump"]).read_text().splitlines():
            rec = json.loads(line)
            assert rec["predicted_iw"] == corpus[rec["id"]].iw_class.name.lower()
            assert rec["gold"] == tokenize(corpus[rec["id"]].question)

    def test_attention_rows_are_distributions(self, ws):
        rec = json.loads(Path(ws["dump"]).read_text().splitlines()[0])
        for row in rec["attention"]:
            assert abs(sum(row) - 1.0) < 1e-9
            assert all(v >= 0.0 for v in row)

    def test_model_classifier_path(self, ws, tmp_path):
        out = tmp_path / "gen"
        assert run("generate", "--qg", ws["qg"], "--classifier", ws["cls"],
                   "--data", ws["prep"] / "qg_train.jsonl",
                   "--vocab", ws["prep"] / "vocab.txt", "--out", out) == 0
        rec = json.loads((out / "dump.jsonl").read_text().splitlines()[0])
        assert rec["provenance"] == "model"
        assert sorted(rec) == ["attention", "generated", "gold", "id",
                               "manifest", "predicted_iw", "provenance"]

    def test_vocab_hash_mismatch(self, ws, tmp_path):
        assert run("generate", "--qg", ws["qg"], "--oracle", "1.0",
                   "--data", ws["tiny"] / "qg_train.jsonl",
                   "--vocab", ws["tiny"] / "vocab.txt",
                   "--out", tmp_path / "o") == 1
        assert not (tmp_path / "o").exists()

    def test_classifier_and_oracle_exclusive(self, ws, tmp_path):
        assert run("generate", "--qg", ws["qg"], "--classifier", ws["cls"],
                   "--oracle", "0.5", "--data", ws["prep"] / "qg_train.jsonl",
                   "--vocab", ws["prep"] / "vocab.txt", "--out", tmp_path / "o") == 2
        assert run("generate", "--qg", ws["qg"],
                   "--data", ws["prep"] / "qg_train.jsonl",
                   "--vocab", ws["prep"] / "vocab.txt", "--out", tmp_path / "o") == 2

    def test_bad_oracle_accuracy(self, ws, tmp_path):
        assert run("generate", "--qg", ws["qg"], "--oracle", "1.5",
                   "--data", ws["prep"] / "qg_train.jsonl",
                   "--vocab", ws["prep"] / "vocab.txt", "--out", tmp_path / "o") == 2

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        out = tmp_path / "gen"
        assert run("generate", "--qg", ws["qg"], "--oracle", "1.0",
                   "--data", ws["prep"] / "qg_train.jsonl",
                   "--vocab", ws["prep"] / "vocab.txt", "--out", out, "--seed", 3) == 0
        assert (out / "dump.jsonl").read_bytes() == Path(ws["dump"]).read_bytes()


class TestEvaluate:
    def test_reports_written(self, ws, tmp_path, capsys):
        out = tmp_path / "eval"
        assert run("evaluate", "--dump", ws["dump"], "--out", out) == 0
        printed = capsys.readouterr().out
        assert "total" in printed and "recall" in printed
        report = json.loads((out / "report.json").read_text())
        for key in ("bleu_1", "bleu_4", "rouge_l", "meteor_variant",
                    "total_iw_recall", "iw_table", "n_examples"):
            assert key in report
        header, values = (out / "report.csv").read_text().splitlines()
        assert header.split(",")[0] == "bleu_1"
        for v in values.split(","):
            float(v)

    def test_identity_dump_scores_one(self, ws, tmp_path):
        corpus = load_corpus(ws["prep"] / "qg_train.jsonl")
        dump = tmp_path / "ideal.jsonl"
        lines = []
        for ex in corpus:
            gold = tokenize(ex.question)
            lines.append(json.dumps({
                "id": ex.id, "predicted_iw": ex.iw_class.name.lower(),
                "generated": gold, "gold": gold, "attention": [],
                "provenance": "oracle@1.0", "manifest": "manifest.json",
            }))
        dump.write_text("\n".join(lines) + "\n")
        out = tmp_path / "eval"
        assert run("evaluate", "--dump", dump, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        for key in ("bleu_1", "bleu_2", "bleu_3", "bleu_4", "rouge_l",
                    "meteor_variant", "total_iw_recall"):
            assert report[key] == pytest.approx(1.0)

    def test_empty_dump_errors(self, tmp_path):
        dump = tmp_path / "empty.jsonl"
        dump.write_text("")
        assert run("evaluate", "--dump", dump, "--out", tmp_path / "o") == 1
        assert not (tmp_path / "o").exists()

    def test_bad_dump_line(self, tmp_path):
        dump = tmp_path / "bad.jsonl"
        dump.write_text('{"generated": ["a"]}\n')
        assert run("evaluate", "--dump", dump, "--out", tmp_path / "o") == 1


@pytest.fixture(scope="module")
def sweep_dir(ws, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    assert run("sweep", "--qg", ws["qg"], "--data", ws["prep"] / "qg_train.jsonl",
               "--vocab", ws["prep"] / "vocab.txt",
               "--grid", "0.60,1.0", "--seeds", "0,1", "--out", out) == 0
    return out


class TestSweep:
    def test_row_shape(self, sweep_dir):
        lines = (sweep_dir / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("accuracy,seed,bleu_1")
        # two accuracies x (two seeds + one mean row)
        assert len(lines) == 1 + 2 * 3

    def test_accuracy_echoed_exactly(self, sweep_dir):
        lines = (sweep_dir / "sweep.csv").read_text().splitlines()[1:]
        assert [l.split(",")[0] for l in lines] == ["0.60"] * 3 + ["1.0"] * 3
        assert [l.split(",")[1] for l in lines] == ["0", "1", "mean"] * 2

    def test_mean_rows_average_seed_rows(self, sweep_dir):
        lines = (sweep_dir / "sweep.csv").read_text().splitlines()
        for block in (lines[1:4], lines[4:7]):
            seeds = [list(map(float, l.split(",")[2:])) for l in block[:2]]
            mean = list(map(float, block[2].split(",")[2:]))
            for j, m in enumerate(mean):
                assert m == pytest.approx((seeds[0][j] + seeds[1][j]) / 2)

    def test_perfect_oracle_seed_invariant(self, sweep_dir):
        lines = (sweep_dir / "sweep.csv").read_text().splitlines()
        assert lines[4].split(",")[2:] == lines[5].split(",")[2:]

    def test_generate_oracle_scores_its_cell(self, ws, sweep_dir, tmp_path):
        # generate --oracle a --seed s decodes the classes of sweep cell
        # (a, s), so evaluating its dump gives that cell's row
        gen, scores = tmp_path / "gen", tmp_path / "eval"
        assert run("generate", "--qg", ws["qg"], "--oracle", "0.60", "--seed", 1,
                   "--data", ws["prep"] / "qg_train.jsonl",
                   "--vocab", ws["prep"] / "vocab.txt", "--out", gen) == 0
        assert run("evaluate", "--dump", gen / "dump.jsonl", "--out", scores) == 0
        header, *rows = (sweep_dir / "sweep.csv").read_text().splitlines()
        [cell] = [row for row in rows if row.startswith("0.60,1,")]
        assert (scores / "report.csv").read_text().splitlines() == [
            header.split(",", 2)[2], cell.split(",", 2)[2]]

    def test_empty_grid_rejected(self, ws, tmp_path):
        assert run("sweep", "--qg", ws["qg"], "--data", ws["prep"] / "qg_train.jsonl",
                   "--vocab", ws["prep"] / "vocab.txt", "--grid", "",
                   "--out", tmp_path / "o") == 2

    def test_each_pair_decoded_once_and_csv_matches_per_cell_loop(
            self, ws, tmp_path, monkeypatch):
        data = tmp_path / "subset.jsonl"
        data.write_text("".join(
            (ws["prep"] / "qg_train.jsonl").read_text().splitlines(keepends=True)[:12]))
        examples = load_corpus(data)
        grid, seeds = ["0.6", "0.8", "1.0"], [0, 1, 2]
        calls = []
        scored = []

        def counted(pairs, *rest):
            calls.extend((ex.id, predicted) for ex, predicted in pairs)
            return generate_batch(pairs, *rest)

        def counted_score(cand, ref):
            scored.append((cand, ref))
            return metrics.score_pair(cand, ref)

        monkeypatch.setattr(cli, "generate_batch", counted)
        monkeypatch.setattr(cli, "score_pair", counted_score)
        out = tmp_path / "sweep"
        assert run("sweep", "--qg", ws["qg"], "--data", data,
                   "--vocab", ws["prep"] / "vocab.txt", "--grid", ",".join(grid),
                   "--seeds", ",".join(map(str, seeds)), "--out", out) == 0

        # reference: decode every example afresh, alone, in every cell
        vocab = Vocabulary.load(ws["prep"] / "vocab.txt")
        ck = load_checkpoint(ws["qg"])
        config = QGConfig.from_dict(ck.config)
        references = [tokenize(ex.question) for ex in examples]
        drawn = set()
        rows = []
        for acc in grid:
            cells = []
            for sd in seeds:
                rng = np.random.default_rng(sd)
                candidates = []
                for ex in examples:
                    predicted = oracle_classifier(ex.iw_class, float(acc), rng)
                    drawn.add((ex.id, predicted))
                    candidates.append(
                        generate(ex, predicted, config, ck.tensors, vocab).tokens)
                cols = evaluate_generation(candidates, references).metric_columns()
                header = ["accuracy", "seed"] + [n for n, _ in cols]
                rows.append([acc, str(sd)] + [cli._fmt(v) for _, v in cols])
                cells.append([v for _, v in cols])
            means = [sum(c[j] for c in cells) / len(cells) for j in range(len(cells[0]))]
            rows.append([acc, "mean"] + [cli._fmt(v) for v in means])
        expected = "".join(",".join(r) + "\n" for r in [header] + rows)

        assert len({ex.id for ex in examples}) == len(examples)
        assert sorted(calls) == sorted(drawn)
        assert len(calls) <= len(examples) * (1 + len(seeds))
        # each distinct pair is scored once, not once per cell drawing it
        assert len(scored) == len(drawn) < len(grid) * len(seeds) * len(examples)
        assert (out / "sweep.csv").read_text() == expected

    def test_incomplete_meteor_warning_counts_cells(self, ws, tmp_path, monkeypatch, capsys):
        data = tmp_path / "subset.jsonl"
        data.write_text("".join(
            (ws["prep"] / "qg_train.jsonl").read_text().splitlines(keepends=True)[:12]))
        examples = load_corpus(data)
        references = [tokenize(ex.question) for ex in examples]
        grid, seeds = ["0.6", "0.8", "1.0"], [0, 1, 2]
        cells = []
        for acc in grid:
            for sd in seeds:
                rng = np.random.default_rng(sd)
                cells.append([oracle_classifier(ex.iw_class, float(acc), rng) for ex in examples])
        pairs = sorted({(i, p) for cell in cells for i, p in enumerate(cell)})
        vocab = Vocabulary.load(ws["prep"] / "vocab.txt")
        ck = load_checkpoint(ws["qg"])
        results = generate_batch([(examples[i], p) for i, p in pairs],
                                 QGConfig.from_dict(ck.config), ck.tensors, vocab)
        decoded = {pair: res.tokens for pair, res in zip(pairs, results)}
        # the pair whose METEOR-ex score aligns that the most cells draw,
        # but not every cell
        drawn = Counter((tuple(decoded[i, p]), tuple(references[i]))
                        for cell in cells for i, p in enumerate(cell)
                        if decoded[i, p] and decoded[i, p] != references[i])
        (cand, ref), hits = max((item for item in drawn.items() if item[1] < len(cells)),
                                key=lambda item: item[1])
        target = (list(cand), list(ref))
        assert 1 < hits

        real = metrics.align_tokens

        def cut_short(cand, ref):
            result = real(cand, ref)
            return replace(result, complete=False) if (cand, ref) == target else result

        monkeypatch.setattr(metrics, "align_tokens", cut_short)
        assert run("sweep", "--qg", ws["qg"], "--data", data,
                   "--vocab", ws["prep"] / "vocab.txt", "--grid", ",".join(grid),
                   "--seeds", ",".join(map(str, seeds)), "--out", tmp_path / "sweep") == 0
        # summed over every cell: a pair counts once in each cell drawing it
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {hits} of {len(cells) * len(examples)} METEOR pairs were scored "
            "from an alignment cut short by its node budget"]


# the input files each command reads
INPUT_FLAGS = {
    "prepare": ["--data"],
    "train": ["--data", "--vocab"],
    "generate": ["--qg", "--data", "--vocab"],
    "sweep": ["--qg", "--data", "--vocab"],
}
# each command's required flags, in the order they are checked
REQUIRED_FLAGS = {
    "prepare": ["data", "out"],
    "train": ["kind", "data", "out"],
    "generate": ["qg", "data", "out"],
    "evaluate": ["dump", "out"],
    "sweep": ["qg", "data", "out"],
    "ablate": ["data", "out"],
}
FLAG_SEED = "error: --seed must be non-negative, got -1"
CONFIG_SEED = "error: config [run] seed must be non-negative, got -1"


@pytest.mark.parametrize("argv,ini,message", [
    (["generate", "--oracle", "0.5", "--seed=-1"], None, FLAG_SEED),
    (["generate", "--oracle", "0.5"], "[run]\nseed = -1\n", CONFIG_SEED),
    (["train", "--kind", "qg", "--seed=-1"], None, FLAG_SEED),
    (["train", "--kind", "qg"], "[run]\nseed = -1\n", CONFIG_SEED),
    (["prepare", "--seed=-1"], None, FLAG_SEED),
    (["sweep", "--grid", "1.0", "--seeds=-1"], None,
     "error: bad seed list '-1': seeds must be non-negative"),
    (["sweep", "--grid", "1.0"], "[sweep]\nseeds = 0,-1\n",
     "error: bad seed list '0,-1': seeds must be non-negative"),
], ids=["generate-flag", "generate-config", "train-flag", "train-config",
        "prepare-flag", "sweep-flag", "sweep-config"])
def test_negative_seed_fatal_before_loading(tmp_path, capsys, argv, ini, message):
    # every input file is missing, so only a check made before any load
    # can name the seed
    extra = [a for flag in INPUT_FLAGS[argv[0]] for a in (flag, tmp_path / "missing")]
    if ini is not None:
        (tmp_path / "c.ini").write_text(ini)
        extra += ["--config", tmp_path / "c.ini"]
    capsys.readouterr()
    assert run(*argv, *extra, "--out", tmp_path / "o") == 2
    assert assert_one_error_line(capsys) == message
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in REQUIRED_FLAGS.items() for flag in flags
], ids=lambda v: v)
def test_missing_required_flag_fatal_before_reading(tmp_path, capsys, command, flag):
    # every input file is missing, so only a check made before any load
    # can name the flag
    values = {"kind": "qg", "out": tmp_path / "o"}
    flags = REQUIRED_FLAGS[command]
    given = [[f"--{f}", values.get(f, tmp_path / "missing")] for f in flags if f != flag]
    oracle = ["--oracle", "0.5"] if command == "generate" else []
    capsys.readouterr()
    assert run(command, *oracle, *(a for pair in given for a in pair)) == 2
    assert assert_one_error_line(capsys) == f"error: --{flag} is required"
    # with every later flag (and generate's --oracle) missing too, this
    # flag is still the one named: the checks run in order, and before
    # generate's --classifier/--oracle check
    earlier = given[:flags.index(flag)]
    assert run(command, *(a for pair in earlier for a in pair)) == 2
    assert assert_one_error_line(capsys) == f"error: --{flag} is required"
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def small_ws(ws, tmp_path_factory):
    """Twelve examples beside a copy of the prepared vocabulary, and the
    same vocabulary under another name."""
    root = tmp_path_factory.mktemp("small")
    lines = (ws["prep"] / "qg_train.jsonl").read_text().splitlines(keepends=True)
    (root / "data.jsonl").write_text("".join(lines[:12]))
    for name in ("vocab.txt", "other_vocab.txt"):
        (root / name).write_bytes((ws["prep"] / "vocab.txt").read_bytes())
    return root


# upper-case words stand for the input files of test_manifest_inputs_are_the_files_read
@pytest.mark.parametrize("argv,read", [
    (["prepare"], ["DATA"]),
    (["train", "--kind", "classifier"], ["DATA", "VOCAB"]),
    (["train", "--kind", "qg", "--vocab", "OTHER_VOCAB"], ["DATA", "OTHER_VOCAB"]),
    (["generate", "--qg", "QG", "--classifier", "CLS"], ["DATA", "VOCAB", "QG", "CLS"]),
    (["generate", "--qg", "QG", "--oracle", "0.5", "--vocab", "OTHER_VOCAB"],
     ["DATA", "OTHER_VOCAB", "QG"]),
    (["evaluate"], ["DUMP"]),
    (["sweep", "--qg", "QG", "--grid", "1.0", "--seeds", "0"], ["DATA", "VOCAB", "QG"]),
    (["ablate"], ["DATA", "VOCAB"]),
], ids=["prepare", "train-classifier-default-vocab", "train-qg-given-vocab",
        "generate-classifier-default-vocab", "generate-oracle-given-vocab", "evaluate",
        "sweep-default-vocab", "ablate-default-vocab"])
def test_manifest_inputs_are_the_files_read(ws, small_ws, tmp_path, argv, read):
    # --vocab defaults to vocab.txt beside --data; the inputs name exactly
    # the files read, each with its hash
    paths = {"DATA": small_ws / "data.jsonl", "VOCAB": small_ws / "vocab.txt",
             "OTHER_VOCAB": small_ws / "other_vocab.txt", "QG": ws["qg"], "CLS": ws["cls"],
             "DUMP": ws["dump"]}
    argv = [paths.get(a, a) for a in argv]
    source = ["--dump", ws["dump"]] if argv[0] == "evaluate" else ["--data", paths["DATA"]]
    assert run(*argv, *source, "--config", ws["ini"], "--out", tmp_path / "o") == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["inputs"] == {paths[r].name: sha256_bytes(paths[r].read_bytes()) for r in read}


def test_sweep_config_seed_list_named_in_error(ws, tmp_path, capsys):
    ini = tmp_path / "c.ini"
    ini.write_text("[sweep]\nseeds = a,b\n")
    capsys.readouterr()
    assert run("sweep", "--config", ini, "--qg", ws["qg"],
               "--data", ws["prep"] / "qg_train.jsonl", "--vocab", ws["prep"] / "vocab.txt",
               "--grid", "1.0", "--out", tmp_path / "o") == 2
    assert assert_one_error_line(capsys) == "error: bad seed list 'a,b'"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags,message", [
    (["--grid", "1.0", "--seeds", "0,0,1"], "error: bad seed list '0,0,1': seeds must be distinct"),
    (["--grid", "1,1.0", "--seeds", "0"],
     "error: bad accuracy grid '1,1.0': accuracies must be distinct"),
], ids=["seed", "accuracy"])
def test_sweep_repeat_fatal(ws, tmp_path, capsys, flags, message):
    # a repeated seed or accuracy value would write its rows twice and
    # count a seed twice in a mean row
    capsys.readouterr()
    assert run("sweep", "--qg", ws["qg"], "--data", ws["prep"] / "qg_train.jsonl",
               "--vocab", ws["prep"] / "vocab.txt", *flags, "--out", tmp_path / "o") == 2
    assert assert_one_error_line(capsys) == message
    assert not (tmp_path / "o").exists()


def test_evaluate_counts_incomplete_meteor_pairs(ws, tmp_path, capsys):
    # 2 words x 17 repeats in two seeded orders, the smallest seeded
    # words x repeats shape whose search runs out of its budget of
    # expanded states (every smaller one finishes)
    rng = np.random.default_rng(0)
    bag = [w for w in ("a", "b") for _ in range(17)]
    dump = tmp_path / "dump.jsonl"
    dump.write_text(json.dumps({
        "generated": [str(t) for t in rng.permutation(bag)],
        "gold": [str(t) for t in rng.permutation(bag)],
    }) + "\n")
    assert run("evaluate", "--dump", dump, "--out", tmp_path / "hard") == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: 1 of 1 METEOR pairs were scored from an alignment cut short by its "
        "node budget"]
    assert json.loads((tmp_path / "hard" / "report.json").read_text())["incomplete_pairs"] == 1
    header = (tmp_path / "hard" / "report.csv").read_text().splitlines()[0]
    assert "incomplete_pairs" not in header

    assert run("evaluate", "--dump", ws["dump"], "--out", tmp_path / "ordinary") == 0
    report = json.loads((tmp_path / "ordinary" / "report.json").read_text())
    assert report["incomplete_pairs"] == 0
    assert capsys.readouterr().err == ""


def test_sweep_warns_on_truncated_meteor(ws, tmp_path, capsys, monkeypatch):
    # the budget counts expanded states: at 1, a search is cut short as
    # soon as it must expand a second one, as most searches here do
    monkeypatch.setattr(metrics, "_NODE_BUDGET", 1)
    assert run("sweep", "--qg", ws["qg"], "--data", ws["prep"] / "qg_train.jsonl",
               "--vocab", ws["prep"] / "vocab.txt", "--grid", "0.5,1.0", "--seeds", "0",
               "--out", tmp_path / "s") == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: "), lines


def test_evaluate_scores_a_long_candidate(tmp_path, capsys):
    # an aligner that recursed once per candidate token would end in a
    # RecursionError here
    cand, ref = ["x"] * 1100, ["y", "x"]
    dump = tmp_path / "dump.jsonl"
    dump.write_text(json.dumps({"generated": cand, "gold": ref}) + "\n")
    assert run("evaluate", "--dump", dump, "--out", tmp_path / "o") == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    # oracle_meteor_pair's formula on the alignment the search returns
    aligned = metrics.align_tokens(cand, ref)
    m, chunks = aligned.total, aligned.chunks
    p, r = m / len(cand), m / len(ref)
    want = (10.0 * p * r) / (r + 9.0 * p) * (1.0 - 0.5 * (chunks / m) ** 3)
    assert (m, chunks, report["incomplete_pairs"]) == (1, 1, 0)
    assert report["meteor_variant"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("command", ["prepare", "evaluate"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_not_a_directory_fatal_before_reading(ws, tmp_path, capsys, command, under):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken / "sub" if under else taken
    data = ["--data", ASSETS / "mini200.jsonl"] if command == "prepare" else ["--dump", ws["dump"]]
    assert run(command, *data, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --out {out}: {taken} is not a directory"]
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert taken.read_text() == "keep\n"


@pytest.mark.parametrize("command", ["prepare", "evaluate"])
@pytest.mark.parametrize("under", [False, True], ids=["long-name", "under-long-name"])
def test_out_the_os_rejects_fatal_before_reading(ws, tmp_path, capsys, command, under):
    long_name = tmp_path / ("a" * 300)
    out = long_name / "sub" if under else long_name
    data = ["--data", ASSETS / "mini200.jsonl"] if command == "prepare" else ["--dump", ws["dump"]]
    assert run(command, *data, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --out {out}: File name too long"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["prepare", "evaluate"])
def test_out_under_an_unsearchable_directory_fatal_before_reading(ws, tmp_path, capsys,
                                                                   monkeypatch, command):
    # a directory without search permission makes every lookup of a name
    # in it fail with EACCES; root may search any directory, so the
    # failure is raised by hand for the names in it
    locked = tmp_path / "locked"
    locked.mkdir()
    out = locked / "out"

    def refuse(real):
        def lookup(self, *args, **kwargs):
            if self.parent == locked:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))
            return real(self, *args, **kwargs)
        return lookup

    for name in ("stat", "exists"):
        monkeypatch.setattr(Path, name, refuse(getattr(Path, name)))
    data = ["--data", ASSETS / "mini200.jsonl"] if command == "prepare" else ["--dump", ws["dump"]]
    assert run(command, *data, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --out {out}: {os.strerror(errno.EACCES)}"]
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == [locked]
    assert list(locked.iterdir()) == []


@pytest.mark.parametrize("name", ["report.csv", "manifest.json"])
def test_out_holding_a_directory_where_a_file_goes(ws, tmp_path, capsys, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert run("evaluate", "--dump", ws["dump"], "--out", out) == 2
    assert assert_one_error_line(capsys) == f"error: --out {out}: {out / name} is a directory"
    assert [p.name for p in out.iterdir()] == [name]
    assert list((out / name).iterdir()) == []


def test_failed_write_fatal(ws, tmp_path, capsys, monkeypatch):
    def full(path, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "atomic_write_bytes", full)
    out = tmp_path / "out"
    assert run("evaluate", "--dump", ws["dump"], "--out", out) == 1
    assert assert_one_error_line(capsys) == f"error: --out {out}: No space left on device"


def test_dump_line_may_hold_unicode_line_breaks(tmp_path):
    # U+2028, U+2029 and U+0085 are legal raw inside a JSON string; only
    # "\n" ends a JSONL record
    record = {"generated": ["what", "a\u2028b", "?"], "gold": ["what", "a\u2029b\x85", "?"]}
    dump = tmp_path / "dump.jsonl"
    dump.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    assert run("evaluate", "--dump", dump, "--out", tmp_path / "o") == 0
    assert json.loads((tmp_path / "o" / "report.json").read_text())["n_examples"] == 1


@pytest.fixture(scope="module")
def ablate_dir(ws, tmp_path_factory):
    out = tmp_path_factory.mktemp("ablate")
    assert run("ablate", "--data", ws["tiny"] / "classifier_train.jsonl",
               "--vocab", ws["tiny"] / "vocab.txt", "--config", ws["ini"],
               "--out", out, "--seed", 0) == 0
    return out


class TestAblate:
    def test_five_labeled_rows(self, ablate_dir):
        lines = (ablate_dir / "ablation.csv").read_text().splitlines()
        assert lines[0] == "label,accuracy"
        labels = [l.split(",")[0] for l in lines[1:]]
        assert labels == ["CLS", "CLS + NER", "CLS + AE", "CLS + AT", "CLS + AT + NER"]

    def test_accuracies_in_range(self, ablate_dir):
        for line in (ablate_dir / "ablation.csv").read_text().splitlines()[1:]:
            acc = float(line.split(",")[1])
            assert 0.0 <= acc <= 1.0


@pytest.mark.parametrize("command", ["train", "generate"])
def test_duplicate_vocab_token_fatal(ws, tmp_path, capsys, command):
    vocab = tmp_path / "vocab.txt"
    text = (ws["tiny"] / "vocab.txt").read_text()
    vocab.write_text(text + text.splitlines()[0] + "\n")
    extra = (["--kind", "qg"] if command == "train"
             else ["--qg", ws["qg"], "--oracle", "1.0"])
    capsys.readouterr()
    assert run(command, *extra, "--data", ws["tiny"] / "qg_train.jsonl", "--vocab", vocab,
               "--out", tmp_path / "o") == 1
    line = assert_one_error_line(capsys)
    assert str(vocab) in line and "duplicate vocabulary token" in line
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("record", [
    {"generated": "what is it ?", "gold": ["what", "is", "it", "?"]},
    {"generated": ["what"], "gold": 5},
    {"generated": ["what", 1], "gold": ["what"]},
    {"generated": [1], "gold": ["what"]},
    {"generated": ["what"], "gold": [1.5]},
    {"generated": [math.nan], "gold": ["what"]},
    ["what"],
], ids=["generated-string", "gold-number", "non-string-token", "integer-token", "float-token",
        "nan-token", "not-an-object"])
def test_bad_dump_record_fatal(tmp_path, capsys, record):
    # a number is never a token, whatever its form
    dump = tmp_path / "dump.jsonl"
    dump.write_text(json.dumps({"generated": ["what"], "gold": ["what"]}) + "\n"
                    + json.dumps(record) + "\n")
    capsys.readouterr()
    assert run("evaluate", "--dump", dump, "--out", tmp_path / "o") == 1
    assert assert_one_error_line(capsys) == (
        f"error: {dump}: line 2: generated and gold must be lists of strings")
    assert not (tmp_path / "o").exists()


def reference_report(dump: Path) -> dict[str, str]:
    """The ``report.json`` and ``report.csv`` of ``dump`` built as
    ``evaluate`` built them when it read every line with ``json.loads``:
    each line's token lists scored by ``evaluate_generation``."""
    records = [json.loads(line) for line in dump.read_text(encoding="utf-8").split("\n")
               if line.strip()]
    report = evaluate_generation([r["generated"] for r in records], [r["gold"] for r in records])
    columns = report.metric_columns()
    return {
        "report.json": json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n",
        "report.csv": ",".join(name for name, _ in columns) + "\n"
                      + ",".join(repr(float(v)) for _, v in columns) + "\n",
    }


def evaluated(dump: Path, out: Path) -> dict[str, str]:
    assert run("evaluate", "--dump", dump, "--out", out) == 0
    return {name: (out / name).read_text(encoding="utf-8") for name in ("report.json", "report.csv")}


# a plain two-line dump, which the dump-number tests extend
PLAIN_DUMP = [{"generated": ["what", "is", "it", "?"], "gold": ["what", "is", "that", "?"]},
              {"generated": ["who", "won", "?"], "gold": ["who", "won", "the", "race", "?"]}]


@pytest.mark.parametrize("number", [
    "1" * 5000, "NaN", "Infinity", "-Infinity", "1e999", "5e-324", "-0.0",
], ids=["huge-integer", "nan", "infinity", "minus-infinity", "overflow", "subnormal",
        "minus-zero"])
def test_dump_numbers_outside_the_token_lists_are_accepted(tmp_path, number):
    # a number past Python's 4,300-digit int-conversion limit, or one
    # that float conversion would make non-finite, subnormal or negative
    # zero, scores the dump it would without that field
    plain, odd = tmp_path / "plain.jsonl", tmp_path / "odd.jsonl"
    plain.write_text("".join(json.dumps(rec) + "\n" for rec in PLAIN_DUMP))
    odd.write_text("".join(json.dumps(rec)[:-1] + f', "id": {number}, "attention": [[{number}]]}}\n'
                           for rec in PLAIN_DUMP))
    assert evaluated(odd, tmp_path / "odd") == evaluated(plain, tmp_path / "plain")


@pytest.mark.parametrize("number", ["1.2.3", "01", "-", ".5", "1e"])
def test_malformed_dump_number_fatal(tmp_path, capsys, number):
    dump = tmp_path / "dump.jsonl"
    dump.write_text(json.dumps(PLAIN_DUMP[0]) + "\n"
                    + json.dumps(PLAIN_DUMP[1])[:-1] + f', "attention": [[0.5, {number}]]}}\n')
    capsys.readouterr()
    assert run("evaluate", "--dump", dump, "--out", tmp_path / "o") == 1
    assert assert_one_error_line(capsys) == f"error: {dump}: line 2 is not valid JSON"
    assert not (tmp_path / "o").exists()


def test_evaluate_reports_what_reading_every_number_gave(ws, tmp_path):
    # the workspace dump, and a hand-built one: empty and one-token
    # lists, non-ASCII tokens, blank lines, and numbers of every JSON
    # form in fields evaluate never reads
    hand = tmp_path / "hand.jsonl"
    hand.write_text("\n".join([
        json.dumps({"generated": [], "gold": ["where", "is", "it", "?"], "attention": []}),
        "",
        json.dumps({"generated": ["caf\u00e9", "?"], "gold": ["caf\u00e9", "?"], "id": -7,
                    "attention": [[0.25, 0.75], [1e-300, 1.0]]}, ensure_ascii=False),
        json.dumps({"generated": ["when", "?"], "gold": ["when", "did", "it", "open", "?"],
                    "attention": [[1, 0, 0.0, -0.0, 2.5e10, 123456789012345678901234567890]],
                    "nested": {"a": [True, False, None, {"b": 1.5}]}}),
        "   ",
        json.dumps({"gold": ["who", "?"], "generated": ["who", "?"], "predicted_iw": "who"}),
    ]) + "\n", encoding="utf-8")
    for dump in (Path(ws["dump"]), hand):
        assert evaluated(dump, tmp_path / dump.stem) == reference_report(dump), dump


@pytest.mark.parametrize("command", [
    ["train", "--kind", "classifier"], ["train", "--kind", "qg"], ["ablate"],
], ids=["classifier", "qg", "ablate"])
def test_non_finite_loss_fatal(ws, tmp_path, capsys, command):
    ini = tmp_path / "huge_lr.ini"
    ini.write_text(SMALL_INI.replace("epochs = 2\n", "epochs = 2\nlr = 1e300\n"))
    capsys.readouterr()
    assert run(*command, "--data", ws["tiny"] / "classifier_train.jsonl",
               "--vocab", ws["tiny"] / "vocab.txt", "--config", ini,
               "--out", tmp_path / "o") == 1
    assert "non-finite loss" in assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["classifier", "qg"])
def test_overflow_behind_finite_loss_fatal(ws, tmp_path, capsys, monkeypatch, kind):
    # every sigmoid input overflows to +-inf and saturates, as the gates do
    # behind a huge pre-activation: the forward overflows, the loss stays finite
    sigmoid = autodiff._sigmoid
    monkeypatch.setattr(autodiff, "_sigmoid", lambda d: sigmoid(d * 1e300 * 1e300))
    ini = tmp_path / "small.ini"
    ini.write_text(SMALL_INI)
    capsys.readouterr()
    assert run("train", "--kind", kind, "--data", ws["tiny"] / "classifier_train.jsonl",
               "--vocab", ws["tiny"] / "vocab.txt", "--config", ini,
               "--out", tmp_path / "o") == 1
    assert "non-finite loss" in assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


# 10**7 fails to allocate at once (~2.8 PiB), 2**62 exceeds the largest
# dimension numpy accepts, and 10**20 is past int64 itself
@pytest.mark.parametrize("hidden", [10**7, 2**62, 10**20], ids=["2.8PiB", "2**62", "10**20"])
@pytest.mark.parametrize("command", [
    ["train", "--kind", "classifier"], ["train", "--kind", "qg"], ["ablate"],
], ids=["classifier", "qg", "ablate"])
def test_unbuildable_model_config_fatal(ws, tmp_path, capsys, command, hidden):
    ini = tmp_path / "huge.ini"
    ini.write_text(f"[classifier]\nencoder_hidden = {hidden}\n[qg]\nencoder_hidden = {hidden}\n")
    capsys.readouterr()
    assert run(*command, "--data", ws["tiny"] / "classifier_train.jsonl",
               "--vocab", ws["tiny"] / "vocab.txt", "--config", ini,
               "--out", tmp_path / "o") == 1
    assert "cannot allocate" in assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


def test_classifier_corpus_too_small_for_dev_split(ws, tmp_path, capsys):
    one = tmp_path / "one.jsonl"
    one.write_text((ws["tiny"] / "classifier_train.jsonl").read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    assert run("train", "--kind", "classifier", "--data", one,
               "--vocab", ws["tiny"] / "vocab.txt", "--out", tmp_path / "o") == 1
    assert "too small to split a dev set" in assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


class TestManifests:
    def test_every_output_dir_has_manifest(self, ws):
        for key in ("prep", "cls_dir", "qg_dir"):
            manifest = json.loads((ws[key] / "manifest.json").read_text())
            assert set(manifest) == {"command", "config", "seeds", "inputs",
                                     "artifacts", "created"}

    def test_train_manifest_snapshots_config(self, ws):
        manifest = json.loads((ws["qg_dir"] / "manifest.json").read_text())
        assert manifest["command"] == "train:qg"
        assert manifest["config"]["epochs"] == 2
        assert manifest["config"]["seed"] == 0
        assert "qg_train.jsonl" in manifest["inputs"]
        assert "qg.ckpt" in manifest["artifacts"]


def fresh_qgkit(*argv, **kwargs) -> subprocess.CompletedProcess:
    """``python -m qgkit *argv`` in a new process, from any directory."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ASSETS.parents[1]), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "qgkit", *map(str, argv)],
                          capture_output=True, text=True, env=env, **kwargs)


def test_module_entry_point():
    proc = fresh_qgkit("--help")
    assert proc.returncode == 0
    assert "prepare" in proc.stdout


def test_help_exits_through_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        run("prepare", "-h")
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: qgkit prepare") and err == ""


@pytest.mark.parametrize("argv", [
    ["prepare", "--bogus"],
    ["frobnicate"],
    [],
    ["train", "--kind", "foo"],
    ["prepare", "--seed", "abc"],
    ["prepare", "--cap", "x"],
    ["prepare", "--data"],
], ids=["unknown-flag", "unknown-subcommand", "no-subcommand", "bad-choice",
        "bad-int-seed", "bad-int-cap", "flag-without-value"])
def test_usage_error_is_one_line(tmp_path, capsys, argv):
    # --out right after the subcommand, so each bad flag stays last as
    # written; a call with no subcommand has no --out to give
    out = ["--out", tmp_path / "o"] if argv else []
    argv = [*argv[:1], *out, *argv[1:]]
    capsys.readouterr()
    assert run(*argv) == 2
    got = capsys.readouterr()
    assert got.out == "" and got.err.startswith("error: ") and got.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
    proc = fresh_qgkit(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, got.out, got.err)


def test_empty_required_flag_is_missing(tmp_path):
    proc = fresh_qgkit("prepare", "--data", ASSETS / "overfit10.jsonl", "--out", "",
                       cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: --out is required\n")
    assert list(tmp_path.iterdir()) == []


def test_artifacts_take_the_umask(tmp_path):
    """Every file a run writes has the mode ``open(path, "wb")`` gives."""
    for umask in (0o022, 0o077):
        out = tmp_path / oct(umask)
        proc = fresh_qgkit("prepare", "--data", ASSETS / "overfit10.jsonl", "--out", out,
                           umask=umask)
        assert proc.returncode == 0, proc.stderr
        modes = {f.name: f.stat().st_mode & 0o777 for f in out.iterdir()}
        assert len(modes) == 5 and set(modes.values()) == {0o666 & ~umask}, modes


def run_outputs(out: Path) -> dict:
    """Every file a run wrote, by name; the manifest without its timestamp."""
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.exists() else {}
    if "manifest.json" in files:
        manifest = json.loads(files["manifest.json"])
        del manifest["created"]
        files["manifest.json"] = manifest
    return files


def test_reused_parser_carries_no_state(ws, tmp_path, capsys):
    """Calls in one process share one parser; each gives the exit code,
    output and files that the same call gives in a fresh process."""
    prep = ws["prep"]
    calls = [
        ["prepare", "--data", ASSETS / "overfit10.jsonl", "--bogus"],
        ["prepare", "--seed", "5", "--cap", "3", "--print-config"],
        ["train", "--kind", "foo", "--data", prep / "qg_train.jsonl"],
        ["generate", "--qg", ws["qg"], "--oracle", "2.0", "--data", prep / "qg_train.jsonl"],
        ["prepare", "--data", ASSETS / "overfit10.jsonl"],
        ["prepare", "--seed", "abc", "--data", ASSETS / "overfit10.jsonl"],
        ["evaluate", "--dump", ws["dump"]],
        ["generate", "--qg", ws["qg"], "--oracle", "0.7", "--data", prep / "qg_train.jsonl",
         "--vocab", prep / "vocab.txt"],
    ]
    expected_codes = [2, 0, 2, 2, 0, 2, 0, 0]
    for i, (argv, code) in enumerate(zip(calls, expected_codes)):
        here, fresh = tmp_path / "here" / str(i), tmp_path / "fresh" / str(i)
        rc = run(*argv, "--out", here)
        got = capsys.readouterr()
        proc = fresh_qgkit(*argv, "--out", fresh)
        assert (rc, got.out, got.err) == (proc.returncode, proc.stdout, proc.stderr), argv
        assert rc == code, argv
        assert run_outputs(here) == run_outputs(fresh), argv
        assert bool(run_outputs(here)) == (code == 0 and "--print-config" not in argv)


NOT_UTF8 = b'{"id": "x\xff"}\n'


def corpus_with_entity_type_number(ws, tmp_path):
    rec = json.loads((ws["tiny"] / "qg_train.jsonl").read_text().splitlines()[0])
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({**rec, "entity_type": 5}) + "\n")
    return ["prepare", "--data", path]


def not_utf8_corpus(ws, tmp_path):
    (tmp_path / "corpus.jsonl").write_bytes(NOT_UTF8)
    return ["prepare", "--data", tmp_path / "corpus.jsonl"]


def not_utf8_dump(ws, tmp_path):
    (tmp_path / "dump.jsonl").write_bytes(NOT_UTF8)
    return ["evaluate", "--dump", tmp_path / "dump.jsonl"]


def deeply_nested(command, flag):
    def argv(ws, tmp_path):
        (tmp_path / "input.jsonl").write_text("[" * 100_000 + "\n")
        return [command, flag, tmp_path / "input.jsonl"]
    return argv


def not_utf8_config(ws, tmp_path):
    (tmp_path / "c.ini").write_bytes(b"[run]\nseed = \xff\n")
    return ["prepare", "--data", ws["tiny"] / "qg_train.jsonl", "--config", tmp_path / "c.ini"]


def generate_with_qg(qg):
    def argv(ws, tmp_path):
        path = qg(tmp_path)
        return ["generate", "--qg", path, "--oracle", "1.0", "--data",
                ws["tiny"] / "qg_train.jsonl", "--vocab", ws["prep"] / "vocab.txt"]
    return argv


@pytest.mark.parametrize("make_argv,code", [
    (corpus_with_entity_type_number, 1),
    (not_utf8_corpus, 1),
    (not_utf8_dump, 1),
    (not_utf8_config, 2),
    (generate_with_qg(lambda tmp_path: tmp_path / "missing.ckpt"), 2),
    (generate_with_qg(lambda tmp_path: tmp_path), 2),
    (deeply_nested("prepare", "--data"), 1),
    (deeply_nested("evaluate", "--dump"), 1),
], ids=["entity-type-number", "corpus-not-utf8", "dump-not-utf8", "config-not-utf8",
        "qg-missing", "qg-directory", "corpus-deeply-nested", "dump-deeply-nested"])
def test_malformed_input_fatal(ws, tmp_path, capsys, make_argv, code):
    argv = make_argv(ws, tmp_path)
    capsys.readouterr()
    assert run(*argv, "--out", tmp_path / "o") == code
    assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


def drop_tensor(ck):
    del ck.tensors["att.Wa"]


def shrink_embed(ck):
    ck.tensors["embed"] = Tensor(np.zeros((3, ck.tensors["embed"].shape[1])))


def nan_output(ck):
    ck.tensors["out.W"].data[0, 0] = np.nan


def huge_encoder(hidden):
    # 10**7 describes a ~2.8 PiB encoder, beyond any address space;
    # 10**12 gives shapes with more elements than numpy can index, and
    # 10**20 dimensions past int64
    def edit(ck):
        ck.config["encoder_hidden"] = hidden
    return edit


@pytest.mark.parametrize("edit", [drop_tensor, shrink_embed, nan_output,
                                  huge_encoder(10**7), huge_encoder(10**12),
                                  huge_encoder(10**20)],
                         ids=["missing-tensor", "embed-shape", "nan-value",
                              "huge-config", "unindexable-config", "beyond-int64-config"])
def test_checkpoint_tensors_checked_against_config(ws, tmp_path, capsys, edit):
    ck = load_checkpoint(ws["qg"])
    edit(ck)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(checkpoint_bytes("qg", ck.config, ck.tensors, ck.vocab_hash))
    capsys.readouterr()
    assert run("generate", "--qg", bad, "--oracle", "1.0", "--data", ws["tiny"] / "qg_train.jsonl",
               "--vocab", ws["prep"] / "vocab.txt", "--out", tmp_path / "o") == 1
    assert str(bad) in assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


# numpy rejects a (P * 10**17 x d) beam layout as too big before
# allocating anything
@pytest.mark.parametrize("argv", [
    ["generate", "--oracle", "1.0"], ["sweep", "--grid", "1.0", "--seeds", "0"],
], ids=["generate", "sweep"])
def test_beam_layout_numpy_cannot_allocate_fatal(ws, tmp_path, capsys, argv):
    ck = load_checkpoint(ws["qg"])
    huge = tmp_path / "huge_beam.ckpt"
    huge.write_bytes(checkpoint_bytes("qg", {**ck.config, "beam_size": 10**17}, ck.tensors,
                                      ck.vocab_hash))
    capsys.readouterr()
    assert run(*argv, "--qg", huge, "--data", ws["tiny"] / "qg_train.jsonl",
               "--vocab", ws["prep"] / "vocab.txt", "--out", tmp_path / "o") == 1
    assert "beam_size 100000000000000000" in assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,ini,message", [
    (["prepare", "--print-config", "--seed=-1"], None, FLAG_SEED),
    (["prepare", "--print-config"], "[qg]\nepochs = 0\n",
     "error: config [qg]: epochs must be positive"),
    (["sweep", "--seed=-1", "--grid", "1.0", "--seeds", "0"], None, FLAG_SEED),
    (["prepare", "--print-config"], "[run]\nseed = {x}\n",
     "error: config value [run] seed = '{x}' is not a valid int"),
    # every section is range-checked whichever command runs, so one
    # config file that any command accepts is good for every command
    (["prepare", "--data", ASSETS / "overfit10.jsonl"], "[sweep]\nseeds = 0,-1\n",
     "error: bad seed list '0,-1': seeds must be non-negative"),
    (["prepare", "--data", ASSETS / "overfit10.jsonl"], "[qg]\nepochs = 0\n",
     "error: config [qg]: epochs must be positive"),
], ids=["print-config-seed", "print-config-epochs", "sweep-seed", "value-with-braces",
        "prepare-sweep-seeds", "prepare-qg-epochs"])
def test_every_command_checks_config(ws, tmp_path, capsys, argv, ini, message):
    extra = ["--qg", ws["qg"], "--data", ws["tiny"] / "qg_train.jsonl",
             "--vocab", ws["prep"] / "vocab.txt"] if argv[0] == "sweep" else []
    if ini is not None:
        (tmp_path / "c.ini").write_text(ini)
        extra += ["--config", tmp_path / "c.ini"]
    capsys.readouterr()
    assert run(*argv, *extra, "--out", tmp_path / "o") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"
    assert not (tmp_path / "o").exists()


def _one_record_corpus(path, n_tokens: int) -> str:
    """A corpus of the first overfit10 record, its passage padded with
    "the" to ``n_tokens`` tokens; returns the record's id."""
    rec = json.loads((ASSETS / "overfit10.jsonl").read_text().splitlines()[0])
    rec["passage"] += " the" * (n_tokens - len(tokenize(rec["passage"])))
    path.write_text(json.dumps(rec) + "\n")
    return rec["id"]


PASSAGE_COMMANDS = {
    "train-qg": lambda ws: ["train", "--kind", "qg", "--config", ws["ini"]],
    "generate": lambda ws: ["generate", "--qg", ws["qg"], "--oracle", "1.0"],
    "sweep": lambda ws: ["sweep", "--qg", ws["qg"], "--grid", "1.0", "--seeds", "0"],
}


@pytest.mark.parametrize("command", list(PASSAGE_COMMANDS))
def test_passage_over_the_attention_budget_fatal(ws, tmp_path, capsys, command):
    # one token past the budget's passage length, so the check rejects it
    # before anything quadratic in it is allocated
    limit = math.isqrt(generator._ATTEND_BUDGET) - 1
    data = tmp_path / "long.jsonl"
    ex_id = _one_record_corpus(data, limit + 1)
    capsys.readouterr()
    assert run(*PASSAGE_COMMANDS[command](ws), "--data", data, "--vocab", ws["prep"] / "vocab.txt",
               "--out", tmp_path / "o") == 1
    assert assert_one_error_line(capsys) == (
        f"error: example {ex_id}: its passage has {limit + 1} tokens, more than the {limit} the "
        "encoder's self-attention budget admits")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", list(PASSAGE_COMMANDS))
def test_passage_at_the_attention_budget_accepted(ws, tmp_path, capsys, monkeypatch, command):
    # the budget patched down to a 12-token passage: its tokens and the
    # inserted word fill it exactly, and one value less rejects it
    data = tmp_path / "one.jsonl"
    _one_record_corpus(data, 12)
    argv = [*PASSAGE_COMMANDS[command](ws), "--data", data, "--vocab", ws["prep"] / "vocab.txt"]
    monkeypatch.setattr(generator, "_ATTEND_BUDGET", 13**2)
    assert run(*argv, "--out", tmp_path / "o") == 0
    monkeypatch.setattr(generator, "_ATTEND_BUDGET", 13**2 - 1)
    capsys.readouterr()
    assert run(*argv, "--out", tmp_path / "p") == 1
    assert "its passage has 12 tokens, more than the 11 " in assert_one_error_line(capsys)
    assert not (tmp_path / "p").exists()
