"""Fuzzed input boundaries of the CLI.

Each test feeds ``cli.main`` a corpus, checkpoint, generation dump, INI
config or vocabulary that hypothesis derives from a valid one, and accepts
exactly two
outcomes: exit 0 with the outputs written, or exit 1 or 2 with exactly one
``error:`` line on stderr and no ``--out`` directory.  An exception that
escapes ``main`` fails the test.  The profile is derandomized, so every run
tries the same inputs."""

import contextlib
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qgkit.cli import CONFIG_SCHEMA, main
from qgkit.data import Vocabulary
from qgkit.generator import QGConfig, init_qg
from qgkit.persist import checkpoint_bytes

ASSETS = Path(__file__).resolve().parents[1] / "src" / "qgkit" / "assets"

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150,
                suppress_health_check=[HealthCheck.too_slow])

# any JSON value, kept small
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
JUNK = st.just(b"") | st.binary(min_size=1, max_size=4)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A prepared tiny corpus, one example of it, an untrained small
    generator checkpoint trained against its vocabulary, and a config
    that makes that generator's training one short epoch."""
    root = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["prepare", "--data", str(ASSETS / "overfit10.jsonl"),
                     "--out", str(root / "prep")]) == 0
    one = root / "one.jsonl"
    one.write_text((root / "prep" / "qg_train.jsonl").read_text().splitlines()[0] + "\n")
    vocab = Vocabulary.load(root / "prep" / "vocab.txt")
    config = QGConfig(word_dim=4, meta_dim=2, encoder_hidden=4, decoder_hidden=4, max_len=4)
    params = init_qg(config, len(vocab), np.random.default_rng(0))
    (root / "qg.ckpt").write_bytes(
        checkpoint_bytes("qg", config.to_dict(), params.tensors, vocab.content_hash()))
    (root / "tiny.ini").write_text(
        "[qg]\nword_dim = 4\nmeta_dim = 2\nencoder_hidden = 4\ndecoder_hidden = 4\n"
        "epochs = 1\n")
    return {"root": root, "vocab": root / "prep" / "vocab.txt", "one": one, "qg": root / "qg.ckpt",
            "ini": root / "tiny.ini"}


def assert_clean_outcome(root: Path, name: str, payload: bytes, argv) -> None:
    """Run ``argv`` with the file ``name`` holding ``payload`` (``{in}`` in
    ``argv`` stands for its path) and check the outcome contract."""
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        path, out = Path(tmp) / name, Path(tmp) / "out"
        path.write_bytes(payload)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(path) if a == "{in}" else str(a) for a in argv]
                        + ["--out", str(out)])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert (out / "manifest.json").is_file()
        else:
            assert code in (1, 2)
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert not out.exists()


def lines_file(lines, prefix: bytes, suffix: bytes) -> bytes:
    return prefix + "\n".join(lines).encode("utf-8") + suffix


# -- corpus records ------------------------------------------------------------

RECORDS = [json.loads(line) for line in (ASSETS / "overfit10.jsonl").read_text().splitlines()]
RECORD_KEYS = ["id", "passage", "question", "answer_text", "answer_start", "entity_type"]


@st.composite
def corpus_line(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=30))
    rec = dict(draw(st.sampled_from(RECORDS)))
    for key in draw(st.lists(st.sampled_from(RECORD_KEYS + ["extra"]), max_size=3)):
        if draw(st.booleans()):
            rec.pop(key, None)
        else:
            rec[key] = draw(JSON | st.integers(-5, 80))
    return json.dumps(rec)


@FUZZ
@given(lines=st.lists(corpus_line(), max_size=4), prefix=JUNK, suffix=JUNK)
def test_corpus_records(ws, lines, prefix, suffix):
    assert_clean_outcome(ws["root"], "corpus.jsonl", lines_file(lines, prefix, suffix),
                         ["prepare", "--data", "{in}"])


# -- checkpoint bytes ----------------------------------------------------------


def header_of(blob: bytes) -> tuple[dict, bytes]:
    n = struct.unpack("<Q", blob[4:12])[0]
    return json.loads(blob[12:12 + n]), blob[12 + n:]


def with_header(header, payload: bytes) -> bytes:
    raw = json.dumps(header).encode()
    return b"QGCK" + struct.pack("<Q", len(raw)) + raw + payload


# decoding cost grows with max_len and beam_size, so edited config values
# stay small; every other value is any JSON
SMALL = st.integers(-2, 12)


@st.composite
def checkpoint_blob(draw, valid: bytes):
    blob = bytearray(valid)
    header, payload = header_of(valid)
    how = draw(st.sampled_from(["byte", "truncate", "extend", "header", "config", "tensor"]))
    if how == "byte":
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    elif how == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)):]
    elif how == "extend":
        blob += draw(st.binary(min_size=1, max_size=16))
    elif how == "header":
        key = draw(st.sampled_from(sorted(header) + ["extra"]))
        header[key] = draw(JSON)
        blob = with_header(header, payload)
    elif how == "config":
        key = draw(st.sampled_from(sorted(header["config"]) + ["extra"]))
        header["config"][key] = draw(SMALL | st.floats() | st.booleans() | st.none())
        blob = with_header(header, payload)
    else:
        entry = draw(st.sampled_from(header["tensors"]))
        entry["shape"] = draw(st.lists(SMALL | JSON, max_size=3))
        blob = with_header(header, payload)
    return bytes(blob)


@FUZZ
@given(data=st.data())
def test_checkpoint_bytes(ws, data):
    blob = data.draw(checkpoint_blob(ws["qg"].read_bytes()))
    assert_clean_outcome(ws["root"], "qg.ckpt", blob,
                         ["generate", "--qg", "{in}", "--oracle", "1.0",
                          "--data", ws["one"], "--vocab", ws["vocab"]])


# -- generation dump lines -------------------------------------------------------

TOKENS = st.lists(st.text(alphabet="abc?", max_size=3), max_size=6)


@st.composite
def dump_line(draw):
    shape = draw(st.integers(0, 3))
    if shape == 0:
        return draw(st.text(max_size=30))
    if shape == 1:
        return json.dumps(draw(JSON))
    rec = {key: draw(TOKENS if shape == 2 else TOKENS | JSON) for key in ("generated", "gold")}
    return json.dumps(rec)


@FUZZ
@given(lines=st.lists(dump_line(), max_size=4), prefix=JUNK, suffix=JUNK)
def test_dump_lines(ws, lines, prefix, suffix):
    assert_clean_outcome(ws["root"], "dump.jsonl", lines_file(lines, prefix, suffix),
                         ["evaluate", "--dump", "{in}"])


# -- INI config text ---------------------------------------------------------------

VALUES = (
    st.integers(-3, 10**6).map(str)
    | st.floats().map(str)
    | st.sampled_from(["true", "no", "banana", "", "0.5,1.0", "0,-1", "1,,2",
                       "%", "%(x)s", "{x}", "nan", "inf", "1e300"])
    | st.text(max_size=8)
)


@st.composite
def config_text(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=40))
    parts = []
    for section in draw(st.lists(st.sampled_from(list(CONFIG_SCHEMA) + ["nonsense", "DEFAULT"]),
                                 max_size=3)):
        keys = list(CONFIG_SCHEMA.get(section, {})) + ["bogus"]
        parts.append(f"[{section}]")
        parts += [f"{key} = {draw(VALUES)}"
                  for key in draw(st.lists(st.sampled_from(keys), max_size=3))]
    return "\n".join(parts) + "\n"


@FUZZ
@given(text=config_text(), prefix=JUNK)
def test_config_text(ws, text, prefix):
    assert_clean_outcome(ws["root"], "c.ini", prefix + text.encode("utf-8"),
                         ["prepare", "--data", ws["one"], "--config", "{in}"])


# -- vocabulary files ------------------------------------------------------------


@st.composite
def vocab_lines(draw, valid: list[str]):
    """Up to three edits of a valid vocabulary's lines: one dropped, one
    repeated, one replaced by any text, or a reserved token or an
    interrogative surface (both already in every vocabulary) inserted."""
    lines = list(valid)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["drop", "repeat", "replace", "reserved"]))
        if how == "drop":
            del lines[i]
        elif how == "repeat":
            lines.insert(i, draw(st.sampled_from(lines)))
        elif how == "replace":
            lines[i] = draw(st.text(max_size=6))
        else:
            lines.insert(i, draw(st.sampled_from(["[UNK]", "[PAD]", "what", "who"])))
    return lines


@FUZZ
@given(data=st.data(), prefix=JUNK, suffix=JUNK)
def test_vocab_file(ws, data, prefix, suffix):
    lines = data.draw(vocab_lines(ws["vocab"].read_text().splitlines()))
    assert_clean_outcome(ws["root"], "vocab.txt", lines_file(lines, prefix, suffix),
                         ["train", "--kind", "qg", "--data", ws["one"], "--vocab", "{in}",
                          "--config", ws["ini"]])
