"""Checkpoint container and manifest tests."""

import json
import struct

import numpy as np
import pytest

from qgkit.autodiff import Tensor
from qgkit.persist import (
    FORMAT_VERSION,
    Checkpoint,
    CheckpointError,
    atomic_write_bytes,
    checkpoint_bytes,
    load_checkpoint,
    sha256_bytes,
    sha256_file,
    write_manifest,
)


def sample_tensors(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "embed": Tensor(rng.normal(size=(5, 3))),
        "ff.W": Tensor(rng.normal(size=(3, 2))),
        "ff.b": Tensor(rng.normal(size=(1, 2))),
    }


SAMPLE_CONFIG = {"word_dim": 3, "lr": 1e-3, "use_answer_tagging": False, "seed": 7}


class TestCheckpointRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        path = tmp_path / "model.ckpt"
        atomic_write_bytes(
            path, checkpoint_bytes("classifier", SAMPLE_CONFIG, sample_tensors(), "vh1"))
        first = path.read_bytes()
        ck = load_checkpoint(path)
        again = checkpoint_bytes(ck.kind, ck.config, ck.tensors, ck.vocab_hash)
        assert again == first

    def test_tensors_bit_exact(self, tmp_path):
        path = tmp_path / "model.ckpt"
        tensors = sample_tensors(3)
        atomic_write_bytes(path, checkpoint_bytes("qg", SAMPLE_CONFIG, tensors, "vh"))
        ck = load_checkpoint(path)
        assert set(ck.tensors) == set(tensors)
        for name, t in tensors.items():
            got = ck.tensors[name]
            assert got.data.dtype == np.float64
            np.testing.assert_array_equal(got.data, t.data)

    def test_header_fields_preserved(self, tmp_path):
        path = tmp_path / "model.ckpt"
        atomic_write_bytes(
            path, checkpoint_bytes("qg", SAMPLE_CONFIG, sample_tensors(), "abc123"))
        ck = load_checkpoint(path)
        assert ck.kind == "qg"
        assert ck.vocab_hash == "abc123"
        assert ck.config == SAMPLE_CONFIG
        assert type(ck.config["lr"]) is float and ck.config["lr"] == 1e-3

    def test_scalar_and_empty_shapes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        tensors = {"s": Tensor(np.float64(2.5)), "row": Tensor(np.zeros((1, 4)))}
        atomic_write_bytes(path, checkpoint_bytes("qg", {}, tensors, "h"))
        ck = load_checkpoint(path)
        assert ck.tensors["s"].data.shape == ()
        assert float(ck.tensors["s"].data) == 2.5


class TestCheckpointRejection:
    def test_unknown_version(self, tmp_path):
        blob = checkpoint_bytes("qg", {}, sample_tensors(), "h")
        header_len = struct.unpack("<Q", blob[4:12])[0]
        header = json.loads(blob[12 : 12 + header_len])
        header["version"] = FORMAT_VERSION + 1
        raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        doctored = blob[:4] + struct.pack("<Q", len(raw)) + raw + blob[12 + header_len :]
        path = tmp_path / "bad.ckpt"
        path.write_bytes(doctored)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        blob = checkpoint_bytes("qg", {}, sample_tensors(), "h")
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        blob = checkpoint_bytes("qg", {}, sample_tensors(), "h")
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", [
        b"{not json", b"\xff\xfe", b"[1, 2]",
        b'{"version": 1, "kind": "qg", "config": {}, "vocab_hash": "h"}',
        b'{"version": 1, "kind": "qg", "tensors": [], "vocab_hash": "h"}',
        b'{"version": 1, "kind": "qg", "tensors": [], "config": {}}',
        b'{"version": 1, "kind": "qg", "tensors": [{"shape": []}], "config": {}, "vocab_hash": "h"}',
        b"[" * 100_000,
    ], ids=["bad-json", "not-utf8", "not-object", "no-tensors", "no-config",
            "no-vocab-hash", "unnamed-tensor", "deeply-nested"])
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"QGCK" + struct.pack("<Q", len(header)) + header)
        with pytest.raises(CheckpointError, match="malformed header"):
            load_checkpoint(path)

    def test_unknown_kind_rejected_on_save(self):
        with pytest.raises(CheckpointError, match="kind"):
            checkpoint_bytes("discriminator", {}, sample_tensors(), "h")


class TestAtomicWrite:
    def test_overwrites_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_bytes(path, b"new contents")
        assert path.read_text() == "new contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_bytes_roundtrip(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"\x00\xffdata")
        assert path.read_bytes() == b"\x00\xffdata"


class TestHashes:
    def test_sha256_bytes_known_value(self):
        # sha256 of the empty string is a fixed constant
        assert sha256_bytes(b"") == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_file_hash_matches_bytes_hash(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"abc123")
        assert sha256_file(path) == sha256_bytes(b"abc123")


class TestManifest:
    def test_written_and_loadable(self, tmp_path):
        path = write_manifest(
            tmp_path, "train", {"lr": 0.001}, [0],
            inputs={"train.jsonl": "aaa"}, artifacts={"model.ckpt": "bbb"},
        )
        m = json.loads(path.read_text())
        assert m["command"] == "train"
        assert m["inputs"] == {"train.jsonl": "aaa"}
        assert m["artifacts"] == {"model.ckpt": "bbb"}
        assert "created" in m

    def test_manifest_name_is_stable(self, tmp_path):
        path = write_manifest(tmp_path, "x", {}, [], {}, {})
        assert path.name == "manifest.json"
