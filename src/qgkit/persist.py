"""Checkpoint and run-manifest persistence.

Checkpoints are a small binary container: a fixed magic, a
length-prefixed canonical JSON header (format version, model kind,
embedded config, vocabulary hash, tensor names and shapes), then the
tensors' float64 little-endian payloads in header order.  Tensors are
stored sorted by name and the header JSON is canonicalized, so
save -> load -> save reproduces the file byte for byte.

Manifests record what produced a set of artifacts: command, config
snapshot, seeds, input and output hashes.  Timestamps live only here;
every other artifact is a pure function of its inputs.

``ModelConfig`` is the base of the model config dataclasses: its fields
are the hyperparameters, and the dict form it gives is the one embedded
in checkpoints and manifests.  ``ModelParams`` pairs a config with the
named tensors of either model.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .autodiff import Tensor

__all__ = [
    "FORMAT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "MANIFEST_NAME",
    "ModelConfig",
    "ModelParams",
    "atomic_write_bytes",
    "atomic_write_text",
    "checkpoint_bytes",
    "load_checkpoint",
    "load_manifest",
    "sha256_bytes",
    "sha256_file",
    "write_manifest",
]

MAGIC = b"QGCK"
FORMAT_VERSION = 1
MODEL_KINDS = ("classifier", "qg")
MANIFEST_NAME = "manifest.json"


class CheckpointError(ValueError):
    pass


class ModelConfig:
    """Base of the model config dataclasses.

    A field's name, default and the type of its default are the whole
    definition of a hyperparameter; ``seed`` aside, every int field must
    be positive."""

    def validate(self) -> None:
        for f in fields(self):
            if type(f.default) is int and f.name != "seed" and getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict):
        """Inverse of ``to_dict``: exactly the field set, each value of its
        field's type (an int may stand for a float; a bool is not an
        int), validated.  Raises ValueError."""
        kinds = {f.name: type(f.default) for f in fields(cls)}
        if not isinstance(d, dict):
            raise ValueError("config is not a mapping")
        extra = sorted(set(d) - set(kinds))
        if extra:
            raise ValueError(f"unexpected config key {extra[0]!r}")
        for name, kind in kinds.items():
            if name not in d:
                raise ValueError(f"missing config key {name!r}")
            value = d[name]
            if not (type(value) is kind or (kind is float and type(value) is int)):
                raise ValueError(f"config {name} = {value!r} is not a {kind.__name__}")
        config = cls(**{name: kind(d[name]) for name, kind in kinds.items()})
        config.validate()
        return config


@dataclass
class ModelParams:
    """A model's config and its named parameter tensors."""

    config: ModelConfig
    tensors: dict[str, Tensor]

    def copy(self) -> "ModelParams":
        return ModelParams(
            config=replace(self.config),
            tensors={k: t.copy() for k, t in self.tensors.items()},
        )


@dataclass
class Checkpoint:
    version: int
    kind: str
    config: dict
    tensors: dict[str, Tensor]
    vocab_hash: str


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def checkpoint_bytes(kind: str, config: dict, tensors: dict[str, Tensor],
                     vocab_hash: str) -> bytes:
    if kind not in MODEL_KINDS:
        raise CheckpointError(f"unknown model kind {kind!r}")
    names = sorted(tensors)
    header = _canonical_json({
        "version": FORMAT_VERSION,
        "kind": kind,
        "config": config,
        "vocab_hash": vocab_hash,
        "tensors": [{"name": n, "shape": list(tensors[n].shape)} for n in names],
    })
    parts = [MAGIC, struct.pack("<Q", len(header)), header]
    for n in names:
        parts.append(np.ascontiguousarray(tensors[n].data, dtype="<f8").tobytes())
    return b"".join(parts)


def load_checkpoint(path: str | Path) -> Checkpoint:
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if len(blob) < 12:
        raise CheckpointError(f"{path}: truncated header")
    (header_len,) = struct.unpack("<Q", blob[4:12])
    header_end = 12 + header_len
    if len(blob) < header_end:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[12:header_end].decode("utf-8"))
        layout = [(e["name"], tuple(int(n) for n in e["shape"])) for e in header["tensors"]]
        config, vocab_hash = header["config"], header["vocab_hash"]
    except (ValueError, KeyError, TypeError) as e:
        raise CheckpointError(f"{path}: malformed header: {type(e).__name__}: {e}")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format version {version!r}"
        )
    kind = header.get("kind")
    if kind not in MODEL_KINDS:
        raise CheckpointError(f"{path}: unknown model kind {kind!r}")
    tensors: dict[str, Tensor] = {}
    offset = header_end
    for name, shape in layout:
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise CheckpointError(f"{path}: truncated tensor payload")
        data = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        tensors[name] = Tensor(data.reshape(shape).astype(np.float64, copy=True), name=name)
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after tensor payload")
    return Checkpoint(version=version, kind=kind, config=config,
                      tensors=tensors, vocab_hash=vocab_hash)


# ---------------------------------------------------------------------------
# Atomic file writes and content hashes.
# ---------------------------------------------------------------------------


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file in the target directory + rename, so a
    failure never leaves a partial file at ``path``."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    return sha256_bytes(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# Run manifests.
# ---------------------------------------------------------------------------


def write_manifest(
    out_dir: str | Path,
    command: str,
    config: dict,
    seeds: list[int],
    inputs: dict[str, str],
    artifacts: dict[str, str],
) -> Path:
    """Record a command's full provenance next to its artifacts.

    ``inputs`` and ``artifacts`` map file names to sha256 hashes.  The
    timestamp is confined to this file; artifacts stay byte-reproducible
    and reference the manifest by its stable file name."""
    path = Path(out_dir) / MANIFEST_NAME
    body = {
        "command": command,
        "config": config,
        "seeds": seeds,
        "inputs": inputs,
        "artifacts": artifacts,
        "created": datetime.now(timezone.utc).isoformat(),
    }
    atomic_write_text(path, json.dumps(body, indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
