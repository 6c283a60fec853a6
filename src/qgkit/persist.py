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

Every file a command reads from outside the program goes through
``read_input``, and every input the program cannot use raises
``InputError``, which carries the command's exit status.

``ModelConfig`` is the base of the model config dataclasses: its fields
are the hyperparameters, and the dict form it gives is the one embedded
in checkpoints and manifests.  ``ModelParams`` pairs a config with the
named tensors of either model.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .autodiff import Tensor

__all__ = [
    "FORMAT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "InputError",
    "MANIFEST_NAME",
    "ModelConfig",
    "ModelParams",
    "atomic_write_bytes",
    "build_model",
    "checkpoint_bytes",
    "load_checkpoint",
    "read_input",
    "sha256_bytes",
    "sha256_file",
    "write_manifest",
]

MAGIC = b"QGCK"
FORMAT_VERSION = 1
MODEL_KINDS = ("classifier", "qg")
MANIFEST_NAME = "manifest.json"


class InputError(ValueError):
    """Input from outside the program that a command cannot use.  ``code``
    is the exit status: 2 for usage, config or a missing file, 1 for
    malformed content."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


class CheckpointError(InputError):
    pass


def read_input(path: str | Path, what: str, binary: bool = False,
               code: int = 1) -> str | bytes:
    """The bytes of the ``what`` file at ``path``, or its UTF-8 text with
    universal newlines.  A path that cannot be read is an exit-2
    InputError; text that is not UTF-8 is one with exit status ``code``."""
    p = Path(path)
    try:
        return p.read_bytes() if binary else p.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}", code=2) from None
    except OSError as e:  # a directory, no permission, ...
        raise InputError(f"cannot read {what} file {path}: {e.strerror}", code=2) from None
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})",
                         code=code) from None


class ModelConfig:
    """Base of the model config dataclasses.

    A field's name, default and the type of its default are the whole
    definition of a hyperparameter; ``seed`` aside, every int field must
    be positive."""

    def validate(self) -> None:
        for f in fields(self):
            if type(f.default) is int and f.name != "seed" and getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be positive")
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be non-negative and finite")

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


def build_model(init, config: ModelConfig, vocab_size: int, rng) -> ModelParams:
    """``init(config, vocab_size, rng)``, where a config whose tensors numpy
    cannot lay out or allocate raises InputError instead of crashing."""
    try:
        return init(config, vocab_size, rng)
    except (MemoryError, ValueError, OverflowError) as e:
        raise InputError(f"its config describes a model numpy cannot allocate: {e}") from None


@dataclass
class Checkpoint:
    kind: str
    config: dict | ModelConfig
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


def load_checkpoint(path: str | Path, kind: str | None = None,
                    config_cls: type[ModelConfig] | None = None) -> Checkpoint:
    """Parse the checkpoint file at ``path``; every tensor value must be
    finite.  Given ``kind``, the file must hold a model of that kind;
    given ``config_cls``, its config is parsed by ``from_dict``.  A file
    that fails any of this raises CheckpointError naming ``path``."""
    blob = read_input(path, "checkpoint", binary=True)
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
        layout = [(e["name"], tuple(e["shape"])) for e in header["tensors"]]
        config, vocab_hash = header["config"], header["vocab_hash"]
        if len({name for name, _ in layout}) != len(layout):
            raise ValueError("a tensor name is listed twice")
        # a bool is an int to Python, and int() would take 48.9 or "48"
        if any(type(n) is not int or n < 0 for _, shape in layout for n in shape):
            raise ValueError("a tensor dimension is not a non-negative int")
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as e:
        raise CheckpointError(f"{path}: malformed header: {type(e).__name__}: {e}")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format version {version!r}"
        )
    found = header.get("kind")
    if found not in MODEL_KINDS:
        raise CheckpointError(f"{path}: unknown model kind {found!r}")
    if kind is not None and found != kind:
        raise CheckpointError(f"{path}: expected a {kind} checkpoint, got {found}")
    if config_cls is not None:
        try:
            config = config_cls.from_dict(config)
        except ValueError as e:
            raise CheckpointError(f"{path}: bad config: {e}") from None
    tensors: dict[str, Tensor] = {}
    offset = header_end
    for name, shape in layout:
        count = math.prod(shape)
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise CheckpointError(f"{path}: truncated tensor payload")
        data = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: tensor {name} holds non-finite values")
        tensors[name] = Tensor(data.reshape(shape).astype(np.float64, copy=True))
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after tensor payload")
    return Checkpoint(kind=found, config=config, tensors=tensors, vocab_hash=vocab_hash)


# ---------------------------------------------------------------------------
# Atomic file writes and content hashes.
# ---------------------------------------------------------------------------


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file in the target directory + rename, so a
    failure never leaves a partial file at ``path``.  The temp file is
    created with mode 0o666 less the umask, the mode ``open(path, "wb")``
    gives, where ``tempfile.mkstemp`` would give 0o600."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0),
                 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    atomic_write_bytes(path, (json.dumps(body, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    return path
