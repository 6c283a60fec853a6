"""Experiment command line.

Six subcommands cover the full loop: ``prepare`` balances and splits a
corpus, ``train`` fits either model, ``generate`` runs the two-stage
pipeline (model classifier or accuracy-controlled oracle), ``evaluate``
scores a generation dump, ``sweep`` traces metric-vs-classifier-accuracy
curves, and ``ablate`` trains the five classifier feature variants.

Every command computes its outputs fully before writing anything, then
writes each file atomically and records a manifest (command, config,
seeds, input/output hashes) beside them.  Reruns with the same inputs
and config produce byte-identical artifacts; the only thing that moves
is the manifest timestamp.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .classifier import ClassifierConfig, oracle_classifier, train_classifier
from .data import (
    DOWNSAMPLE_CAP,
    CorpusError,
    Example,
    IWClass,
    Vocabulary,
    class_counts,
    corpus_text,
    downsample,
    load_corpus,
    tokenize,
)
from .generator import QGConfig, generate, pipeline_generate, train_qg
from .metrics import EvalReport, evaluate_generation
from .persist import (
    MANIFEST_NAME,
    CheckpointError,
    ModelParams,
    atomic_write_bytes,
    checkpoint_bytes,
    load_checkpoint,
    sha256_bytes,
    sha256_file,
    write_manifest,
)

__all__ = ["main"]


class CLIError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Config file: flat key=value INI sections, unknown anything is fatal.
# ---------------------------------------------------------------------------

_MODEL_CONFIGS = {"classifier": ClassifierConfig, "qg": QGConfig}


def _model_schema(cls) -> dict[str, tuple[str, str]]:
    """One INI key per config field; ``seed`` comes from [run]/--seed."""
    return {
        f.name: (type(f.default).__name__, str(f.default).lower())
        for f in fields(cls) if f.name != "seed"
    }


# section -> key -> (parse kind, default)
CONFIG_SCHEMA: dict[str, dict[str, tuple[str, str]]] = {
    "run": {
        "seed": ("int", "0"),
    },
    "prepare": {
        "cap": ("int", str(DOWNSAMPLE_CAP)),
    },
    **{kind: _model_schema(cls) for kind, cls in _MODEL_CONFIGS.items()},
    "sweep": {
        "grid": ("str", "0.6,0.7,0.8,0.9,1.0"),
        "seeds": ("str", "0,1,2,3,4"),
    },
}

_PARSERS = {
    "int": lambda cp, s, k: cp.getint(s, k),
    "float": lambda cp, s, k: cp.getfloat(s, k),
    "bool": lambda cp, s, k: cp.getboolean(s, k),
    "str": lambda cp, s, k: cp.get(s, k),
}


def default_config() -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    for section, keys in CONFIG_SCHEMA.items():
        cp[section] = {k: default for k, (_, default) in keys.items()}
    return cp


def load_config(path: str | None) -> configparser.ConfigParser:
    """Defaults overlaid with the user's file; any section, key, or
    unparseable value outside the schema aborts before any compute."""
    cp = default_config()
    if path is not None:
        if not Path(path).is_file():
            raise CLIError(f"config file not found: {path}", code=2)
        user = configparser.ConfigParser()
        try:
            user.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
        except configparser.Error as e:
            raise CLIError(f"bad config file: {e}", code=2)
        for section in user.sections():
            if section not in CONFIG_SCHEMA:
                raise CLIError(f"unknown config section [{section}]", code=2)
            for key, value in user[section].items():
                if key not in CONFIG_SCHEMA[section]:
                    raise CLIError(
                        f"unknown config key {key!r} in section [{section}]", code=2
                    )
                cp[section][key] = value
    for section, keys in CONFIG_SCHEMA.items():
        for key, (kind, _) in keys.items():
            try:
                _PARSERS[kind](cp, section, key)
            except ValueError:
                raise CLIError(
                    f"config value [{section}] {key} = {cp[section][key]!r} "
                    f"is not a valid {kind}", code=2,
                )
    return cp


def render_config(cp: configparser.ConfigParser) -> str:
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _model_config(kind: str, cp: configparser.ConfigParser, seed: int):
    values = {key: _PARSERS[k](cp, kind, key) for key, (k, _) in CONFIG_SCHEMA[kind].items()}
    try:
        return _MODEL_CONFIGS[kind].from_dict({**values, "seed": seed})
    except ValueError as e:
        raise CLIError(f"config [{kind}]: {e}", code=2)


# ---------------------------------------------------------------------------
# Shared plumbing.
# ---------------------------------------------------------------------------


def _resolve_seed(args, cp) -> int:
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        seed, source = cp.getint("run", "seed"), "config [run] seed"
    if seed < 0:
        raise CLIError(f"{source} must be non-negative, got {seed}", code=2)
    return seed


def _require(args, name: str) -> str:
    value = getattr(args, name, None)
    if value is None:
        raise CLIError(f"--{name.replace('_', '-')} is required", code=2)
    return value


def _load_examples(path: str) -> list[Example]:
    if not Path(path).is_file():
        raise CLIError(f"data file not found: {path}", code=2)
    examples = load_corpus(path)
    if not examples:
        raise CLIError(f"empty input corpus: {path}")
    return examples


def _vocab_path(args) -> Path:
    if getattr(args, "vocab", None) is not None:
        return Path(args.vocab)
    return Path(_require(args, "data")).parent / "vocab.txt"


def _load_vocab(args) -> Vocabulary:
    path = _vocab_path(args)
    if not path.is_file():
        raise CLIError(f"vocabulary file not found: {path}", code=2)
    try:
        return Vocabulary.load(path)
    except ValueError as e:
        raise CLIError(f"{path}: {e}")


def _load_model_checkpoint(path: str, expected_kind: str, vocab: Vocabulary) -> ModelParams:
    ck = load_checkpoint(path)
    if ck.kind != expected_kind:
        raise CLIError(f"{path}: expected a {expected_kind} checkpoint, got {ck.kind}")
    if ck.vocab_hash != vocab.content_hash():
        raise CLIError(
            f"vocabulary hash mismatch: checkpoint {path} was trained against a "
            "different vocabulary file"
        )
    try:
        config = _MODEL_CONFIGS[expected_kind].from_dict(ck.config)
    except ValueError as e:
        raise CheckpointError(f"{path}: bad config: {e}")
    return ModelParams(config, ck.tensors)


def _train(trainer, examples, config, vocab, what: str):
    """Run a trainer; bad data or a non-finite loss ends in one error
    line.  The trainers check the loss themselves, so numpy's overflow
    warnings on the way there are muted."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return trainer(examples, config, vocab)
    except ValueError as e:
        raise CLIError(f"{what}: {e}")


def _emit(out_dir: Path, files: dict[str, str | bytes], command: str,
          config: dict, seeds: list[int], inputs: dict[str, str]) -> None:
    """Write fully staged outputs (atomic per file) plus the manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = {}
    for name, data in files.items():
        payload = data.encode("utf-8") if isinstance(data, str) else data
        atomic_write_bytes(out_dir / name, payload)
        artifacts[name] = sha256_bytes(payload)
    write_manifest(out_dir, command, config, seeds, inputs, artifacts)


def _csv(rows: list[list[str]]) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def _fmt(x: float) -> str:
    return repr(float(x))


def format_iw_table(report: EvalReport) -> str:
    lines = [f"{'class':<8} {'recall':>7} {'precision':>10} {'support':>8}"]
    for c in IWClass:
        s = report.iw_scores.per_class[c]
        lines.append(
            f"{c.name.lower():<8} {s.recall:7.4f} {s.precision:10.4f} {s.support:8d}"
        )
    lines.append(
        f"{'total':<8} {report.iw_scores.total_recall:7.4f} {'':>10} "
        f"{report.iw_scores.support_total():8d}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_prepare(args, cp) -> int:
    seed = _resolve_seed(args, cp)
    cap = args.cap if args.cap is not None else cp.getint("prepare", "cap")
    if cap < 0:
        raise CLIError("cap must be non-negative", code=2)
    data_path = _require(args, "data")
    out_dir = Path(_require(args, "out"))
    examples = _load_examples(data_path)
    rng = np.random.default_rng(seed)
    balanced = downsample(examples, cap, rng)
    vocab = Vocabulary.build(examples)
    before = class_counts(examples)
    after = class_counts(balanced)
    stats_rows = [["class", "original", "downsampled"]]
    stats_rows += [[c.name, str(before[c]), str(after[c])] for c in IWClass]
    table = "\n".join(
        f"{c.name:<8} {before[c]:>8} {after[c]:>12}" for c in IWClass
    )
    print(f"{'class':<8} {'original':>8} {'downsampled':>12}\n{table}")
    _emit(
        out_dir,
        {
            "classifier_train.jsonl": corpus_text(balanced),
            "qg_train.jsonl": corpus_text(examples),
            "vocab.txt": vocab.text(),
            "stats.csv": _csv(stats_rows),
        },
        command="prepare",
        config={"cap": cap, "seed": seed},
        seeds=[seed],
        inputs={Path(data_path).name: sha256_file(data_path)},
    )
    return 0


def cmd_train(args, cp) -> int:
    kind = _require(args, "kind")
    if kind not in ("classifier", "qg"):
        raise CLIError("--kind must be classifier or qg", code=2)
    seed = _resolve_seed(args, cp)
    data_path = _require(args, "data")
    out_dir = Path(_require(args, "out"))
    # config validation is fatal before any data pass
    config = _model_config(kind, cp, seed)
    examples = _load_examples(data_path)
    vocab = _load_vocab(args)
    trainer = train_classifier if kind == "classifier" else train_qg
    params, log = _train(trainer, examples, config, vocab, f"train:{kind}")
    if kind == "classifier":
        loss_rows = [["epoch", "train_loss", "dev_accuracy"]]
        loss_rows += [
            [str(e["epoch"]), _fmt(e["train_loss"]), _fmt(e["dev_accuracy"])]
            for e in log
        ]
    else:
        loss_rows = [["epoch", "per_token_loss"]]
        loss_rows += [[str(e["epoch"]), _fmt(e["per_token_loss"])] for e in log]
    ckpt = checkpoint_bytes(kind, config.to_dict(), params.tensors, vocab.content_hash())
    manifest_config = config.to_dict()
    if kind == "qg":
        # the inserted question word is embedded through the ordinary
        # word table, not a dedicated one
        manifest_config["iw_embedding"] = "shared word table"
    _emit(
        out_dir,
        {f"{kind}.ckpt": ckpt, "loss.csv": _csv(loss_rows)},
        command=f"train:{kind}",
        config=manifest_config,
        seeds=[seed],
        inputs={
            Path(data_path).name: sha256_file(data_path),
            _vocab_path(args).name: sha256_file(_vocab_path(args)),
        },
    )
    return 0


def _dump_line(example: Example, result, provenance: str) -> str:
    return json.dumps(
        {
            "id": example.id,
            "predicted_iw": result.predicted_iw.name.lower(),
            "generated": result.tokens,
            "gold": tokenize(example.question),
            "attention": [[float(v) for v in row] for row in result.attention],
            "provenance": provenance,
            "manifest": MANIFEST_NAME,
        },
        sort_keys=True,
    )


def cmd_generate(args, cp) -> int:
    seed = _resolve_seed(args, cp)
    qg_path = _require(args, "qg")
    data_path = _require(args, "data")
    out_dir = Path(_require(args, "out"))
    if (args.classifier is None) == (args.oracle is None):
        raise CLIError("provide exactly one of --classifier or --oracle", code=2)
    vocab = _load_vocab(args)
    qg = _load_model_checkpoint(qg_path, "qg", vocab)
    examples = _load_examples(data_path)
    inputs = {
        Path(data_path).name: sha256_file(data_path),
        _vocab_path(args).name: sha256_file(_vocab_path(args)),
        Path(qg_path).name: sha256_file(qg_path),
    }
    if args.classifier is not None:
        predictor = _load_model_checkpoint(args.classifier, "classifier", vocab)
        provenance = "model"
        inputs[Path(args.classifier).name] = sha256_file(args.classifier)
    else:
        accuracy = _parse_accuracy(args.oracle)
        rng = np.random.default_rng(seed)
        provenance = f"oracle@{args.oracle}"

        def predictor(ex, _rng=rng, _a=accuracy):
            return oracle_classifier(ex.iw_class, _a, _rng)

    lines = [
        _dump_line(ex, pipeline_generate(ex, predictor, qg, vocab), provenance)
        for ex in examples
    ]
    _emit(
        out_dir,
        {"dump.jsonl": "\n".join(lines) + "\n"},
        command="generate",
        config={"provenance": provenance, "seed": seed, "qg": qg.config.to_dict()},
        seeds=[seed],
        inputs=inputs,
    )
    return 0


def _parse_accuracy(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CLIError(f"bad oracle accuracy {text!r}", code=2)
    if not 0.0 <= value <= 1.0:
        raise CLIError(f"oracle accuracy {text} outside [0, 1]", code=2)
    return value


def _is_token_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(t, str) for t in value)


def _read_dump(path: str) -> list[dict]:
    if not Path(path).is_file():
        raise CLIError(f"dump file not found: {path}", code=2)
    records = []
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            raise CLIError(f"{path}: line {i} is not valid JSON")
        if not (isinstance(rec, dict) and _is_token_list(rec.get("generated"))
                and _is_token_list(rec.get("gold"))):
            raise CLIError(f"{path}: line {i}: generated and gold must be lists of strings")
        records.append(rec)
    if not records:
        raise CLIError(f"empty generation dump: {path}")
    return records


def cmd_evaluate(args, cp) -> int:
    seed = _resolve_seed(args, cp)
    dump_path = _require(args, "dump")
    out_dir = Path(_require(args, "out"))
    records = _read_dump(dump_path)
    candidates = [r["generated"] for r in records]
    references = [r["gold"] for r in records]
    report = evaluate_generation(candidates, references)
    header = [name for name, _ in report.metric_columns()]
    values = [_fmt(v) for _, v in report.metric_columns()]
    print(format_iw_table(report))
    _emit(
        out_dir,
        {
            "report.json": json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n",
            "report.csv": _csv([header, values]),
        },
        command="evaluate",
        config={"seed": seed},
        seeds=[seed],
        inputs={Path(dump_path).name: sha256_file(dump_path)},
    )
    return 0


def _split_tokens(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def cmd_sweep(args, cp) -> int:
    qg_path = _require(args, "qg")
    data_path = _require(args, "data")
    out_dir = Path(_require(args, "out"))
    grid = _split_tokens(args.grid if args.grid is not None else cp.get("sweep", "grid"))
    seed_text = args.seeds if args.seeds is not None else cp.get("sweep", "seeds")
    seed_tokens = _split_tokens(seed_text)
    if not grid or not seed_tokens:
        raise CLIError("sweep needs a non-empty accuracy grid and seed list", code=2)
    try:
        seeds = [int(t) for t in seed_tokens]
    except ValueError:
        raise CLIError(f"bad seed list {seed_text!r}", code=2)
    if any(sd < 0 for sd in seeds):
        raise CLIError(f"bad seed list {seed_text!r}: seeds must be non-negative", code=2)
    accuracies = [_parse_accuracy(t) for t in grid]
    vocab = _load_vocab(args)
    qg = _load_model_checkpoint(qg_path, "qg", vocab)
    examples = _load_examples(data_path)
    references = [tokenize(ex.question) for ex in examples]
    # generate is a pure function of (example, class, params), and the
    # paired draws give each example under one seed either its gold class
    # or one fixed alternative whatever the accuracy, so each distinct
    # (example, class) is decoded once and shared by every cell drawing it
    decoded: dict[tuple[int, IWClass], list[str]] = {}
    metric_names = None
    rows = []
    for acc_token, accuracy in zip(grid, accuracies):
        seed_reports = []
        for sd in seeds:
            # one stream per seed, two draws per example: identical seeds
            # reuse identical noise across accuracy levels
            rng = np.random.default_rng(sd)
            candidates = []
            for i, ex in enumerate(examples):
                predicted = oracle_classifier(ex.iw_class, accuracy, rng)
                if (i, predicted) not in decoded:
                    decoded[i, predicted] = generate(
                        ex, predicted, qg.config, qg.tensors, vocab).tokens
                candidates.append(decoded[i, predicted])
            report = evaluate_generation(candidates, references)
            cols = report.metric_columns()
            if metric_names is None:
                metric_names = [n for n, _ in cols]
            rows.append([acc_token, str(sd)] + [_fmt(v) for _, v in cols])
            seed_reports.append(cols)
        means = [
            sum(cols[i][1] for cols in seed_reports) / len(seed_reports)
            for i in range(len(seed_reports[0]))
        ]
        rows.append([acc_token, "mean"] + [_fmt(v) for v in means])
    csv_rows = [["accuracy", "seed"] + metric_names] + rows
    _emit(
        out_dir,
        {"sweep.csv": _csv(csv_rows)},
        command="sweep",
        config={"grid": grid, "seeds": seeds, "qg": qg.config.to_dict()},
        seeds=seeds,
        inputs={
            Path(data_path).name: sha256_file(data_path),
            _vocab_path(args).name: sha256_file(_vocab_path(args)),
            Path(qg_path).name: sha256_file(qg_path),
        },
    )
    return 0


# flag order: answer tagging, answer embedding, entity type
_ABLATION_VARIANTS = [
    (False, False, False),
    (False, False, True),
    (False, True, False),
    (True, False, False),
    (True, False, True),
]


def cmd_ablate(args, cp) -> int:
    seed = _resolve_seed(args, cp)
    data_path = _require(args, "data")
    out_dir = Path(_require(args, "out"))
    base = _model_config("classifier", cp, seed)
    examples = _load_examples(data_path)
    vocab = _load_vocab(args)
    rows = [["label", "accuracy"]]
    for at, ae, ner in _ABLATION_VARIANTS:
        config = replace(base, use_answer_tagging=at, use_answer_embedding=ae,
                         use_entity_type=ner)
        _, log = _train(train_classifier, examples, config, vocab,
                        f"ablate {config.ablation_label()}")
        accuracy = max(e["dev_accuracy"] for e in log)
        rows.append([config.ablation_label(), _fmt(accuracy)])
        print(f"{config.ablation_label():<16} {accuracy:.4f}")
    _emit(
        out_dir,
        {"ablation.csv": _csv(rows)},
        command="ablate",
        config=base.to_dict(),
        seeds=[seed],
        inputs={
            Path(data_path).name: sha256_file(data_path),
            _vocab_path(args).name: sha256_file(_vocab_path(args)),
        },
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgkit",
        description="Interrogative-word aware question generation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="override the [run] seed")
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--print-config", action="store_true",
                       help="print the effective config and exit")

    p = sub.add_parser("prepare", help="balance a corpus and build the vocabulary")
    common(p)
    p.add_argument("--data", default=None, help="input corpus JSONL")
    p.add_argument("--cap", type=int, default=None, help="per-class downsample cap")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train the classifier or the generator")
    common(p)
    p.add_argument("--kind", choices=["classifier", "qg"], default=None)
    p.add_argument("--data", default=None, help="training corpus JSONL")
    p.add_argument("--vocab", default=None,
                   help="vocabulary file (default: vocab.txt beside --data)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="run the two-stage pipeline over a corpus")
    common(p)
    p.add_argument("--qg", default=None, help="generator checkpoint")
    p.add_argument("--classifier", default=None, help="classifier checkpoint")
    p.add_argument("--oracle", default=None,
                   help="use a gold-based oracle at this accuracy instead")
    p.add_argument("--data", default=None, help="evaluation corpus JSONL")
    p.add_argument("--vocab", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score a generation dump")
    common(p)
    p.add_argument("--dump", default=None, help="generation dump JSONL")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="metrics across oracle accuracy levels")
    common(p)
    p.add_argument("--qg", default=None, help="generator checkpoint")
    p.add_argument("--data", default=None, help="evaluation corpus JSONL")
    p.add_argument("--vocab", default=None)
    p.add_argument("--grid", default=None, help="comma-separated accuracies")
    p.add_argument("--seeds", default=None, help="comma-separated seeds")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ablate", help="train the five classifier feature variants")
    common(p)
    p.add_argument("--data", default=None, help="training corpus JSONL")
    p.add_argument("--vocab", default=None)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cp = load_config(args.config)
        if args.print_config:
            if args.seed is not None:
                cp["run"]["seed"] = str(args.seed)
            sys.stdout.write(render_config(cp))
            return 0
        return args.func(args, cp)
    except CLIError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (CorpusError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
