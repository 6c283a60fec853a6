"""Experiment command line.

Six subcommands cover the full loop: ``prepare`` balances and splits a
corpus, ``train`` fits either model, ``generate`` runs the two-stage
pipeline on a trained classifier's classes or an accuracy-controlled
oracle's draws, ``evaluate`` scores a generation dump, ``sweep`` traces
metric-vs-classifier-accuracy curves, and ``ablate`` trains the five
classifier feature variants.  ``evaluate`` keeps only each dump line's
``generated`` and ``gold`` token lists: the rest of a line, its attention
matrix included, is checked as JSON, and its numbers are never converted.

Each subcommand declares its required flags in ``build_parser``, and
each ``cmd_*`` only computes: it reads its inputs and returns its staged
outputs (manifest command name, files, config snapshot, seeds).  ``main``
does the rest in one place: it parses the arguments, checks the required
flags, defaults ``--vocab`` to ``vocab.txt`` beside ``--data``, hashes
every input file given, then writes each output file atomically and a
manifest (command, config, seeds, input/output hashes) beside them.
Reruns with the same inputs and config produce byte-identical artifacts;
the only thing that moves is the manifest timestamp.  Every failure
``main`` can name, a usage error included, ends in one ``error:`` line
on stderr and a nonzero return; only ``--help`` leaves through
argparse's own exit.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import fields, replace
from functools import cache
from pathlib import Path

import numpy as np

from .classifier import ClassifierConfig, init_classifier, oracle_classifier, train_classifier
from .data import (
    DOWNSAMPLE_CAP,
    Example,
    IWClass,
    Vocabulary,
    class_counts,
    corpus_text,
    downsample,
    load_corpus,
)
# ``generate`` and ``pipeline_generate`` are not called here; they stay
# bound because bench/spans.py traces them at this module
from .generator import (
    QGConfig,
    check_passages,
    generate,
    generate_batch,
    init_qg,
    pipeline_generate,
    predict_iw,
    train_qg,
)
from .metrics import EvalReport, evaluate_generation, pool_scores, score_pair
from .persist import (
    MANIFEST_NAME,
    CheckpointError,
    InputError,
    ModelParams,
    atomic_write_bytes,
    build_model,
    checkpoint_bytes,
    load_checkpoint,
    read_input,
    sha256_bytes,
    sha256_file,
    write_manifest,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Config: flat key=value INI sections, unknown anything is fatal.
# ---------------------------------------------------------------------------

# kind -> (config dataclass, the function that builds its tensors)
_MODELS = {"classifier": (ClassifierConfig, init_classifier), "qg": (QGConfig, init_qg)}


# section -> key -> (parse kind, default); one key per model config
# field, less ``seed``, which [run] and --seed give
CONFIG_SCHEMA: dict[str, dict[str, tuple[str, str]]] = {
    "run": {
        "seed": ("int", "0"),
    },
    "prepare": {
        "cap": ("int", str(DOWNSAMPLE_CAP)),
    },
    **{kind: {f.name: (type(f.default).__name__, str(f.default).lower())
              for f in fields(cls) if f.name != "seed"}
       for kind, (cls, _) in _MODELS.items()},
    "sweep": {
        "grid": ("str", "0.6,0.7,0.8,0.9,1.0"),
        "seeds": ("str", "0,1,2,3,4"),
    },
}

# flag -> the section it overrides
_OVERRIDES = {"seed": "run", "cap": "prepare", "grid": "sweep", "seeds": "sweep"}

_PARSERS = {
    "int": lambda cp, s, k: cp.getint(s, k),
    "float": lambda cp, s, k: cp.getfloat(s, k),
    "bool": lambda cp, s, k: cp.getboolean(s, k),
    "str": lambda cp, s, k: cp.get(s, k),
}


def _checked(message: str, parse, *args, cause: bool = False):
    """``parse(*args)``, with a ValueError turned into an exit-2 error that
    says ``message``, followed by the error's own text if ``cause``."""
    try:
        return parse(*args)
    except ValueError as e:
        raise InputError(f"{message}: {e}" if cause else message, code=2) from None


def load_config(args) -> tuple[configparser.ConfigParser, dict]:
    """The effective config: defaults, overlaid with the ``--config`` file,
    overlaid with the flags.  Any section, key or value outside the schema,
    and any value out of range, aborts before any data is read, as does an
    ``--out`` that is not a directory or a path under one.  Returns
    the INI form, which ``--print-config`` prints, and the checked values
    the commands read: ``seed``, ``cap``, the ``classifier`` and ``qg``
    configs, the sweep ``grid`` as (token, accuracy) pairs and ``seeds``,
    and the ``oracle`` accuracy or None."""
    if getattr(args, "out", None) is not None:
        _check_out(Path(args.out))
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict({section: {key: default for key, (_, default) in keys.items()}
                  for section, keys in CONFIG_SCHEMA.items()})
    if args.config is not None:
        user = configparser.ConfigParser(interpolation=None)
        try:
            user.read_string(read_input(args.config, "config", code=2), source=str(args.config))
        except configparser.Error as e:
            raise InputError(f"bad config file: {e}", code=2) from None
        for section in user.sections():
            if section not in CONFIG_SCHEMA:
                raise InputError(f"unknown config section [{section}]", code=2)
            for key, value in user[section].items():
                if key not in CONFIG_SCHEMA[section]:
                    raise InputError(
                        f"unknown config key {key!r} in section [{section}]", code=2
                    )
                cp[section][key] = value
    for key, section in _OVERRIDES.items():
        if getattr(args, key, None) is not None:
            cp[section][key] = str(getattr(args, key))
    values = {
        (section, key): _checked(
            f"config value [{section}] {key} = {cp[section][key]!r} is not a valid {kind}",
            _PARSERS[kind], cp, section, key,
        )
        for section, keys in CONFIG_SCHEMA.items() for key, (kind, _) in keys.items()
    }
    seed = values["run", "seed"]
    if seed < 0:
        source = "--seed" if args.seed is not None else "config [run] seed"
        raise InputError(f"{source} must be non-negative, got {seed}", code=2)
    cfg = {"seed": seed, "cap": values["prepare", "cap"]}
    if cfg["cap"] < 0:
        raise InputError("cap must be non-negative", code=2)
    for kind, (cls, _) in _MODELS.items():
        given = {key: values[kind, key] for key in CONFIG_SCHEMA[kind]}
        cfg[kind] = _checked(f"config [{kind}]", cls.from_dict, {**given, "seed": seed},
                             cause=True)
    grid_text, seed_text = values["sweep", "grid"], values["sweep", "seeds"]
    grid, seed_tokens = _split_tokens(grid_text), _split_tokens(seed_text)
    if not grid or not seed_tokens:
        raise InputError("sweep needs a non-empty accuracy grid and seed list", code=2)
    cfg["seeds"] = _checked(f"bad seed list {seed_text!r}",
                            lambda: [int(t) for t in seed_tokens])
    if any(sd < 0 for sd in cfg["seeds"]):
        raise InputError(f"bad seed list {seed_text!r}: seeds must be non-negative", code=2)
    # a repeated seed or accuracy would write its rows twice and count
    # them twice in a mean
    if len(set(cfg["seeds"])) < len(cfg["seeds"]):
        raise InputError(f"bad seed list {seed_text!r}: seeds must be distinct", code=2)
    cfg["grid"] = [(token, _accuracy(token)) for token in grid]
    if len({accuracy for _, accuracy in cfg["grid"]}) < len(grid):
        raise InputError(f"bad accuracy grid {grid_text!r}: accuracies must be distinct", code=2)
    oracle = getattr(args, "oracle", None)
    cfg["oracle"] = None if oracle is None else _accuracy(oracle)
    return cp, cfg


def _check_out(out: Path) -> None:
    try:
        existing = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
        is_dir = existing.is_dir()
    except OSError as e:
        raise InputError(f"--out {out}: {e.strerror or e}", code=2) from None
    if not is_dir:
        raise InputError(f"--out {out}: {existing} is not a directory", code=2)


def _accuracy(text: str) -> float:
    value = _checked(f"bad oracle accuracy {text!r}", float, text)
    if not 0.0 <= value <= 1.0:
        raise InputError(f"oracle accuracy {text} outside [0, 1]", code=2)
    return value


def _split_tokens(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


# ---------------------------------------------------------------------------
# Shared plumbing.
# ---------------------------------------------------------------------------


def _load_examples(path: str) -> list[Example]:
    examples = load_corpus(path)
    if not examples:
        raise InputError(f"empty input corpus: {path}")
    return examples


class _ShapeRng:
    """Stands in for the rng a model's ``init`` draws from: every draw is
    a read-only zero view, so ``init`` gives a config's tensor names and
    shapes without allocating the tensors."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(0.0, size)


def _load_model_checkpoint(path: str, kind: str, vocab: Vocabulary) -> ModelParams:
    """A ``kind`` checkpoint trained against ``vocab``, holding exactly the
    tensor names and shapes that its config's model is built from."""
    config_cls, init = _MODELS[kind]
    ck = load_checkpoint(path, kind, config_cls)
    if ck.vocab_hash != vocab.content_hash():
        raise CheckpointError(
            f"vocabulary hash mismatch: checkpoint {path} was trained against a "
            "different vocabulary file"
        )
    found = {name: t.shape for name, t in ck.tensors.items()}
    try:
        built = {name: t.shape
                 for name, t in build_model(init, ck.config, len(vocab), _ShapeRng).tensors.items()}
    except InputError as e:
        raise CheckpointError(f"{path}: {e}") from None
    if found != built:
        name = min((n for n in found.keys() | built.keys() if found.get(n) != built.get(n)),
                   key=str)
        raise CheckpointError(
            f"{path}: tensor {name} is {found.get(name, 'absent')} in the file but "
            f"{built.get(name, 'absent')} in the {kind} model its config describes"
        )
    return ModelParams(ck.config, ck.tensors)


def _train(trainer, examples, config, vocab, what: str):
    """Run a trainer; a corpus it cannot train on or a non-finite loss
    ends in one error line.  An overflow or invalid operation anywhere in
    training raises at once: an infinity can saturate every gate and
    leave a finite loss behind it, which the trainers' own check of the
    loss would pass."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return trainer(examples, config, vocab)
    except InputError as e:
        raise InputError(f"{what}: {e}") from None
    except FloatingPointError as e:
        raise InputError(f"{what}: non-finite loss: {e}") from None


def _emit(out_dir: Path, command: str, files: dict[str, str | bytes],
          config: dict, seeds: list[int], inputs: dict[str, str]) -> None:
    """The one writer of a run directory: fully staged outputs (atomic per
    file), then the manifest.  A directory where one of them goes is
    rejected before anything is written; any other failed write ends in
    one error line."""
    artifacts = {}
    try:
        for name in (*files, MANIFEST_NAME):
            if (out_dir / name).is_dir():
                raise InputError(f"--out {out_dir}: {out_dir / name} is a directory", code=2)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            payload = data.encode("utf-8") if isinstance(data, str) else data
            atomic_write_bytes(out_dir / name, payload)
            artifacts[name] = sha256_bytes(payload)
        write_manifest(out_dir, command, config, seeds, inputs, artifacts)
    except OSError as e:
        raise InputError(f"--out {out_dir}: {e.strerror or e}") from None


def _warn_incomplete(incomplete: int, scored: int) -> None:
    if incomplete:
        print(f"warning: {incomplete} of {scored} METEOR pairs were scored from an "
              "alignment cut short by its node budget", file=sys.stderr)


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
        f"{report.n_examples:8d}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_prepare(args, cfg) -> tuple:
    seed, cap = cfg["seed"], cfg["cap"]
    examples = _load_examples(args.data)
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
    files = {
        "classifier_train.jsonl": corpus_text(balanced),
        "qg_train.jsonl": corpus_text(examples),
        "vocab.txt": vocab.text(),
        "stats.csv": _csv(stats_rows),
    }
    return "prepare", files, {"cap": cap, "seed": seed}, [seed]


def cmd_train(args, cfg) -> tuple:
    kind = args.kind
    seed, config = cfg["seed"], cfg[kind]
    examples = _load_examples(args.data)
    if kind == "qg":
        check_passages(examples)
    vocab = Vocabulary.load(args.vocab)
    trainer = train_classifier if kind == "classifier" else train_qg
    params, log = _train(trainer, examples, config, vocab, f"train:{kind}")
    cols = [k for k in log[0] if k != "epoch"]
    loss_rows = [["epoch", *cols]]
    loss_rows += [[str(e["epoch"]), *(_fmt(e[k]) for k in cols)] for e in log]
    ckpt = checkpoint_bytes(kind, config.to_dict(), params.tensors, vocab.content_hash())
    files = {f"{kind}.ckpt": ckpt, "loss.csv": _csv(loss_rows)}
    return f"train:{kind}", files, config.to_dict(), [seed]


def _oracle_draws(examples: list[Example], accuracy: float, seed: int) -> list[IWClass]:
    """The accuracy-controlled oracle's class for each of ``examples``, in
    order, from one stream seeded with ``seed``: ``oracle_classifier``
    takes two draws per example, so one seed gives the same noise at
    every accuracy.  ``generate --oracle a --seed s`` and sweep cell
    (a, s) decode the same classes."""
    rng = np.random.default_rng(seed)
    return [oracle_classifier(ex.iw_class, accuracy, rng) for ex in examples]


def _dump_line(example: Example, result, provenance: str) -> str:
    return json.dumps(
        {
            "id": example.id,
            "predicted_iw": result.predicted_iw.name.lower(),
            "generated": result.tokens,
            "gold": example.question_tokens,
            "attention": result.attention.tolist(),
            "provenance": provenance,
            "manifest": MANIFEST_NAME,
        },
        sort_keys=True,
    )


def cmd_generate(args, cfg) -> tuple:
    seed = cfg["seed"]
    if (args.classifier is None) == (args.oracle is None):
        raise InputError("provide exactly one of --classifier or --oracle", code=2)
    vocab = Vocabulary.load(args.vocab)
    qg = _load_model_checkpoint(args.qg, "qg", vocab)
    examples = _load_examples(args.data)
    check_passages(examples)
    if args.classifier is not None:
        classifier = _load_model_checkpoint(args.classifier, "classifier", vocab)
        predicted, provenance = predict_iw(examples, classifier, vocab), "model"
    else:
        predicted = _oracle_draws(examples, cfg["oracle"], seed)
        provenance = f"oracle@{args.oracle}"
    results = generate_batch(list(zip(examples, predicted)), qg.config, qg.tensors, vocab)
    lines = [_dump_line(ex, res, provenance) for ex, res in zip(examples, results)]
    config = {"provenance": provenance, "seed": seed, "qg": qg.config.to_dict()}
    return "generate", {"dump.jsonl": "\n".join(lines) + "\n"}, config, [seed]


def _is_token_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(t, str) for t in value)


# every number on a dump line, the attention matrix's included, is
# scanned, so a malformed one still fails the line, but none is
# converted: each reads as None, which is never a token, and an integer
# of any length is accepted
_DUMP_DECODER = json.JSONDecoder(parse_float=lambda _: None, parse_int=lambda _: None)


def _read_dump(path: str) -> tuple[list[list[str]], list[list[str]]]:
    """The ``generated`` and ``gold`` token lists of each line of the dump
    at ``path``, in order.  Each line must be valid JSON and an object
    whose two lists hold only strings; nothing else of it is read or
    kept, so no record or attention matrix outlives its line."""
    candidates, references = [], []
    for i, line in enumerate(read_input(path, "dump").split("\n"), 1):
        if not line.strip():
            continue
        try:
            rec = _DUMP_DECODER.decode(line)
        except (json.JSONDecodeError, RecursionError):
            raise InputError(f"{path}: line {i} is not valid JSON") from None
        if not (isinstance(rec, dict) and _is_token_list(rec.get("generated"))
                and _is_token_list(rec.get("gold"))):
            raise InputError(f"{path}: line {i}: generated and gold must be lists of strings")
        candidates.append(rec["generated"])
        references.append(rec["gold"])
    if not candidates:
        raise InputError(f"empty generation dump: {path}")
    return candidates, references


def cmd_evaluate(args, cfg) -> tuple:
    seed = cfg["seed"]
    candidates, references = _read_dump(args.dump)
    report = evaluate_generation(candidates, references)
    header = [name for name, _ in report.metric_columns()]
    values = [_fmt(v) for _, v in report.metric_columns()]
    print(format_iw_table(report))
    _warn_incomplete(report.incomplete_pairs, report.n_examples)
    files = {
        "report.json": json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n",
        "report.csv": _csv([header, values]),
    }
    return "evaluate", files, {"seed": seed}, [seed]


def cmd_sweep(args, cfg) -> tuple:
    seeds = cfg["seeds"]
    vocab = Vocabulary.load(args.vocab)
    qg = _load_model_checkpoint(args.qg, "qg", vocab)
    examples = _load_examples(args.data)
    check_passages(examples)
    references = [ex.question_tokens for ex in examples]
    drawn = {(accuracy, sd): _oracle_draws(examples, accuracy, sd)
             for _, accuracy in cfg["grid"] for sd in seeds}
    # generate is a pure function of (example, class, params), and the
    # paired draws give each example under one seed either its gold class
    # or one fixed alternative whatever the accuracy, so each distinct
    # (example, class) is decoded and scored once, and every cell drawing
    # it pools that score
    pairs = list(dict.fromkeys((i, p) for cell in drawn.values() for i, p in enumerate(cell)))
    results = generate_batch([(examples[i], p) for i, p in pairs], qg.config, qg.tensors, vocab)
    scored = {(i, p): score_pair(res.tokens, references[i])
              for (i, p), res in zip(pairs, results)}
    cells = {cell: pool_scores([scored[i, p] for i, p in enumerate(classes)])
             for cell, classes in drawn.items()}
    _warn_incomplete(sum(r.incomplete_pairs for r in cells.values()), len(cells) * len(examples))
    columns = {cell: r.metric_columns() for cell, r in cells.items()}
    rows = [["accuracy", "seed"] + [name for name, _ in next(iter(columns.values()))]]
    for acc_token, accuracy in cfg["grid"]:
        values = [[v for _, v in columns[accuracy, sd]] for sd in seeds]
        rows += [[acc_token, str(sd)] + [_fmt(v) for v in vs] for sd, vs in zip(seeds, values)]
        rows.append([acc_token, "mean"] + [_fmt(sum(col) / len(seeds)) for col in zip(*values)])
    config = {"grid": [token for token, _ in cfg["grid"]], "seeds": seeds,
              "qg": qg.config.to_dict()}
    return "sweep", {"sweep.csv": _csv(rows)}, config, seeds


# flag order: answer tagging, answer embedding, entity type
_ABLATION_VARIANTS = [
    (False, False, False),
    (False, False, True),
    (False, True, False),
    (True, False, False),
    (True, False, True),
]


def cmd_ablate(args, cfg) -> tuple:
    seed, base = cfg["seed"], cfg["classifier"]
    examples = _load_examples(args.data)
    vocab = Vocabulary.load(args.vocab)
    rows = [["label", "accuracy"]]
    for at, ae, ner in _ABLATION_VARIANTS:
        config = replace(base, use_answer_tagging=at, use_answer_embedding=ae,
                         use_entity_type=ner)
        _, log = _train(train_classifier, examples, config, vocab,
                        f"ablate {config.ablation_label()}")
        accuracy = max(e["dev_accuracy"] for e in log)
        rows.append([config.ablation_label(), _fmt(accuracy)])
        print(f"{config.ablation_label():<16} {accuracy:.4f}")
    return "ablate", {"ablation.csv": _csv(rows)}, base.to_dict(), [seed]


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.
# ---------------------------------------------------------------------------


# the flags that name an input file; main hashes each one that is given
_INPUT_FLAGS = ("data", "vocab", "qg", "classifier", "dump")


class _Parser(argparse.ArgumentParser):
    """Ends a usage error the way ``main`` ends every other failure: one
    ``error:`` line and exit 2, without argparse's usage lines.
    ``add_subparsers`` builds each subcommand's parser from this class too."""

    def error(self, message):
        raise InputError(message, code=2)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: it holds no per-call state, and each
    ``parse_args`` call returns a new Namespace."""
    parser = _Parser(
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

    def corpus(p, what):
        p.add_argument("--data", default=None, help=f"{what} corpus JSONL")
        p.add_argument("--vocab", default=None,
                       help="vocabulary file (default: vocab.txt beside --data)")

    p = sub.add_parser("prepare", help="balance a corpus and build the vocabulary")
    common(p)
    p.add_argument("--data", default=None, help="input corpus JSONL")
    p.add_argument("--cap", type=int, default=None, help="per-class downsample cap")
    p.set_defaults(func=cmd_prepare, required=("data", "out"))

    p = sub.add_parser("train", help="train the classifier or the generator")
    common(p)
    p.add_argument("--kind", choices=list(_MODELS), default=None)
    corpus(p, "training")
    p.set_defaults(func=cmd_train, required=("kind", "data", "out"))

    p = sub.add_parser("generate", help="run the two-stage pipeline over a corpus")
    common(p)
    p.add_argument("--qg", default=None, help="generator checkpoint")
    p.add_argument("--classifier", default=None, help="classifier checkpoint")
    p.add_argument("--oracle", default=None,
                   help="use a gold-based oracle at this accuracy instead")
    corpus(p, "evaluation")
    p.set_defaults(func=cmd_generate, required=("qg", "data", "out"))

    p = sub.add_parser("evaluate", help="score a generation dump")
    common(p)
    p.add_argument("--dump", default=None, help="generation dump JSONL")
    p.set_defaults(func=cmd_evaluate, required=("dump", "out"))

    p = sub.add_parser("sweep", help="metrics across oracle accuracy levels")
    common(p)
    p.add_argument("--qg", default=None, help="generator checkpoint")
    corpus(p, "evaluation")
    p.add_argument("--grid", default=None, help="comma-separated accuracies")
    p.add_argument("--seeds", default=None, help="comma-separated seeds")
    p.set_defaults(func=cmd_sweep, required=("qg", "data", "out"))

    p = sub.add_parser("ablate", help="train the five classifier feature variants")
    common(p)
    corpus(p, "training")
    p.set_defaults(func=cmd_ablate, required=("data", "out"))

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cp, cfg = load_config(args)
        if args.print_config:
            cp.write(sys.stdout)
            return 0
        # an empty value is missing too: Path("") is the working directory
        for name in args.required:
            if not getattr(args, name):
                raise InputError(f"--{name} is required", code=2)
        if hasattr(args, "vocab"):
            default = Path(args.data).parent / "vocab.txt"
            args.vocab = default if args.vocab is None else Path(args.vocab)
        staged = args.func(args, cfg)
        inputs = {Path(p).name: sha256_file(p) for p in
                  (getattr(args, name, None) for name in _INPUT_FLAGS) if p is not None}
        _emit(Path(args.out), *staged, inputs)
        return 0
    except InputError as e:
        # one line, whatever the message quotes from the input
        print("error: " + " ".join(str(e).splitlines()), file=sys.stderr)
        return e.code
