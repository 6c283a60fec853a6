"""In-memory span tracer for the benchmark's traced run.

The tracer replaces public qgkit functions with timing wrappers at the
module attribute their callers look them up through (``qgkit.cli`` binds
``train_qg`` at import, ``qgkit.generator`` binds ``lstm_step``, and so
on), so the program itself is not edited.  Each call becomes a span
``(name, start, end, parent, root, label, cycle)``: ``parent`` is the
index of the enclosing span (-1 for a root) and ``root`` the index of the
benchmark's own span around one CLI command, the identifier every span of
that command shares; ``label`` names the command.  Spans stay in memory
and are written out once, at the end of the run.

Besides spans, a wrapper may take a note of its arguments or result:
the op names on the tape passed to ``backward``, the (example, class)
pair handed to ``generate``, whether an alignment completed, and the
bytes written.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import update_wrapper
from pathlib import Path

import numpy as np

# Tape ops reported one by one; everything else is counted as "other".
OPS = (
    "getitem", "mul", "add", "sub", "sigmoid", "tanh", "matmul", "concat",
    "lookup", "softmax", "reshape", "transpose", "segment_max",
    "scatter_sum", "cross_entropy",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []
        self.label: str | None = None
        self.cycle = 0
        self.counts: Counter = Counter()       # (label, key) -> n
        self.ops: Counter = Counter()          # (label, op) -> n
        self.decodes: defaultdict = defaultdict(set)  # (cycle, label) -> {(id, class)}
        self.writes: Counter = Counter()       # root span index -> bytes
        self.speed: dict[int, float] = {}      # root span index -> speed factor
        self.last_root = -1

    # -- recording ---------------------------------------------------------

    def _open(self):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        root = self._stack[0] if self._stack else idx
        self.spans[idx] = (name, start, end, parent, root, self.label, self.cycle)

    @contextmanager
    def root(self, label: str):
        """The benchmark's own span around one CLI call."""
        self.label = label
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, label, start)
            self.label = None
            self.last_root = idx

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        orig = getattr(module, attr)

        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(idx, parent, name, start)
            if note is not None and self.label is not None:
                note(self, args, result)
            return result

        update_wrapper(traced, orig)
        setattr(module, attr, traced)
        self._patches.append((module, attr, orig))

    def count(self, key: str, n: int = 1) -> None:
        self.counts[(self.label, key)] += n

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines, times in microseconds from the first span."""
        done = [s for s in self.spans if s is not None]
        t0 = min((s[1] for s in done), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                name, start, end, parent, root, label, cycle = s
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "root": root,
                    "command": label,
                    "cycle": cycle, "start_us": round((start - t0) * 1e6, 1),
                    "end_us": round((end - t0) * 1e6, 1),
                }) + "\n")


# -- notes taken by wrappers ------------------------------------------------


def _note_backward(tr: Tracer, args, _result) -> None:
    tape = args[0]
    tr.count("tape_entries", len(tape.entries))
    for entry in tape.entries:
        tr.ops[(tr.label, entry.op if entry.op in OPS else "other")] += 1


def _note_generate(tr: Tracer, args, _result) -> None:
    example, predicted = args[0], args[1]
    tr.decodes[(tr.cycle, tr.label)].add((example.id, int(predicted)))


def _note_align(tr: Tracer, _args, result) -> None:
    tr.count("align_complete", int(result.complete))


def _note_write(tr: Tracer, args, _result) -> None:
    tr.writes[tr._stack[0]] += len(args[1])


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each place a caller looks it up."""
    from qgkit import classifier, cli, generator, layers, metrics, persist

    w = tracer.wrap
    w(cli, "load_corpus", "data.load_corpus")
    w(cli, "load_checkpoint", "persist.load_checkpoint")
    w(cli, "checkpoint_bytes", "persist.checkpoint_bytes")
    w(cli, "atomic_write_bytes", "persist.atomic_write_bytes", _note_write)
    w(persist, "atomic_write_bytes", "persist.atomic_write_bytes", _note_write)
    w(cli, "train_classifier", "classifier.train_classifier")
    w(cli, "train_qg", "generator.train_qg")
    w(cli, "pipeline_generate", "generator.pipeline_generate")
    w(cli, "generate", "generator.generate", _note_generate)
    w(cli, "oracle_classifier", "classifier.oracle_classifier")
    w(cli, "evaluate_generation", "metrics.evaluate_generation")
    for mod in (generator, classifier):
        w(mod, "backward", "autodiff.backward", _note_backward)
        w(mod, "adam_step", "autodiff.adam_step")
        w(mod, "classify", "classifier.classify")
    w(layers, "lstm_step", "layers.lstm_step")
    w(generator, "lstm_step", "layers.lstm_step")
    w(generator, "encode", "generator.encode")
    w(generator, "decode_step", "generator.decode_step")
    w(generator, "sequence_loss", "generator.sequence_loss")
    w(generator, "generate", "generator.generate", _note_generate)
    w(generator, "build_qg_input", "data.build_qg_input")
    w(classifier, "encode_summary", "classifier.encode_summary")
    w(metrics, "align_tokens", "metrics.align_tokens", _note_align)
    for fn in ("bleu_n", "rouge_l", "meteor_variant", "iw_recall_precision"):
        w(metrics, fn, f"metrics.{fn}")


# -- per-layer metrics --------------------------------------------------------


def _q(values: list[float], q: float) -> float:
    """Quantile of a sample; 0.0 when the layer was not reached."""
    return float(np.quantile(values, q)) if values else 0.0


def layer_metrics(tr: Tracer, n_cycles: int, overhead_ms: float,
                  overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Reduce the spans of the traced cycles (and of one traced set-up,
    labelled ``prepare``) to the per-layer metrics, keyed by name.  Span
    times are scaled by their command's speed factor, like the
    end-to-end times."""
    calls: dict[tuple[str, str], list[float]] = defaultdict(list)
    per_root: dict[tuple[str, str], Counter] = defaultdict(Counter)
    child_time: Counter = Counter()
    roots: dict[int, tuple[str, float]] = {}
    for i, s in enumerate(tr.spans):
        if s is None or s[5] is None:
            continue
        name, start, end, parent, root, label, _ = s
        dur = (end - start) / tr.speed.get(root, 1.0)
        if parent == -1:
            roots[i] = (label, dur)
            continue
        calls[(label, name)].append(dur)
        per_root[(label, name)][root] += dur
        if parent == root:
            child_time[root] += dur

    def ms(label, name, q):
        return _q([d * 1e3 for d in calls[(label, name)]], q)

    def us(label, name, q):
        return _q([d * 1e6 for d in calls[(label, name)]], q)

    def total_ms(label, name):
        # time one command spent in ``name``, median over command calls
        ids = [i for i, (lab, _) in roots.items() if lab == label]
        return _q([per_root[(label, name)][i] * 1e3 for i in ids], 0.5)

    def n(label, name):
        return len(calls[(label, name)]) / n_cycles

    def per(label, name, unit_name):
        units = len(calls[(label, unit_name)])
        return len(calls[(label, name)]) / units if units else 0.0

    def self_ms(label):
        return _q([(dur - child_time[i]) * 1e3
                   for i, (lab, dur) in roots.items() if lab == label], 0.5)

    def written(label):
        return _q([float(tr.writes[i]) for i, (lab, _) in roots.items() if lab == label], 0.5)

    out: dict[str, tuple[float, str]] = {}
    for label in ("prepare", "train_cls", "train_qg", "generate", "evaluate", "sweep"):
        out[f"{label}.cli.self_ms"] = (self_ms(label), "ms")
    for label in ("prepare", "train_cls", "train_qg", "generate"):
        out[f"{label}.data.load_corpus_ms"] = (total_ms(label, "data.load_corpus"), "ms")
        out[f"{label}.persist.atomic_write_bytes_ms"] = (
            total_ms(label, "persist.atomic_write_bytes"), "ms")
    for label in ("prepare", "train_qg", "generate"):
        out[f"{label}.persist.bytes_written"] = (written(label), "bytes")
    for label in ("train_cls", "train_qg"):
        out[f"{label}.persist.checkpoint_bytes_ms"] = (
            total_ms(label, "persist.checkpoint_bytes"), "ms")
    for label in ("generate", "sweep"):
        out[f"{label}.persist.load_checkpoint_ms"] = (
            total_ms(label, "persist.load_checkpoint"), "ms")

    # autodiff: one backward call per taped example
    for label in ("train_cls", "train_qg"):
        examples = len(calls[(label, "autodiff.backward")])
        entries = tr.counts[(label, "tape_entries")]
        out[f"{label}.autodiff.tape_entries_per_example"] = (
            entries / examples if examples else 0.0, "count")
        for op in OPS + ("other",):
            out[f"{label}.autodiff.op_count.{op}"] = (
                tr.ops[(label, op)] / examples if examples else 0.0, "count")
        out[f"{label}.autodiff.backward_ms.p50"] = (ms(label, "autodiff.backward", .5), "ms")
        out[f"{label}.autodiff.backward_ms.p95"] = (ms(label, "autodiff.backward", .95), "ms")
        out[f"{label}.autodiff.adam_step_ms.p50"] = (ms(label, "autodiff.adam_step", .5), "ms")

    # recurrent steps, per example pass of each command
    example_span = {
        "train_cls": "classifier.encode_summary",
        "train_qg": "generator.sequence_loss",
        "generate": "generator.generate",
        "sweep": "generator.generate",
    }
    for label, unit_name in example_span.items():
        out[f"{label}.layers.lstm_step_us.p50"] = (us(label, "layers.lstm_step", .5), "us")
        out[f"{label}.layers.lstm_step_us.p95"] = (us(label, "layers.lstm_step", .95), "us")
        out[f"{label}.layers.lstm_step.calls_per_example"] = (
            per(label, "layers.lstm_step", unit_name), "count")

    out["train_cls.classifier.classify_ms.p50"] = (ms("train_cls", "classifier.classify", .5), "ms")
    out["train_qg.generator.sequence_loss_ms.p50"] = (
        ms("train_qg", "generator.sequence_loss", .5), "ms")
    out["train_qg.generator.sequence_loss_ms.p95"] = (
        ms("train_qg", "generator.sequence_loss", .95), "ms")
    for label in ("train_qg", "generate"):
        out[f"{label}.data.build_qg_input_us.p50"] = (us(label, "data.build_qg_input", .5), "us")

    # untaped decoding
    for label in ("generate", "sweep"):
        out[f"{label}.generator.encode_ms.p50"] = (ms(label, "generator.encode", .5), "ms")
        out[f"{label}.generator.decode_step_us.p50"] = (us(label, "generator.decode_step", .5), "us")
        out[f"{label}.generator.decode_step_us.p95"] = (us(label, "generator.decode_step", .95), "us")
        out[f"{label}.generator.decode_steps_per_example"] = (
            per(label, "generator.decode_step", "generator.generate"), "count")
        out[f"{label}.generator.generate_ms.p50"] = (ms(label, "generator.generate", .5), "ms")
        out[f"{label}.generator.generate_ms.p95"] = (ms(label, "generator.generate", .95), "ms")
        out[f"{label}.classifier.oracle_calls"] = (n(label, "classifier.oracle_classifier"), "count")
    out["generate.classifier.classify_calls"] = (n("generate", "classifier.classify"), "count")
    distinct = sum(len(v) for (c, lab), v in tr.decodes.items() if lab == "sweep")
    decodes = len(calls[("sweep", "generator.generate")])
    out["sweep.generator.useful_decode_ratio"] = (distinct / decodes if decodes else 0.0, "ratio")

    # metrics
    for label in ("evaluate", "sweep"):
        out[f"{label}.metrics.align_tokens_ms.p50"] = (ms(label, "metrics.align_tokens", .5), "ms")
        out[f"{label}.metrics.meteor_variant_ms"] = (ms(label, "metrics.meteor_variant", .5), "ms")
    out["evaluate.metrics.align_tokens_ms.p95"] = (ms("evaluate", "metrics.align_tokens", .95), "ms")
    aligns = len(calls[("evaluate", "metrics.align_tokens")])
    complete = tr.counts[("evaluate", "align_complete")]
    out["evaluate.metrics.align_complete_ratio"] = (complete / aligns if aligns else 1.0, "ratio")
    for fn in ("bleu_n", "rouge_l", "iw_recall_precision"):
        out[f"evaluate.metrics.{fn}_ms"] = (ms("evaluate", f"metrics.{fn}", .5), "ms")

    out["trace.overhead_ms"] = (overhead_ms, "ms")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
