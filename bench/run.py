"""qgkit benchmark: drives the ``qgkit`` CLI in-process, one closed-loop
client, BLAS pinned to one thread.

    python3 bench/run.py --workload train|sweep|long --seed N --seconds S --trace 0|1

Run from the repository root (it imports ``qgkit`` from ``src/``).  After
a timed set-up (repeated, median reported as ``setup_s``), it repeats the
workload's cycle of CLI calls until ``--seconds`` have passed.  Each
call's outputs are checked; a call that exits nonzero, crashes or fails a
check is a failed operation, and so is an alignment that exhausted the
METEOR aligner's node budget.

``--trace 0`` reports the end-to-end metrics: per-command throughputs
(median over the run's calls), ``setup_s`` and ``peak_rss_mb``.  Times are
scaled to a nominal machine speed (see ``REF_NOMINAL_S``).
``--trace 1`` alternates untraced and traced cycles for the same time
and reports the per-layer metrics plus the tracing overhead (median
traced minus median untraced cycle time); the spans go to
``.bench_work/trace-<workload>-seed<N>.jsonl``.

The last line of stdout is the result object; the full record, with
provenance, goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere in the process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Set-up is repeated at least this many times and for at least this
# long; setup_s is the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
# The seed no tuning of the benchmark or of a claimed gain may look at;
# re-run a claim on it before accepting it.
HELD_OUT_SEED = 7919

# Wall times are scaled to a nominal machine speed.  This VM's vCPU speed
# drifts by 20-30% over seconds to minutes, with the host's load; a fixed
# reference kernel timed before and after every program call slows down
# with it, so each call's wall time is divided by (reference time /
# REF_NOMINAL_S).  REF_NOMINAL_S is the kernel's typical time on the
# 2-core machine the benchmark was defined on; raw times are kept in the
# results record.
REF_NOMINAL_S = 0.015

THROUGHPUT = {
    "train_qg": ("train.qg_tokens_per_s", "tokens/s"),
    "train_cls": ("train.cls_examples_per_s", "examples/s"),
    "generate": ("generate.examples_per_s", "examples/s"),
    "sweep": ("sweep.cells_per_s", "cells/s"),
    "evaluate": ("evaluate.pairs_per_s", "pairs/s"),
}


def _import_program():
    """Import qgkit from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "qgkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no qgkit sources under {src}")
    sys.path.insert(0, str(src))
    import qgkit

    if Path(qgkit.__file__).resolve().parent != src / "qgkit":
        raise SystemExit(f"error: imported qgkit from {qgkit.__file__}, not {src}")


def reference_kernel() -> float:
    """Seconds for a fixed loop of tiny numpy ops with Python glue, the
    same kind of work as the program's per-step code."""
    import numpy as np

    x = np.ones((1, 48))
    w = np.full((48, 192), 0.01)
    acc = 0.0
    start = time.perf_counter()
    for i in range(1500):
        z = 1.0 / (1.0 + np.exp(-(x @ w)))
        x = z[:, :48] * 0.5 + z[:, 48:96]
        acc += float(x[0, 0]) * i
    return time.perf_counter() - start


class Runner:
    """Runs calls, times the program's share of them, and keeps score of
    operations attempted and failed and of the seed-0 fingerprints."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.fingerprints: dict[str, object] = {}
        self.program_s = 0.0                 # scaled to the nominal speed
        self.samples: dict[str, list[float]] = {}
        self.raw_s: dict[str, list[float]] = {}
        self._ref: float | None = None

    def _scaled(self, run):
        """Run ``run()``; return its wall time, the speed factor from the
        reference kernel timed just before and just after it, and its
        result."""
        before = self._ref if self._ref is not None else reference_kernel()
        start = time.perf_counter()
        result = run()
        raw = time.perf_counter() - start
        self._ref = reference_kernel()
        factor = (before + self._ref) / (2 * REF_NOMINAL_S)
        self.program_s += raw / factor
        return raw, factor, result

    def call(self, c) -> None:
        from qgkit import cli

        self.attempted += 1
        err = io.StringIO()

        def run():
            span = self.tracer.root(c.label) if self.tracer else nullcontext()
            try:
                with redirect_stdout(io.StringIO()), redirect_stderr(err), span:
                    return cli.main(c.argv)
            except (Exception, SystemExit) as e:  # a crash is a failed operation
                return f"{type(e).__name__}: {e}"

        raw, factor, rc = self._scaled(run)
        if self.tracer:
            self.tracer.speed[self.tracer.last_root] = factor
        if rc != 0:
            fails = [f"exit {rc} {err.getvalue().strip()}"]
        else:
            try:
                fails, fingerprint = c.check()
            except (OSError, ValueError, KeyError, IndexError) as e:
                fails, fingerprint = [f"unreadable output: {type(e).__name__}: {e}"], None
            if self.fingerprints.setdefault(c.label, fingerprint) != fingerprint:
                fails.append("output differs from the first identical call")
            self.samples.setdefault(c.label, []).append(c.work * factor / raw)
            self.raw_s.setdefault(c.label, []).append(raw)
        self.failures += [f"{c.label}: {f}" for f in fails]
        self.failed += bool(fails)

    def timed(self, fn) -> None:
        """A direct program call made in set-up."""
        self.attempted += 1

        def run():
            try:
                fn()
            except Exception as e:  # a crash is a failed operation
                return f"{type(e).__name__}: {e}"

        error = self._scaled(run)[2]
        if error:
            self.failures.append(f"setup: {error}")
            self.failed += 1


class AlignCounter:
    """Counts ``metrics.align_tokens`` results, and those cut short by the
    node budget (a truncated METEOR score is a wrong number)."""

    def __init__(self):
        from qgkit import metrics

        self.calls = self.incomplete = 0
        orig = metrics.align_tokens

        def counted(cand, ref):
            result = orig(cand, ref)
            self.calls += 1
            self.incomplete += not result.complete
            return result

        metrics.align_tokens = counted


def _setup(name, inp, runner) -> float:
    import workloads

    before = runner.program_s
    workloads.setup(name, inp, runner.call, runner.timed)
    return runner.program_s - before


def _cycle(name, inp, runner) -> float:
    import workloads

    before = runner.program_s
    for c in workloads.cycle(name, inp):
        runner.call(c)
    return runner.program_s - before


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import workloads

    inp = workloads.make_inputs(name, work, seed)
    runner = Runner()
    aligns = AlignCounter()
    metrics: dict[str, dict] = {}
    record: dict = {}
    if not trace:
        setups: list[float] = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
            setups.append(_setup(name, inp, runner))
        deadline = time.perf_counter() + seconds
        cycles = 0
        while cycles == 0 or time.perf_counter() < deadline:
            _cycle(name, inp, runner)
            cycles += 1
        for label, (metric, unit) in THROUGHPUT.items():
            metrics[metric] = {"value": statistics.median(runner.samples[label]), "unit": unit}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        record.update(setups_s=setups, cycles=cycles, samples=runner.samples,
                      raw_call_s=runner.raw_s)
    else:
        import spans as tracing

        tracer = tracing.Tracer()
        _setup(name, inp, runner)
        runner.tracer = tracer
        tracing.install(tracer)
        _setup(name, inp, runner)          # traced once, for the prepare spans
        tracer.uninstall()
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            runner.tracer = None
            untraced.append(_cycle(name, inp, runner))
            runner.tracer = tracer
            tracer.cycle += 1
            tracing.install(tracer)
            traced.append(_cycle(name, inp, runner))
            tracer.uninstall()
        overhead = statistics.median(traced) - statistics.median(untraced)
        values = tracing.layer_metrics(tracer, len(traced), overhead * 1e3,
                                       100.0 * overhead / statistics.median(untraced))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        path = work.parent / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(path)
        record.update(untraced_cycle_s=untraced, traced_cycle_s=traced, spans=str(path))
    attempted = runner.attempted + aligns.calls
    failures = runner.failures + (
        [f"metrics.align_tokens: {aligns.incomplete} of {aligns.calls} alignments "
         "exhausted the node budget"] if aligns.incomplete else [])
    record.update(failures=failures, fingerprints=runner.fingerprints)
    return {"attempted": attempted, "failed": runner.failed + aligns.incomplete,
            "metrics": metrics, "record": record}


def _pinned_mismatches(name: str, fingerprints: dict) -> dict[str, list[str]]:
    """Seed 0 outputs that differ from ``pinned_seed0.json``, as call
    label -> keys.  Checkpoint hashes are not pinned: a rounding-level
    change to the arithmetic moves them."""
    pinned = json.loads((ROOT / "bench" / "pinned_seed0.json").read_text())[name]
    out: dict[str, list[str]] = {}
    for label, values in pinned.items():
        for key, value in values.items():
            if not _close((fingerprints.get(label) or {}).get(key), value):
                out.setdefault(label, []).append(key)
    return out


def _close(a, b) -> bool:
    """Equal, with a rounding-level tolerance on floats."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and abs(a - b) <= 1e-6 * max(1.0, abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def provenance() -> dict:
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "src_lines": src_lines,
        "held_out_seed": HELD_OUT_SEED,
    }


def _declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    moves = json.loads((ROOT / "bench" / "moves.json").read_text(encoding="utf-8"))
    if set(moves) != {m["name"] for m in spec["per_layer"]}:
        raise SystemExit("error: bench/moves.json and BENCHMARK.json name different "
                         "per-layer metrics")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    _import_program()
    declared = _declared(bool(args.trace))
    base = ROOT / ".bench_work"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (base / "results").mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = result.pop("record")
    if args.seed == 0:
        mismatches = _pinned_mismatches(args.workload, record["fingerprints"])
        record["failures"] += [f"{label}: {', '.join(keys)} differ from the values "
                               "pinned for seed 0" for label, keys in mismatches.items()]
        result["failed"] += len(mismatches)
    reported = {k: m["unit"] for k, m in result["metrics"].items()}
    if reported != declared:
        missing = sorted(set(declared) - set(reported))
        extra = sorted(set(reported) - set(declared))
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")
    out = {"correct": result["failed"] == 0, "attempted": result["attempted"],
           "failed": result["failed"], "metrics": result["metrics"]}
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, provenance=provenance(), result=out)
    path = base / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for f in record["failures"]:
        print(f"FAILED {f}")
    print(json.dumps({"provenance": record["provenance"]}, sort_keys=True))
    for k, m in sorted(out["metrics"].items()):
        print(f"{k:<58} {m['value']:>14.4f} {m['unit']}")
    print(f"operations attempted {out['attempted']}, failed {out['failed']}")
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
