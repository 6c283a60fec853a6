"""The benchmark's span tracer against the real modules.

``bench/spans.py`` wraps qgkit functions at the module attributes their
callers look them up through, and raises AttributeError on a missing
name.  Installing it here makes renaming or deleting a traced function
fail the test suite rather than only the traced benchmark run."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
