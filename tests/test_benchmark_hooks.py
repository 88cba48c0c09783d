"""The benchmark's trace wraps dialeval functions by module and name; a
refactor that renames or moves one would break `benchmark/run.py --trace 1`
only when that run is made.  These tests resolve every target now."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module,name", tracing.TARGETS,
                         ids=[f"{m}:{n}" for m, n in tracing.TARGETS])
def test_trace_target_resolves(module, name):
    owner = importlib.import_module(module)
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_tracer_installs_and_restores():
    import dialeval.cli  # noqa: F401  every module the CLI binds, as run.py does
    from dialeval.models import memn2n

    before = memn2n.candidate_matrix
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert memn2n.candidate_matrix.__wrapped__ is before
    finally:
        tracer.uninstall()
    assert memn2n.candidate_matrix is before
