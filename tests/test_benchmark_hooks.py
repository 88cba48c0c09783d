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


def test_traced_memory_counts_and_tokenize_calls():
    """Under a trace, build_memory's hook counts what the state holds, and
    preparing memn2n examples tokenizes each message once and each fact at
    most once."""
    import dialeval.cli  # noqa: F401
    from dialeval import pipeline
    from dialeval.ingest import gen_synthetic_sources
    from dialeval.models import TrainConfig, memn2n
    from dialeval.taskgen import gen_qarecs
    from dialeval.templates import DEFAULT_TEMPLATES

    kb, ratings, _ = gen_synthetic_sources(5, 20, 15, 30, 5)
    examples = gen_qarecs(kb, ratings, DEFAULT_TEMPLATES, 0, 10)
    vocab = pipeline.build_vocab(examples, kb, min_freq=1)
    cfg = TrainConfig(max_memories=8)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.stage = "memory"
        for ex in examples[:6]:
            state = memn2n.build_memory(list(ex.context), ex.input, kb, vocab, cfg)
            assert tracer.count("memories", "memory") == len(state.memory_bags)
            assert tracer.count("kb_memories", "memory") == len(state.facts)
            tracer.extra.clear()
        tracer.stage = "prepare"
        kb.bag_tables.clear()  # every fact is featurized anew
        pipeline.prepare_memn2n(examples, vocab, kb, cfg)
        messages = sum(2 * len(ex.context) + 1 for ex in examples)
        assert tracer.count("kb_memories", "prepare") > 0
        assert 0 < tracer.calls("tokenize", "prepare") <= messages + kb.n_facts
    finally:
        tracer.uninstall()
