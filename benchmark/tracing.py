"""Out-of-process-code tracing: wrap the public functions of each dialeval
module, record spans and counts at those boundaries, and derive the
per-layer metrics from them.

A function is wrapped in every dialeval module namespace that binds it,
because modules import functions by name (rankers binds memn2n's
candidate_matrix, pipeline binds text's tokenize, ...).  Methods are wrapped
on their class.  Spans are kept in memory and written when the run ends; the
hottest leaf functions only count and time, so millions of calls do not turn
into millions of span records.  A span's self time is its duration minus the
time its children cover; `evaluation.self_ms` is the one the metrics need.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, attribute) of every traced callable; "Class.method" for methods
TARGETS = [
    ("dialeval.ingest", "load_triples"), ("dialeval.ingest", "load_ratings"),
    ("dialeval.ingest", "load_threads"),
    ("dialeval.taskgen", "gen_qa"), ("dialeval.taskgen", "gen_qarecs"),
    ("dialeval.taskgen", "gen_discussion"),
    ("dialeval.data", "write_examples"), ("dialeval.data", "write_pool"),
    ("dialeval.data", "read_examples"), ("dialeval.data", "read_pool"),
    ("dialeval.text", "build_vocabulary"), ("dialeval.text", "tokenize"),
    ("dialeval.kb", "KnowledgeBase.render_fact"),
    ("dialeval.kb", "KnowledgeBase.hash_lookup"),
    ("dialeval.pipeline", "build_vocab"), ("dialeval.pipeline", "prepare_memn2n"),
    ("dialeval.pipeline", "train_supemb"), ("dialeval.pipeline", "train_ir"),
    ("dialeval.pipeline", "make_ranker"),
    ("dialeval.models.memn2n", "build_memory"),
    ("dialeval.models.memn2n", "candidate_matrix"),
    ("dialeval.models.memn2n", "memn2n_forward"),
    ("dialeval.models.memn2n", "memn2n_grads"),
    ("dialeval.models.memn2n", "memn2n_train_step"),
    ("dialeval.models.memn2n", "memn2n_train"),
    ("dialeval.models.embeddings", "as_arrays"),
    ("dialeval.models.embeddings", "embed_sum"),
    ("dialeval.models.embeddings", "hinge_step"),
    ("dialeval.models.embeddings", "embed_train"),
    ("dialeval.models.tfidf", "cosine"),
    ("dialeval.models.tfidf", "TfIdfModel.rank"),
    ("dialeval.models.rankers", "EntityCandidates.__init__"),
    ("dialeval.models.rankers", "MemN2NRanker.rank"),
    ("dialeval.models.rankers", "EmbedRanker.rank"),
    ("dialeval.models.rankers", "TfIdfRanker.rank"),
    ("dialeval.evaluation", "evaluate"),
    ("dialeval.evaluation", "is_entity_matched"),
    ("dialeval.models.io", "save_model"), ("dialeval.models.io", "load_model"),
]

# leaves called per candidate or per token bag: counted and timed, no spans
HOT = {"tokenize", "as_arrays", "embed_sum", "cosine", "render_fact",
       "candidate_matrix"}


class Tracer:
    """Spans and counts per (stage, function).  Recording happens only while
    `stage` is set, so the benchmark can run untraced code between stages."""

    def __init__(self):
        self.stage: str | None = None
        self.stats: dict[tuple[str, str], list] = {}   # calls, total s
        self.extra: dict[tuple[str, str], float] = {}
        self.spans: list[tuple] = []
        self._stack: list[int] = []                    # open span ids
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items()
                   if n == "dialeval" or n.startswith("dialeval.")}
        for mod_name, attr in TARGETS:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(attr, getattr(cls, meth)))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(attr, fn)
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()

    def _patch(self, owner, name, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        keep_span = name not in HOT
        tracer = self

        def traced(*args, **kwargs):
            stage = tracer.stage
            if stage is None:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                st = tracer.stats.get((stage, name))
                if st is None:
                    st = tracer.stats[(stage, name)] = [0, 0.0]
                st[0] += 1
                st[1] += t1 - t0
                if keep_span:
                    tracer.spans.append((span_id, name, stage, t0, t1, parent))
            if hook is not None:
                hook(tracer, stage, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- readout -----------------------------------------------------------

    def add(self, stage: str, key: str, value: float) -> None:
        self.extra[(stage, key)] = self.extra.get((stage, key), 0.0) + value

    def calls(self, name: str, stage: str | None = None) -> int:
        return sum(v[0] for (s, n), v in self.stats.items()
                   if n == name and (stage is None or s == stage))

    def total(self, name: str, stage: str | None = None) -> float:
        return sum(v[1] for (s, n), v in self.stats.items()
                   if n == name and (stage is None or s == stage))

    def count(self, key: str, stage: str | None = None) -> float:
        return sum(v for (s, k), v in self.extra.items()
                   if k == key and (stage is None or s == stage))

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span_id, name, stage, t0, t1, parent in self.spans:
                f.write(json.dumps({"id": span_id, "name": name, "stage": stage,
                                    "start": t0, "end": t1, "parent": parent}) + "\n")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _on_build_memory(tracer, stage, args, kwargs, state):
    cfg = _arg(args, kwargs, 4, "cfg")
    n_kb = sum(1 for s in state.slots if s == 0)
    tracer.add(stage, "memories", len(state.memory_bags))
    tracer.add(stage, "kb_memories", n_kb)
    tracer.add(stage, "recall_capped", 1 if n_kb >= cfg.max_memories else 0)


def _on_candidate_matrix(tracer, stage, args, kwargs, G):
    tracer.add(stage, "candidate_rows", G.shape[0])


def _on_evaluate(tracer, stage, args, kwargs, report):
    tracer.add(stage, "evaluated", len(_arg(args, kwargs, 1, "examples")))


_HOOKS = {
    "build_memory": _on_build_memory,
    "candidate_matrix": _on_candidate_matrix,
    "evaluate": _on_evaluate,
}


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced setup plus one traced round."""
    steps = t.calls("memn2n_train_step", "train")
    rank_total = sum(t.total(n, "eval") for n in
                     ("MemN2NRanker.rank", "EmbedRanker.rank", "TfIdfRanker.rank"))
    n_mem = t.calls("build_memory")
    return {
        "ingest.load_s": (sum(t.total(n) for n in
                              ("load_triples", "load_ratings", "load_threads")), "s"),
        "taskgen.gen_s": (sum(t.total(n) for n in
                              ("gen_qa", "gen_qarecs", "gen_discussion")), "s"),
        "data.write_s": (t.total("write_examples") + t.total("write_pool"), "s"),
        "data.read_s": (t.total("read_examples") + t.total("read_pool"), "s"),
        "text.build_vocabulary_s": (t.total("build_vocabulary"), "s"),
        "text.tokenize_calls": (t.calls("tokenize"), "count"),
        "text.tokenize_s": (t.total("tokenize"), "s"),
        "kb.render_fact_calls": (t.calls("KnowledgeBase.render_fact"), "count"),
        "kb.hash_lookup_calls": (t.calls("KnowledgeBase.hash_lookup"), "count"),
        "pipeline.prepare_memn2n_s": (t.total("prepare_memn2n"), "s"),
        "memn2n.build_memory_calls": (n_mem, "count"),
        "memn2n.build_memory_s": (t.total("build_memory"), "s"),
        "memn2n.memories_per_example": (_per(t.count("memories"), n_mem), "count"),
        "memn2n.kb_memories_per_example": (_per(t.count("kb_memories"), n_mem), "count"),
        "memn2n.recall_capped_share": (_per(t.count("recall_capped"), n_mem), "ratio"),
        "memn2n.step_ms": (1e3 * _per(t.total("memn2n_train_step", "train"), steps), "ms"),
        "memn2n.forward_ms": (1e3 * _per(t.total("memn2n_forward", "train"), steps), "ms"),
        "memn2n.backward_ms": (1e3 * _per(t.total("memn2n_grads", "train")
                                          - t.total("memn2n_forward", "train"), steps), "ms"),
        "memn2n.update_ms": (1e3 * _per(t.total("memn2n_train_step", "train")
                                        - t.total("memn2n_grads", "train"), steps), "ms"),
        "memn2n.candidate_rows_per_step": (_per(t.count("candidate_rows", "train"), steps),
                                           "count"),
        "memn2n.candidate_matrix_calls": (t.calls("candidate_matrix", "eval"), "count"),
        "memn2n.candidate_matrix_rows": (t.count("candidate_rows", "eval"), "count"),
        "memn2n.candidate_matrix_s": (t.total("candidate_matrix", "eval"), "s"),
        "embeddings.as_arrays_calls": (t.calls("as_arrays"), "count"),
        "embeddings.hinge_step_ms": (1e3 * _per(t.total("hinge_step"),
                                                t.calls("hinge_step")), "ms"),
        "embeddings.embed_sum_calls": (t.calls("embed_sum", "eval"), "count"),
        "tfidf.rank_ms": (1e3 * _per(t.total("TfIdfModel.rank", "eval"),
                                     t.calls("TfIdfModel.rank", "eval")), "ms"),
        "tfidf.cosine_calls": (t.calls("cosine", "eval"), "count"),
        "rankers.entity_candidates_builds": (t.calls("EntityCandidates.__init__"), "count"),
        "rankers.memn2n.rank_ms": (1e3 * _per(t.total("MemN2NRanker.rank", "eval"),
                                              t.calls("MemN2NRanker.rank", "eval")), "ms"),
        "rankers.supemb.rank_ms": (1e3 * _per(t.total("EmbedRanker.rank", "eval"),
                                              t.calls("EmbedRanker.rank", "eval")), "ms"),
        "rankers.ir.rank_ms": (1e3 * _per(t.total("TfIdfRanker.rank", "eval"),
                                          t.calls("TfIdfRanker.rank", "eval")), "ms"),
        "evaluation.self_ms": (1e3 * _per(t.total("evaluate", "eval") - rank_total,
                                          t.count("evaluated", "eval")), "ms"),
        "evaluation.is_entity_matched_s": (t.total("is_entity_matched", "eval"), "s"),
        "io.save_s": (t.total("save_model"), "s"),
        "io.load_s": (t.total("load_model"), "s"),
    }
