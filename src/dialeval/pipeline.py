"""Glue between datasets and models: vocabulary construction, example
featurization and the train/evaluate entry points used by the CLI."""

from __future__ import annotations

import random

from dialeval import DataError
from dialeval.ingest import Ratings
from dialeval.kb import KnowledgeBase
from dialeval.models import TrainConfig
from dialeval.models.embeddings import PackedBags, embed_train, init_embed
from dialeval.models.memn2n import (
    PreparedExample, build_memory, init_memn2n, memn2n_train,
)
from dialeval.models.mf import mf_train
from dialeval.models.rankers import (
    EmbedRanker, EntityCandidates, MemN2NRanker, MFRanker, TfIdfRanker, query_text,
)
from dialeval.models.tfidf import TfIdfModel
from dialeval.taskgen import Example
from dialeval.text import Vocabulary, bag, build_vocabulary, tokenize

DEFAULT_K = {"qa": 1, "recs": 100, "qarecs": 10, "discussion": 10, "joint": 10}


def corpus_texts(examples: list[Example], kb: KnowledgeBase | None) -> list[str]:
    texts: list[str] = []
    for ex in examples:
        for user_text, reply in ex.context:
            texts.append(user_text)
            texts.append(reply)
        texts.append(ex.input)
        texts.extend(ex.gold)
    if kb is not None:
        texts.extend(kb.render_all())
    return texts


def build_vocab(examples: list[Example], kb: KnowledgeBase | None,
                min_freq: int = 5) -> Vocabulary:
    entity_names = kb.entities if kb is not None else []
    return build_vocabulary(corpus_texts(examples, kb), entity_names, min_freq)


def train_supemb(examples: list[Example], vocab: Vocabulary, cfg: TrainConfig,
                 variant: str = "two_dict", log_fn=None):
    """Query bag = context+input; gold bag = entity symbol or response text.
    Negatives come from the entity table (entity tasks) or from the other
    training responses (discussion)."""
    entities = EntityCandidates(vocab)
    data = []
    neg_pool: list[dict[int, int]] = []
    explicit = any(ex.task_tag == "discussion" for ex in examples)
    for ex in examples:
        x = bag(tokenize(vocab, query_text(ex)))
        if ex.task_tag == "discussion":
            y = bag(tokenize(vocab, ex.gold[0]))
            neg_pool.append(y)
        else:
            golds = entities.gold_indices(ex)
            y = entities.bags[golds[0]]
        data.append((x, y))
    if not explicit:
        neg_pool = entities.bags
    params = init_embed(vocab.size, cfg.dim, variant, cfg.seed)
    return embed_train(data, neg_pool, cfg, params, log_fn=log_fn)


def prepare_memn2n(examples: list[Example], vocab: Vocabulary,
                   kb: KnowledgeBase | None, cfg: TrainConfig, seed: int = 0):
    """Featurize examples once (memory states reused across epochs).  A
    discussion example's candidates, its gold and sampled negatives, are
    packed here; the entity examples share the entity table's bags, which
    `memn2n_train` packs."""
    entities = EntityCandidates(vocab)
    rng = random.Random(seed)
    prepared: list[PreparedExample] = []
    train_responses = [ex.gold[0] for ex in examples if ex.task_tag == "discussion"]
    for ex in examples:
        ms = build_memory(list(ex.context), ex.input, kb, vocab, cfg)
        if ex.task_tag == "discussion":
            # gold plus sampled negatives from the other training responses
            negs = [train_responses[rng.randrange(len(train_responses))]
                    for _ in range(cfg.n_neg)]
            cands = PackedBags([bag(tokenize(vocab, c)) for c in [ex.gold[0], *negs]])
            prepared.append(PreparedExample(ms, [0], cands))
        else:
            golds = entities.gold_indices(ex)
            prepared.append(PreparedExample(ms, golds))
    return prepared, entities


def train_memn2n(examples: list[Example], vocab: Vocabulary,
                 kb: KnowledgeBase | None, cfg: TrainConfig, log_fn=None):
    prepared, entities = prepare_memn2n(examples, vocab, kb, cfg, seed=cfg.seed)
    params = init_memn2n(vocab.size, cfg.dim, cfg.hops, cfg.max_memories,
                         n_dicts=cfg.n_dicts, seed=cfg.seed)
    losses = memn2n_train(prepared, entities.bags, params, cfg, log_fn=log_fn)
    return params, losses


def train_ir(examples: list[Example], vocab: Vocabulary,
             rf_weight: float = 0.0) -> TfIdfModel:
    """idf from the training responses (the ranked documents)."""
    docs = [bag(tokenize(vocab, ex.gold[0])) for ex in examples]
    pairs = None
    if rf_weight > 0.0:
        pairs = [(bag(tokenize(vocab, query_text(ex))), docs[i])
                 for i, ex in enumerate(examples)]
    return TfIdfModel.fit(docs, train_pairs=pairs, rf_weight=rf_weight)


def make_ranker(kind: str, params, vocab: Vocabulary,
                kb: KnowledgeBase | None, cfg: TrainConfig,
                use_context: bool = True):
    if kind == "supemb":
        return EmbedRanker(params, vocab)
    if kind == "memn2n":
        return MemN2NRanker(params, vocab, kb, cfg)
    if kind == "ir":
        return TfIdfRanker(params, vocab, use_context=use_context)
    if kind == "mf":
        if kb is None:
            raise DataError("mf ranker needs the knowledge base")
        return MFRanker(params, vocab, kb)
    raise DataError(f"unknown model kind {kind!r}")


def train_mf_from_ratings(ratings: Ratings, cfg: TrainConfig, log_fn=None):
    return mf_train(ratings, cfg.dim, cfg.learning_rate, cfg.epochs,
                    seed=cfg.seed, log_fn=log_fn)
