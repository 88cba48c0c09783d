"""Adapters that turn a trained model into a candidate ranker for evaluation.

Every ranker scores one candidate list per example: `Ranker.labels` gives an
example's explicit list (the gold response, then its pool) or else the entity
table, and refuses a discussion example without a pool.  `config.rank_order`
orders the scores and breaks ties by candidate index, ascending, so rankings
are deterministic.

A pool is shared by many examples.  Each ranker featurizes a pool once, in a
dict keyed by the pool tuple itself, so examples whose pools hold the same
responses share one entry, whatever tuple object holds them; the gold
differs from example to example and is featurized per example.  supemb keeps
a pool as one matrix of output embeddings and ir as one `TfIdfVectors`, and
each scores the gold and the whole pool in a few numpy calls per example.
Copies of one response score bit-identically wherever they sit in the list,
so `rank_order`'s index rule alone orders them.

memn2n's memories come from `build_memory`, whose fact bags the KB keeps
per vocabulary.  The ranker's parameters are fixed, so `MemN2NRanker` also
keeps each recalled fact's embedded row A_mem x_f from its first recall on,
and `memn2n_forward` embeds only the example's dialog turns.
"""

from __future__ import annotations

import random

import numpy as np

from dialeval import DataError
from dialeval.kb import KnowledgeBase
from dialeval.models.config import TrainConfig, rank_order
from dialeval.models.embeddings import EmbedParams, PackedBags, embed_sum
from dialeval.models.memn2n import (
    MemN2NParams, MemoryState, build_memory, candidate_matrix, embed_bags, memn2n_forward,
)
from dialeval.models.mf import MFParams, mf_scores
from dialeval.models.tfidf import TfIdfModel, TfIdfVectors
from dialeval.taskgen import Example
from dialeval.text import Vocabulary, bag, tokenize


def rank_by_score(labels: list[str], scores: np.ndarray) -> list[str]:
    return [labels[i] for i in rank_order(scores).tolist()]


def query_text(example: Example) -> str:
    """Context and input concatenated, oldest first."""
    parts = [t for turn in example.context for t in turn]
    parts.append(example.input)
    return " ".join(parts)


class EntityCandidates:
    """The shared answer space for qa/recs/qarecs: every entity symbol."""

    def __init__(self, vocab: Vocabulary):
        self.token_ids = vocab.entity_ids()
        self.labels = [vocab.symbols[t] for t in self.token_ids]
        self.bags = [{t: 1} for t in self.token_ids]
        self._index = {label: i for i, label in enumerate(self.labels)}

    def gold_indices(self, example: Example) -> list[int]:
        """Indices of the example's golds that are entity symbols."""
        out = [i for i in map(self._index.get, example.gold) if i is not None]
        if not out:
            raise DataError(f"no gold answer is an entity symbol: {example.gold}")
        return out


class Ranker:
    """Ranks by `score(example)`, which a model implements: it returns
    `labels(example)` and a score for each."""

    def __init__(self, vocab: Vocabulary | None = None):
        self.vocab = vocab
        self.entities = EntityCandidates(vocab) if vocab is not None else None
        # a tuple's hash and `==` follow its items: an equal pool in another
        # tuple finds its entry, a pool of other content never finds a stale one
        self._pools: dict[tuple[str, ...], object] = {}

    def labels(self, example: Example) -> list[str]:
        """The example's candidates: its explicit list, or the entity table."""
        if example.candidate_pool is not None:
            return example.explicit_candidates()
        if example.task_tag == "discussion":
            raise DataError("a discussion example has no candidate pool: its split "
                            "has no candidates file")
        if self.entities is None:
            raise DataError(f"{type(self).__name__} needs a vocabulary or explicit candidates")
        return self.entities.labels

    def pool(self, example: Example, featurize):
        """`featurize(texts)` of the example's explicit list as (the gold's,
        the pool's), or None when it ranks the entity table, whose features
        each ranker makes once.  The featurizer is not stored: a ranker's
        bound method kept on it would make a reference cycle."""
        pool = example.candidate_pool
        if pool is None:
            return None
        shared = self._pools.get(pool)
        if shared is None:
            shared = self._pools[pool] = featurize(pool)
        return featurize(example.gold[:1]), shared

    def rank(self, example: Example) -> list[str]:
        return rank_by_score(*self.score(example))


class OracleRanker(Ranker):
    """Scores the golds 1 and every other candidate 0; harness self-test."""

    def labels(self, example: Example) -> list[str]:
        if self.entities is None and example.candidate_pool is None:
            return list(example.gold)  # no entity table: the golds stand in for it
        return super().labels(example)

    def score(self, example: Example) -> tuple[list[str], np.ndarray]:
        labels = self.labels(example)
        gold = set(example.gold)
        return labels, np.array([float(c in gold) for c in labels])


class RandomRanker(Ranker):
    def __init__(self, seed: int, vocab: Vocabulary | None = None):
        super().__init__(vocab)
        self.rng = random.Random(seed)

    def rank(self, example: Example) -> list[str]:
        labels = list(self.labels(example))
        self.rng.shuffle(labels)
        return labels


class EmbedRanker(Ranker):
    def __init__(self, params: EmbedParams, vocab: Vocabulary):
        super().__init__(vocab)
        self.params = params
        # output embeddings of the fixed entity candidates, cached
        self._entity_out = params.U_out[:, self.entities.token_ids]

    def _matrix(self, texts) -> np.ndarray:
        """One row per text: its `embed_sum` over U_out."""
        out = np.empty((len(texts), self.params.dim))
        for r, c in enumerate(texts):
            out[r] = embed_sum(bag(tokenize(self.vocab, c)), self.params.U_out)
        return out

    def score(self, example: Example) -> tuple[list[str], np.ndarray]:
        labels = self.labels(example)
        x = embed_sum(bag(tokenize(self.vocab, query_text(example))), self.params.U_in)
        own = self.pool(example, self._matrix)
        if own is None:
            return labels, x @ self._entity_out
        # a gemv (G @ x) can sum a row in another order depending on where
        # the row sits in G, so copies of one response, which a pool often
        # holds, would split their tie in the last bit; einsum reduces every
        # row alike
        return labels, np.einsum("ij,j->i", np.vstack(own), x)


class MemN2NRanker(Ranker):
    def __init__(self, params: MemN2NParams, vocab: Vocabulary,
                 kb: KnowledgeBase | None, cfg: TrainConfig):
        super().__init__(vocab)
        self.params = params
        self.kb = kb
        self.cfg = cfg
        self._entity_G = candidate_matrix(params.W, self.entities.bags)
        # row f is A_mem x_f once fact f of the (frozen) KB has been
        # recalled; rows never recalled are neither computed nor, mostly,
        # resident
        n_facts = kb.n_facts if kb is not None else 0
        self._fact_rows = np.empty((n_facts, params.dim))
        self._has_row = np.zeros(n_facts, dtype=bool)

    def _matrix(self, texts) -> np.ndarray:
        return candidate_matrix(self.params.W, [bag(tokenize(self.vocab, c)) for c in texts])

    def _recalled_rows(self, ms: MemoryState) -> np.ndarray:
        """A_mem x_f of each fact the state recalled, in order.  A fact's row
        is embedded on its first recall and kept."""
        facts = np.asarray(ms.facts, dtype=np.int64)
        new = np.flatnonzero(~self._has_row[facts])
        if new.size:
            kb_bags = ms.memory_bags[len(ms.memory_bags) - facts.size:]
            self._fact_rows[facts[new]] = embed_bags(
                self.params.A_mem, PackedBags([kb_bags[i] for i in new]))
            self._has_row[facts[new]] = True
        return self._fact_rows[facts]

    def score(self, example: Example) -> tuple[list[str], np.ndarray]:
        labels = self.labels(example)
        ms = build_memory(list(example.context), example.input, self.kb,
                          self.vocab, self.cfg)
        own = self.pool(example, self._matrix)
        G = self._entity_G if own is None else np.vstack(own)
        scores, _ = memn2n_forward(ms, [], self.params, G=G,
                                   fact_rows=self._recalled_rows(ms))
        return labels, scores


class TfIdfRanker(Ranker):
    def __init__(self, model: TfIdfModel, vocab: Vocabulary, use_context: bool = True):
        super().__init__(vocab)
        self.model = model
        self.use_context = use_context
        self._entity_vectors = self._vectors(self.entities.labels)

    def _vectors(self, texts) -> TfIdfVectors:
        """The texts' tf-idf vectors, packed."""
        return self.model.candidates([bag(tokenize(self.vocab, c)) for c in texts])

    def score(self, example: Example) -> tuple[list[str], np.ndarray]:
        labels = self.labels(example)
        text = query_text(example) if self.use_context else example.input
        own = self.pool(example, self._vectors)
        sets = (self._entity_vectors,) if own is None else own
        return labels, self.model.scores(bag(tokenize(self.vocab, text)), *sets)


class MFRanker(Ranker):
    """Reads the movie entities out of the statement, fits a pseudo-user and
    scores the movies it has not named."""

    def __init__(self, params: MFParams, vocab: Vocabulary, kb: KnowledgeBase):
        super().__init__(vocab)
        self.params = params
        self.kb = kb

    def score(self, example: Example) -> tuple[list[str], np.ndarray]:
        if example.candidate_pool is not None or example.task_tag == "discussion":
            raise DataError("mf ranks movies and cannot rank a list of responses")
        history = set()
        for tid in tokenize(self.vocab, query_text(example)):
            if self.vocab.is_entity(tid):
                eid = self.kb.entity_id(self.vocab.symbols[tid])
                if eid is not None and eid in self.params.item_index:
                    history.add(eid)
        ids, scores = mf_scores(history, self.params)
        return [self.kb.entities[e] for e in ids], scores
