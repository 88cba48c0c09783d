"""Adapters that turn a trained model into a candidate ranker for evaluation.

A ranker maps an Example to an ordered list of candidate labels (entity
symbols, or response texts for explicit candidate lists).  Ties always break
by candidate index, ascending, so rankings are deterministic.

An explicit candidate list is the gold response followed by a pool that many
examples share.  Each ranker featurizes a pool once and keeps it in a
`PoolCache` keyed by the pool tuple itself, so examples whose pools hold the
same responses share one entry, whatever tuple object holds them; the gold
differs from example to example and is featurized per example.
"""

from __future__ import annotations

import random

import numpy as np

from dialeval import DataError
from dialeval.kb import KnowledgeBase
from dialeval.models.config import TrainConfig
from dialeval.models.embeddings import EmbedParams, embed_sum
from dialeval.models.memn2n import MemN2NParams, build_memory, candidate_matrix, memn2n_forward
from dialeval.models.mf import MFParams, mf_rank
from dialeval.models.tfidf import TfIdfModel
from dialeval.taskgen import Example
from dialeval.text import Vocabulary, bag, tokenize


def rank_by_score(labels: list[str], scores: np.ndarray) -> list[str]:
    order = np.lexsort((np.arange(len(labels)), -scores))
    return [labels[i] for i in order]


def query_text(example: Example) -> str:
    """Context and input concatenated, oldest first."""
    parts = [t for turn in example.context for t in turn]
    parts.append(example.input)
    return " ".join(parts)


class PoolCache(dict):
    """Featurized candidate pools keyed by the pool's content.

    A tuple's hash and `==` follow its items, so an equal pool held in
    another tuple finds the same entry, and a pool with other content never
    finds a stale one.  The featurization of a missing pool is computed on
    first use and kept for the ranker's lifetime.  The featurizer comes with
    each lookup rather than being stored: a ranker's own bound method kept
    here would make a reference cycle, and the ranker's memory would then
    outlive the ranker until the garbage collector's next full pass."""

    def featurized(self, pool: tuple[str, ...], featurize):
        out = self.get(pool)
        if out is None:
            out = self[pool] = featurize(pool)
        return out


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


class OracleRanker:
    """Scores the gold at +inf; harness self-test."""

    def __init__(self, vocab: Vocabulary | None = None):
        self.entities = EntityCandidates(vocab) if vocab else None

    def rank(self, example: Example) -> list[str]:
        if example.candidate_pool is not None:
            labels = example.explicit_candidates()
        elif self.entities is not None:
            labels = self.entities.labels
        else:
            labels = list(example.gold)
        gold = set(example.gold)
        return [c for c in labels if c in gold] + [c for c in labels if c not in gold]


class RandomRanker:
    def __init__(self, seed: int, vocab: Vocabulary | None = None):
        self.rng = random.Random(seed)
        self.entities = EntityCandidates(vocab) if vocab else None

    def rank(self, example: Example) -> list[str]:
        if example.candidate_pool is not None:
            labels = example.explicit_candidates()
        elif self.entities is not None:
            labels = list(self.entities.labels)
        else:
            raise DataError("random ranker needs a vocabulary or explicit candidates")
        self.rng.shuffle(labels)
        return labels


class EmbedRanker:
    def __init__(self, params: EmbedParams, vocab: Vocabulary):
        self.params = params
        self.vocab = vocab
        self.entities = EntityCandidates(vocab)
        # output embeddings of the fixed entity candidates, cached
        self._entity_out = params.U_out[:, self.entities.token_ids]
        self._pools = PoolCache()

    def _vectors(self, texts) -> list[np.ndarray]:
        return [embed_sum(bag(tokenize(self.vocab, c)), self.params.U_out) for c in texts]

    def score(self, example: Example) -> tuple[list[str], np.ndarray]:
        """Candidate labels and their scores, gold first for explicit lists."""
        x = embed_sum(bag(tokenize(self.vocab, query_text(example))), self.params.U_in)
        if example.candidate_pool is None:
            return self.entities.labels, x @ self._entity_out
        # one dot product per candidate: a single gemv over the stacked
        # vectors can differ in the last bit and reorder near-ties
        pool = self._pools.featurized(example.candidate_pool, self._vectors)
        ys = [*self._vectors(example.gold[:1]), *pool]
        return example.explicit_candidates(), np.array([float(x @ y) for y in ys])

    def rank(self, example: Example) -> list[str]:
        return rank_by_score(*self.score(example))


class MemN2NRanker:
    def __init__(self, params: MemN2NParams, vocab: Vocabulary,
                 kb: KnowledgeBase | None, cfg: TrainConfig):
        self.params = params
        self.vocab = vocab
        self.kb = kb
        self.cfg = cfg
        self.entities = EntityCandidates(vocab)
        self._entity_G = candidate_matrix(params.W, self.entities.bags)
        self._pools = PoolCache()

    def _matrix(self, texts) -> np.ndarray:
        return candidate_matrix(self.params.W, [bag(tokenize(self.vocab, c)) for c in texts])

    def score(self, example: Example) -> tuple[list[str], np.ndarray]:
        """Candidate labels and their scores, gold first for explicit lists."""
        ms = build_memory(list(example.context), example.input, self.kb,
                          self.vocab, self.cfg)
        if example.candidate_pool is None:
            labels, G = self.entities.labels, self._entity_G
        else:
            labels = example.explicit_candidates()
            G = np.vstack([self._matrix(example.gold[:1]),
                           self._pools.featurized(example.candidate_pool, self._matrix)])
        scores, _ = memn2n_forward(ms, [], self.params, G=G)
        return labels, scores

    def rank(self, example: Example) -> list[str]:
        return rank_by_score(*self.score(example))


class TfIdfRanker:
    def __init__(self, model: TfIdfModel, vocab: Vocabulary, use_context: bool = True):
        self.model = model
        self.vocab = vocab
        self.use_context = use_context
        self.entities = EntityCandidates(vocab)
        self._entity_vectors = self._vectors(self.entities.labels)
        self._pools = PoolCache()

    def _vectors(self, texts) -> list[tuple[dict[int, float], float]]:
        """Each text's tf-idf vector and its norm."""
        return self.model.candidates([bag(tokenize(self.vocab, c)) for c in texts])

    def rank(self, example: Example) -> list[str]:
        text = query_text(example) if self.use_context else example.input
        query = bag(tokenize(self.vocab, text))
        if example.candidate_pool is None:
            labels, vectors = self.entities.labels, self._entity_vectors
        else:
            labels = example.explicit_candidates()
            pool = self._pools.featurized(example.candidate_pool, self._vectors)
            vectors = [*self._vectors(example.gold[:1]), *pool]
        return [labels[i] for i in self.model.rank_vectors(query, vectors)]


class MFRanker:
    """Reads the movie entities out of the statement, fits a pseudo-user and
    ranks the remaining movies."""

    def __init__(self, params: MFParams, vocab: Vocabulary, kb: KnowledgeBase):
        self.params = params
        self.vocab = vocab
        self.kb = kb

    def rank(self, example: Example) -> list[str]:
        history = set()
        for tid in tokenize(self.vocab, query_text(example)):
            if self.vocab.is_entity(tid):
                eid = self.kb.entity_id(self.vocab.symbols[tid])
                if eid is not None and eid in self.params.item_index:
                    history.add(eid)
        return [self.kb.entities[e] for e in mf_rank(history, self.params)]
