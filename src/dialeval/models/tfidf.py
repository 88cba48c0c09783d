"""tf-idf weighted cosine similarity baseline for response ranking.

The default ranks candidate responses directly against the query (the variant
that works better for response selection); the query can optionally include
the dialog context, and a relevance-feedback mode adds the training response
whose message best matches the query, at a fixed weight.
"""

from __future__ import annotations

import math

import numpy as np


def build_idf(doc_bags: list[dict[int, int]]) -> dict[int, float]:
    """idf(t) = ln(N / df(t)) over the given document bags."""
    n = len(doc_bags)
    df: dict[int, int] = {}
    for b in doc_bags:
        for t in b:
            df[t] = df.get(t, 0) + 1
    return {t: math.log(n / c) for t, c in df.items()}


def tfidf_vector(b: dict[int, int], idf: dict[int, float]) -> dict[int, float]:
    return {t: c * idf[t] for t, c in b.items() if t in idf}


def cosine(v1: dict[int, float], v2: dict[int, float]) -> float:
    if len(v2) < len(v1):
        v1, v2 = v2, v1
    dot = sum(w * v2[t] for t, w in v1.items() if t in v2)
    if dot == 0.0:
        return 0.0
    n1 = math.sqrt(sum(w * w for w in v1.values()))
    n2 = math.sqrt(sum(w * w for w in v2.values()))
    return dot / (n1 * n2)


class TfIdfModel:
    """idf table plus optional (message, response) training pairs for
    relevance feedback."""

    def __init__(self, idf: dict[int, float],
                 train_pairs: list[tuple[dict[int, int], dict[int, int]]] | None = None,
                 rf_weight: float = 0.0):
        self.idf = idf
        self.train_pairs = train_pairs or []
        self.rf_weight = rf_weight

    @classmethod
    def fit(cls, train_bags: list[dict[int, int]],
            train_pairs=None, rf_weight: float = 0.0) -> "TfIdfModel":
        return cls(build_idf(train_bags), train_pairs, rf_weight)

    def query_vector(self, query_bag: dict[int, int]) -> dict[int, float]:
        v = tfidf_vector(query_bag, self.idf)
        if self.rf_weight > 0.0 and self.train_pairs:
            best, best_sim = None, -1.0
            for msg, resp in self.train_pairs:
                sim = cosine(v, tfidf_vector(msg, self.idf))
                if sim > best_sim:
                    best, best_sim = resp, sim
            if best is not None:
                for t, w in tfidf_vector(best, self.idf).items():
                    v[t] = v.get(t, 0.0) + self.rf_weight * w
        return v

    def candidate_vector(self, candidate_bag: dict[int, int]) -> dict[int, float]:
        return tfidf_vector(candidate_bag, self.idf)

    def rank(self, query_bag: dict[int, int],
             candidate_bags: list[dict[int, int]]) -> list[int]:
        """Candidate indices by cosine similarity desc, ties by index asc."""
        return self.rank_vectors(query_bag, [self.candidate_vector(c) for c in candidate_bags])

    def rank_vectors(self, query_bag: dict[int, int],
                     candidate_vectors: list[dict[int, float]]) -> list[int]:
        """`rank` over candidates already turned into `candidate_vector`s,
        so that a fixed candidate set is weighted once."""
        v = self.query_vector(query_bag)
        sims = np.array([cosine(v, c) for c in candidate_vectors])
        return list(np.lexsort((np.arange(len(sims)), -sims)))

    def idf_vector(self, vocab_size: int) -> np.ndarray:
        out = np.zeros(vocab_size)
        for t, w in self.idf.items():
            out[t] = w
        return out

    @classmethod
    def from_idf_vector(cls, vec: np.ndarray) -> "TfIdfModel":
        return cls({t: float(w) for t, w in enumerate(vec) if w != 0.0})
