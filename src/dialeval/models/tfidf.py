"""tf-idf weighted cosine similarity baseline for response ranking.

The default ranks candidate responses directly against the query (the variant
that works better for response selection); the query can optionally include
the dialog context, and a relevance-feedback mode adds the training response
whose message best matches the query, at a fixed weight.
"""

from __future__ import annotations

import math

import numpy as np

from dialeval.models.config import rank_order


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


def vector_norm(v: dict[int, float]) -> float:
    return math.sqrt(sum(w * w for w in v.values()))


def dot(v1: dict[int, float], v2: dict[int, float]) -> float:
    """Sparse dot product, iterating over the smaller vector."""
    if len(v2) < len(v1):
        v1, v2 = v2, v1
    return sum(w * v2[t] for t, w in v1.items() if t in v2)


def cosine(v1: dict[int, float], v2: dict[int, float]) -> float:
    d = dot(v1, v2)
    if d == 0.0:
        return 0.0
    return d / (vector_norm(v1) * vector_norm(v2))


class TfIdfModel:
    """idf table plus optional (message, response) training pairs for
    relevance feedback, whose messages are weighted and normed once here."""

    def __init__(self, idf: dict[int, float],
                 train_pairs: list[tuple[dict[int, int], dict[int, int]]] | None = None,
                 rf_weight: float = 0.0):
        self.idf = idf
        self.train_pairs = train_pairs or []
        self.rf_weight = rf_weight
        self._messages = self.candidates([msg for msg, _ in self.train_pairs])

    @classmethod
    def fit(cls, train_bags: list[dict[int, int]],
            train_pairs=None, rf_weight: float = 0.0) -> "TfIdfModel":
        return cls(build_idf(train_bags), train_pairs, rf_weight)

    def query_vector(self, query_bag: dict[int, int]) -> dict[int, float]:
        v = tfidf_vector(query_bag, self.idf)
        if self.rf_weight > 0.0 and self.train_pairs:
            nv = vector_norm(v)
            best, best_sim = None, -1.0
            for (msg, nm), (_, resp) in zip(self._messages, self.train_pairs):
                # `cosine`, bit for bit, with both norms known
                sim = d / (nv * nm) if (d := dot(v, msg)) != 0.0 else 0.0
                if sim > best_sim:
                    best, best_sim = resp, sim
            if best is not None:
                for t, w in tfidf_vector(best, self.idf).items():
                    v[t] = v.get(t, 0.0) + self.rf_weight * w
        return v

    def candidates(self, candidate_bags: list[dict[int, int]]
                   ) -> list[tuple[dict[int, float], float]]:
        """Each candidate's tf-idf vector and its norm."""
        vectors = [tfidf_vector(c, self.idf) for c in candidate_bags]
        return [(v, vector_norm(v)) for v in vectors]

    def rank(self, query_bag: dict[int, int],
             candidate_bags: list[dict[int, int]]) -> list[int]:
        """Candidate indices by cosine similarity, in `rank_order`."""
        return list(rank_order(self.scores(query_bag, self.candidates(candidate_bags))))

    def scores(self, query_bag: dict[int, int],
               candidates: list[tuple[dict[int, float], float]]) -> np.ndarray:
        """The query's cosine similarity to each of `candidates(...)`'s
        vectors, so that a fixed candidate set is weighted and normed once.
        The similarities are `cosine`'s, bit for bit."""
        v = self.query_vector(query_bag)
        nv = vector_norm(v)
        return np.array([d / (nv * nc) if (d := dot(v, c)) != 0.0 else 0.0
                         for c, nc in candidates])

    def idf_vector(self, vocab_size: int) -> np.ndarray:
        out = np.zeros(vocab_size)
        for t, w in self.idf.items():
            out[t] = w
        return out

    @classmethod
    def from_idf_vector(cls, vec: np.ndarray) -> "TfIdfModel":
        return cls({t: float(w) for t, w in enumerate(vec) if w != 0.0})
