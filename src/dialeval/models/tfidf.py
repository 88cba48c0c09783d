"""tf-idf weighted cosine similarity baseline for response ranking.

The default ranks candidate responses directly against the query (the variant
that works better for response selection); the query can optionally include
the dialog context, and a relevance-feedback mode adds the training response
whose message best matches the query, at a fixed weight.

`dot` and `cosine` define a similarity on sparse dict vectors.  A candidate
set is weighted, normed and packed once (`TfIdfVectors`), and a query is
scored against the whole set in a few numpy calls that give `cosine`'s value
bit for bit: the same products, added in the same order.  The relevance-
feedback search over the training messages scores them the same way.
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
    """Sparse dot product over the shorter vector (v1 on equal lengths), whose
    products are added left to right in that vector's order."""
    if len(v2) < len(v1):
        v1, v2 = v2, v1
    d = 0.0
    for t, w in v1.items():
        if t in v2:
            d += w * v2[t]
    return d


def cosine(v1: dict[int, float], v2: dict[int, float]) -> float:
    d = dot(v1, v2)
    if d == 0.0:
        return 0.0
    return d / (vector_norm(v1) * vector_norm(v2))


class TfIdfVectors:
    """The one packed form of a candidate set's tf-idf vectors.  Vector r's
    weights fill row r of a zero-padded matrix (kept flat, `width` per row) in
    the vector's own order; `postings` maps each term to the flat positions
    that hold it, one per vector that has it; `sizes` and `norms` are each
    vector's `len` and `vector_norm`."""

    def __init__(self, vectors: list[dict[int, float]]):
        n = len(vectors)
        self.sizes = np.fromiter(map(len, vectors), dtype=np.int64, count=n)
        self.norms = np.fromiter(map(vector_norm, vectors), dtype=np.float64, count=n)
        self.width = int(self.sizes.max(initial=0))
        weights: list[float] = []
        postings: dict[int, list[int]] = {}
        for r, v in enumerate(vectors):
            for at, t in enumerate(v, r * self.width):
                postings.setdefault(t, []).append(at)
            weights += v.values()
            weights += [0.0] * (self.width - len(v))
        self.weights = np.array(weights, dtype=np.float64)
        self.postings = {t: np.array(p, dtype=np.int64) for t, p in postings.items()}

    def dots(self, v: dict[int, float]) -> np.ndarray:
        """`dot(v, c)` for every vector c of the set, bit for bit."""
        found = [(i, w, self.postings[t]) for i, (t, w) in enumerate(v.items())
                 if t in self.postings]
        if not found:
            return np.zeros(self.sizes.size)
        at, w, entries = zip(*found)
        lengths = [e.size for e in entries]
        flat = np.concatenate(entries)
        rows, cols = np.divmod(flat, self.width)
        products = self.weights[flat] * np.repeat(w, lengths)
        # `dot` walks the shorter vector, the query on equal lengths: lay each
        # product out at its term's place in that vector
        place = np.where(self.sizes[rows] < len(v), cols, np.repeat(at, lengths))
        terms = np.zeros((self.sizes.size, int(place.max()) + 1))
        terms[rows, place] = products
        # accumulate adds left to right, and the zeros between products
        # change no sum
        return np.add.accumulate(terms, axis=1)[:, -1]

    def cosines(self, v: dict[int, float], nv: float) -> np.ndarray:
        """`cosine(v, c)` for every vector c of the set, bit for bit, where
        nv is `vector_norm(v)`."""
        d = self.dots(v)
        out = np.zeros_like(d)
        nz = d != 0.0
        out[nz] = d[nz] / (nv * self.norms[nz])
        return out


class TfIdfModel:
    """idf table plus optional (message, response) training pairs for
    relevance feedback, whose messages are weighted and packed once here."""

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
            # the response of the first message most similar to the query
            sims = self._messages.cosines(v, vector_norm(v))
            best = self.train_pairs[int(np.argmax(sims))][1]
            for t, w in tfidf_vector(best, self.idf).items():
                v[t] = v.get(t, 0.0) + self.rf_weight * w
        return v

    def candidates(self, candidate_bags: list[dict[int, int]]) -> TfIdfVectors:
        """The candidates' tf-idf vectors, packed."""
        return TfIdfVectors([tfidf_vector(c, self.idf) for c in candidate_bags])

    def rank(self, query_bag: dict[int, int],
             candidate_bags: list[dict[int, int]]) -> list[int]:
        """Candidate indices by cosine similarity, in `rank_order`."""
        return list(rank_order(self.scores(query_bag, self.candidates(candidate_bags))))

    def scores(self, query_bag: dict[int, int], *sets: TfIdfVectors) -> np.ndarray:
        """The query's cosine similarity to every vector of the `candidates(...)`
        sets, in order, so that a fixed candidate set is weighted and packed
        once.  The similarities are `cosine`'s, bit for bit."""
        v = self.query_vector(query_bag)
        nv = vector_norm(v)
        return np.concatenate([s.cosines(v, nv) for s in sets])

    def idf_vector(self, vocab_size: int) -> np.ndarray:
        out = np.zeros(vocab_size)
        for t, w in self.idf.items():
            out[t] = w
        return out

    @classmethod
    def from_idf_vector(cls, vec: np.ndarray) -> "TfIdfModel":
        return cls({t: float(w) for t, w in enumerate(vec) if w != 0.0})
