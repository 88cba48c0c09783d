import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialeval.models.tfidf import TfIdfModel, build_idf, cosine, tfidf_vector


def test_idf_hand_example():
    docs = [{1: 1, 2: 1}, {1: 2}, {1: 1, 3: 1}, {3: 1}]
    idf = build_idf(docs)
    assert idf[1] == pytest.approx(math.log(4 / 3))
    assert idf[2] == pytest.approx(math.log(4 / 1))
    assert idf[3] == pytest.approx(math.log(4 / 2))


def test_tfidf_vector_drops_unseen_terms():
    idf = {1: 2.0, 2: 0.5}
    v = tfidf_vector({1: 3, 9: 1}, idf)
    assert v == {1: 6.0}


def test_cosine_hand_example():
    # v1 = (1, 2), v2 = (2, 1) over shared terms -> cos = 4/5
    assert cosine({1: 1.0, 2: 2.0}, {1: 2.0, 2: 1.0}) == pytest.approx(0.8)
    assert cosine({1: 1.0}, {2: 1.0}) == 0.0
    assert cosine({}, {1: 1.0}) == 0.0


def test_rank_orders_by_similarity_with_index_ties():
    docs = [{1: 1}, {2: 1}, {1: 1, 2: 1}, {3: 1}]
    model = TfIdfModel.fit(docs)
    # query containing term 1 prefers docs with term 1; docs 1 and 3 tie at 0
    order = model.rank({1: 1}, docs)
    assert order[0] == 0            # exact single-term match beats the mix
    assert order[1] == 2
    assert order[2:] == [1, 3]      # zero-similarity ties break by index


def test_relevance_feedback_pulls_in_training_response():
    docs = [{1: 1}, {2: 1}, {3: 1}]
    pairs = [({4: 1}, {2: 1})]       # message with term 4 was answered by term 2
    plain = TfIdfModel.fit(docs)
    rf = TfIdfModel.fit(docs, train_pairs=pairs, rf_weight=0.5)
    # term 4 has no idf, so the plain query carries no signal and falls back
    # to index order; feedback adds the term-2 response and breaks the tie
    query = {4: 1}
    assert plain.rank(query, docs) == [0, 1, 2]
    assert rf.rank(query, docs)[0] == 1


def test_relevance_feedback_scores_as_cosine_over_the_training_pairs():
    """With feedback, rankings equal a brute-force query built with `cosine`
    against every training message, weighted afresh per query, bit for bit."""
    rng = random.Random(5)
    bags = lambda n: [{t: rng.randint(1, 3) for t in rng.sample(range(2, 14), rng.randint(0, 4))}
                      for _ in range(n)]
    docs, msgs, queries, cands = bags(30), bags(30), bags(40), bags(25)
    model = TfIdfModel.fit(docs, train_pairs=list(zip(msgs, docs)), rf_weight=0.5)
    for query in queries:
        v = tfidf_vector(query, model.idf)
        sims = [cosine(v, tfidf_vector(m, model.idf)) for m in msgs]
        best = docs[sims.index(max(sims))]
        for t, w in tfidf_vector(best, model.idf).items():
            v[t] = v.get(t, 0.0) + 0.5 * w
        want = np.array([cosine(v, tfidf_vector(c, model.idf)) for c in cands])
        got = model.rank(query, cands)
        assert got == list(np.lexsort((np.arange(len(cands)), -want)))
        assert model.query_vector(query) == v


def test_idf_vector_roundtrip():
    docs = [{1: 1, 2: 1}, {2: 1, 5: 3}]
    model = TfIdfModel.fit(docs)
    vec = model.idf_vector(8)
    back = TfIdfModel.from_idf_vector(vec)
    # zero-idf terms (in every document) carry no weight and may be dropped
    nonzero = {t: w for t, w in model.idf.items() if w != 0.0}
    assert back.idf == pytest.approx(nonzero)
    q, cands = {2: 1, 1: 2}, [{1: 1}, {2: 1}, {5: 1}]
    assert back.rank(q, cands) == model.rank(q, cands)


def test_rank_deterministic_on_all_zero():
    docs = [{1: 1}, {2: 1}]
    model = TfIdfModel.fit(docs)
    assert model.rank({9: 1}, docs) == [0, 1]


def _bags(terms: int):
    """Token bags over terms 0..terms-1, in any insertion order, empty ones too."""
    return st.lists(st.tuples(st.integers(0, terms - 1), st.integers(1, 9)),
                    max_size=20).map(dict)


@settings(max_examples=200, deadline=None)
@given(docs=st.lists(_bags(24), min_size=1, max_size=10), msgs=st.lists(_bags(30), max_size=10),
       query=_bags(30), cands=st.lists(_bags(30), max_size=12), rf=st.booleans())
def test_scores_of_packed_candidates_are_cosine_bit_for_bit(docs, msgs, query, cands, rf):
    """`scores` over `candidates(...)`'s packed form gives `cosine`'s value
    for every candidate, bit for bit.  Candidates are shorter than, as long
    as (the query's own bag, and reversed) and longer than the query, or
    empty; terms 24-29 occur in no document and have no idf, and a term in
    every document weighs 0.  With feedback, the query adds the response of
    the first training message most similar to it under `cosine`."""
    pairs = list(zip(msgs, docs))
    model = TfIdfModel.fit(docs, train_pairs=pairs, rf_weight=0.5 if rf else 0.0)
    v = tfidf_vector(query, model.idf)
    if rf and pairs:
        sims = [cosine(v, tfidf_vector(m, model.idf)) for m, _ in pairs]
        for t, w in tfidf_vector(pairs[sims.index(max(sims))][1], model.idf).items():
            v[t] = v.get(t, 0.0) + 0.5 * w
    assert model.query_vector(query) == v
    cands = [*cands, query, dict(reversed(query.items()))]
    want = [cosine(v, tfidf_vector(c, model.idf)) for c in cands]
    got = model.scores(query, model.candidates(cands[:2]), model.candidates(cands[2:]))
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]
