from dataclasses import replace

import numpy as np
import pytest

from dialeval import DataError
from dialeval.data import read_examples, write_examples
from dialeval.evaluation import evaluate
from dialeval.ingest import gen_synthetic_sources
from dialeval.models import TrainConfig
from dialeval.models.memn2n import init_memn2n
from dialeval.models.rankers import (
    EntityCandidates, MemN2NRanker, OracleRanker, query_text, rank_by_score,
)
from dialeval.pipeline import (
    DEFAULT_K, build_vocab, make_ranker, train_ir, train_memn2n,
    train_mf_from_ratings, train_supemb,
)
from dialeval.taskgen import Example, gen_discussion, gen_qa, gen_recs
from dialeval.templates import DEFAULT_TEMPLATES


def test_rank_by_score_tie_break():
    labels = ["a", "b", "c", "d"]
    scores = np.array([1.0, 3.0, 3.0, 0.5])
    assert rank_by_score(labels, scores) == ["b", "c", "a", "d"]


def test_query_text_flattens_context():
    ex = Example(input="third", gold=("x",),
                 context=(("first", "reply one"), ("second", "reply two")),
                 response_position=3)
    assert query_text(ex) == "first reply one second reply two third"


def test_entity_candidates(small_vocab):
    cands = EntityCandidates(small_vocab)
    assert all(small_vocab.is_entity(t) for t in cands.token_ids)
    assert cands.labels == [small_vocab.symbols[t] for t in cands.token_ids]
    assert all(b == {t: 1} for b, t in zip(cands.bags, cands.token_ids))


@pytest.fixture(scope="module")
def qa_setup():
    kb, ratings, _ = gen_synthetic_sources(21, 25, 20, 15, 10)
    train, _, test = gen_qa(kb, DEFAULT_TEMPLATES, 0, 150, 10, 20)
    vocab = build_vocab(train, kb, min_freq=2)
    return kb, ratings, train, test, vocab


def test_supemb_pipeline_learns(qa_setup):
    kb, _, train, test, vocab = qa_setup
    cfg = TrainConfig(learning_rate=0.05, dim=32, epochs=30, seed=0, n_dicts=1)
    params, losses = train_supemb(train, vocab, cfg, variant="single_dict")
    assert losses[-1] < losses[0]
    ranker = make_ranker("supemb", params, vocab, kb, cfg)
    report = evaluate(ranker, train, k=5)
    baseline = evaluate(OracleRanker(vocab), train, k=5)
    assert baseline.overall.percent == 100.0
    assert report.overall.percent > 30.0  # far above the ~2% random floor


def test_memn2n_pipeline_learns(qa_setup):
    kb, _, train, test, vocab = qa_setup
    cfg = TrainConfig(learning_rate=0.01, dim=32, epochs=10, hops=1, seed=0)
    params, losses = train_memn2n(train, vocab, kb, cfg)
    assert losses[-1] < losses[0]
    ranker = make_ranker("memn2n", params, vocab, kb, cfg)
    report = evaluate(ranker, train, k=5)
    assert report.overall.percent > 30.0


def test_memn2n_ranker_explicit_pool(small_kb):
    ex = Example(input="any text", gold=("a good reply",),
                 candidate_pool=("bad one", "bad two"), task_tag="discussion")
    vocab = build_vocab([ex], small_kb, min_freq=1)
    cfg = TrainConfig(dim=4, hops=1)
    params = init_memn2n(vocab.size, 4, 1, cfg.max_memories, seed=0)
    ranker = MemN2NRanker(params, vocab, small_kb, cfg)
    ranked = ranker.rank(ex)
    assert sorted(ranked) == sorted(ex.explicit_candidates())


def test_ir_ranker_on_responses(small_kb):
    train = [
        Example(input="do you like kung fu hustle", gold=("yes a lot",),
                task_tag="discussion", dialog_id=0),
        Example(input="what about shaolin soccer", gold=("never saw it",),
                task_tag="discussion", dialog_id=1),
    ]
    vocab = build_vocab(train, small_kb, min_freq=1)
    model = train_ir(train, vocab)
    ranker = make_ranker("ir", model, vocab, small_kb, TrainConfig())
    test = Example(input="i watched it and yes a lot of fun",
                   gold=("yes a lot",), candidate_pool=("never saw it",),
                   task_tag="discussion")
    assert ranker.rank(test)[0] == "yes a lot"


def test_mf_ranker_reads_history(qa_setup):
    kb, ratings, train, _, _ = qa_setup
    cfg = TrainConfig(learning_rate=0.05, dim=8, epochs=30, seed=0)
    params, _ = train_mf_from_ratings(ratings, cfg)
    recs = gen_recs(ratings, kb, DEFAULT_TEMPLATES, 0, 20)
    vocab = build_vocab(recs, kb, min_freq=1)
    ranker = make_ranker("mf", params, vocab, kb, cfg)
    for ex in recs[:5]:
        ranked = ranker.rank(ex)
        assert ranked, "history movies should be recognized"
        mentioned = [m for m in kb.movies() if m in ex.input]
        assert not set(ranked) & set(mentioned)  # never re-recommend history


def test_mf_ranker_requires_kb(qa_setup):
    _, ratings, *_ = qa_setup
    cfg = TrainConfig(dim=4, epochs=1)
    params, _ = train_mf_from_ratings(ratings, cfg)
    with pytest.raises(DataError):
        make_ranker("mf", params, None, None, cfg)


def test_make_ranker_unknown_kind(qa_setup):
    with pytest.raises(DataError, match="kind"):
        make_ranker("transformer", None, None, None, TrainConfig())


def test_default_k_per_task():
    assert DEFAULT_K["qa"] == 1
    assert DEFAULT_K["recs"] == 100
    assert DEFAULT_K["qarecs"] == 10
    assert DEFAULT_K["discussion"] == 10


def test_train_supemb_rejects_non_entity_gold(small_kb):
    ex = Example(input="question", gold=("not an entity at all",), task_tag="qa")
    vocab = build_vocab([ex], small_kb, min_freq=1)
    with pytest.raises(DataError, match="entity"):
        train_supemb([ex], vocab, TrainConfig(epochs=1))


# ---------------------------------------------------------------------------
# candidate pools featurized once per ranker


@pytest.fixture(scope="module")
def pool_setup(tmp_path_factory):
    """A discussion test split read back from its files, so every example
    holds the one pool tuple `read_examples` builds, and a maker of fresh
    rankers per model."""
    kb, _, threads = gen_synthetic_sources(5, 20, 15, 10, 80)
    train, _, test, _, pool = gen_discussion(threads, (10, 40), 0)
    path = tmp_path_factory.mktemp("pool") / "test.txt"
    write_examples(path, test)
    test = read_examples(path, pool)
    vocab = build_vocab(train, kb, min_freq=1)
    cfg = TrainConfig(learning_rate=0.01, dim=8, epochs=2, hops=1, seed=0)
    params = {
        "memn2n": train_memn2n(train, vocab, kb, cfg)[0],
        "supemb": train_supemb(train, vocab, cfg)[0],
        "ir": train_ir(train, vocab),
    }

    def fresh(kind):
        return make_ranker(kind, params[kind], vocab, kb, cfg)

    return test, fresh


def _other_pool(pool: tuple[str, ...]) -> tuple[str, ...]:
    """Same length, other content: the pool rotated by one response."""
    return tuple(pool[1:] + pool[:1])


@pytest.mark.parametrize("kind", ["memn2n", "supemb", "ir"])
def test_shared_pool_ranks_as_fresh_rankers(pool_setup, kind):
    test, fresh = pool_setup
    assert len(test) > 5 and all(ex.candidate_pool is test[0].candidate_pool for ex in test)
    shared = fresh(kind)
    for ex in test:
        assert shared.rank(ex) == fresh(kind).rank(ex)
        if kind != "ir":
            labels, scores = shared.score(ex)
            fresh_labels, fresh_scores = fresh(kind).score(ex)
            assert labels == fresh_labels
            np.testing.assert_array_equal(scores, fresh_scores)


@pytest.mark.parametrize("kind", ["memn2n", "supemb", "ir"])
def test_pool_cache_holds_one_entry_per_pool(pool_setup, kind):
    test, fresh = pool_setup
    ranker = fresh(kind)
    evaluate(ranker, test, k=10)
    assert len(ranker._pools) == 1
    # equal content in a distinct tuple of distinct strings: the same entry
    ex = test[0]
    copy = tuple(c.encode().decode() for c in ex.candidate_pool)
    assert copy is not ex.candidate_pool and copy == ex.candidate_pool
    assert ranker.rank(replace(ex, candidate_pool=copy)) == ranker.rank(ex)
    assert len(ranker._pools) == 1


@pytest.mark.parametrize("kind", ["memn2n", "supemb", "ir"])
def test_pool_cache_never_returns_a_stale_entry(pool_setup, kind):
    test, fresh = pool_setup
    ex = test[0]
    ranker = fresh(kind)
    pool = ex.candidate_pool
    for _ in range(3):
        # drop the last pool before building the next, so its address may
        # be reused by a tuple of other content
        pool = _other_pool(pool)
        other = replace(ex, candidate_pool=tuple(list(pool)))
        assert ranker.rank(other) == fresh(kind).rank(other)
        if kind != "ir":
            np.testing.assert_array_equal(ranker.score(other)[1], fresh(kind).score(other)[1])
        del other
    assert ranker.rank(ex) == fresh(kind).rank(ex)
