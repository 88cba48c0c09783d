import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from dialeval import DataError
from dialeval.data import read_examples, write_examples
from dialeval.evaluation import evaluate
from dialeval.ingest import gen_synthetic_sources
from dialeval.models import TrainConfig
from dialeval.models.embeddings import EmbedParams
from dialeval.models.memn2n import init_memn2n
from dialeval.models.mf import MFParams
from dialeval.models.rankers import (
    EntityCandidates, MemN2NRanker, OracleRanker, query_text, rank_by_score,
)
from dialeval.pipeline import (
    DEFAULT_K, build_vocab, make_ranker, train_ir, train_memn2n,
    train_mf_from_ratings, train_supemb,
)
from dialeval.models.tfidf import TfIdfModel
from dialeval.taskgen import Example, gen_discussion, gen_qa, gen_recs
from dialeval.templates import DEFAULT_TEMPLATES
from dialeval.text import bag, tokenize


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


@pytest.mark.parametrize("kind", ["memn2n", "supemb", "ir"])
def test_ranker_is_freed_with_its_last_reference(pool_setup, kind):
    """No reference cycle keeps a ranker and its pool cache alive: evaluating
    with one ranker after another must not hold each one's memory until the
    garbage collector's next full pass."""
    test, fresh = pool_setup
    ranker = fresh(kind)
    evaluate(ranker, test[:3], k=10)
    ref = weakref.ref(ranker)
    gc.disable()
    try:
        del ranker
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the one tie rule


@pytest.fixture
def tie_setup(small_kb):
    """A vocabulary, an explicit-list example and an entity example, and
    each model's parameters that score every candidate alike: zeros, or
    for ir an idf table with no terms."""
    explicit = Example(input="what did you think", gold=("a good reply",),
                       candidate_pool=("bad one", "bad two", "another"),
                       task_tag="discussion")
    table = Example(input="who directed kung fu hustle", gold=("stephen chow",))
    vocab = build_vocab([explicit, table], small_kb, min_freq=1)
    cfg = TrainConfig(dim=3)
    memn2n = init_memn2n(vocab.size, cfg.dim, 1, cfg.max_memories, seed=0)
    for m in (memn2n.A_in, memn2n.R, memn2n.T):  # A_mem and W alias A_in
        m[...] = 0.0
    movie_ids = [small_kb.entity_id(m) for m in small_kb.movies()]
    params = {
        "memn2n": memn2n,
        "supemb": EmbedParams(np.zeros((cfg.dim, vocab.size))),
        "ir": TfIdfModel({}),
        "mf": MFParams(np.zeros((1, cfg.dim)), np.zeros((len(movie_ids), cfg.dim)),
                       movie_ids),
    }

    def ranker(kind):
        if kind == "oracle":
            return OracleRanker(vocab)
        return make_ranker(kind, params[kind], vocab, small_kb, cfg)

    return small_kb, {"explicit": explicit, "table": table}, ranker


@pytest.mark.parametrize("candidates", ["explicit", "table"])
@pytest.mark.parametrize("kind", ["memn2n", "supemb", "ir", "mf", "oracle"])
def test_equal_scores_rank_in_candidate_order(tie_setup, kind, candidates):
    kb, examples, make = tie_setup
    ex, ranker = examples[candidates], make(kind)
    if kind == "mf" and candidates == "explicit":
        with pytest.raises(DataError, match="mf ranks movies"):
            ranker.rank(ex)
        return
    labels, scores = ranker.score(ex)
    if kind == "mf":
        assert labels == [m for m in kb.movies() if m != "kung fu hustle"]
    else:
        assert labels == (ex.explicit_candidates() if candidates == "explicit"
                          else ranker.entities.labels)
    if kind == "oracle":
        # the golds score above the rest; each part keeps candidate order
        want = [c for c in labels if c in ex.gold] + [c for c in labels if c not in ex.gold]
    else:
        assert len(labels) > 1 and np.all(scores == scores[0])
        want = labels
    assert ranker.rank(ex) == want


@pytest.fixture(scope="module")
def copies_setup():
    """Discussion examples whose 400-response pools hold copies of their
    gold at several places, odd ones and the last among them: the gold's
    text plus a word out of the vocabulary, so the same token bag under
    another label.  Each query also holds the gold's words.  Also a maker
    of supemb and ir rankers."""
    kb, _, threads = gen_synthetic_sources(5, 20, 15, 10, 120)
    train, _, _, _, _ = gen_discussion(threads, (10, 40), 0)
    vocab = build_vocab(train, kb, min_freq=1)
    responses = list(dict.fromkeys(e.gold[0] for e in train))
    copies = [0, 1, 2, 7, 64, 101, 333, 399]
    examples = []
    for ex in train[:8]:
        others = [r for r in responses if r != ex.gold[0]]
        pool = [others[i % len(others)] for i in range(400)]
        for p in copies:
            pool[p] = f"{ex.gold[0]} unseenword{p}"
        examples.append(replace(ex, input=f"{ex.input} {ex.gold[0]}",
                                candidate_pool=tuple(pool), task_tag="discussion"))
    rng = np.random.default_rng(3)
    params = {"supemb": EmbedParams(rng.normal(size=(30, vocab.size))),
              "ir": train_ir(train, vocab)}

    def make(kind):
        return make_ranker(kind, params[kind], vocab, kb, TrainConfig(dim=30))

    # list index: the gold, then the pool
    return examples, vocab, [0] + [p + 1 for p in copies], make


@pytest.mark.parametrize("kind", ["supemb", "ir"])
def test_copies_of_the_gold_tie_with_it_wherever_they_sit(copies_setup, kind):
    """Every copy of the gold in the pool scores bit-identically to the
    gold, so the index rule alone orders them and the gold ranks first.
    (A gemv over the stacked candidates, G @ x, scores the last of the 401
    rows apart from the rest in some queries, hence eight examples.)"""
    examples, vocab, at, make = copies_setup
    ranker = make(kind)
    for ex in examples:
        labels, scores = ranker.score(ex)
        assert len(labels) == 401
        assert len({str(bag(tokenize(vocab, labels[i]))) for i in at}) == 1
        assert scores[0] != 0.0
        assert [scores[i].hex() for i in at] == [scores[0].hex()] * len(at)
        ranked = ranker.rank(ex)
        places = [ranked.index(labels[i]) for i in at]
        assert places == sorted(places)
        assert ranked == rank_by_score(labels, scores)
