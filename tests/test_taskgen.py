import pytest

from dialeval import DataError
from dialeval.ingest import gen_synthetic_sources
from dialeval.kb import KnowledgeBase
from dialeval.taskgen import (
    Example, gen_discussion, gen_joint, gen_qa, gen_qarecs, gen_recs,
)
from dialeval.templates import CLASS_EDGES, DEFAULT_TEMPLATES


@pytest.fixture(scope="module")
def sources():
    return gen_synthetic_sources(11, 40, 30, 25, 60)


def test_example_invariants():
    with pytest.raises(DataError):
        Example(input="q", gold=())
    with pytest.raises(DataError):
        Example(input="q", gold=("a",), response_position=2)
    with pytest.raises(DataError):
        Example(input="q", gold=("a",), candidate_pool=("a", "b"))
    ex = Example(input="q", gold=("a",), candidate_pool=("b", "c"))
    assert ex.explicit_candidates() == ["a", "b", "c"]


# -- qa ----------------------------------------------------------------------


def test_gen_qa_answers_are_correct(sources):
    kb, _, _ = sources
    train, dev, test = gen_qa(kb, DEFAULT_TEMPLATES, 0, 200, 30, 30)
    assert (len(train), len(dev), len(test)) == (200, 30, 30)
    for ex in train + dev + test:
        assert ex.task_tag == "qa"
        assert ex.candidate_pool is None
        relation, direction = CLASS_EDGES[ex.question_class]
        # every gold answer must satisfy the class edge against some entity
        # mentioned in the question
        for g in ex.gold:
            if direction == "forward":
                hits = kb.query_subjects(relation, g)
            else:
                hits = kb.query_objects(g, relation)
            assert any(m in ex.input for m in hits)


def test_gen_qa_splits_disjoint(sources):
    kb, _, _ = sources
    train, dev, test = gen_qa(kb, DEFAULT_TEMPLATES, 0, 200, 30, 30)
    key = lambda ex: (ex.question_class, ex.input)
    assert not {key(e) for e in dev} & {key(e) for e in test}
    assert not {key(e) for e in train} & ({key(e) for e in dev} | {key(e) for e in test})


def test_gen_qa_unsupported_class_skipped(sources, caplog):
    kb, _, _ = sources
    train, _, _ = gen_qa(kb, DEFAULT_TEMPLATES, 0, 100, 10, 10)
    assert all(ex.question_class != "movie_to_language" for ex in train)
    assert any("movie_to_language" in r.message for r in caplog.records)


def test_gen_qa_rejects_oversized_eval_splits():
    kb = KnowledgeBase()
    kb.add_triple("a", "directed_by", "b")
    with pytest.raises(DataError, match="exhaust"):
        gen_qa(kb.freeze(), DEFAULT_TEMPLATES, 0, 10, 100, 100)


# -- recs --------------------------------------------------------------------


def test_gen_recs_gold_from_complement(sources):
    kb, ratings, _ = sources
    examples = gen_recs(ratings, kb, DEFAULT_TEMPLATES, 0, 100)
    assert len(examples) == 100
    all_five = {kb.entities[m] for u in range(ratings.n_users)
                for m in ratings.five_star(u)}
    for ex in examples:
        assert ex.task_tag == "recs"
        gold = ex.gold[0]
        assert gold in all_five
        assert gold not in ex.input  # never recommend a stated movie
        # statement lists between 1 and 8 movies
        mentioned = [m for m in kb.movies() if m in ex.input]
        assert 1 <= len(mentioned) <= 8


def test_gen_recs_respects_user_subset(sources):
    kb, ratings, _ = sources
    examples = gen_recs(ratings, kb, DEFAULT_TEMPLATES, 0, 50, users=[0, 1])
    allowed = {kb.entities[m] for u in (0, 1) for m in ratings.five_star(u)}
    for ex in examples:
        assert ex.gold[0] in allowed


# -- qarecs ------------------------------------------------------------------


def test_gen_qarecs_structure(sources):
    kb, ratings, _ = sources
    examples = gen_qarecs(kb, ratings, DEFAULT_TEMPLATES, 0, 40)
    assert examples, "generator produced nothing"
    by_dialog = {}
    for ex in examples:
        by_dialog.setdefault(ex.dialog_id, []).append(ex)
    for dialog in by_dialog.values():
        assert [ex.response_position for ex in dialog] == [1, 2, 3]
        e1, e2, e3 = dialog
        # exchange 2: gold answers the stated property of the suggestion
        relation = CLASS_EDGES[e2.question_class][0]
        assert set(e2.gold) == kb.query_objects(e1.gold[0], relation)
        # exchange 2 context is exchange 1
        assert e2.context == ((e1.input, e1.gold[0]),)
        # exchange 3: alternatives share the opener topic, exclude the first
        # suggestion, and the stated value is a real property of each gold
        assert e1.gold[0] not in e3.gold
        for g in e3.gold:
            topics = kb.query_objects(g, "has_genre") | kb.query_objects(g, "has_tags")
            assert any(t in e1.input for t in topics)


def test_gen_qarecs_deterministic(sources):
    kb, ratings, _ = sources
    a = gen_qarecs(kb, ratings, DEFAULT_TEMPLATES, 5, 20)
    b = gen_qarecs(kb, ratings, DEFAULT_TEMPLATES, 5, 20)
    assert [(e.input, e.gold) for e in a] == [(e.input, e.gold) for e in b]


# -- discussion --------------------------------------------------------------


def test_gen_discussion_pools_and_splits(sources):
    _, _, threads = sources
    train, dev, test, dev_pool, test_pool = gen_discussion(threads, (20, 20), 0)
    n_exchanges = sum(len(d) for d in threads.dialogs)
    assert len(train) + len(dev) + len(test) == n_exchanges
    assert len(dev_pool) == len(test_pool) == 20
    assert not set(dev_pool) & set(test_pool)
    for ex in train:
        assert ex.candidate_pool is None
    for ex, pool in [(e, dev_pool) for e in dev] + [(e, test_pool) for e in test]:
        assert ex.candidate_pool == tuple(pool)
        assert ex.gold[0] not in ex.candidate_pool
    train_dialogs = {ex.dialog_id for ex in train}
    assert not train_dialogs & {ex.dialog_id for ex in test}


def test_gen_discussion_context_accumulates(sources):
    _, _, threads = sources
    train, _, _, _, _ = gen_discussion(threads, (5, 5), 0)
    for ex in train:
        assert len(ex.context) == ex.response_position - 1


def test_gen_discussion_needs_enough_pool(sources):
    _, _, threads = sources
    huge = len(threads.candidate_pool)
    with pytest.raises(DataError, match="pool"):
        gen_discussion(threads, (huge, huge), 0)


@pytest.mark.parametrize("sizes", [(0, 5), (5, 0), (-1, 5)])
def test_gen_discussion_refuses_empty_pools(sources, sizes):
    _, _, threads = sources
    with pytest.raises(DataError, match="pool sizes must be >= 1"):
        gen_discussion(threads, sizes, 0)


# -- joint -------------------------------------------------------------------


def test_gen_joint_mixture(sources):
    kb, ratings, threads = sources
    qa, _, _ = gen_qa(kb, DEFAULT_TEMPLATES, 0, 100, 10, 10)
    recs = gen_recs(ratings, kb, DEFAULT_TEMPLATES, 1, 100)
    disc, _, _, _, _ = gen_discussion(threads, (5, 5), 2)
    mixed = gen_joint({"qa": qa, "recs": recs, "discussion": disc},
                      {"qa": 0.5, "recs": 0.3, "discussion": 0.2}, 3,
                      n_examples=150)
    assert len(mixed) == 150
    tags = {ex.task_tag for ex in mixed}
    assert tags == {"qa", "recs", "discussion"}
    # dialog ids renumbered sequentially and positions restart per dialog
    prev = None
    for ex in mixed:
        if ex.dialog_id != prev:
            assert ex.response_position == 1
            prev = ex.dialog_id


def test_gen_joint_keeps_dialog_groups(sources):
    kb, ratings, threads = sources
    qr = gen_qarecs(kb, ratings, DEFAULT_TEMPLATES, 0, 20)
    mixed = gen_joint({"qarecs": qr}, {"qarecs": 1.0}, 0, n_examples=30)
    by_dialog = {}
    for ex in mixed:
        by_dialog.setdefault(ex.dialog_id, []).append(ex.response_position)
    for positions in by_dialog.values():
        assert positions == list(range(1, len(positions) + 1))


def test_gen_joint_validates_proportions(sources):
    kb, *_ = sources
    qa, _, _ = gen_qa(kb, DEFAULT_TEMPLATES, 0, 50, 5, 5)
    with pytest.raises(DataError, match="sum"):
        gen_joint({"qa": qa}, {"qa": 0.7}, 0)
    with pytest.raises(DataError, match="empty"):
        gen_joint({"qa": qa, "recs": []}, {"qa": 0.5, "recs": 0.5}, 0)
