import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialeval import DataError, NumericalError
from dialeval.cli import _read_split, main
from dialeval.evaluation import (
    EvalReport, evaluate, format_report, hits_at_k, is_entity_matched,
    report_tsv,
)
from dialeval.ingest import load_ratings, load_triples
from dialeval.models import TrainConfig
from dialeval.models.rankers import OracleRanker, RandomRanker, Ranker, rank_by_score
from dialeval.pipeline import (
    build_vocab, make_ranker, train_ir, train_memn2n, train_mf_from_ratings,
    train_supemb,
)
from dialeval.taskgen import Example
from dialeval.templates import QUESTION_CLASSES


def test_hits_at_k_basic():
    assert hits_at_k(["a", "b", "c"], {"b"}, 1) == 0
    assert hits_at_k(["a", "b", "c"], {"b"}, 2) == 1
    assert hits_at_k(["a", "b"], {"x", "b"}, 2) == 1
    with pytest.raises(DataError):
        hits_at_k(["a"], set(), 1)
    with pytest.raises(DataError):
        hits_at_k(["a"], {"a"}, 0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 20), min_size=1, max_size=20, unique=True),
       st.sets(st.integers(0, 20), min_size=1, max_size=5),
       st.integers(1, 19))
def test_hits_monotone_in_k(ranked, gold, k):
    assert hits_at_k(ranked, gold, k) <= hits_at_k(ranked, gold, k + 1)


class FixedRanker:
    def __init__(self, ranking):
        self.ranking = ranking

    def rank(self, example):
        return list(self.ranking)

    def score(self, example):
        """The ranking's labels, scored from the top down."""
        return list(self.ranking), -np.arange(len(self.ranking), dtype=float)


def loop_oracle(ranker, examples, k):
    """Straight-line re-implementation of the evaluation loop."""
    hits = 0
    for ex in examples:
        ranked = ranker.rank(ex)
        hits += int(any(c in set(ex.gold) for c in ranked[:k]))
    return 100.0 * hits / len(examples)


def make_examples(n, rng):
    labels = [f"c{i}" for i in range(10)]
    out = []
    for i in range(n):
        gold = rng.sample(labels, rng.randint(1, 2))
        pool = tuple(c for c in labels if c not in gold)
        out.append(Example(input=f"q {i}", gold=tuple(gold),
                           candidate_pool=pool, dialog_id=i,
                           task_tag="discussion"))
    return out


def test_evaluate_matches_loop_oracle():
    rng = random.Random(0)
    examples = make_examples(80, rng)
    labels = [f"c{i}" for i in range(10)]
    for k in (1, 3, 5):
        ranker = FixedRanker(rng.sample(labels, len(labels)))
        report = evaluate(ranker, examples, k)
        assert report.overall.percent == pytest.approx(
            loop_oracle(ranker, examples, k))


def test_random_scorer_within_three_sigma():
    """hits@k of a uniform random ranking over C candidates has expectation
    100*k/C; binomial oracle over many trials."""
    rng = random.Random(1)
    C, k, n = 50, 5, 2000
    labels = [f"c{i}" for i in range(C)]
    examples = []
    for i in range(n):
        gold = labels[rng.randrange(C)]
        examples.append(Example(input=f"q {i}", gold=(gold,),
                                candidate_pool=tuple(c for c in labels if c != gold),
                                dialog_id=i, task_tag="discussion"))
    report = evaluate(RandomRanker(seed=2), examples, k)
    p = k / C
    sigma = 100.0 * math.sqrt(p * (1 - p) / n)
    assert abs(report.overall.percent - 100.0 * p) <= 3 * sigma


def test_oracle_ranker_always_hits():
    rng = random.Random(3)
    examples = make_examples(30, rng)
    report = evaluate(OracleRanker(), examples, 1)
    assert report.overall.percent == 100.0


def test_evaluate_rejects_missing_gold():
    ex = Example(input="q", gold=("a",), candidate_pool=("b",), task_tag="discussion")
    ranker = FixedRanker(["b", "c"])  # ranker lost the gold candidate
    with pytest.raises(DataError, match="example 0"):
        evaluate(ranker, [ex], 1)


def test_breakdowns(small_kb):
    examples = [
        Example(input="q1", gold=("a",), task_tag="qa",
                question_class="movie_to_director", dialog_id=0),
        Example(input="q2", gold=("a",), task_tag="qa",
                question_class="movie_to_year", dialog_id=1),
        Example(input="q3", gold=("b",), context=(("x", "y"),),
                response_position=2, task_tag="qarecs", dialog_id=2),
        Example(input="q4", gold=("b",), context=(("x", "y"), ("z", "w")),
                response_position=3, task_tag="qarecs", dialog_id=3),
    ]
    report = evaluate(OracleRanker(), examples, 1)
    assert report.by_class["movie_to_director"].count == 1
    assert report.by_position["1"].count == 2
    assert report.by_position["2"].count == 1
    assert report.by_position["3+"].count == 1
    assert report.by_task["qa"].count == 2
    assert report.by_task["qarecs"].count == 2


def test_report_always_emits_all_question_classes():
    ex = Example(input="q", gold=("a",), task_tag="qa",
                 question_class="movie_to_year")
    report = evaluate(OracleRanker(), [ex], 1)
    rows = report.rows()
    type_rows = [r for r in rows if r[0] == "type"]
    assert [r[1] for r in type_rows] == list(QUESTION_CLASSES)
    assert len(type_rows) == 11
    # unsupported class present with zero count
    lang = next(r for r in type_rows if r[1] == "movie_to_language")
    assert lang[3] == 0


def test_entity_matched_subset(small_kb):
    vocab = build_vocab(
        [Example(input="who directed kung fu hustle", gold=("stephen chow",))],
        small_kb, min_freq=1)
    matched = Example(input="who directed kung fu hustle", gold=("stephen chow",))
    self_ref = Example(input="tell me about kung fu hustle", gold=("kung fu hustle",))
    no_entity = Example(input="hello there", gold=("hi",))
    assert is_entity_matched(matched, vocab)
    assert not is_entity_matched(self_ref, vocab)  # gold already in the input
    assert not is_entity_matched(no_entity, vocab)


def test_format_report_and_tsv():
    ex = Example(input="q", gold=("a",), task_tag="qa",
                 question_class="movie_to_year")
    report = evaluate(OracleRanker(), [ex], 1)
    text = format_report(report)
    assert "overall" in text and "movie_to_year" in text
    only_pos = format_report(report, breakdown="position")
    assert "movie_to_year" not in only_pos and "position" in only_pos
    tsv = report_tsv(report)
    lines = tsv.strip().split("\n")
    assert lines[0] == "partition\tcell\thits\tcount"
    # overall + 11 classes + 3 positions + 1 task + entity_matched
    assert len(lines) == 1 + 1 + 11 + 3 + 1 + 1


# ---------------------------------------------------------------------------
# the gold's rank counted from the scores


class ScoredRanker:
    """Fixed labels and scores for every example; with `table`, the labels
    stand for the entity table, which `evaluate` finds through `entities`."""

    def __init__(self, labels, scores, table=False):
        self.labels, self.scores = labels, scores
        self.entities = None
        if table:
            self.entities = SimpleNamespace(
                labels=labels, index={c: i for i, c in enumerate(labels)})

    def score(self, example):
        return self.labels, self.scores


@st.composite
def scored_lists(draw):
    """Candidate labels, their scores from a small integer range (ties are
    dense) and a gold tuple, as the entity table ("table"), an explicit
    list [gold[0], *pool] whose pool may repeat a response ("explicit") or
    any other list ("other"); golds may repeat and "x" is no candidate."""
    path = draw(st.sampled_from(["table", "explicit", "other"]))
    n = draw(st.integers(1, 12))
    if path == "table":
        labels = [f"c{i}" for i in range(n)]
    else:
        labels = ["c0"] + draw(st.lists(st.sampled_from(["c1", "c2", "c3", "c4"]),
                                        min_size=n - 1, max_size=n - 1))
    scores = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)),
                      dtype=float)
    gold = draw(st.lists(st.sampled_from(labels + ["x"]), min_size=1, max_size=4))
    if path == "explicit":
        gold = ["c0"] + gold
        ex = Example(input="q", gold=tuple(gold), candidate_pool=tuple(labels[1:]),
                     task_tag="discussion")
    else:
        ex = Example(input="q", gold=tuple(gold))
    k = draw(st.integers(1, n + 1))
    return ScoredRanker(labels, scores, table=path == "table"), ex, k


@settings(max_examples=400, deadline=None)
@given(scored_lists())
def test_counted_rank_gives_the_sorted_lists_hit(case):
    ranker, ex, k = case
    report = evaluate(ranker, [ex], k)
    ranked = rank_by_score(ranker.labels, ranker.scores)
    assert report.overall.hits == hits_at_k(ranked, ex.gold, k)
    # tied: the first gold in rank order scores equal to a non-gold candidate
    gold = set(ex.gold)
    first = next((i for i in np.lexsort((np.arange(len(ranked)), -ranker.scores))
                  if ranker.labels[i] in gold), None)
    tied = first is not None and any(
        s == ranker.scores[first] and c not in gold
        for c, s in zip(ranker.labels, ranker.scores))
    assert report.gold_tied == int(tied)


class SpoilsSecond:
    """Scores candidates a, b, c, d 3, 2, 1, 0, except on its second call,
    where the score at index `bad` is `value`."""

    def __init__(self, bad, value):
        self.bad, self.value, self.calls = bad, value, 0

    def score(self, example):
        self.calls += 1
        scores = np.array([3.0, 2.0, 1.0, 0.0])
        if self.calls == 2:
            scores[self.bad] = self.value
        return ["a", "b", "c", "d"], scores


@pytest.mark.parametrize("bad,value", [(0, np.nan), (2, np.nan), (2, np.inf)])
def test_evaluate_refuses_a_score_that_is_not_finite(bad, value):
    """A NaN for the gold (index 0) or for another candidate, or an
    infinite score, names the example."""
    examples = [Example(input=f"q {i}", gold=("a",), candidate_pool=("b", "c", "d"),
                        task_tag="discussion") for i in range(3)]
    with pytest.raises(NumericalError, match="example 1: 1 of 4"):
        evaluate(SpoilsSecond(bad, value), examples, 1)


class ConstantRanker(Ranker):
    """Scores every candidate 0."""

    def score(self, example):
        labels = self.labels(example)
        return labels, np.zeros(len(labels))


def test_gold_tied_counts_examples_whose_gold_ties():
    examples = make_examples(30, random.Random(5))
    assert evaluate(OracleRanker(), examples, 1).gold_tied == 0
    report = evaluate(ConstantRanker(), examples, 1)
    assert report.gold_tied == 30
    assert report.overall.hits == 30  # the gold is first in the list
    assert "gold_tied" not in report_tsv(report)


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """Small synthetic qa, qarecs (several golds per example), discussion
    and joint datasets written by `dialeval gen`: each task's KB, vocabulary,
    train and test splits and ratings (None without a ratings file)."""
    root = tmp_path_factory.mktemp("eq")
    sizes = {
        "qa": ["--movies", 25, "--train", 120, "--dev", 5, "--test", 30],
        "qarecs": ["--movies", 25, "--users", 20, "--train", 40, "--dev", 3,
                   "--test", 10],
        "discussion": ["--threads", 80, "--pool-size", 30],
        "joint": ["--movies", 25, "--users", 20, "--threads", 60, "--train", 120,
                  "--dev", 10, "--test", 30, "--pool-size", 20],
    }
    out = {}
    for task, opts in sizes.items():
        d = root / task
        assert main([str(a) for a in ["gen", "--task", task, "--out", d,
                                      "--synthetic", "--seed", 2, *opts]]) == 0
        kb = load_triples(str(d / "kb.txt")).freeze()
        train = _read_split(str(d), "train")
        ratings = (load_ratings(str(d / "ratings.tsv"), kb)
                   if (d / "ratings.tsv").exists() else None)
        out[task] = (kb, build_vocab(train, kb, min_freq=1), train,
                     _read_split(str(d), "test"), ratings)
    return out


def _rankers(kind, kb, vocab, train, ratings):
    """Two rankers of one model, which rank alike call for call (a random
    ranker's two copies share the seed)."""
    cfg = TrainConfig(learning_rate=0.01, dim=8, epochs=2, hops=2, seed=1)
    if kind == "oracle":
        return OracleRanker(vocab), OracleRanker(vocab)
    if kind == "random":
        return RandomRanker(7, vocab), RandomRanker(7, vocab)
    params = {
        "memn2n": lambda: train_memn2n(train, vocab, kb, cfg)[0],
        "supemb": lambda: train_supemb(train, vocab, cfg)[0],
        "ir": lambda: train_ir(train, vocab),
        "mf": lambda: train_mf_from_ratings(ratings, cfg)[0],
    }[kind]()
    return tuple(make_ranker(kind, params, vocab, kb, cfg) for _ in range(2))


# mf needs a dataset with ratings, and ranks movies only
@pytest.mark.parametrize("task,kind", [
    (task, kind) for task in ("qa", "qarecs", "discussion", "joint")
    for kind in ("memn2n", "supemb", "ir", "mf", "oracle", "random")
    if kind != "mf" or task in ("qarecs", "joint")])
def test_evaluate_matches_rank_per_example(datasets, task, kind):
    """Example by example, evaluate's hit is hits@k of `rank()`'s list."""
    kb, vocab, train, test, ratings = datasets[task]
    if kind == "mf":
        test = [ex for ex in test if ex.candidate_pool is None]
    assert test
    if task == "qarecs":
        assert any(len(ex.gold) > 1 for ex in test)
    scored, ranked = _rankers(kind, kb, vocab, train, ratings)
    for i, ex in enumerate(test):
        k = (1, 2, 10)[i % 3]
        hit = evaluate(scored, [ex], k).overall.hits
        assert hit == hits_at_k(ranked.rank(ex), ex.gold, k), (i, k)
