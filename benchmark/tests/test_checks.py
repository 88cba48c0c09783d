"""Each correctness check passes on the program's real output and fails on a
deliberately broken one: a reversed ranking, a perturbed model matrix, a
dropped example and an over-capped recall.  The rate estimator and the
machine-speed scaling are checked on hand-made timings."""

from __future__ import annotations

import dataclasses
import signal
import time

import numpy as np
import pytest

import checks
import reference
import run
import speed
from dialeval.data import read_examples, write_examples
from dialeval.kb import KnowledgeBase
from dialeval.models import TrainConfig
from dialeval.models.embeddings import embed_score, init_embed
from dialeval.models.io import load_model, save_memn2n
from dialeval.models.memn2n import MemoryState, build_memory, init_memn2n, memn2n_forward
from dialeval.models.tfidf import TfIdfModel
from dialeval.pipeline import build_vocab
from dialeval.taskgen import Example
from dialeval.text import bag, tokenize


def _rand_bag(rng, V, n=4):
    return {int(t): int(c) for t, c in zip(rng.integers(2, V, n), rng.integers(1, 3, n))}


@pytest.fixture
def kb_and_vocab():
    kb = KnowledgeBase()
    for i, movie in enumerate(["kelo vanu", "rami tosa", "boda lumi"]):
        kb.add_triple(movie, "directed_by", "zeta moru")
        kb.add_triple(movie, "starred_actors", f"actor{i} name")
        kb.add_triple(movie, "has_genre", "drama")
    kb.freeze()
    examples = [Example(input=f"who directed {m}?", gold=("zeta moru",), dialog_id=i)
                for i, m in enumerate(["kelo vanu", "rami tosa", "boda lumi"])]
    return kb, build_vocab(examples, kb, min_freq=1), examples


def test_reference_scorers_match_program():
    rng = np.random.default_rng(0)
    V, d = 12, 4
    for n_dicts in (1, 2, 3):
        p = init_memn2n(V, d, 2, 5, n_dicts=n_dicts, seed=int(rng.integers(1000)))
        ms = MemoryState(_rand_bag(rng, V), [_rand_bag(rng, V) for _ in range(3)], [0, 1, 2])
        cands = [_rand_bag(rng, V) for _ in range(6)]
        program, _ = memn2n_forward(ms, cands, p)
        ref = reference.memn2n_scores(p.A_in, p.A_mem, p.W, p.R, p.T, ms.input_bag,
                                      ms.memory_bags, ms.slots, cands)
        np.testing.assert_allclose(ref, program, rtol=1e-12)
    e = init_embed(V, d, "two_dict", seed=3)
    x, cands = _rand_bag(rng, V), [_rand_bag(rng, V) for _ in range(5)]
    np.testing.assert_allclose(reference.supemb_scores(e.U_in, e.U_out, x, cands),
                               [embed_score(x, y, e) for y in cands], rtol=1e-12)
    docs = [_rand_bag(rng, V) for _ in range(8)]
    model = TfIdfModel.fit(docs)
    idf = reference.idf_from_responses(docs, V)
    order = model.rank(x, cands)
    assert not checks.reference_order([str(i) for i in order],
                                      {str(i): i for i in range(5)},
                                      reference.ir_scores(idf, x, cands))[0]


def test_reference_order_rejects_reversed_ranking():
    ref = np.array([0.5, 2.0, -1.0, 2.0, 0.1])
    labels = [str(i) for i in range(len(ref))]
    index = {c: i for i, c in enumerate(labels)}
    ranked = [labels[i] for i in np.lexsort((np.arange(len(ref)), -ref))]
    problems, ties = checks.reference_order(ranked, index, ref)
    assert problems == [] and ties == 1
    assert checks.reference_order(ranked[::-1], index, ref)[0]
    assert checks.reference_hit([1], ref, 1) == 1
    assert checks.reference_hit([3], ref, 1) == 0      # ties break by lower index
    assert checks.permutation(ranked, labels) == []
    assert checks.permutation(ranked[:-1] + ranked[:1], labels)


def test_matrices_equal_rejects_perturbed_model(tmp_path):
    p = init_memn2n(10, 4, 1, 5, n_dicts=1, seed=0)
    path = tmp_path / "m.bin"
    save_memn2n(path, p, TrainConfig())
    loaded = load_model(path)[1]
    assert checks.matrices_equal({"A_in": p.A_in, "T": p.T},
                                 {"A_in": loaded.A_in, "T": loaded.T}) == []
    loaded.A_in[2, 3] = np.nextafter(loaded.A_in[2, 3], np.inf)
    assert checks.matrices_equal({"A_in": p.A_in}, {"A_in": loaded.A_in})


def test_round_trip_rejects_dropped_example(tmp_path, kb_and_vocab):
    _, _, examples = kb_and_vocab
    write_examples(tmp_path / "train.txt", examples)
    read = read_examples(tmp_path / "train.txt")
    assert checks.round_trip({"train": examples}, {"train": read}) == ([], 0)
    assert checks.round_trip({"train": examples}, {"train": read[:-1]})[0]
    changed = [dataclasses.replace(read[0], gold=("someone else",))] + read[1:]
    assert checks.round_trip({"train": examples}, {"train": changed})[0]


def test_round_trip_counts_reply_punctuation_and_rejects_other_context(tmp_path):
    first = Example(input="who starred in it?", gold=("ana holm", "rosa weiss"))
    second = Example(input="and who directed it?", gold=("ana holm",),
                     context=(("who starred in it?", "ana holm, rosa weiss"),),
                     response_position=2)
    write_examples(tmp_path / "d.txt", [first, second])
    read = read_examples(tmp_path / "d.txt")
    assert read[1].context[0][1] == "ana holm|rosa weiss"
    assert checks.round_trip({"d": [first, second]}, {"d": read}) == ([], 1)
    for reply in ("ana holm", "Ana Holm, rosa weiss", "ana holm; rosa weiss"):
        other = dataclasses.replace(second, context=(("who starred in it?", reply),))
        assert checks.round_trip({"d": [first, other]}, {"d": read})[0]
    # the reply matches the gold of an example from another dialog
    moved = [dataclasses.replace(read[0], dialog_id=7), read[1]]
    assert checks.round_trip({"d": [moved[0], second]}, {"d": moved})[0]


def test_golds_rejects_non_entity_and_duplicated_gold(kb_and_vocab):
    _, vocab, examples = kb_and_vocab
    assert checks.golds(examples, vocab) == []
    assert checks.golds([dataclasses.replace(examples[0], gold=("directed",))], vocab)
    pooled = Example(input="hi", gold=("a reply",), task_tag="discussion",
                     candidate_pool=("other", "more"))
    assert checks.golds([pooled], vocab) == []
    object.__setattr__(pooled, "candidate_pool", ("a reply", "other"))
    assert checks.golds([pooled], vocab)


def test_kb_recall_rejects_over_capped_recall(kb_and_vocab):
    kb, vocab, _ = kb_and_vocab
    cfg = TrainConfig(max_memories=2)
    text = "kelo vanu or rami tosa"
    tokens = [vocab.symbols[t] for t in dict.fromkeys(tokenize(vocab, text))]

    def fact_bag(f):
        return bag(tokenize(vocab, kb.render_fact(f)))

    state = build_memory([], text, kb, vocab, cfg)
    assert checks.kb_recall(state, kb, tokens, cfg, fact_bag) == []
    over = MemoryState(state.input_bag, state.memory_bags + [fact_bag(5)], state.slots + [0])
    assert checks.kb_recall(over, kb, tokens, cfg, fact_bag)
    foreign = MemoryState(state.input_bag, state.memory_bags[:-1] + [{2: 7}], state.slots)
    assert checks.kb_recall(foreign, kb, tokens, cfg, fact_bag)


def test_learning_check():
    assert checks.learning([2.0, 1.0], 5.0, 1.0, "m") == []
    assert checks.learning([1.0, 1.0], 5.0, 1.0, "m")
    assert checks.learning([2.0, 1.0], 0.5, 1.0, "m")


def test_round_seconds_sums_each_parts_median_per_round():
    # part 0 runs twice a round (two epochs of one slice), part 1 and the save
    # once; parts are (key, measured s, scaled s)
    rounds = [{"parts": [(("t", "m", 0), 9, 1.0), (("t", "m", 1), 9, 2.0),
                         (("t", "m", 0), 9, 1.5), (("t", "m", "save"), 9, 0.1),
                         (("u", "m", 0), 9, 50.0)]},
              {"parts": [(("t", "m", 1), 9, 2.5), (("t", "m", 0), 9, 0.8),
                         (("t", "m", 0), 9, 0.9), (("t", "m", "save"), 9, 0.2)]},
              {"parts": [(("t", "m", 1), 9, 3.0), (("t", "m", 0), 9, 4.0),
                         (("t", "m", 0), 9, 0.7), (("t", "m", "save"), 9, 0.3)]}]
    assert run.round_seconds(rounds, "t", "m") == pytest.approx(2 * 0.95 + 2.5 + 0.2)
    assert run.round_seconds(rounds, "t", "m", scaled=False) == pytest.approx(4 * 9)


def test_clock_scales_by_the_probes_around_a_part(monkeypatch):
    probes = iter([2 * speed.NOMINAL_S, 4 * speed.NOMINAL_S, 1 * speed.NOMINAL_S])
    monkeypatch.setattr(speed, "probe", lambda: next(probes))
    clock = speed.Clock(sample=False)
    for key, seconds in (("a", 0.03), ("b", 0.02)):
        with clock.part(key):
            time.sleep(seconds)
    # "a" ran between probes 2x and 4x nominal: 1/2 and 1/4 of nominal speed
    (ka, ma, sa), (kb, mb, sb) = clock.parts
    assert (ka, kb) == ("a", "b")
    assert ma >= 0.03 and sa == pytest.approx(ma * (1 / 2 + 1 / 4) / 2)
    assert mb >= 0.02 and sb == pytest.approx(mb * (1 / 4 + 1) / 2)


def test_clock_samples_during_a_part_and_leaves_their_time_out():
    clock = speed.Clock()
    with clock.part("p"):
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    ((_, measured, scaled),) = clock.parts
    # the part lasted 0.3 s of wall time; about six samples of 1-2 ms each
    # came out of it
    assert 0.2 < measured < 0.3
    assert scaled > 0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
