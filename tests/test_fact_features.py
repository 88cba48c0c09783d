"""KB facts are tokenized once per vocabulary (`KnowledgeBase.fact_bags`)
and, in a memn2n ranker, embedded once.  These tests pin that the shortcuts
leave every score's bits where embedding freshly tokenized memories would,
and that the fact-bag tables stay bounded and keyed by vocabulary content."""

import numpy as np
import pytest

from dialeval.evaluation import evaluate
from dialeval.ingest import gen_synthetic_sources
from dialeval.models import TrainConfig
from dialeval.models.memn2n import (
    MemoryState, build_memory, candidate_matrix, init_memn2n, memn2n_forward,
)
from dialeval.models.rankers import MemN2NRanker
from dialeval.pipeline import build_vocab
from dialeval.taskgen import Example, gen_qa, gen_qarecs
from dialeval.templates import DEFAULT_TEMPLATES
from dialeval.text import Vocabulary, bag, tokenize


def make_sources():
    kb, ratings, _ = gen_synthetic_sources(7, 30, 20, 40, 10)
    qa, _, _ = gen_qa(kb, DEFAULT_TEMPLATES, 1, 40, 5, 5)
    qarecs = gen_qarecs(kb, ratings, DEFAULT_TEMPLATES, 2, 15)
    silent = Example(input="hello there", gold=(kb.entities[0],))  # recalls nothing
    return kb, qa + qarecs + [silent]


@pytest.fixture(scope="module")
def sources():
    kb, examples = make_sources()
    return kb, examples, build_vocab(examples, kb, min_freq=1)


def fresh_state(ex, kb, vocab, cfg):
    """The example's memory as build_memory makes it, with every bag
    tokenized anew rather than shared."""
    ms = build_memory(list(ex.context), ex.input, kb, vocab, cfg)
    texts = [t for turn in ex.context for t in turn]
    texts += [kb.render_fact(f) for f in ms.facts]
    fresh = MemoryState(bag(tokenize(vocab, ex.input)),
                        [bag(tokenize(vocab, t)) for t in texts], ms.slots, ms.facts)
    assert fresh == ms
    return fresh


@pytest.mark.parametrize("n_dicts", [1, 2, 3])
@pytest.mark.parametrize("hops", [0, 1, 2])
def test_ranker_scores_equal_fresh_memories_bit_for_bit(sources, n_dicts, hops):
    kb, examples, vocab = sources
    facts = {}
    for with_kb, max_memories in ((True, 50), (True, 3), (False, 50)):
        cfg = TrainConfig(dim=6, hops=hops, n_dicts=n_dicts, max_memories=max_memories)
        p = init_memn2n(vocab.size, cfg.dim, hops, max_memories, n_dicts=n_dicts,
                        seed=10 * n_dicts + hops)
        ranker_kb = kb if with_kb else None
        ranker = MemN2NRanker(p, vocab, ranker_kb, cfg)
        for _ in range(2):  # the second pass reads every fact row from the ranker
            for i, ex in enumerate(examples):
                labels, scores = ranker.score(ex)
                ms = fresh_state(ex, ranker_kb, vocab, cfg)
                G = candidate_matrix(p.W, [bag(tokenize(vocab, c)) for c in labels])
                want, _ = memn2n_forward(ms, [], p, G=G)
                np.testing.assert_array_equal(scores, want)
                facts[with_kb, max_memories, i] = ms.facts
    n = len(examples)
    assert any(examples[i].context and facts[True, 50, i] for i in range(n))
    assert not facts[True, 50, n - 1]  # no fact recalled
    assert not any(facts[False, 50, i] for i in range(n))  # no KB
    truncated = [i for i in range(n) if len(facts[True, 50, i]) > 3]
    assert truncated  # recall cut at max_memories
    assert all(facts[True, 3, i] == facts[True, 50, i][:3] for i in truncated)


def test_fact_bag_table_is_bounded_and_fresh():
    kb, examples = make_sources()  # a KB of its own: its tables start empty
    vocab = build_vocab(examples, kb, min_freq=1)
    cfg = TrainConfig(dim=4, max_memories=50)
    ranker = MemN2NRanker(init_memn2n(vocab.size, 4, 1, 50), vocab, kb, cfg)
    n = len(examples) // 2
    sizes = []
    for part in (examples[:n], examples):
        evaluate(ranker, part, 1)
        table = kb.bag_tables[vocab.key]
        sizes.append(len(table))
        assert len(table) <= kb.n_facts
        for fid, fact_bag in table.items():
            assert fact_bag == bag(tokenize(vocab, kb.render_fact(fid)))
    assert 0 < sizes[0] <= sizes[1]
    assert list(kb.bag_tables) == [vocab.key]


def test_vocabularies_never_share_fact_bags(tmp_path):
    kb, examples = make_sources()
    cfg = TrainConfig(max_memories=50)
    rich = build_vocab(examples, kb, min_freq=1)
    bare = build_vocab(examples, kb, min_freq=10**6)  # entity symbols only
    assert rich.key != bare.key
    differ = 0
    for _ in range(2):  # each vocabulary after the other has filled its table
        for vocab in (rich, bare):
            for ex in examples:
                ms = build_memory(list(ex.context), ex.input, kb, vocab, cfg)
                fresh = [bag(tokenize(vocab, kb.render_fact(f))) for f in ms.facts]
                assert ms.memory_bags[len(ms.memory_bags) - len(ms.facts):] == fresh
    for fid, fact_bag in kb.bag_tables[rich.key].items():
        other = kb.bag_tables[bare.key].get(fid)
        assert fact_bag == bag(tokenize(rich, kb.render_fact(fid)))
        differ += other is not None and other != fact_bag
    assert differ

    # a vocabulary read back from its file tokenizes alike: it shares the table
    rich.save(tmp_path / "v.vocab")
    assert Vocabulary.load(tmp_path / "v.vocab").key == rich.key
