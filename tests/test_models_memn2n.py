import random

import numpy as np
import pytest

from dialeval import NumericalError
from dialeval.ingest import gen_synthetic_sources
from dialeval.models import TrainConfig
from dialeval.models.embeddings import EmbedParams, embed_sum
from dialeval.models.memn2n import (
    LONG_TERM_SLOT, MemN2NParams, MemoryState, PackedBags, PreparedExample, _softmax,
    build_memory, candidate_matrix, init_memn2n, memn2n_forward, memn2n_grads,
    memn2n_train, memn2n_train_step,
)
from dialeval.models.rankers import rank_by_score
from dialeval.pipeline import build_vocab, prepare_memn2n
from dialeval.taskgen import Example, gen_discussion, gen_qa
from dialeval.templates import DEFAULT_TEMPLATES

from tests.test_models_embeddings import fd_grad, rel_err


def rand_bag(rng, V, allow_empty=False):
    lo = 0 if allow_empty else 1
    ids = rng.sample(range(2, V), rng.randint(lo, min(3, V - 2)))
    return {i: rng.randint(1, 2) for i in ids}


def random_instance(rng, n_dicts, hops=None, n_memories=None):
    V = rng.randint(5, 12)
    d = rng.randint(2, 4)
    K = hops if hops is not None else rng.choice([1, 2, 3])
    n_mem = n_memories if n_memories is not None else rng.randint(1, 3)
    max_mem = 4
    params = init_memn2n(V, d, K, max_mem, n_dicts=n_dicts,
                         seed=rng.randrange(10**6))
    ms = MemoryState(
        input_bag=rand_bag(rng, V),
        memory_bags=[rand_bag(rng, V) for _ in range(n_mem)],
        slots=[rng.randint(0, max_mem) for _ in range(n_mem)],
    )
    cands = [rand_bag(rng, V) for _ in range(rng.randint(2, 5))]
    gold = rng.randrange(len(cands))
    return params, ms, cands, gold


# -- gradients against finite differences ------------------------------------


def test_gradients_match_finite_differences_untied():
    rng = random.Random(0)
    for _ in range(40):
        p, ms, cands, gold = random_instance(rng, n_dicts=3)
        cands = PackedBags(cands)

        def loss():
            return memn2n_grads(ms, cands, gold, p)[0]

        _, grads = memn2n_grads(ms, cands, gold, p)
        assert rel_err(fd_grad(loss, p.A_in), grads["A_in"]) < 1e-4
        assert rel_err(fd_grad(loss, p.A_mem), grads["A_mem"]) < 1e-4
        assert rel_err(fd_grad(loss, p.W), grads["W"]) < 1e-4
        assert rel_err(fd_grad(loss, p.R), grads["R"]) < 1e-4
        assert rel_err(fd_grad(loss, p.T), grads["T"]) < 1e-4


def test_gradients_match_finite_differences_tied():
    """w=1 shares one matrix across all three roles: the finite-difference
    gradient of A_in must equal the sum of the per-role analytic gradients."""
    rng = random.Random(1)
    for _ in range(20):
        p, ms, cands, gold = random_instance(rng, n_dicts=1)
        cands = PackedBags(cands)
        assert p.W.base is p.A_in

        def loss():
            return memn2n_grads(ms, cands, gold, p)[0]

        _, grads = memn2n_grads(ms, cands, gold, p)
        total = grads["A_in"] + grads["A_mem"] + grads["W"].T
        assert rel_err(fd_grad(loss, p.A_in), total) < 1e-4


def test_gradients_with_empty_memory():
    rng = random.Random(2)
    for _ in range(10):
        p, ms, cands, gold = random_instance(rng, n_dicts=3)
        cands = PackedBags(cands)
        ms.memory_bags, ms.slots = [], []

        def loss():
            return memn2n_grads(ms, cands, gold, p)[0]

        _, grads = memn2n_grads(ms, cands, gold, p)
        assert rel_err(fd_grad(loss, p.A_in), grads["A_in"]) < 1e-4
        assert rel_err(fd_grad(loss, p.W), grads["W"]) < 1e-4
        assert np.all(grads["R"] == 0) and np.all(grads["T"] == 0)


# -- normalization ------------------------------------------------------------


def test_attention_and_distribution_normalized():
    rng = random.Random(3)
    for _ in range(200):
        p, ms, cands, _ = random_instance(rng, n_dicts=rng.choice([1, 2, 3]))
        scores, attentions = memn2n_forward(ms, cands, p)
        for a in attentions:
            assert abs(a.sum() - 1.0) < 1e-6
            assert np.all(a >= 0)
        dist = _softmax(scores)
        assert abs(dist.sum() - 1.0) < 1e-6


# -- reduction to the embedding model -----------------------------------------


def test_k0_empty_memory_reduces_to_embedding_ranking():
    rng = random.Random(4)
    for _ in range(50):
        p, ms, cands, _ = random_instance(rng, n_dicts=2, hops=0)
        ms.memory_bags, ms.slots = [], []
        scores, _ = memn2n_forward(ms, cands, p)
        embed = EmbedParams(p.A_in, p.W.T)
        x = embed_sum(ms.input_bag, embed.U_in)
        embed_scores = np.array([
            float(x @ embed_sum(c, embed.U_out)) for c in cands])
        labels = [str(i) for i in range(len(cands))]
        assert rank_by_score(labels, scores) == rank_by_score(labels, embed_scores)


# -- training updates ----------------------------------------------------------


def test_train_step_applies_gradients():
    rng = random.Random(5)
    p, ms, cands, gold = random_instance(rng, n_dicts=3)
    cands = PackedBags(cands)
    _, grads = memn2n_grads(ms, cands, gold, p)
    want = {name: getattr(p, name) - 0.1 * grads[name]
            for name in ("A_in", "A_mem", "W", "R", "T")}
    memn2n_train_step(ms, cands, gold, p, lr=0.1)
    for name, arr in want.items():
        np.testing.assert_allclose(getattr(p, name), arr, atol=1e-12)


def test_train_step_tied_weights_write_through_view():
    rng = random.Random(6)
    p, ms, cands, gold = random_instance(rng, n_dicts=1)
    cands = PackedBags(cands)
    _, grads = memn2n_grads(ms, cands, gold, p)
    want = p.A_in - 0.1 * (grads["A_in"] + grads["A_mem"] + grads["W"].T)
    memn2n_train_step(ms, cands, gold, p, lr=0.1)
    np.testing.assert_allclose(p.A_in, want, atol=1e-12)
    assert p.W.base is p.A_in  # the view survives the update


def copy_params(p):
    A_in = p.A_in.copy()
    A_mem = A_in if p.A_mem is p.A_in else p.A_mem.copy()
    W = A_in.T if p.W.base is p.A_in else p.W.copy()
    return MemN2NParams(A_in, A_mem, W, p.R.copy(), p.T.copy())


def dense_step(ms, cands, gold, p, lr):
    """The reference update: every dense gradient subtracted in full, in the
    order A_in, A_mem, W, R, T, shared matrices written through."""
    loss, grads = memn2n_grads(ms, cands, gold, p)
    p.A_in -= lr * grads["A_in"]
    if p.A_mem is p.A_in:
        p.A_in -= lr * grads["A_mem"]
    else:
        p.A_mem -= lr * grads["A_mem"]
    if p.W.base is p.A_in:
        p.A_in -= lr * grads["W"].T
    else:
        p.W -= lr * grads["W"]
    p.R -= lr * grads["R"]
    p.T -= lr * grads["T"]
    return loss


def assert_params_equal(got, want):
    assert got.n_dicts == want.n_dicts
    for name in ("A_in", "A_mem", "W", "R", "T"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                      err_msg=name)


def overlapping_instance(rng, n_dicts, hops, one_hot, empty_input):
    """Token ids drawn from a narrow range, so memory bags share ids with each
    other, with the input and with the candidates."""
    V, d, max_mem = 14, 4, 5
    p = init_memn2n(V, d, hops, max_mem, n_dicts=n_dicts, seed=rng.randrange(10**6))
    near = lambda n: {t: rng.randint(1, 3) for t in rng.sample(range(2, 9), n)}
    n_mem = rng.randint(2, 6)
    ms = MemoryState(
        input_bag={} if empty_input else near(rng.randint(1, 3)),
        memory_bags=[near(rng.randint(0, 4)) for _ in range(n_mem)],
        slots=[rng.randint(0, max_mem) for _ in range(n_mem)],
    )
    if one_hot:
        cands = [{t: 1} for t in range(4, V)]
    else:
        cands = [near(rng.randint(1, 4)) for _ in range(rng.randint(2, 6))]
    return p, ms, cands, rng.randrange(len(cands))


@pytest.mark.parametrize("n_dicts", [1, 2, 3])
@pytest.mark.parametrize("hops", [0, 1, 2, 3])
@pytest.mark.parametrize("one_hot", [True, False], ids=["one_hot", "multi_token"])
@pytest.mark.parametrize("empty_input", [False, True], ids=["input", "empty_input"])
def test_train_step_equals_dense_update_bit_for_bit(n_dicts, hops, one_hot, empty_input):
    rng = random.Random(1000 * n_dicts + 100 * hops + 10 * one_hot + empty_input)
    for _ in range(5):
        p, ms, cands, gold = overlapping_instance(rng, n_dicts, hops, one_hot, empty_input)
        cands = PackedBags(cands)
        ref = copy_params(p)
        for _ in range(4):  # later steps start from the updated parameters
            assert memn2n_train_step(ms, cands, gold, p, lr=0.3) == \
                dense_step(ms, cands, gold, ref, lr=0.3)
            assert_params_equal(p, ref)
        assert p.n_dicts == n_dicts  # shared matrices are still shared


def small_sets():
    kb, _, threads = gen_synthetic_sources(4, 20, 15, 10, 40)
    qa, _, _ = gen_qa(kb, DEFAULT_TEMPLATES, 4, 60, 5, 5)
    discussion, _, _, _, _ = gen_discussion(threads, (10, 10), 4)
    return kb, {"qa": qa, "discussion": discussion[:60]}


@pytest.mark.parametrize("task", ["qa", "discussion"])
@pytest.mark.parametrize("n_dicts", [1, 2, 3])
def test_train_equals_dense_reference_at_fixed_seed(task, n_dicts):
    """Two epochs of memn2n_train leave the same bits as the same epochs
    stepped with the dense gradients, on entity and on per-example
    candidate lists."""
    kb, sets = small_sets()
    examples = sets[task]
    vocab = build_vocab(examples, kb, min_freq=1)
    cfg = TrainConfig(learning_rate=0.05, dim=8, epochs=2, hops=2,
                      n_dicts=n_dicts, seed=3, max_memories=10)
    prepared, entities = prepare_memn2n(examples, vocab, kb, cfg, seed=cfg.seed)
    assert (task == "discussion") == all(ex.candidates for ex in prepared)
    init = lambda: init_memn2n(vocab.size, cfg.dim, cfg.hops, cfg.max_memories,
                               n_dicts=n_dicts, seed=cfg.seed)
    p = init()
    losses = memn2n_train(prepared, entities.bags, p, cfg)

    ref = init()
    shared = PackedBags(entities.bags)
    rng = random.Random(cfg.seed)
    order = list(range(len(prepared)))
    want_losses = []
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        total = 0.0
        for i in order:
            ex = prepared[i]
            cands = ex.candidates if ex.candidates is not None else shared
            gold = ex.gold_indices[rng.randrange(len(ex.gold_indices))]
            total += dense_step(ex.state, cands, gold, ref, cfg.learning_rate)
        want_losses.append(total / len(prepared))
    assert losses == want_losses
    assert_params_equal(p, ref)


def test_train_decreases_loss_and_is_deterministic():
    rng = random.Random(7)
    V, d = 15, 6
    prepared = []
    for _ in range(12):
        ms = MemoryState(rand_bag(rng, V), [rand_bag(rng, V)], [1])
        prepared.append(PreparedExample(ms, [rng.randrange(4)]))
    cands = [{i + 2: 1} for i in range(4)]
    cfg = TrainConfig(learning_rate=0.05, dim=d, epochs=15, hops=1, seed=0)
    p1 = init_memn2n(V, d, 1, 4, seed=0)
    l1 = memn2n_train(prepared, cands, p1, cfg)
    assert l1[-1] < l1[0]
    p2 = init_memn2n(V, d, 1, 4, seed=0)
    l2 = memn2n_train(prepared, cands, p2, cfg)
    assert l1 == l2
    np.testing.assert_array_equal(p1.A_in, p2.A_in)


def test_train_rejects_empty():
    cfg = TrainConfig()
    with pytest.raises(NumericalError):
        memn2n_train([], [{2: 1}], init_memn2n(5, 2, 1, 4), cfg)


def test_forward_rejects_no_candidates():
    p = init_memn2n(5, 2, 1, 4)
    ms = MemoryState({2: 1}, [], [])
    with pytest.raises(NumericalError):
        memn2n_forward(ms, [], p)


def test_check_finite():
    p = init_memn2n(5, 2, 1, 4)
    p.R[0, 0, 0] = np.nan
    with pytest.raises(NumericalError, match="R"):
        p.check_finite()


def test_candidate_matrix_matches_embed_sum():
    rng = random.Random(8)
    p = init_memn2n(10, 3, 1, 4, n_dicts=2, seed=1)
    cands = [rand_bag(rng, 10) for _ in range(5)]
    G = candidate_matrix(p.W, cands)
    for c, y in enumerate(cands):
        np.testing.assert_allclose(G[c], embed_sum(y, p.W.T))


# -- memory construction -------------------------------------------------------


def test_build_memory_short_term_slots(small_kb, small_vocab):
    cfg = TrainConfig(max_memories=50)
    context = [("turn one", "reply one"), ("turn two", "reply two")]
    ms = build_memory(context, "current input", None, small_vocab, cfg)
    # oldest user message gets the largest slot; most recent reply gets 1
    assert ms.slots == [4, 3, 2, 1]
    assert len(ms.memory_bags) == 4


def test_build_memory_hashes_kb_facts(small_kb, small_vocab):
    cfg = TrainConfig(max_memories=50, hash_cutoff=500)
    ms = build_memory([], "who directed kung fu hustle", small_kb, small_vocab, cfg)
    # all six kung fu hustle facts recalled, plus the two other directed_by
    # movies via the shared "directed" unigram? no: "directed" is not a fact
    # token, so exactly the six facts mentioning the movie come back
    assert len(ms.memory_bags) == 6
    assert all(s == LONG_TERM_SLOT for s in ms.slots)


def test_build_memory_respects_cutoff(small_kb, small_vocab):
    # "stephen chow" appears in 4 facts; cutoff 3 must drop that key while
    # keeping facts recalled through rarer tokens
    cfg = TrainConfig(max_memories=50, hash_cutoff=3)
    ms = build_memory([], "stephen chow", small_kb, small_vocab, cfg)
    # "stephen"/"chow" unigrams have the same frequency as the full surface
    assert len(ms.memory_bags) == 0


def test_build_memory_cap_prefers_rare_tokens(small_kb, small_vocab):
    cfg = TrainConfig(max_memories=2, hash_cutoff=500)
    ms = build_memory([], "martial arts comedy", small_kb, small_vocab, cfg)
    long_term = [b for b, s in zip(ms.memory_bags, ms.slots) if s == LONG_TERM_SLOT]
    assert len(long_term) == 2
    # "martial arts" (1 fact) is rarer than "comedy" (3 facts): its fact first
    tags_id = small_vocab.index["martial arts"]
    assert tags_id in long_term[0]


def test_build_memory_hash_n_limits_messages(small_kb, small_vocab):
    cfg_all = TrainConfig(max_memories=50)
    cfg_last = TrainConfig(max_memories=50, hash_n=1)
    context = [("i watched kung fu hustle", "nice")]
    all_msgs = build_memory(context, "ok", small_kb, small_vocab, cfg_all)
    last_only = build_memory(context, "ok", small_kb, small_vocab, cfg_last)
    n_long = lambda ms: sum(1 for s in ms.slots if s == LONG_TERM_SLOT)
    assert n_long(all_msgs) == 6   # movie mention hashes its facts
    assert n_long(last_only) == 0  # "ok" recalls nothing


def test_build_memory_examples_end_to_end(small_kb):
    ex = Example(input="who directed kung fu hustle", gold=("stephen chow",))
    vocab = build_vocab([ex], small_kb, min_freq=1)
    cfg = TrainConfig()
    ms = build_memory(list(ex.context), ex.input, small_kb, vocab, cfg)
    rendered = {small_kb.render_fact(i) for i in range(small_kb.n_facts)}
    assert ms.memory_bags, "expected recalled facts"
    director_tok = vocab.index["stephen chow"]
    assert any(director_tok in b for b in ms.memory_bags)
    assert rendered  # sanity
