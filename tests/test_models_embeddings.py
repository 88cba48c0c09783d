import random

import numpy as np
import pytest

from dialeval import NumericalError
from dialeval.models import TrainConfig
from dialeval.models.embeddings import (
    SINGLE_DICT, TWO_DICT, EmbedParams, PackedBags, as_arrays, embed_score, embed_sum,
    embed_train, hinge_step, init_embed,
)

from tests import embedding_reference as reference
from tests.embedding_reference import hinge_loss_and_grads


def fd_grad(f, arr, h=1e-6):
    """Central finite differences, entry by entry."""
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        fp = f()
        arr[idx] = orig - h
        fm = f()
        arr[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def random_instance(rng, variant):
    V = rng.randint(4, 12)
    d = rng.randint(2, 4)
    params = init_embed(V, d, variant, seed=rng.randrange(10**6))

    def rand_bag():
        ids = rng.sample(range(2, V), rng.randint(1, min(3, V - 2)))
        return {i: rng.randint(1, 2) for i in ids}

    x, y_pos = rand_bag(), rand_bag()
    y_negs = [rand_bag() for _ in range(rng.randint(1, 4))]
    return params, x, y_pos, y_negs


def away_from_hinge_kink(params, x, y_pos, y_negs, margin):
    ex = embed_sum(x, params.U_in)
    sp = float(ex @ embed_sum(y_pos, params.U_out))
    return all(
        abs(margin - sp + float(ex @ embed_sum(n, params.U_out))) > 1e-3
        for n in y_negs
    )


def test_embed_score_hand_example():
    U_in = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
    U_out = np.array([[0.5, 1.0, 0.0], [1.0, 0.0, 1.0]])
    p = EmbedParams(U_in, U_out)
    # x = col0 + 2*col2 = (5, -2); y = col1 = (1, 0) -> score 5
    assert embed_score({0: 1, 2: 2}, {1: 1}, p) == pytest.approx(5.0)


def test_single_dict_aliases_output():
    p = init_embed(6, 3, SINGLE_DICT, seed=0)
    assert p.U_out is p.U_in
    assert p.single_dict
    q = init_embed(6, 3, TWO_DICT, seed=0)
    assert q.U_out is not q.U_in


@pytest.mark.parametrize("variant", [TWO_DICT, SINGLE_DICT])
def test_hinge_gradients_match_finite_differences(variant):
    rng = random.Random(42)
    margin = 0.2
    checked = 0
    while checked < 30:
        params, x, y_pos, y_negs = random_instance(rng, variant)
        if not away_from_hinge_kink(params, x, y_pos, y_negs, margin):
            continue
        loss, g_in, g_out = hinge_loss_and_grads(params, x, y_pos, y_negs, margin)
        if loss == 0.0:
            continue

        def f():
            return hinge_loss_and_grads(params, x, y_pos, y_negs, margin)[0]

        if variant == SINGLE_DICT:
            # one parameter matrix: total gradient is the sum of both roles
            assert rel_err(fd_grad(f, params.U_in), g_in + g_out) < 1e-4
        else:
            assert rel_err(fd_grad(f, params.U_in), g_in) < 1e-4
            assert rel_err(fd_grad(f, params.U_out), g_out) < 1e-4
        checked += 1


@pytest.mark.parametrize("variant", [TWO_DICT, SINGLE_DICT])
def test_hinge_step_equals_dense_update(variant):
    rng = random.Random(7)
    lr, margin = 0.05, 0.2
    for _ in range(20):
        params, x, y_pos, y_negs = random_instance(rng, variant)
        _, g_in, g_out = hinge_loss_and_grads(params, x, y_pos, y_negs, margin)
        want_in = params.U_in - lr * (g_in + g_out if variant == SINGLE_DICT else g_in)
        want_out = want_in if variant == SINGLE_DICT else params.U_out - lr * g_out
        hinge_step(params, as_arrays(x), as_arrays(y_pos), PackedBags(y_negs),
                   list(range(len(y_negs))), margin, lr)
        np.testing.assert_allclose(params.U_in, want_in, atol=1e-12)
        np.testing.assert_allclose(params.U_out, want_out, atol=1e-12)


def test_hinge_step_noop_without_violation():
    p = init_embed(6, 3, TWO_DICT, seed=1)
    before_in, before_out = p.U_in.copy(), p.U_out.copy()
    # margin 0 and y_neg == y_pos gives violation exactly 0: no update
    loss = hinge_step(p, as_arrays({2: 1}), as_arrays({3: 1}), PackedBags([{3: 1}]), [0],
                      0.0, 0.1)
    assert loss == 0.0
    np.testing.assert_array_equal(p.U_in, before_in)
    np.testing.assert_array_equal(p.U_out, before_out)


def test_embed_train_decreases_loss():
    rng = random.Random(0)
    V = 20
    data = []
    for i in range(2, 12):
        data.append(({i: 1}, {i + 8: 1} if i + 8 < V else {i: 1}))
    pool = [{j: 1} for j in range(2, V)]
    cfg = TrainConfig(learning_rate=0.1, dim=8, epochs=20, n_neg=5, seed=0)
    params, losses = embed_train(data, pool, cfg, init_embed(V, cfg.dim, TWO_DICT, cfg.seed))
    assert losses[-1] < losses[0]


def test_embed_train_rejects_empty():
    cfg = TrainConfig()
    with pytest.raises(NumericalError):
        embed_train([], [{2: 1}], cfg, init_embed(3, cfg.dim, TWO_DICT, cfg.seed))


def test_embed_train_deterministic():
    data = [({2: 1}, {3: 1}), ({4: 1}, {5: 1})]
    pool = [{j: 1} for j in range(2, 6)]
    cfg = TrainConfig(learning_rate=0.05, dim=4, epochs=5, n_neg=3, seed=9)
    p1, l1 = embed_train(data, pool, cfg, init_embed(6, cfg.dim, TWO_DICT, cfg.seed))
    p2, l2 = embed_train(data, pool, cfg, init_embed(6, cfg.dim, TWO_DICT, cfg.seed))
    assert l1 == l2
    np.testing.assert_array_equal(p1.U_in, p2.U_in)


def assert_same_bits(a, b):
    """Equal values and equal signs, so that -0.0 and +0.0 differ too."""
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


def bit_instance(pool_kind, variant, d):
    """Training data, a negative pool and parameters that reach every case the
    packed step handles: an empty query bag and an empty gold bag, a one-hot
    entity pool or a pool of 0- to 8-token bags, and -0.0 entries in U_in and
    U_out (row 0; at d = 1 only the entities' columns, so that the other
    columns still train)."""
    rng = random.Random(5)
    V = 40
    words = range(2, 30)
    entities = list(range(30, 38))

    def words_bag(lo, hi):
        return {i: rng.randint(1, 3) for i in rng.sample(words, rng.randint(lo, hi))}

    if pool_kind == "entities":
        pool = [{e: 1} for e in entities]
        golds = [{rng.choice(entities): 1} for _ in range(24)]
    else:
        pool = [words_bag(1, 8) for _ in range(7)] + [{}]
        golds = [words_bag(1, 6) for _ in range(24)]
    golds[5] = {}
    queries = [words_bag(1, 6) for _ in range(24)]
    queries[3] = {}
    params = init_embed(V, d, variant, seed=3)
    zero_cols = slice(None) if d > 1 else slice(entities[0], None)
    params.U_in[0, zero_cols] = -0.0
    params.U_out[0, zero_cols] = -0.0
    return list(zip(queries, golds)), pool, params


@pytest.mark.parametrize("d", [1, 8])
@pytest.mark.parametrize("pool_kind", ["entities", "responses"])
@pytest.mark.parametrize("variant", [SINGLE_DICT, TWO_DICT])
def test_embed_train_equals_dict_reference_bit_for_bit(pool_kind, variant, d):
    # 12 draws from a pool of 8 draw some negative twice in every step, and a
    # margin of 0.5 keeps most of them active
    cfg = TrainConfig(learning_rate=0.05, dim=d, epochs=5, margin=0.5, n_neg=12, seed=4)
    data, pool, params = bit_instance(pool_kind, variant, d)
    want_data, want_pool, want = bit_instance(pool_kind, variant, d)
    _, losses = embed_train(data, pool, cfg, params)
    _, want_losses = reference.embed_train(want_data, want_pool, cfg, want)
    assert losses == want_losses
    assert_same_bits(params.U_in, want.U_in)
    assert_same_bits(params.U_out, want.U_out)
    assert (params.U_out is params.U_in) == (variant == SINGLE_DICT)
    # some -0.0 entries survive training, so their sign is checked
    assert np.signbit(params.U_out[0][params.U_out[0] == 0.0]).any()
