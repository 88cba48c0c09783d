import numpy as np
import pytest

from dialeval import NumericalError
from dialeval.ingest import Ratings
from dialeval.models.config import rank_order
from dialeval.models.mf import MFParams, mf_scores, mf_train


def toy_ratings():
    # two taste clusters over six movies (entity ids 10..15)
    likes_a = {10: 5, 11: 5, 12: 5, 13: 1, 14: 1, 15: 1}
    likes_b = {10: 1, 11: 1, 12: 1, 13: 5, 14: 5, 15: 5}
    by_user = [dict(likes_a), dict(likes_b), dict(likes_a), dict(likes_b)]
    return Ratings([f"u{i}" for i in range(4)], by_user)


def ranked_ids(history, params):
    """Movie ids in `rank_order` of their scores."""
    ids, scores = mf_scores(history, params)
    return [ids[i] for i in rank_order(scores)]


def test_mf_overfits_toy_matrix():
    params, losses = mf_train(toy_ratings(), d=4, lr=0.05, epochs=200, seed=0)
    assert losses[-1] < 0.05
    assert losses[-1] < losses[0]


def test_mf_rank_recovers_cluster():
    params, _ = mf_train(toy_ratings(), d=4, lr=0.05, epochs=200, seed=0)
    # pseudo-user who loved two cluster-A movies should get the third first
    ranked = ranked_ids({10, 11}, params)
    assert ranked[0] == 12
    assert 10 not in ranked and 11 not in ranked  # history excluded


def test_mf_rank_empty_history():
    params, _ = mf_train(toy_ratings(), d=2, lr=0.05, epochs=10, seed=0)
    assert ranked_ids(set(), params) == []
    assert ranked_ids({999}, params) == []  # unknown movies ignored


def test_mf_rank_deterministic_ties():
    item_ids = [5, 6, 7]
    Q = np.zeros((3, 2))
    Q[0] = [1.0, 0.0]
    params = MFParams(np.zeros((1, 2)), Q, item_ids)
    ranked = ranked_ids({5}, params)
    assert ranked == [6, 7]  # equal scores break by item row order


def test_mf_train_rejects_empty():
    with pytest.raises(NumericalError):
        mf_train(Ratings([], []), d=2, lr=0.1, epochs=1)


def test_mf_train_deterministic():
    p1, l1 = mf_train(toy_ratings(), d=3, lr=0.05, epochs=20, seed=4)
    p2, l2 = mf_train(toy_ratings(), d=3, lr=0.05, epochs=20, seed=4)
    assert l1 == l2
    np.testing.assert_array_equal(p1.item_factors, p2.item_factors)
