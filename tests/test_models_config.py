"""The SGD epoch loop that trains every model, and the errors it reports."""

import random

import numpy as np
import pytest

from dialeval import DataError, NumericalError
from dialeval.ingest import Ratings
from dialeval.models import TrainConfig
from dialeval.models.config import check_finite, sgd_epochs
from dialeval.models.embeddings import TWO_DICT, embed_train, init_embed
from dialeval.models.memn2n import MemoryState, PreparedExample, init_memn2n, memn2n_train
from dialeval.models.mf import mf_train


def test_sgd_epochs_visits_each_example_once_per_epoch_in_rng_order():
    seen, logged = [], []
    losses = sgd_epochs(5, lambda i: seen.append(i) or float(i), lambda: None, 3,
                        random.Random(4), lambda epoch, loss: logged.append((epoch, loss)))
    rng, order, want = random.Random(4), list(range(5)), []
    for _ in range(3):
        rng.shuffle(order)
        want += order
    assert seen == want
    assert losses == [2.0, 2.0, 2.0]
    assert logged == [(0, 2.0), (1, 2.0), (2, 2.0)]


def test_sgd_epochs_names_the_epoch_and_example_of_an_error():
    def step(i):
        if i == 3 and len(calls) > 5:
            raise NumericalError("boom")
        calls.append(i)
        return 0.0

    calls = []
    with pytest.raises(NumericalError, match=r"^epoch 1 example 3: boom$"):
        sgd_epochs(5, step, lambda: None, 3, random.Random(0))

    def check():
        check_finite(ok=np.zeros(2), bad=np.array([np.inf]))

    with pytest.raises(NumericalError, match=r"^after epoch 0: non-finite values in bad$"):
        sgd_epochs(2, lambda i: 0.0, check, 3, random.Random(0))
    with pytest.raises(NumericalError, match="empty training data"):
        sgd_epochs(0, lambda i: 0.0, lambda: None, 1, random.Random(0))


def first_in_order(n, seed):
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order[0]


def test_memn2n_error_names_epoch_and_example():
    cfg = TrainConfig(learning_rate=0.1, dim=3, epochs=2, seed=5)
    prepared = [PreparedExample(MemoryState({2 + i: 1}, [{3: 1}], [1]), [0])
                for i in range(6)]
    p = init_memn2n(9, 3, 1, 4, seed=0)
    p.A_in[:] = np.nan
    with pytest.raises(NumericalError, match=rf"^epoch 0 example {first_in_order(6, 5)}: "
                                             "non-finite cross-entropy loss$"):
        memn2n_train(prepared, [{2: 1}, {4: 1}], p, cfg)


def test_supemb_error_names_epoch_and_example():
    cfg = TrainConfig(learning_rate=0.1, dim=3, epochs=2, n_neg=2, seed=8)
    data = [({2 + i: 1}, {7: 1}) for i in range(5)]
    p = init_embed(9, 3, TWO_DICT, seed=0)
    p.U_in[:] = np.nan
    with pytest.raises(NumericalError, match=rf"^epoch 0 example {first_in_order(5, 8)}: "
                                             "non-finite hinge loss$"):
        embed_train(data, [{3: 1}, {8: 1}], cfg, params=p)


def test_mf_error_names_epoch_and_example():
    ratings = Ratings(["u0", "u1"], [{10: 4}, {10: 3, 11: float("inf")}])
    # triples in user then movie order: the infinite rating is example 2
    with pytest.raises(NumericalError, match=r"^epoch 0 example 2: non-finite squared error$"):
        mf_train(ratings, d=2, lr=0.01, epochs=2)


def test_cfg_value_of_the_wrong_type_is_a_data_error():
    with pytest.raises(DataError, match="dim='three': expected int"):
        TrainConfig.from_text("dim=three\n")
    assert TrainConfig.from_text(TrainConfig(dim=3).to_text()) == TrainConfig(dim=3)
