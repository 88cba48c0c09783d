"""Matrix-factorization recommender: SGD on squared error over observed
ratings; at test time a pseudo-user vector is least-squares fit to the
five-star history and items are ranked by predicted score."""

from __future__ import annotations

import math

import numpy as np

from dialeval import NumericalError
from dialeval.ingest import Ratings
from dialeval.models.config import INIT_STD, check_finite, sgd_epochs


class MFParams:
    def __init__(self, user_factors: np.ndarray, item_factors: np.ndarray,
                 item_ids: list[int]):
        self.user_factors = user_factors    # n_users x d
        self.item_factors = item_factors    # n_items x d
        self.item_ids = item_ids            # row -> KB entity id
        self.item_index = {e: i for i, e in enumerate(item_ids)}

    @property
    def dim(self) -> int:
        return self.item_factors.shape[1]


def mf_train(ratings: Ratings, d: int, lr: float, epochs: int, seed: int = 0,
             log_fn=None) -> tuple[MFParams, list[float]]:
    """SGD on the squared error of every observed rating; returns the factors
    and each epoch's mean squared error."""
    item_ids = ratings.movie_ids()
    item_index = {e: i for i, e in enumerate(item_ids)}
    triples = [
        (u, item_index[m], float(r))
        for u, per_user in enumerate(ratings.by_user)
        for m, r in sorted(per_user.items())
    ]
    rng = np.random.default_rng(seed)
    P = rng.normal(0.0, INIT_STD, size=(ratings.n_users, d))
    Q = rng.normal(0.0, INIT_STD, size=(len(item_ids), d))

    def step(idx: int) -> float:
        u, i, r = triples[idx]
        err = r - float(P[u] @ Q[i])
        loss = err * err
        if not math.isfinite(loss):
            raise NumericalError("non-finite squared error")
        pu = P[u].copy()
        P[u] += lr * (err * Q[i])
        Q[i] += lr * (err * pu)
        return loss

    epoch_losses = sgd_epochs(len(triples), step, lambda: check_finite(P=P, Q=Q),
                              epochs, rng, log_fn)
    return MFParams(P, Q, item_ids), epoch_losses


def mf_scores(history: set[int], params: MFParams) -> tuple[list[int], np.ndarray]:
    """KB entity ids of the movies outside a user's five-star history, in
    item row order, and the user's predicted score for each."""
    rows = [params.item_index[m] for m in sorted(history) if m in params.item_index]
    if not rows:
        return [], np.empty(0)
    Q = params.item_factors[rows]
    target = np.full(len(rows), 5.0)
    d = params.dim
    # tiny ridge keeps the solve well-posed for short histories
    u = np.linalg.solve(Q.T @ Q + 1e-8 * np.eye(d), Q.T @ target)
    hist_rows = set(rows)
    keep = [i for i in range(len(params.item_ids)) if i not in hist_rows]
    return [params.item_ids[i] for i in keep], (params.item_factors @ u)[keep]
