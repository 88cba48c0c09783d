"""Supervised embedding ranker: bag-of-words sums compared by inner product.

Two flavors: a single-dictionary model scoring (Ux)·(Uy) and a
two-dictionary model scoring (U_in x)·(U_out y).  Context and input are
concatenated into one bag on the query side.  Training minimizes a margin
ranking (hinge) loss against sampled negatives by SGD, in the epoch loop
that every model shares (`config.sgd_epochs`).
"""

from __future__ import annotations

import random

import numpy as np

from dialeval import NumericalError
from dialeval.models.config import INIT_STD, TrainConfig, check_finite, sgd_epochs

SINGLE_DICT = "single_dict"
TWO_DICT = "two_dict"


def as_arrays(bag: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    if not bag:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    ids = np.fromiter(bag.keys(), dtype=np.int64, count=len(bag))
    counts = np.fromiter(bag.values(), dtype=np.float64, count=len(bag))
    return ids, counts


def embed_sum(bag: dict[int, int], M: np.ndarray) -> np.ndarray:
    """Count-weighted sum of the columns of M (d x V) named by the bag."""
    ids, counts = as_arrays(bag)
    if ids.size == 0:
        return np.zeros(M.shape[0])
    return M[:, ids] @ counts


class EmbedParams:
    def __init__(self, U_in: np.ndarray, U_out: np.ndarray | None = None):
        self.U_in = U_in
        self.U_out = U_in if U_out is None else U_out

    @property
    def single_dict(self) -> bool:
        return self.U_out is self.U_in

    @property
    def variant(self) -> str:
        return SINGLE_DICT if self.single_dict else TWO_DICT

    @property
    def dim(self) -> int:
        return self.U_in.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.U_in.shape[1]


def init_embed(V: int, d: int, variant: str, seed: int = 0) -> EmbedParams:
    rng = np.random.default_rng(seed)
    U_in = rng.normal(0.0, INIT_STD, size=(d, V))
    if variant == SINGLE_DICT:
        return EmbedParams(U_in)
    return EmbedParams(U_in, rng.normal(0.0, INIT_STD, size=(d, V)))


def embed_score(x: dict[int, int], y: dict[int, int], p: EmbedParams) -> float:
    return float(embed_sum(x, p.U_in) @ embed_sum(y, p.U_out))


def hinge_loss_and_grads(
    p: EmbedParams,
    x: dict[int, int],
    y_pos: dict[int, int],
    y_negs: list[dict[int, int]],
    margin: float,
):
    """Sum of max(0, margin - f(x,y+) + f(x,y-)) over negatives, with dense
    gradients for U_in and U_out (reported separately even when aliased)."""
    d, V = p.U_in.shape
    ex = embed_sum(x, p.U_in)
    ep = embed_sum(y_pos, p.U_out)
    g_in = np.zeros((d, V))
    g_out = np.zeros((d, V))
    x_ids, x_counts = as_arrays(x)
    p_ids, p_counts = as_arrays(y_pos)
    loss = 0.0
    for y_neg in y_negs:
        en = embed_sum(y_neg, p.U_out)
        violation = margin - float(ex @ ep) + float(ex @ en)
        if violation <= 0:
            continue
        loss += violation
        diff = en - ep
        if x_ids.size:
            g_in[:, x_ids] += np.outer(diff, x_counts)
        if p_ids.size:
            g_out[:, p_ids] -= np.outer(ex, p_counts)
        n_ids, n_counts = as_arrays(y_neg)
        if n_ids.size:
            g_out[:, n_ids] += np.outer(ex, n_counts)
    return loss, g_in, g_out


def hinge_step(
    p: EmbedParams,
    x: dict[int, int],
    y_pos: dict[int, int],
    y_negs: list[dict[int, int]],
    margin: float,
    lr: float,
) -> float:
    """One sparse SGD update; returns the summed hinge loss of the step."""
    ex = embed_sum(x, p.U_in)
    ep = embed_sum(y_pos, p.U_out)
    score_pos = float(ex @ ep)
    x_ids, x_counts = as_arrays(x)
    p_ids, p_counts = as_arrays(y_pos)
    d_ex = np.zeros(p.dim)
    loss = 0.0
    active: list[dict[int, int]] = []
    for y_neg in y_negs:
        en = embed_sum(y_neg, p.U_out)
        violation = margin - score_pos + float(ex @ en)
        if violation <= 0:
            continue
        loss += violation
        active.append(y_neg)
        d_ex += en - ep
    # all embeddings are read before any column is written, so the update is
    # one SGD step at the current parameters
    for y_neg in active:
        n_ids, n_counts = as_arrays(y_neg)
        if n_ids.size:
            p.U_out[:, n_ids] -= lr * np.outer(ex, n_counts)
    if active:
        if p_ids.size:
            p.U_out[:, p_ids] += lr * len(active) * np.outer(ex, p_counts)
        if x_ids.size:
            p.U_in[:, x_ids] -= lr * np.outer(d_ex, x_counts)
    if not np.isfinite(loss):
        raise NumericalError("non-finite hinge loss")
    return loss


def embed_train(
    data: list[tuple[dict[int, int], dict[int, int]]],
    neg_pool: list[dict[int, int]],
    cfg: TrainConfig,
    params: EmbedParams,
    log_fn=None,
) -> tuple[EmbedParams, list[float]]:
    """SGD on `params`, in place, over (query bag, gold bag) pairs with
    uniform negatives from neg_pool."""
    cfg.validate()
    rng = random.Random(cfg.seed)

    def step(i: int) -> float:
        x, y_pos = data[i]
        negs = [neg_pool[rng.randrange(len(neg_pool))] for _ in range(cfg.n_neg)]
        return hinge_step(params, x, y_pos, negs, cfg.margin, cfg.learning_rate)

    epoch_losses = sgd_epochs(
        len(data), step, lambda: check_finite(U_in=params.U_in, U_out=params.U_out),
        cfg.epochs, rng, log_fn)
    return params, epoch_losses
