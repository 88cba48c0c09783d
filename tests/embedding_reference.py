"""Dict-walking references for the supervised embedding model.

`hinge_loss_and_grads` gives the hinge loss with dense gradients, which the
finite-difference tests check.  `hinge_step` and `embed_train` are the
training step and loop that walk the dict bags one negative at a time, one
gemv per bag; `dialeval.models.embeddings` must leave every parameter and
loss bit for bit where these do.
"""

from __future__ import annotations

import random

import numpy as np

from dialeval import NumericalError
from dialeval.models.config import TrainConfig, check_finite, sgd_epochs
from dialeval.models.embeddings import EmbedParams, as_arrays, embed_sum


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
