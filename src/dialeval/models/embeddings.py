"""Supervised embedding ranker: bag-of-words sums compared by inner product.

Two flavors: a single-dictionary model scoring (Ux)·(Uy) and a
two-dictionary model scoring (U_in x)·(U_out y).  Context and input are
concatenated into one bag on the query side.  Training minimizes a margin
ranking (hinge) loss against sampled negatives by SGD, in the epoch loop
that every model shares (`config.sgd_epochs`).

Token bags are dicts where they are built; every product reads them in one
packed form, `PackedBags` (concatenated ids and counts with CSR offsets),
which memn2n shares.  `embed_train` packs the query bags, the gold bags and
the negative pool once per call, and `hinge_step` reads an example's bags
as slices of them.  A step leaves the parameters bit for bit where walking
the dict bags one negative at a time would:
- a pool of one-token bags of count 1 (the entity table) gives all the
  drawn negatives in one gather, `U_out[:, ids].T + 0.0`: the gemv that
  embeds a one-token bag turns a -0.0 entry into +0.0, and `+ 0.0` does
  the same;
- a multi-token negative keeps its own gemv, because a batched product
  changes the last bit of bags of 4 or more tokens;
- the negatives' dots are one row-wise call, `np.matmul` of 1 x d rows by
  the d x 1 query, which sums each row as `float(ex @ en)` does;
- the loss and the query's gradient are summed in draw order, and the
  updates go to the negatives in draw order, then the gold, then U_in.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import accumulate, chain

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
    return _embed(M, *as_arrays(bag))


def _embed(M: np.ndarray, ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """`embed_sum` of the bag (ids, counts): one gemv, or zeros if empty."""
    return M[:, ids] @ counts if ids.size else np.zeros(M.shape[0])


class PackedBags:
    """The one packed form of a list of token bags: concatenated (ids, counts)
    arrays, bag c's entries at `offsets[c]:offsets[c + 1]`, so that scoring,
    embedding and the training steps read embedding rows without walking the
    bags as dicts.

    Entries keep each bag's `as_arrays` order.  What only an update needs is
    computed on first use: `touched` names the distinct ids and `pos` each
    entry's index in it."""

    def __init__(self, bags: list[dict[int, int]]):
        self.offsets = np.fromiter(accumulate(map(len, bags), initial=0),
                                   dtype=np.int64, count=len(bags) + 1)
        n = int(self.offsets[-1])
        self.ids = np.fromiter(chain.from_iterable(bags), dtype=np.int64, count=n)
        self.counts = np.fromiter(chain.from_iterable(b.values() for b in bags),
                                  dtype=np.float64, count=n)

    def __len__(self) -> int:
        return self.offsets.size - 1

    @property
    def lengths(self) -> np.ndarray:
        return self.offsets[1:] - self.offsets[:-1]

    def spans(self):
        """(start, stop) of every bag's entries."""
        bounds = self.offsets.tolist()
        return zip(bounds[:-1], bounds[1:])

    def bag(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """Bag c's (ids, counts), as views."""
        start, stop = self.offsets[c:c + 2].tolist()
        return self.ids[start:stop], self.counts[start:stop]

    def entries(self, rows: np.ndarray) -> np.ndarray:
        """Entry indices of the bags `rows`, bag after bag in `rows` order."""
        if self.single_tokens:
            return rows
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        first = np.cumsum(lengths) - lengths
        return np.repeat(starts - first, lengths) + np.arange(int(lengths.sum()))

    @cached_property
    def _unique(self) -> tuple[np.ndarray, np.ndarray]:
        return np.unique(self.ids, return_inverse=True)

    @property
    def touched(self) -> np.ndarray:
        return self._unique[0]

    @property
    def pos(self) -> np.ndarray:
        return self._unique[1]

    @cached_property
    def single_tokens(self) -> bool:
        """One token of count 1 per bag: bag c embeds as column `ids[c]`."""
        return (self.ids.size == len(self) and bool(np.all(self.lengths == 1))
                and bool(np.all(self.counts == 1.0)))

    @cached_property
    def one_hot(self) -> bool:
        """Single tokens and no id twice: G is rows of W."""
        return self.single_tokens and self.touched.size == self.ids.size

    def matrix(self, W: np.ndarray) -> np.ndarray:
        """C x d matrix of output embeddings W^T y_c, one row per bag."""
        if self.one_hot:
            return W[self.ids]
        G = np.zeros((len(self), W.shape[1]))
        for c, (start, stop) in enumerate(self.spans()):
            if stop > start:
                G[c] = self.counts[start:stop] @ W[self.ids[start:stop]]
        return G


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


def hinge_step(
    p: EmbedParams,
    x: tuple[np.ndarray, np.ndarray],
    y_pos: tuple[np.ndarray, np.ndarray],
    pool: PackedBags,
    draws: list[int],
    margin: float,
    lr: float,
) -> float:
    """One sparse SGD step on the summed hinge loss of query bag x against
    gold bag y_pos and the negatives pool[draws], in draw order; x and y_pos
    are (ids, counts).  Returns the step's loss."""
    ex = _embed(p.U_in, *x)
    ep = _embed(p.U_out, *y_pos)
    score_pos = float(ex @ ep)
    drawn = np.asarray(draws, dtype=np.int64)
    if pool.single_tokens:
        # "+ 0.0" turns -0.0 into +0.0, as the gemv of a one-token bag does
        En = p.U_out[:, pool.ids[drawn]].T + 0.0
    else:
        En = np.zeros((drawn.size, p.dim))
        bounds = pool.offsets[drawn].tolist(), pool.offsets[drawn + 1].tolist()
        for r, (start, stop) in enumerate(zip(*bounds)):
            if stop > start:
                En[r] = p.U_out[:, pool.ids[start:stop]] @ pool.counts[start:stop]
    violations = (margin - score_pos) + np.matmul(En[:, None, :], ex[:, None])[:, 0, 0]
    active = ~(violations <= 0)  # a NaN counts, as in a loop
    if not active.any():
        return 0.0
    # both sums run in draw order (np.sum adds 8 or more terms pairwise); d_ex
    # starts from its first row, which gives what starting from zeros would,
    # since no row is -0.0: a gemv never returns -0.0 and the gather adds 0.0
    loss = 0.0
    for v in violations[active].tolist():
        loss += v
    d_ex = np.add.accumulate(En[active] - ep)[-1]
    # all embeddings are read before any column is written, so the update is
    # one SGD step at the current parameters; subtract.at applies a column
    # drawn twice twice, in draw order
    n_active = int(np.count_nonzero(active))
    neg = pool.entries(drawn[active])
    np.subtract.at(p.U_out, (slice(None), pool.ids[neg]),
                   lr * (ex[:, None] * pool.counts[neg]))
    p_ids, p_counts = y_pos
    if p_ids.size:
        p.U_out[:, p_ids] += lr * n_active * (ex[:, None] * p_counts)
    x_ids, x_counts = x
    if x_ids.size:
        p.U_in[:, x_ids] -= lr * (d_ex[:, None] * x_counts)
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
    uniform negatives from neg_pool.  The bags are packed here once."""
    cfg.validate()
    queries = PackedBags([x for x, _ in data])
    golds = PackedBags([y for _, y in data])
    pool = PackedBags(neg_pool)
    rng = random.Random(cfg.seed)
    randrange, n_pool = rng.randrange, len(pool)

    def step(i: int) -> float:
        draws = [randrange(n_pool) for _ in range(cfg.n_neg)]
        return hinge_step(params, queries.bag(i), golds.bag(i), pool, draws,
                          cfg.margin, cfg.learning_rate)

    epoch_losses = sgd_epochs(
        len(data), step, lambda: check_finite(U_in=params.U_in, U_out=params.U_out),
        cfg.epochs, rng, log_fn)
    return params, epoch_losses
