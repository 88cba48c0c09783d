"""Multi-hop attention network over short-term dialog turns and hashed
knowledge-base facts, trained by SGD on a cross-entropy ranking loss.

Forward pass, for input bag b, memory bags x_i with time slots s_i:

    u_0 = A_in b            m_i = A_mem x_i + T[s_i]
    hop k:  p = softmax(u_{k-1} . m_i)   o = R_k sum_i p_i m_i   u_k = o + u_{k-1}
    score_c = u_K . (W^T y_c)            dist = softmax(scores)

With no memory all hops are skipped and the model degenerates to a
two-dictionary embedding scorer.  Backprop is written out by hand:
`memn2n_grads` returns dense gradients, which the tests check against central
finite differences, and `memn2n_train_step` applies the same update to the
embedding columns the example's bags name, leaving the same bits.

Token bags are dicts where they are built; every product reads them in one
packed form, `embeddings.PackedBags` (concatenated ids and counts with CSR
offsets), which supemb shares.  `prepare_memn2n` packs each training
example's memories and its own candidate list once (`PreparedExample`),
`memn2n_train` packs the shared entity list once per call, and a ranker
packs each pool once.
`memn2n_train` runs the SGD epoch loop every model shares
(`config.sgd_epochs`).

Where facts are featurized and embedded: `build_memory` takes each recalled
fact's bag from `KnowledgeBase.fact_bags`, which tokenizes a fact once per
vocabulary and shares the bag read-only, and records the fact ids in
`MemoryState.facts`.  Training embeds every memory with one gemv per bag on
every step, since A_mem moves.  A ranker's parameters are fixed, so
`MemN2NRanker` keeps each fact's row A_mem x_f from its first recall, made
by the same gemv (`embed_bags`), and `memn2n_forward` copies those rows in
and embeds only the dialog turns: the scores keep their bits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from dialeval import NumericalError
from dialeval.kb import KnowledgeBase
from dialeval.models.config import INIT_STD, TrainConfig, check_finite, sgd_epochs
from dialeval.models.embeddings import PackedBags, as_arrays
from dialeval.text import Vocabulary, bag, tokenize

LONG_TERM_SLOT = 0


@dataclass
class MemoryState:
    """Embeddable view of one dialog position: prior turns, hashed facts and
    the current input, all as token bags.  `facts` are the ids of the
    recalled facts, whose bags end `memory_bags`."""

    input_bag: dict[int, int]
    memory_bags: list[dict[int, int]]
    slots: list[int]
    facts: list[int] = field(default_factory=list)


class MemN2NParams:
    def __init__(self, A_in, A_mem, W, R, T):
        self.A_in = A_in      # d x V input embedding
        self.A_mem = A_mem    # d x V memory embedding (may alias A_in)
        self.W = W            # V x d output embedding (may be a transposed
                              # view of A_in when dictionaries are shared)
        self.R = R            # K x d x d per-hop rotations
        self.T = T            # (max_memories + 1) x d time features; row 0 is
                              # reserved for long-term (KB) memories

    @property
    def hops(self) -> int:
        return self.R.shape[0]

    @property
    def dim(self) -> int:
        return self.A_in.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.A_in.shape[1]

    @property
    def n_dicts(self) -> int:
        if self.W.base is self.A_in:
            return 1
        return 2 if self.A_mem is self.A_in else 3

    def check_finite(self) -> None:
        check_finite(A_in=self.A_in, A_mem=self.A_mem, W=self.W, R=self.R, T=self.T)


def init_memn2n(V: int, d: int, hops: int, max_memories: int,
                n_dicts: int = 1, seed: int = 0) -> MemN2NParams:
    rng = np.random.default_rng(seed)
    A_in = rng.normal(0.0, INIT_STD, size=(d, V))
    A_mem = A_in if n_dicts < 3 else rng.normal(0.0, INIT_STD, size=(d, V))
    # n_dicts == 1 ties the output columns to the input embedding
    W = A_in.T if n_dicts == 1 else rng.normal(0.0, INIT_STD, size=(V, d))
    R = rng.normal(0.0, INIT_STD, size=(hops, d, d))
    T = rng.normal(0.0, INIT_STD, size=(max_memories + 1, d))
    return MemN2NParams(A_in, A_mem, W, R, T)


# ---------------------------------------------------------------------------
# memory construction


def build_memory(
    context: list[tuple[str, str]],
    input_text: str,
    kb: KnowledgeBase | None,
    vocab: Vocabulary,
    cfg: TrainConfig,
) -> MemoryState:
    """Short-term items are the prior turns (time slots counting backwards
    from the most recent reply); long-term items are the KB facts that
    `KnowledgeBase.recall` finds for the tokens of the last hash_n messages
    (0 = all, input included), at most max_memories of them, with the bags
    `KnowledgeBase.fact_bags` shares.  Each message is tokenized once, for
    its bag and for recall."""
    messages = [tokenize(vocab, text) for turn in context for text in turn]
    messages.append(tokenize(vocab, input_text))
    memory_bags = [bag(ids) for ids in messages[:-1]]
    n_turns = len(context)
    # turn idx contributes slots 2*(n_turns-idx) and 2*(n_turns-idx)-1
    slots = [min(2 * (n_turns - idx) - j, cfg.max_memories)
             for idx in range(n_turns) for j in (0, 1)]
    facts: list[int] = []
    if kb is not None and kb.n_facts:
        recent = messages[-cfg.hash_n:] if cfg.hash_n > 0 else messages
        tokens = {vocab.symbols[tid] for ids in recent for tid in ids}
        facts = kb.recall(tokens, cfg.hash_cutoff, cfg.max_memories)
        memory_bags += kb.fact_bags(facts, vocab)
        slots += [LONG_TERM_SLOT] * len(facts)
    return MemoryState(bag(messages[-1]), memory_bags, slots, facts)


# ---------------------------------------------------------------------------
# forward / backward


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def sum_by_id(pos: np.ndarray, n_ids: int, entry_rows: np.ndarray) -> np.ndarray:
    """One row per distinct id, where entry e holds the `pos[e]`-th: the rows
    of its entries added to zeros one at a time in entry order, the order of
    a dense `X[ids] += ...` loop over the bags."""
    d = entry_rows.shape[1]
    out = np.zeros(n_ids * d)
    # unbuffered, one element at a time; on the flat index it is far
    # faster than row-wise np.add.at
    np.add.at(out, (pos[:, None] * d + np.arange(d)).ravel(), entry_rows.ravel())
    return out.reshape(n_ids, d)


def candidate_matrix(W: np.ndarray, candidate_bags: list[dict[int, int]]) -> np.ndarray:
    """C x d matrix of output embeddings W^T y_c; cache this for fixed pools."""
    return PackedBags(candidate_bags).matrix(W)


def embed_bags(A: np.ndarray, bags: PackedBags) -> np.ndarray:
    """A x_i for every bag x_i, one gemv per bag (zeros for an empty bag)."""
    M = np.zeros((len(bags), A.shape[0]))
    for i, (start, stop) in enumerate(bags.spans()):
        if stop > start:
            M[i] = A[:, bags.ids[start:stop]] @ bags.counts[start:stop]
    return M


def memn2n_forward(
    ms: MemoryState,
    candidate_bags: list[dict[int, int]],
    p: MemN2NParams,
    G: np.ndarray | None = None,
    _cache: dict | None = None,
    memories: PackedBags | None = None,
    fact_rows: np.ndarray | None = None,
):
    """Candidate scores (pre-softmax) and the attention vector of every hop.

    m_i = A_mem x_i + T[s_i].  `memories` is `ms.memory_bags` packed, if
    the caller keeps it.  `fact_rows` holds A_mem x_f for each of
    `ms.facts`, in order, if the caller keeps those: then only the dialog
    turns are embedded here, and the rows are copied in for the rest."""
    if not candidate_bags and G is None:
        raise NumericalError("no candidates to score")
    ids, counts = as_arrays(ms.input_bag)
    u = p.A_in[:, ids] @ counts if ids.size else np.zeros(p.dim)
    attentions: list[np.ndarray] = []
    us = [u]
    if fact_rows is None:
        if memories is None:
            memories = PackedBags(ms.memory_bags)
        M = embed_bags(p.A_mem, memories)
    else:  # a ranker's pass: nothing here is cached for an update
        turns = PackedBags(ms.memory_bags[:len(ms.memory_bags) - len(ms.facts)])
        M = np.vstack([embed_bags(p.A_mem, turns), fact_rows])
    if len(M):
        M += p.T[ms.slots]
        for k in range(p.hops):
            attn = _softmax(M @ u)
            c = attn @ M
            o = p.R[k] @ c
            u = o + u
            attentions.append(attn)
            us.append(u)
    if G is None:
        G = candidate_matrix(p.W, candidate_bags)
    scores = G @ u
    if _cache is not None:
        _cache.update(M=M, us=us, attentions=attentions, G=G, memories=memories)
    return scores, attentions


def _backprop_hops(p: MemN2NParams, cache: dict, dq: np.ndarray):
    """From dL/du_K back through the hops: dL/du_0, dL/dM and dL/dR."""
    M, us, attentions = cache["M"], cache["us"], cache["attentions"]
    dR = np.zeros_like(p.R)
    dM = np.zeros_like(M)
    du = dq
    for k in range(len(attentions) - 1, -1, -1):
        u_prev = us[k]
        attn = attentions[k]
        c_vec = attn @ M
        do = du
        dR[k] = np.outer(do, c_vec)
        dc = p.R[k].T @ do
        dp = M @ dc
        da = attn * (dp - float(attn @ dp))
        dM += np.outer(attn, dc) + np.outer(da, u_prev)
        du = du + da @ M  # residual path plus attention match
    return du, dM, dR


def _forward_loss(ms: MemoryState, candidates: PackedBags, gold_idx: int,
                  p: MemN2NParams, memories: PackedBags | None = None):
    """Forward cache, loss -log softmax(scores)[gold] and dL/dscores."""
    if not len(candidates):
        raise NumericalError("no candidates to score")
    cache: dict = {}
    scores, _ = memn2n_forward(ms, [], p, G=candidates.matrix(p.W), _cache=cache,
                               memories=memories)
    dist = _softmax(scores)
    loss = -float(np.log(max(dist[gold_idx], 1e-300)))
    dz = dist.copy()
    dz[gold_idx] -= 1.0
    return cache, loss, dz


def memn2n_grads(ms: MemoryState, candidates: PackedBags, gold_idx: int,
                 p: MemN2NParams):
    """Loss -log softmax(scores)[gold] and dense gradients for every
    parameter matrix (A_in / A_mem / W reported separately even when tied).
    Training does not call this; it is the reference that the
    finite-difference tests check and that `memn2n_train_step` matches."""
    cache, loss, dz = _forward_loss(ms, candidates, gold_idx, p)

    dW = np.zeros_like(p.W)
    q = cache["us"][-1]
    for c, (start, stop) in enumerate(candidates.spans()):
        if stop > start:
            dW[candidates.ids[start:stop]] += dz[c] * np.outer(
                candidates.counts[start:stop], q)
    # dq = sum_c dz_c W^T y_c
    du, dM, dR = _backprop_hops(p, cache, cache["G"].T @ dz)

    dA_in = np.zeros_like(p.A_in)
    ids, counts = as_arrays(ms.input_bag)
    if ids.size:
        dA_in[:, ids] += np.outer(du, counts)
    dA_mem = np.zeros_like(p.A_mem)
    dT = np.zeros_like(p.T)
    for i, (x, slot) in enumerate(zip(ms.memory_bags, ms.slots)):
        x_ids, x_counts = as_arrays(x)
        if x_ids.size:
            dA_mem[:, x_ids] += np.outer(dM[i], x_counts)
        dT[slot] += dM[i]
    return loss, {"A_in": dA_in, "A_mem": dA_mem, "W": dW, "R": dR, "T": dT}


def memn2n_train_step(ms: MemoryState, candidates: PackedBags, gold_idx: int,
                      p: MemN2NParams, lr: float,
                      memories: PackedBags | None = None) -> float:
    """One SGD step on -log softmax(scores)[gold].  Only the embedding columns
    that the input, memory and candidate bags name are read and written, yet
    every parameter ends bit for bit where subtracting lr * memn2n_grads(...)
    from A_in, A_mem, W, R and T, in that order, would leave it: the same
    products are summed in the same order, and the columns no bag names
    would only have had zero subtracted.  `memories` is `ms.memory_bags`
    packed, if the caller keeps it; the memories are embedded afresh every
    step, since A_mem moves."""
    cache, loss, dz = _forward_loss(ms, candidates, gold_idx, p, memories)
    if not np.isfinite(loss):
        raise NumericalError("non-finite cross-entropy loss")

    # dense: dW[ids_c] += dz_c * outer(counts_c, q), bag by bag
    q = cache["us"][-1]
    dz_entries = np.repeat(dz, candidates.lengths)[:, None]
    dW_rows = sum_by_id(candidates.pos, candidates.touched.size,
                        dz_entries * (candidates.counts[:, None] * q))
    du, dM, dR = _backprop_hops(p, cache, cache["G"].T @ dz)
    # dense: dA_mem[:, ids_i] += outer(dM_i, counts_i) and dT[slot_i] += dM_i
    memories = cache["memories"]
    # found anew every step: kept on every prepared example, the memories'
    # distinct ids would cost more memory than they save time
    mem_ids, mem_pos = np.unique(memories.ids, return_inverse=True)
    dM_entries = np.repeat(dM, memories.lengths, axis=0)
    dA_mem = sum_by_id(mem_pos, mem_ids.size, dM_entries * memories.counts[:, None])
    dT = np.zeros_like(p.T)
    np.add.at(dT, np.asarray(ms.slots, dtype=np.int64), dM)

    ids, counts = as_arrays(ms.input_bag)
    if ids.size:
        p.A_in[:, ids] -= lr * np.outer(du, counts)
    p.A_mem[:, mem_ids] -= lr * dA_mem.T  # A_mem may be A_in itself
    # W may be a transposed view of A_in: the update writes through it
    p.W[candidates.touched] -= lr * dW_rows
    p.R -= lr * dR
    p.T -= lr * dT
    return loss


@dataclass
class PreparedExample:
    state: MemoryState
    gold_indices: list[int]   # indices into the candidate list
    candidates: PackedBags | None = None  # None: the shared set
    memories: PackedBags = field(init=False)  # the state's memory bags, packed once

    def __post_init__(self):
        self.memories = PackedBags(self.state.memory_bags)


def memn2n_train(
    prepared: list[PreparedExample],
    shared_candidates: list[dict[int, int]],
    params: MemN2NParams,
    cfg: TrainConfig,
    log_fn=None,
) -> list[float]:
    """SGD epochs over prepared examples, each against its own candidates or
    else the shared list, packed here once per call; multi-gold examples
    train against a seeded-random gold each step.  Returns per-epoch mean
    losses."""
    cfg.validate()
    shared = PackedBags(shared_candidates)
    rng = random.Random(cfg.seed)

    def step(i: int) -> float:
        ex = prepared[i]
        gold = ex.gold_indices[rng.randrange(len(ex.gold_indices))]
        cands = shared if ex.candidates is None else ex.candidates
        return memn2n_train_step(ex.state, cands, gold, params, cfg.learning_rate,
                                 ex.memories)

    return sgd_epochs(len(prepared), step, params.check_finite, cfg.epochs, rng, log_fn)
