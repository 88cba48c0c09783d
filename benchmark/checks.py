"""Correctness checks on what the program produced.  Each returns a list of
problems; an empty list means the check passed.  The benchmark's own tests
feed each one a broken input to show that it fails when it should."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np

REL_TOL = 1e-9


def round_trip(written: dict[str, list], read: dict[str, list]) -> tuple[list[str], int]:
    """Examples read back from the split files equal, field by field, the
    ones the task generator produced.

    One known difference is counted, not failed: a dialog reply in a later
    turn's context that the generator wrote as the earlier example's gold
    answers joined by ', ' and the split file holds joined by '|'.  Any other
    difference fails.  Returns the problems and the number of examples with
    such a rewritten context."""
    problems = []
    rewritten = 0
    for split, before in written.items():
        after = read.get(split, [])
        if len(before) != len(after):
            problems.append(f"{split}: wrote {len(before)} examples, read {len(after)}")
            continue
        for i, (a, b) in enumerate(zip(before, after)):
            if a == b:
                continue
            if replace(a, context=b.context) == b and _joined_replies_only(before, i, b):
                rewritten += 1
                continue
            problems.append(f"{split}[{i}]: read back {b!r}, wrote {a!r}")
            break
    return problems, rewritten


def _joined_replies_only(written: list, i: int, read) -> bool:
    """Every context turn of written[i] that differs from the one read back
    is the reply to turn j, ', '.join of the gold of the dialog's example at
    position j + 1, read back as '|'.join of it."""
    a = written[i]
    if len(a.context) != len(read.context):
        return False
    for j, (turn, back) in enumerate(zip(a.context, read.context)):
        if turn == back:
            continue
        k = i - len(a.context) + j
        if turn[0] != back[0] or k < 0:
            return False
        prev = written[k]
        if prev.dialog_id != a.dialog_id or prev.response_position != j + 1:
            return False
        if turn[1] != ", ".join(prev.gold) or back[1] != "|".join(prev.gold):
            return False
    return True


def golds(examples: list, vocab) -> list[str]:
    """Entity-task golds are vocabulary entities; an explicit candidate list
    holds its gold exactly once."""
    problems = []
    for i, ex in enumerate(examples):
        if ex.candidate_pool is not None:
            n = ex.explicit_candidates().count(ex.gold[0])
            if n != 1:
                problems.append(f"example {i}: gold appears {n} times in its list")
        if ex.task_tag == "discussion":
            continue
        for g in ex.gold:
            tid = vocab.index.get(g)
            if tid is None or not vocab.is_entity(tid):
                problems.append(f"example {i}: gold {g!r} is not a vocabulary entity")
    return problems


def permutation(ranking: list[str], candidates: list[str]) -> list[str]:
    if len(ranking) != len(candidates) or Counter(ranking) != Counter(candidates):
        return [f"ranking of {len(ranking)} labels is not a permutation of "
                f"the {len(candidates)} candidates"]
    return []


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def reference_order(ranking: list[str], index: dict[str, int],
                    ref: np.ndarray) -> tuple[list[str], int]:
    """The ranking must be non-increasing under the reference scores, within
    REL_TOL.  Returns the problems and the number of adjacent near-ties."""
    problems = []
    near_ties = 0
    scores = [ref[index[label]] for label in ranking]
    for pos in range(len(scores) - 1):
        a, b = scores[pos], scores[pos + 1]
        if _close(a, b):
            near_ties += 1
        elif a < b:
            problems.append(f"rank {pos}: reference score {a!r} below next {b!r}")
            break
    return problems, near_ties


def reference_hit(gold_indices: list[int], ref: np.ndarray, k: int) -> int:
    """hits@k from reference ranks, with the program's tie rule (lower index
    first) applied to scores within REL_TOL."""
    for g in gold_indices:
        s = ref[g]
        close = np.abs(ref - s) <= REL_TOL * np.maximum(np.abs(ref), abs(s))
        above = np.count_nonzero((ref > s) & ~close)
        above += np.count_nonzero(close[:g])
        if above < k:
            return 1
    return 0


def kb_recall(state, kb, hash_tokens: list[str], cfg, fact_bag) -> list[str]:
    """KB memories (slot 0) are bags of facts kb.hash_lookup returns for the
    same query tokens and cutoff, min(max_memories, hits) of them."""
    hits = kb.hash_lookup(hash_tokens, cfg.hash_cutoff)
    allowed = Counter(_key(fact_bag(f)) for f in hits)
    got = Counter(_key(b) for b, s in zip(state.memory_bags, state.slots) if s == 0)
    problems = []
    want = min(cfg.max_memories, len(hits))
    if sum(got.values()) != want:
        problems.append(f"{sum(got.values())} KB memories, expected min("
                        f"{cfg.max_memories}, {len(hits)}) = {want}")
    if got - allowed:
        problems.append(f"{sum((got - allowed).values())} KB memories are not "
                        "bags of hash_lookup facts")
    return problems


def _key(b: dict[int, int]) -> frozenset:
    return frozenset(b.items())


def matrices_equal(trained: dict[str, np.ndarray],
                   loaded: dict[str, np.ndarray]) -> list[str]:
    """Bit-for-bit equality of every named matrix."""
    problems = []
    for name, a in trained.items():
        b = loaded.get(name)
        if b is None:
            problems.append(f"{name}: missing from the model file")
        elif a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
            problems.append(f"{name}: differs from the trained matrix")
    return problems


def learning(losses: list[float], hits_pct: float | None, chance_pct: float | None,
             model: str) -> list[str]:
    problems = []
    if len(losses) > 1 and not losses[-1] < losses[0]:
        problems.append(f"{model}: last-epoch loss {losses[-1]} not below first {losses[0]}")
    if chance_pct is not None and not hits_pct > chance_pct:
        problems.append(f"{model}: hits@k {hits_pct:.3f}% not above chance {chance_pct:.3f}%")
    return problems
