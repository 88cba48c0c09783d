"""hits@k evaluation with per-question-type, per-response-position and
entity-matched breakdowns.

`evaluate` asks a ranker for `score(example)`, the candidate labels and
their scores, once per example, and takes the hit from the best gold's
rank under `config.rank_order`'s rule without sorting: the candidates
ranked before the gold are those scored above it plus those scored equal
at lower indices (Berrendorf et al. 2020 count a rank the same way).  So
its hits are those of `hits_at_k` over `Ranker.rank`'s list.  The golds'
indices come from the ranker's entity table, from an index of the
example's pool built once per pool, or else from a scan of the labels.
A score that is not finite is refused with `NumericalError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dialeval import DataError, NumericalError
from dialeval.taskgen import Example
from dialeval.templates import QUESTION_CLASSES
from dialeval.text import Vocabulary, tokenize


def hits_at_k(ranked: list, gold, k: int) -> int:
    """1 iff any gold member appears in the first k ranked candidates."""
    if k < 1:
        raise DataError("k must be >= 1")
    gold_set = set(gold)
    if not gold_set:
        raise DataError("empty gold set")
    return int(any(c in gold_set for c in ranked[:k]))


@dataclass
class Cell:
    hits: int = 0
    count: int = 0

    def add(self, hit: int) -> None:
        self.hits += hit
        self.count += 1

    @property
    def percent(self) -> float:
        return 100.0 * self.hits / self.count if self.count else 0.0


@dataclass
class EvalReport:
    k: int
    overall: Cell = field(default_factory=Cell)
    by_class: dict[str, Cell] = field(default_factory=dict)
    by_position: dict[str, Cell] = field(default_factory=dict)
    by_task: dict[str, Cell] = field(default_factory=dict)
    entity_matched: Cell = field(default_factory=Cell)
    # examples whose best gold's score equals a non-gold candidate's; not a
    # row of the report
    gold_tied: int = 0

    def rows(self) -> list[tuple[str, str, float, int]]:
        out = [("overall", f"hits@{self.k}", self.overall.percent, self.overall.count)]
        for cls in QUESTION_CLASSES:
            cell = self.by_class.get(cls, Cell())
            out.append(("type", cls, cell.percent, cell.count))
        for pos in ("1", "2", "3+"):
            cell = self.by_position.get(pos, Cell())
            out.append(("position", pos, cell.percent, cell.count))
        for task in sorted(self.by_task):
            cell = self.by_task[task]
            out.append(("task", task, cell.percent, cell.count))
        out.append(("entity_matched", "subset", self.entity_matched.percent,
                    self.entity_matched.count))
        return out


def is_entity_matched(example: Example, vocab: Vocabulary) -> bool:
    """Input mentions an entity and the gold response mentions a different one."""
    in_ents = {t for t in tokenize(vocab, example.input) if vocab.is_entity(t)}
    if not in_ents:
        return False
    for g in example.gold:
        gold_ents = {t for t in tokenize(vocab, g) if vocab.is_entity(t)}
        if gold_ents - in_ents:
            return True
    return False


class PoolIndex:
    """One candidate pool's responses as a set and as a list, made once per
    pool object that `evaluate` meets."""

    def __init__(self, pool: tuple[str, ...]):
        self.pool = pool
        self.members = set(pool)
        self.tail = list(pool)

    def gold_positions(self, gold: tuple[str, ...], labels: list[str]) -> list[int] | None:
        """Indices of the golds in `labels` when they are the explicit list
        [gold[0], *pool], else None."""
        if (len(labels) != len(self.tail) + 1 or labels[0] != gold[0]
                or labels[1:] != self.tail):
            return None
        extra = {g for g in gold[1:] if g in self.members}
        if not extra:
            return [0]
        return [0] + [i for i, c in enumerate(self.tail, 1) if c in extra]


def gold_rank(scores: np.ndarray, gold_at: list[int]) -> tuple[int, bool]:
    """The best gold's place in `rank_order(scores)` (0 is first), and
    whether its score equals a non-gold candidate's.  The best gold is the
    one scored highest, the lowest index among equals; `rank_order` puts
    before it the candidates scored above it and those scored equal to it
    at lower indices, so the rank is counted, not sorted."""
    at = gold_at if len(gold_at) == 1 else sorted(set(gold_at))
    values = [scores.item(i) for i in at]
    s = max(values)
    g = at[values.index(s)]
    equal = scores == s
    rank = np.count_nonzero(scores > s) + np.count_nonzero(equal[:g])
    return int(rank), bool(np.count_nonzero(equal) > values.count(s))


def evaluate(ranker, examples: list[Example], k: int,
             vocab: Vocabulary | None = None) -> EvalReport:
    """Mean hits@k (in percent) plus breakdown cells.  `ranker.score(ex)`
    gives the candidate labels and their scores; ties are broken by
    candidate index, as `Ranker.rank` breaks them."""
    if k < 1:
        raise DataError("k must be >= 1")
    report = EvalReport(k=k)
    entities = getattr(ranker, "entities", None)
    pools: dict[int, PoolIndex] = {}  # by id; each entry holds its pool alive
    for idx, ex in enumerate(examples):
        gold, pool = ex.gold, ex.candidate_pool
        if not gold:
            raise DataError(f"example {idx}: empty gold set")
        if pool is not None:
            index = pools.get(id(pool))
            if index is None or index.pool is not pool:
                index = pools[id(pool)] = PoolIndex(pool)
            if gold[0] in index.members:
                raise DataError(f"example {idx}: gold duplicated in candidate pool")
        try:
            labels, scores = ranker.score(ex)
        except DataError as e:
            raise DataError(f"example {idx}: {e}") from None
        if not np.isfinite(scores).all():
            bad = len(scores) - np.count_nonzero(np.isfinite(scores))
            raise NumericalError(f"example {idx}: {bad} of {len(scores)} candidate "
                                 "scores are not finite")
        gold_at = None
        if pool is not None:
            gold_at = index.gold_positions(gold, labels)
        elif entities is not None and labels is entities.labels:
            gold_at = [i for i in map(entities.index.get, gold) if i is not None]
        if gold_at is None:
            gold_set = set(gold)
            gold_at = [i for i, c in enumerate(labels) if c in gold_set]
            if pool is not None and not gold_at:
                raise DataError(f"example {idx}: gold missing from explicit candidates")
        hit = 0
        if gold_at:
            rank, tied = gold_rank(scores, gold_at)
            hit = int(rank < k)
            report.gold_tied += tied
        report.overall.add(hit)
        if ex.question_class is not None:
            report.by_class.setdefault(ex.question_class, Cell()).add(hit)
        pos = str(ex.response_position) if ex.response_position < 3 else "3+"
        report.by_position.setdefault(pos, Cell()).add(hit)
        report.by_task.setdefault(ex.task_tag, Cell()).add(hit)
        if vocab is not None and is_entity_matched(ex, vocab):
            report.entity_matched.add(hit)
    return report


def format_report(report: EvalReport, breakdown: str | None = None) -> str:
    """Aligned plain-text table; breakdown selects 'type' or 'position'."""
    rows = report.rows()
    if breakdown:
        keep = {"overall", breakdown, "entity_matched"}
        rows = [r for r in rows if r[0] in keep]
    width = max(len(c) for _, c, _, _ in rows)
    lines = [f"{'partition':<16} {'cell':<{max(width, 20)}} {'hits@k':>8} {'count':>8}"]
    for part, cell, pct, count in rows:
        lines.append(f"{part:<16} {cell:<{max(width, 20)}} {pct:8.1f} {count:8d}")
    return "\n".join(lines)


def report_tsv(report: EvalReport) -> str:
    lines = ["partition\tcell\thits\tcount"]
    for part, cell, pct, count in report.rows():
        lines.append(f"{part}\t{cell}\t{pct:.4f}\t{count}")
    return "\n".join(lines) + "\n"
