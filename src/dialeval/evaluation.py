"""hits@k evaluation with per-question-type, per-response-position and
entity-matched breakdowns."""

from __future__ import annotations

from dataclasses import dataclass, field

from dialeval import DataError
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


def evaluate(ranker, examples: list[Example], k: int,
             vocab: Vocabulary | None = None) -> EvalReport:
    """Mean hits@k (in percent) plus breakdown cells.  Ranking ties must
    already be broken deterministically by the ranker."""
    report = EvalReport(k=k)
    for idx, ex in enumerate(examples):
        if ex.candidate_pool is not None and ex.gold[0] in ex.candidate_pool:
            raise DataError(f"example {idx}: gold duplicated in candidate pool")
        ranked = ranker.rank(ex)
        if ex.candidate_pool is not None and not set(ex.gold) & set(ranked):
            raise DataError(f"example {idx}: gold missing from explicit candidates")
        hit = hits_at_k(ranked, ex.gold, k)
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
