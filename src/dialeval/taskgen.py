"""Generators for the four task families and their joint mixture.

Every generated unit is an Example: prior context turns, the current user
input, a gold answer set (entity symbols) or gold response text, and a
candidate specification (the whole entity table, or an explicit response
pool for discussion ranking).
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field

from dialeval import DataError
from dialeval.ingest import Ratings, ThreadCorpus
from dialeval.kb import KnowledgeBase
from dialeval.templates import CLASS_EDGES, QUESTION_CLASSES, TemplateSet, fill, join_titles

log = logging.getLogger(__name__)

MAX_DIALOG_RETRIES = 20


@dataclass
class Example:
    input: str
    gold: tuple[str, ...]
    context: tuple[tuple[str, str], ...] = ()
    task_tag: str = "qa"
    question_class: str | None = None
    response_position: int = 1
    dialog_id: int = 0
    # None -> rank the whole entity table; otherwise a shared tuple of
    # negative responses (the explicit candidate list is gold[0] followed
    # by this pool)
    candidate_pool: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.gold:
            raise DataError("example with empty gold set")
        if self.response_position != len(self.context) + 1:
            raise DataError("response_position inconsistent with context length")
        if self.candidate_pool is not None and self.gold[0] in self.candidate_pool:
            raise DataError("gold response duplicated in candidate pool")

    def explicit_candidates(self) -> list[str]:
        if self.candidate_pool is None:
            raise DataError("example ranks the entity table, not an explicit list")
        return [self.gold[0], *self.candidate_pool]


def _answer_set(kb: KnowledgeBase, qclass: str, subject: str) -> set[str]:
    relation, direction = CLASS_EDGES[qclass]
    if direction == "forward":
        return kb.query_objects(subject, relation)
    return kb.query_subjects(relation, subject)


def _class_subjects(kb: KnowledgeBase, qclass: str) -> list[str]:
    relation, direction = CLASS_EDGES[qclass]
    if direction == "forward":
        subjects = {s for s, r, _ in kb.triples if r == relation}
    else:
        subjects = {o for _, r, o in kb.triples if r == relation}
    return sorted(kb.entities[i] for i in subjects)


def gen_qa(
    kb: KnowledgeBase,
    templates: TemplateSet,
    seed: int,
    n_train: int,
    n_dev: int,
    n_test: int,
) -> tuple[list[Example], list[Example], list[Example]]:
    """Factoid questions over all supported question classes.

    The splits are disjoint in (template, substituted entity) pairs: each pair
    occurs in exactly one split (train may repeat its own pairs if asked for
    more examples than the pool holds).
    """
    rng = random.Random(seed)
    combos: list[tuple[str, int, str]] = []
    for qclass in QUESTION_CLASSES:
        if CLASS_EDGES[qclass] is None:
            log.warning("question class %s has no supporting KB edge; skipped", qclass)
            continue
        subjects = _class_subjects(kb, qclass)
        if not subjects:
            log.warning("question class %s has no facts in this KB; skipped", qclass)
            continue
        for t_idx in range(len(templates.qa[qclass])):
            combos.extend((qclass, t_idx, subj) for subj in subjects)
    if not combos:
        raise DataError("no question class has KB support")
    rng.shuffle(combos)
    if n_test + n_dev >= len(combos):
        raise DataError(
            f"dev+test sizes ({n_dev + n_test}) exhaust the {len(combos)} available "
            "(template, entity) pairs; nothing left for train"
        )

    def realize(combo: tuple[str, int, str], dialog_id: int) -> Example:
        qclass, t_idx, subj = combo
        gold = tuple(sorted(_answer_set(kb, qclass, subj)))
        slot = templates.qa[qclass][t_idx]
        slot_name = slot[slot.index("[@") + 2:slot.index("]", slot.index("[@"))]
        return Example(
            input=fill(slot, **{slot_name: subj}),
            gold=gold,
            task_tag="qa",
            question_class=qclass,
            dialog_id=dialog_id,
        )

    test_c = combos[:n_test]
    dev_c = combos[n_test:n_test + n_dev]
    rest = combos[n_test + n_dev:]
    if n_train <= len(rest):
        train_c = rest[:n_train]
    else:
        train_c = rest + rng.choices(rest, k=n_train - len(rest))
    did = 0
    out = []
    for split in (train_c, dev_c, test_c):
        exs = []
        for combo in split:
            exs.append(realize(combo, did))
            did += 1
        out.append(exs)
    return out[0], out[1], out[2]


def _eligible_users(ratings: Ratings, users: list[int] | None) -> list[int]:
    pool = range(ratings.n_users) if users is None else users
    return [u for u in pool if len(ratings.five_star(u)) >= 2]


def gen_recs(
    ratings: Ratings,
    kb: KnowledgeBase,
    templates: TemplateSet,
    seed: int,
    n_examples: int,
    users: list[int] | None = None,
    dialog_id_base: int = 0,
) -> list[Example]:
    """Statements listing 1-8 five-star movies; gold drawn from the remainder.

    Users are sampled with replacement; pass disjoint user subsets to keep
    train/dev/test separated.
    """
    rng = random.Random(seed)
    eligible = _eligible_users(ratings, users)
    if not eligible:
        raise DataError("no user has at least 2 five-star movies")
    out = []
    for i in range(n_examples):
        user = rng.choice(eligible)
        five = [kb.entities[m] for m in ratings.five_star(user)]
        k = rng.randint(1, min(8, len(five) - 1))
        liked = rng.sample(five, k)
        remaining = [m for m in five if m not in liked]
        gold = rng.choice(remaining)
        statement = fill(rng.choice(templates.recs), movies=join_titles(liked))
        out.append(Example(
            input=statement,
            gold=(gold,),
            task_tag="recs",
            dialog_id=dialog_id_base + i,
        ))
    return out


_DIALOG_PROPERTIES = ("movie_to_actors", "movie_to_director", "movie_to_tags")


def gen_qarecs(
    kb: KnowledgeBase,
    ratings: Ratings,
    templates: TemplateSet,
    seed: int,
    n_dialogs: int,
    users: list[int] | None = None,
    dialog_id_base: int = 0,
) -> list[Example]:
    """Three-exchange dialogs: targeted recommendation, anaphoric factoid
    question about the suggestion, then an alternative request constrained by
    the original topic plus a stated property preference.

    Dialogs whose joint third-exchange constraint cannot be satisfied within
    MAX_DIALOG_RETRIES resamples are skipped (count logged).
    """
    rng = random.Random(seed)
    eligible = _eligible_users(ratings, users)
    if not eligible:
        raise DataError("no user has at least 2 five-star movies")
    out: list[Example] = []
    skipped = 0
    for d in range(n_dialogs):
        dialog = None
        for _ in range(MAX_DIALOG_RETRIES):
            dialog = _try_dialog(kb, ratings, templates, rng, eligible)
            if dialog is not None:
                break
        if dialog is None:
            skipped += 1
            continue
        for pos, (ctx, inp, gold, qclass) in enumerate(dialog, 1):
            out.append(Example(
                input=inp,
                gold=gold,
                context=tuple(ctx),
                task_tag="qarecs",
                question_class=qclass,
                response_position=pos,
                dialog_id=dialog_id_base + d,
            ))
    if skipped:
        log.warning("skipped %d/%d dialogs with unsatisfiable constraints", skipped, n_dialogs)
    return out


def _try_dialog(kb, ratings, templates, rng, eligible):
    user = rng.choice(eligible)
    five = [kb.entities[m] for m in ratings.five_star(user)]
    k = rng.randint(1, min(8, len(five) - 1))
    liked = rng.sample(five, k)
    remaining = [m for m in five if m not in liked]

    # exchange 1: topic constraint taken from the gold's own genres/tags
    candidates1 = []
    for movie in remaining:
        topics = sorted(kb.query_objects(movie, "has_genre") | kb.query_objects(movie, "has_tags"))
        if topics:
            candidates1.append((movie, topics))
    if not candidates1:
        return None
    gold1, topics = rng.choice(candidates1)
    topic = rng.choice(topics)
    opener = fill(rng.choice(templates.dialog_opener),
                  movies=join_titles(liked), topic=topic)

    # exchange 2: factoid question about the suggestion, property uniform over
    # actors / director / tags
    qclass = rng.choice(_DIALOG_PROPERTIES)
    relation = CLASS_EDGES[qclass][0]
    answers2 = sorted(kb.query_objects(gold1, relation))
    if not answers2:
        return None
    question = rng.choice(templates.dialog_question[qclass])

    # exchange 3: another movie with the same topic, plus a preference of the
    # same property type as exchange 2; prefer the user's own five-star movies
    topic_movies = (kb.query_subjects("has_genre", topic)
                    | kb.query_subjects("has_tags", topic))
    pool3 = sorted(topic_movies - {gold1} - set(liked))
    if not pool3:
        return None
    preferred = [m for m in pool3 if m in remaining]
    gold3_seed = rng.choice(preferred if preferred else pool3)
    values3 = sorted(kb.query_objects(gold3_seed, relation))
    if not values3:
        return None
    value = rng.choice(values3)
    gold3 = tuple(sorted(
        (m for m in pool3 if value in kb.query_objects(m, relation))
    ))
    if not gold3:
        return None
    preference = fill(rng.choice(templates.dialog_preference), value=value)

    reply1 = gold1
    reply2 = ", ".join(answers2)
    return [
        ([], opener, (gold1,), None),
        ([(opener, reply1)], question, tuple(answers2), qclass),
        ([(opener, reply1), (question, reply2)], preference, gold3, None),
    ]


def gen_discussion(
    threads: ThreadCorpus,
    pool_sizes: tuple[int, int],
    seed: int,
    split: tuple[float, float, float] = (0.8, 0.1, 0.1),
) -> tuple[list[Example], list[Example], list[Example], list[str], list[str]]:
    """One ranking example per exchange with full prior context.

    Dev and test examples carry explicit candidate lists: the gold response
    plus a shared negative pool.  Pools are taken from the corpus's held-out
    responses and must be disjoint from every dialog response.
    """
    rng = random.Random(seed)
    n_dev_pool, n_test_pool = pool_sizes
    responses = {reply for dialog in threads.dialogs for _, reply in dialog}
    held_out = [c for c in threads.candidate_pool]
    for c in held_out:
        if c in responses:
            raise DataError(f"candidate pool response also appears in a dialog: {c!r}")
    if len(held_out) < n_dev_pool + n_test_pool:
        raise DataError(
            f"candidate pool has {len(held_out)} responses, need "
            f"{n_dev_pool + n_test_pool} for the dev+test pools"
        )
    rng.shuffle(held_out)
    dev_pool = held_out[:n_dev_pool]
    test_pool = held_out[n_dev_pool:n_dev_pool + n_test_pool]

    order = list(range(len(threads.dialogs)))
    rng.shuffle(order)
    n = len(order)
    n_train = int(round(split[0] * n))
    n_dev = int(round(split[1] * n))
    buckets = (order[:n_train], order[n_train:n_train + n_dev], order[n_train + n_dev:])

    def examples(dialog_ids, pool: tuple[str, ...] | None) -> list[Example]:
        out = []
        for d in dialog_ids:
            dialog = threads.dialogs[d]
            for pos, (post, reply) in enumerate(dialog, 1):
                out.append(Example(
                    input=post,
                    gold=(reply,),
                    context=tuple(dialog[:pos - 1]),
                    task_tag="discussion",
                    response_position=pos,
                    dialog_id=d,
                    candidate_pool=pool,
                ))
        return out

    train = examples(buckets[0], None)
    dev = examples(buckets[1], tuple(dev_pool))
    test = examples(buckets[2], tuple(test_pool))
    return train, dev, test, dev_pool, test_pool


def gen_joint(
    task_sets: dict[str, list[Example]],
    proportions: dict[str, float],
    seed: int,
    n_examples: int | None = None,
) -> list[Example]:
    """Seeded interleaving of per-task example streams.

    Each drawn example keeps its own context and task tag (the conversation is
    reset at every sample).  Examples from a multi-turn dialog stay in order.
    """
    tags = sorted(proportions)
    total = sum(proportions.values())
    if abs(total - 1.0) > 1e-9:
        raise DataError(f"proportions sum to {total}, expected 1")
    for tag in tags:
        if proportions[tag] > 0 and not task_sets.get(tag):
            raise DataError(f"nonzero proportion for empty task set {tag!r}")
    active = [t for t in tags if proportions[t] > 0]
    weights = [proportions[t] for t in active]
    rng = random.Random(seed)
    cursors = {t: 0 for t in active}
    if n_examples is None:
        n_examples = sum(len(task_sets[t]) for t in active)
    out: list[Example] = []
    next_dialog = 0
    while len(out) < n_examples:
        tag = rng.choices(active, weights=weights)[0]
        src = task_sets[tag]
        i = cursors[tag]
        ex = src[i]
        # pull the remainder of this dialog so contexts stay within it
        group = [ex]
        j = i + 1
        while j < len(src) and src[j].dialog_id == ex.dialog_id and src[j].response_position > 1:
            group.append(src[j])
            j += 1
        cursors[tag] = j % len(src) if j >= len(src) else j
        for g in group:
            out.append(Example(
                input=g.input, gold=g.gold, context=g.context,
                task_tag=g.task_tag, question_class=g.question_class,
                response_position=g.response_position, dialog_id=next_dialog,
                candidate_pool=g.candidate_pool,
            ))
        next_dialog += 1
    return out[:n_examples] if len(out) > n_examples else out
