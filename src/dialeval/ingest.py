"""Loaders for triples / ratings / discussion threads, plus a synthetic source
generator for desk-scale runs.

File formats (all UTF-8):
  triples:  subject\trelation\tobject     (# comments allowed)
  ratings:  user\tmovie\trating           (rating an integer 1..5)
  threads:  one JSON object per line: {"id":…, "parent_id":…|null, "body":…}
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from dialeval import DataError
from dialeval.kb import KnowledgeBase


@dataclass
class Ratings:
    """Sparse user x movie matrix; movie keys are KB entity ids."""

    user_ids: list[str]
    by_user: list[dict[int, int]]
    dropped_unknown: int = 0
    dropped_sparse: int = 0

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    def five_star(self, user: int) -> list[int]:
        return sorted(m for m, r in self.by_user[user].items() if r == 5)

    def movie_ids(self) -> list[int]:
        seen = sorted({m for ratings in self.by_user for m in ratings})
        return seen


@dataclass
class ThreadCorpus:
    """Dyadic dialogs: each an ordered list of (post, reply) exchanges."""

    dialogs: list[list[tuple[str, str]]]
    candidate_pool: list[str] = field(default_factory=list)


def load_triples(path) -> KnowledgeBase:
    kb = KnowledgeBase()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected exactly 2 tabs, got {len(parts) - 1}")
            try:
                kb.add_triple(parts[0], parts[1], parts[2])
            except DataError as e:
                raise DataError(f"{path}:{lineno}: {e}") from e
    return kb


def save_triples(kb: KnowledgeBase, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for s, r, o in kb.triples:
            f.write(f"{kb.entities[s]}\t{r}\t{kb.entities[o]}\n")


def load_ratings(path, kb: KnowledgeBase) -> Ratings:
    """Keep only KB movies with >= 2 ratings; compact user ids by first appearance."""
    raw: dict[str, dict[int, int]] = {}
    order: list[str] = []
    dropped_unknown = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected user\\tmovie\\trating")
            user, movie, rating_s = parts
            try:
                rating = int(rating_s)
            except ValueError:
                raise DataError(f"{path}:{lineno}: rating {rating_s!r} is not an integer")
            if not 1 <= rating <= 5:
                raise DataError(f"{path}:{lineno}: rating {rating} outside 1..5")
            mid = kb.entity_id(movie)
            if mid is None or not kb.is_movie(movie):
                dropped_unknown += 1
                continue
            if user not in raw:
                raw[user] = {}
                order.append(user)
            raw[user][mid] = rating

    counts: dict[int, int] = {}
    for ratings in raw.values():
        for m in ratings:
            counts[m] = counts.get(m, 0) + 1
    sparse = {m for m, c in counts.items() if c < 2}
    dropped_sparse = 0
    user_ids: list[str] = []
    by_user: list[dict[int, int]] = []
    for user in order:
        kept = {m: r for m, r in raw[user].items() if m not in sparse}
        dropped_sparse += len(raw[user]) - len(kept)
        if kept:
            user_ids.append(user)
            by_user.append(kept)
    return Ratings(user_ids, by_user, dropped_unknown, dropped_sparse)


def save_ratings(ratings: Ratings, kb: KnowledgeBase, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for user, per_user in zip(ratings.user_ids, ratings.by_user):
            for mid, r in sorted(per_user.items()):
                f.write(f"{user}\t{kb.entities[mid]}\t{r}\n")


def load_threads(path) -> ThreadCorpus:
    """Flatten reply trees into dyadic dialogs by following first replies.

    "First reply" = the child record with the smallest id.  A root post and
    its first reply form exchange 1; the first reply to that reply starts
    exchange 2, and so on.  Dialogs without a complete exchange are dropped.

    The held-out candidate pool is the distinct bodies, in file order, of
    the reply records on no dialog's first-reply chain whose text is no
    dialog's reply.
    """
    body: dict[str, str] = {}
    children: dict[str, list[str]] = {}
    roots: list[str] = []
    replies: list[tuple[str, str]] = []  # (id, body) of every reply record
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                rid, parent, text = rec["id"], rec["parent_id"], rec["body"]
            except (json.JSONDecodeError, KeyError, TypeError) as e:
                raise DataError(f"{path}:{lineno}: bad thread record: {e}") from e
            rid = str(rid)
            body[rid] = str(text)
            if parent is None:
                roots.append(rid)
            else:
                children.setdefault(str(parent), []).append(rid)
                replies.append((rid, body[rid]))

    dialogs: list[list[tuple[str, str]]] = []
    on_chain: set[str] = set()
    for root in roots:
        chain = [root]
        seen = {root}
        cur = root
        while True:
            kids = children.get(cur)
            if not kids:
                break
            nxt = min(kids)
            if nxt in seen:
                raise DataError(f"cyclic parent references at record {nxt!r}")
            if nxt not in body:
                break
            chain.append(nxt)
            seen.add(nxt)
            cur = nxt
        exchanges = [
            (body[chain[i]], body[chain[i + 1]])
            for i in range(0, len(chain) - 1, 2)
        ]
        if exchanges:
            dialogs.append(exchanges)
            on_chain.update(chain)
    dialog_replies = {reply for dialog in dialogs for _, reply in dialog}
    pool = dict.fromkeys(text for rid, text in replies
                         if rid not in on_chain and text not in dialog_replies)
    return ThreadCorpus(dialogs, list(pool))


# ---------------------------------------------------------------------------
# synthetic sources


_ADJECTIVES = [
    "silver", "iron", "crimson", "broken", "silent", "electric", "lost",
    "golden", "midnight", "savage", "frozen", "burning", "hidden", "final",
    "wild", "pale", "distant", "hollow", "rising", "fallen", "lonely",
    "scarlet", "ancient", "neon", "rusty", "velvet", "bitter", "gentle",
]
_NOUNS = [
    "river", "garden", "empire", "horizon", "echo", "harbor", "mountain",
    "mirror", "tide", "lantern", "orchard", "meadow", "station", "voyage",
    "winter", "summer", "shadow", "crown", "compass", "letter", "bridge",
    "island", "forest", "signal", "engine", "anthem", "circus", "parade",
]
_FIRST_NAMES = [
    "ana", "boris", "clara", "diego", "elena", "felix", "greta", "hugo",
    "ines", "jonas", "karla", "luis", "marta", "nils", "olga", "pavel",
    "rosa", "stefan", "tamara", "viktor", "wanda", "yuri", "zoe", "oscar",
]
_LAST_NAMES = [
    "almeida", "bergman", "castillo", "dvorak", "eriksen", "fontaine",
    "garcia", "holm", "ivanov", "jansen", "kovacs", "lindgren", "moreau",
    "novak", "ortega", "petrov", "quint", "rossi", "sandoval", "tanaka",
    "ulrich", "varga", "weiss", "zimmer",
]
_GENRES = [
    "comedy", "drama", "thriller", "horror", "romance", "action",
    "documentary", "fantasy", "western", "animation",
]
_TAGS = [
    "time travel", "martial arts", "road trip", "heist", "small town",
    "outer space", "coming of age", "secret agent", "haunted house",
    "courtroom", "underdog story", "lost treasure", "artificial intelligence",
    "ghost story", "train robbery",
]
_RATING_BUCKETS = ["poor", "average", "good", "great", "excellent"]
_VOTE_BUCKETS = ["unknown", "well known", "famous"]

_THREAD_OPENERS = [
    "just watched {m} and i cannot stop thinking about it",
    "is it just me or is {m} totally overrated",
    "what did everyone think of {m}",
    "finally saw {m} last night, wow",
    "looking for movies like {m}, any suggestions",
]
_THREAD_REPLIES = [
    "honestly {m} is a masterpiece, fight me",
    "i fell asleep halfway through {m}",
    "the ending of {m} ruined it for me",
    "you should check out {m}, same vibe",
    "{m} gets better on a second watch",
    "agreed, though {m} did it first",
]
_THREAD_PLAIN = [
    "could not agree more",
    "that is a hot take but i respect it",
    "the soundtrack alone carries the whole thing",
    "i keep telling everyone the same thing",
    "the pacing in the middle act drags a lot",
    "watched it twice and still confused",
]


def _movie_titles(rng: random.Random, n: int) -> list[str]:
    combos = [f"the {a} {b}" for a in _ADJECTIVES for b in _NOUNS]
    if n > len(combos):
        combos += [f"{a} {b} ii" for a in _ADJECTIVES for b in _NOUNS]
    if n > len(combos):
        raise DataError(f"cannot synthesize {n} distinct movie titles")
    return rng.sample(combos, n)


def _people(rng: random.Random, n: int) -> list[str]:
    combos = [f"{a} {b}" for a in _FIRST_NAMES for b in _LAST_NAMES]
    if n > len(combos):
        raise DataError(f"cannot synthesize {n} distinct people")
    return rng.sample(combos, n)


MENTION_PROB = 0.9  # share of synthetic thread sentences that name a movie


def gen_synthetic_sources(
    seed: int,
    n_movies: int,
    n_people: int,
    n_users: int,
    n_threads: int,
    pool_size: int = 200,
) -> tuple[KnowledgeBase, Ratings, ThreadCorpus]:
    """Deterministic desk-scale stand-in for the real movie/ratings/forum dumps.

    Every movie carries all 8 relations; every user ends with at least 9
    five-star movies so recommendation sampling never starves; thread texts
    mention KB entities with probability MENTION_PROB.
    """
    if min(n_movies, n_people, n_users, n_threads) < 1:
        raise DataError("all synthetic sizes must be >= 1")
    rng = random.Random(seed)
    titles = _movie_titles(rng, n_movies)
    people = _people(rng, max(n_people, 3))

    kb = KnowledgeBase()
    for title in titles:
        kb.add_triple(title, "directed_by", rng.choice(people))
        kb.add_triple(title, "written_by", rng.choice(people))
        for actor in rng.sample(people, rng.randint(2, min(4, len(people)))):
            kb.add_triple(title, "starred_actors", actor)
        kb.add_triple(title, "release_year", str(rng.randint(1950, 2015)))
        for genre in rng.sample(_GENRES, rng.randint(1, 2)):
            kb.add_triple(title, "has_genre", genre)
        for tag in rng.sample(_TAGS, rng.randint(1, 3)):
            kb.add_triple(title, "has_tags", tag)
        kb.add_triple(title, "has_imdb_rating", rng.choice(_RATING_BUCKETS))
        kb.add_triple(title, "has_imdb_votes", rng.choice(_VOTE_BUCKETS))

    movie_ids = list(kb.movie_ids)
    user_ids = [f"u{i:05d}" for i in range(n_users)]
    by_user: list[dict[int, int]] = []
    n_five = min(9, n_movies)
    for _ in range(n_users):
        k = rng.randint(min(12, n_movies), min(30, n_movies))
        rated = rng.sample(movie_ids, k)
        ratings = {m: rng.randint(1, 5) for m in rated}
        for m in rated[:n_five]:
            ratings[m] = 5
        by_user.append(ratings)
    # min-2-ratings invariant: patch under-rated movies with extra users
    counts: dict[int, int] = {m: 0 for m in movie_ids}
    for ratings in by_user:
        for m in ratings:
            counts[m] += 1
    for m, c in counts.items():
        i = 0
        while c < 2 and i < len(by_user):
            if m not in by_user[i]:
                by_user[i][m] = rng.randint(1, 5)
                c += 1
            i += 1
    ratings = Ratings(user_ids, by_user)

    def sentence(templates: list[str]) -> str:
        if rng.random() < MENTION_PROB:
            return rng.choice(templates).format(m=kb.entities[rng.choice(movie_ids)])
        return rng.choice(_THREAD_PLAIN)

    dialogs = []
    for _ in range(n_threads):
        n_ex = rng.choices([1, 2, 3], weights=[76, 17, 7])[0]
        dialog = []
        for j in range(n_ex):
            post = sentence(_THREAD_OPENERS if j == 0 else _THREAD_REPLIES)
            reply = sentence(_THREAD_REPLIES)
            dialog.append((post, reply))
        dialogs.append(dialog)
    used = {reply for d in dialogs for _, reply in d}
    pool = []
    while len(pool) < pool_size:
        cand = sentence(_THREAD_REPLIES) + f" ({len(pool)})"
        if cand not in used:
            pool.append(cand)
    return kb.freeze(), ratings, ThreadCorpus(dialogs, pool)
