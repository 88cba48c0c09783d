"""Seeded source files for the benchmark, in the formats `dialeval gen` reads.

The benchmark owns this generator so that its inputs stay fixed when the
program's own synthetic generator changes, and so that the knowledge base can
grow past that generator's title cap.  Names are pseudo-words built from
consonant-vowel syllables, so any number of distinct titles and people can be
made and none collides with a template word.

The KB has the same shape for every seed: each movie carries all 8
relations with the same number of facts (1 director, 1 writer, 3 actors, a
year, a genre, 2 tags, a rating and a vote bucket), and people, years, genres
and tags are dealt out round-robin.  The seed picks the names, which movie
gets which slot, the ratings and the threads, so the work per example is
alike across seeds and run-to-run spread comes from the machine, not from
the inputs.

Files written by `write_sources`:
  triples.tsv   subject\\trelation\\tobject
  ratings.tsv   user\\tmovie\\trating, every user rating 20 movies, 9 of them 5
  threads.jsonl {"id", "parent_id", "body"} reply chains that mention movies
  pool.txt      held-out responses for the discussion candidate pool
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_YEARS = [str(y) for y in range(1950, 2016)]
_GENRES = ["comedy", "drama", "thriller", "horror", "romance", "action",
           "documentary", "fantasy", "western", "animation"]
_TAGS = ["time travel", "martial arts", "road trip", "heist", "small town",
         "outer space", "coming of age", "secret agent", "haunted house",
         "courtroom", "underdog story", "lost treasure",
         "artificial intelligence", "ghost story", "train robbery"]
_RATING_BUCKETS = ["poor", "average", "good", "great", "excellent"]
_VOTE_BUCKETS = ["unknown", "well known", "famous"]

# post and reply sentences; a reply names the post's movie with
# SAME_MOVIE_PROB, so reply ranking has a signal a model can learn
_OPENERS = [
    "just watched {m} and i cannot stop thinking about it",
    "is it just me or is {m} totally overrated",
    "what did everyone think of {m}",
    "finally saw {m} last night and wow",
    "looking for movies like {m} any suggestions",
]
_REPLIES = [
    "honestly {m} is a masterpiece fight me",
    "i fell asleep halfway through {m}",
    "the ending of {m} ruined it for me",
    "you should check out {m} same vibe",
    "{m} gets better on a second watch",
    "agreed though {m} did it first",
    "the soundtrack of {m} carries the whole thing",
    "the pacing of {m} drags in the middle",
    "my whole family loved {m}",
    "nobody talks about the score of {m} enough",
    "{m} was way too long for me",
    "the cast of {m} had great chemistry",
    "i still quote {m} all the time",
    "{m} deserved more awards",
    "the trailer for {m} spoiled everything",
    "rewatched {m} yesterday and it holds up",
]
SAME_MOVIE_PROB = 0.9


@dataclass(frozen=True)
class SourceSpec:
    movies: int
    people: int
    users: int
    threads: int
    pool_size: int = 0


def _pseudo_words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < n:
        n_syl = rng.choice((2, 3))
        w = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(n_syl))
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


def _pairs(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    """n distinct two-word names from two disjoint pseudo-word pools."""
    side = 2
    while side * side < 2 * n:
        side += 1
    first = _pseudo_words(rng, side, taken)
    second = _pseudo_words(rng, side, taken)
    combos = [f"{a} {b}" for a in first for b in second]
    return rng.sample(combos, n)


def _reserved_words() -> set[str]:
    from dialeval.templates import DEFAULT_TEMPLATES
    texts = list(_OPENERS) + list(_REPLIES) + _GENRES + _TAGS
    texts += _RATING_BUCKETS + _VOTE_BUCKETS
    t = DEFAULT_TEMPLATES
    texts += [p for pats in t.qa.values() for p in pats] + t.recs + t.dialog_opener
    texts += [p for pats in t.dialog_question.values() for p in pats]
    texts += t.dialog_preference
    return {w.strip("?.,[@]") for text in texts for w in text.split()}


def write_sources(out_dir: str, spec: SourceSpec, seed: int) -> dict[str, str]:
    """Write the four source files; returns their paths by role."""
    rng = random.Random(seed)
    taken = _reserved_words()
    titles = _pairs(rng, spec.movies, taken)
    people = _pairs(rng, spec.people, taken)

    paths = {name: os.path.join(out_dir, fname) for name, fname in (
        ("triples", "triples.tsv"), ("ratings", "ratings.tsv"),
        ("threads", "threads.jsonl"), ("pool", "pool.txt"))}
    os.makedirs(out_dir, exist_ok=True)
    if spec.people < 5:
        raise ValueError("need at least 5 people for distinct crews")
    rng.shuffle(people)
    with open(paths["triples"], "w", encoding="utf-8") as f:
        for i, title in enumerate(titles):
            crew = [people[(5 * i + j) % spec.people] for j in range(5)]
            n_tags = len(_TAGS)
            tags = (i % n_tags, (i + 1 + (i // n_tags) % (n_tags - 1)) % n_tags)
            rows = [("directed_by", crew[0]), ("written_by", crew[1])]
            rows += [("starred_actors", a) for a in crew[2:]]
            rows += [("release_year", _YEARS[i % len(_YEARS)]),
                     ("has_genre", _GENRES[i % len(_GENRES)]),
                     ("has_tags", _TAGS[tags[0]]), ("has_tags", _TAGS[tags[1]]),
                     ("has_imdb_rating", _RATING_BUCKETS[i % len(_RATING_BUCKETS)]),
                     ("has_imdb_votes", _VOTE_BUCKETS[i % len(_VOTE_BUCKETS)])]
            f.writelines(f"{title}\t{rel}\t{obj}\n" for rel, obj in rows)

    with open(paths["ratings"], "w", encoding="utf-8") as f:
        n_rated, n_five = min(20, spec.movies), min(9, spec.movies)
        counts = dict.fromkeys(titles, 0)
        lines = []
        for u in range(spec.users):
            for j, m in enumerate(rng.sample(titles, n_rated)):
                lines.append(f"user{u:06d}\t{m}\t{5 if j < n_five else rng.randint(1, 4)}\n")
                counts[m] += 1
        # load_ratings drops movies rated fewer than twice; top them up
        for m, c in counts.items():
            for extra in range(c, 2):
                lines.append(f"extra{extra}\t{m}\t{rng.randint(1, 4)}\n")
        f.writelines(lines)

    def sentence(templates: list[str], movie: str) -> str:
        return rng.choice(templates).format(m=movie)

    responses: set[str] = set()
    with open(paths["threads"], "w", encoding="utf-8") as f:
        rid = 0
        # 76% one exchange, 17% two, 7% three, as the program's generator
        lengths = [1 + (t % 100 >= 76) + (t % 100 >= 93) for t in range(spec.threads)]
        rng.shuffle(lengths)
        for n_ex in lengths:
            parent = None
            for j in range(n_ex):
                movie = rng.choice(titles)
                post = sentence(_OPENERS if j == 0 else _REPLIES, movie)
                same = rng.random() < SAME_MOVIE_PROB
                reply = sentence(_REPLIES, movie if same else rng.choice(titles))
                responses.add(reply)
                for body in (post, reply):
                    # zero-padded ids: load_threads follows the smallest id
                    f.write(json.dumps({"id": f"r{rid:08d}", "parent_id": parent,
                                        "body": body}) + "\n")
                    parent = f"r{rid:08d}"
                    rid += 1

    if spec.pool_size > len(_REPLIES) * len(titles) - len(responses):
        raise ValueError(f"too few distinct replies for a {spec.pool_size}-response pool")
    pool: list[str] = []
    seen = set(responses)
    while len(pool) < spec.pool_size:
        cand = sentence(_REPLIES, rng.choice(titles))
        if cand not in seen:
            seen.add(cand)
            pool.append(cand)
    with open(paths["pool"], "w", encoding="utf-8") as f:
        f.writelines(c + "\n" for c in pool)
    return paths
