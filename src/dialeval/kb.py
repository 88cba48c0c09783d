"""Triple store over movie entities with inverted word index for memory lookups.

Entities (movies, people, genres, tags, year/rating/vote buckets) are interned
into a dense id table.  Facts are rendered as flat lower-cased sentences
("shaolin soccer directed_by stephen chow") and indexed both by their unigrams
and by the full entity surface forms they contain, so a mention of either
"soccer" or "shaolin soccer" can recall the fact.  A fact is tokenized into
its bag once per vocabulary, when it is first recalled (`fact_bags`).
"""

from __future__ import annotations

from dialeval import DataError
from dialeval.text import Vocabulary, bag, normalize, tokenize

RELATIONS = (
    "directed_by",
    "written_by",
    "starred_actors",
    "release_year",
    "has_genre",
    "has_tags",
    "has_imdb_rating",
    "has_imdb_votes",
)

_RELATION_SET = frozenset(RELATIONS)


def normalize_entity(surface: str) -> str:
    # the tokenizer's normalization, so entity surfaces and dictionary
    # symbols coincide exactly
    return " ".join(normalize(surface))


class KnowledgeBase:
    """Mutable while loading; call freeze() before sharing across readers."""

    def __init__(self):
        self.entities: list[str] = []
        self._entity_ids: dict[str, int] = {}
        self.triples: list[tuple[int, str, int]] = []
        self._triple_set: set[tuple[int, str, int]] = set()
        self._forward: dict[tuple[int, str], list[int]] = {}
        self._inverse: dict[tuple[str, int], list[int]] = {}
        self.word_index: dict[str, list[int]] = {}
        self.fact_freq: dict[str, int] = {}
        self.movie_ids: list[int] = []
        self._movie_set: set[int] = set()
        # Vocabulary.key -> fact id -> token bag, filled by fact_bags
        self.bag_tables: dict[str, dict[int, dict[int, int]]] = {}
        self.frozen = False

    # -- entity table ------------------------------------------------------

    def intern(self, surface: str) -> int:
        name = normalize_entity(surface)
        if not name:
            raise DataError("empty entity surface form")
        eid = self._entity_ids.get(name)
        if eid is None:
            if self.frozen:
                raise DataError(f"cannot intern {name!r}: knowledge base is frozen")
            eid = len(self.entities)
            self.entities.append(name)
            self._entity_ids[name] = eid
        return eid

    def entity_id(self, surface: str) -> int | None:
        return self._entity_ids.get(normalize_entity(surface))

    def is_movie(self, surface: str) -> bool:
        eid = self.entity_id(surface)
        return eid is not None and eid in self._movie_set

    # -- triples -----------------------------------------------------------

    def add_triple(self, subject: str, relation: str, obj: str) -> None:
        if relation not in _RELATION_SET:
            raise DataError(f"unknown relation {relation!r}")
        if self.frozen:
            raise DataError("cannot add to a frozen knowledge base")
        s = self.intern(subject)
        o = self.intern(obj)
        t = (s, relation, o)
        if t in self._triple_set:
            return
        fact_id = len(self.triples)
        self.triples.append(t)
        self._triple_set.add(t)
        self._forward.setdefault((s, relation), []).append(o)
        self._inverse.setdefault((relation, o), []).append(s)
        if s not in self._movie_set:
            self._movie_set.add(s)
            self.movie_ids.append(s)
        for tok in fact_tokens(self.entities[s], relation, self.entities[o]):
            postings = self.word_index.setdefault(tok, [])
            postings.append(fact_id)
            self.fact_freq[tok] = self.fact_freq.get(tok, 0) + 1

    def freeze(self) -> "KnowledgeBase":
        self.frozen = True
        return self

    @property
    def n_facts(self) -> int:
        return len(self.triples)

    def movies(self) -> list[str]:
        return [self.entities[i] for i in self.movie_ids]

    # -- queries -----------------------------------------------------------

    def query_objects(self, subject: str, relation: str) -> set[str]:
        s = self.entity_id(subject)
        if s is None:
            return set()
        return {self.entities[o] for o in self._forward.get((s, relation), ())}

    def query_subjects(self, relation: str, obj: str) -> set[str]:
        o = self.entity_id(obj)
        if o is None:
            return set()
        return {self.entities[s] for s in self._inverse.get((relation, o), ())}

    # -- rendering and lookup ----------------------------------------------

    def render_fact(self, fact_id: int) -> str:
        s, r, o = self.triples[fact_id]
        return f"{self.entities[s]} {r} {self.entities[o]}"

    def render_all(self) -> list[str]:
        return [self.render_fact(i) for i in range(len(self.triples))]

    def recall(self, tokens, freq_cutoff: int, budget: int | None = None) -> list[int]:
        """Fact ids recalled by hashing the query tokens: the facts of every
        distinct token in at most `freq_cutoff` facts, rarest token first
        (ties by token) so that a budget keeps the most specific facts, each
        token's facts in id order, each fact once, at most `budget` of them
        (None: all)."""
        if freq_cutoff < 1:
            raise ValueError("freq_cutoff must be >= 1")
        keys = sorted((freq, tok) for tok in set(tokens)
                      if (freq := self.fact_freq.get(tok, 0)) <= freq_cutoff)
        hit: dict[int, None] = {}  # insertion-ordered set
        for _, tok in keys:
            if budget is not None and len(hit) >= budget:
                break
            hit.update(dict.fromkeys(self.word_index.get(tok, ())))
        return list(hit)[:budget]

    def fact_bags(self, fact_ids, vocab: Vocabulary) -> list[dict[int, int]]:
        """The token bag of each fact under `vocab`.  A fact is rendered and
        tokenized on its first request and its bag is shared from then on,
        so callers must not modify it.  Tables are kept per vocabulary
        content (`Vocabulary.key`): a vocabulary loaded twice shares one,
        vocabularies that tokenize differently never do.  Facts are only
        appended, so a fact id's bag never goes stale."""
        table = self.bag_tables.setdefault(vocab.key, {})
        out = []
        for fid in fact_ids:
            b = table.get(fid)
            if b is None:
                b = table[fid] = bag(tokenize(vocab, self.render_fact(fid)))
            out.append(b)
        return out

    def hash_lookup(self, tokens, freq_cutoff: int) -> list[int]:
        """Every fact `recall` finds, with no budget, in id order."""
        return sorted(self.recall(tokens, freq_cutoff))


def fact_tokens(subject: str, relation: str, obj: str) -> list[str]:
    """Index keys for one fact: its unigrams plus full entity surfaces."""
    seen: set[str] = set()
    out: list[str] = []
    for tok in f"{subject} {relation} {obj}".split():
        if tok not in seen:
            seen.add(tok)
            out.append(tok)
    for ent in (subject, obj):
        if " " in ent and ent not in seen:
            seen.add(ent)
            out.append(ent)
    return out


def parse_rendered(text: str) -> tuple[str, str, str]:
    """Invert render_fact by locating the relation token."""
    words = text.split()
    for i, w in enumerate(words):
        if w in _RELATION_SET and 0 < i < len(words):
            return " ".join(words[:i]), w, " ".join(words[i + 1:])
    raise DataError(f"no relation token in {text!r}")
