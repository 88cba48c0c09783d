import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialeval import DataError
from dialeval.kb import (
    RELATIONS, KnowledgeBase, fact_tokens, normalize_entity, parse_rendered,
)


def test_intern_dedups_and_normalizes():
    kb = KnowledgeBase()
    a = kb.intern("Kung Fu Hustle")
    b = kb.intern("kung fu  hustle!")
    assert a == b
    assert kb.entities[a] == "kung fu hustle"


def test_normalize_entity_strips_punctuation():
    assert normalize_entity("Schindler's List") == "schindler s list"
    assert normalize_entity("  Amélie! ") == "am lie"


def test_add_triple_rejects_unknown_relation():
    kb = KnowledgeBase()
    with pytest.raises(DataError):
        kb.add_triple("a", "acted_with", "b")


def test_add_triple_dedups():
    kb = KnowledgeBase()
    kb.add_triple("a b", "directed_by", "c")
    kb.add_triple("A b!", "directed_by", "c ")
    assert kb.n_facts == 1


def test_frozen_kb_rejects_writes(small_kb):
    with pytest.raises(DataError):
        small_kb.add_triple("new movie", "directed_by", "someone")
    with pytest.raises(DataError):
        small_kb.intern("brand new entity")


def test_forward_and_inverse_queries(small_kb):
    assert small_kb.query_objects("kung fu hustle", "directed_by") == {"stephen chow"}
    assert small_kb.query_subjects("directed_by", "stephen chow") == {
        "kung fu hustle", "shaolin soccer", "the god of cookery"}
    assert small_kb.query_objects("nope", "directed_by") == set()


def test_movie_ids_are_subjects(small_kb):
    assert small_kb.movies() == ["kung fu hustle", "shaolin soccer", "the god of cookery"]
    assert small_kb.is_movie("shaolin soccer")
    assert not small_kb.is_movie("stephen chow")


def test_render_and_parse_roundtrip(small_kb):
    for i in range(small_kb.n_facts):
        s, r, o = parse_rendered(small_kb.render_fact(i))
        assert (small_kb.entity_id(s), r, small_kb.entity_id(o)) == small_kb.triples[i]


def test_fact_tokens_include_full_entity_surfaces():
    toks = fact_tokens("kung fu hustle", "directed_by", "stephen chow")
    assert "kung fu hustle" in toks
    assert "stephen chow" in toks
    assert "kung" in toks and "directed_by" in toks
    assert len(toks) == len(set(toks))


def test_word_index_consistent(small_kb):
    for tok, postings in small_kb.word_index.items():
        assert small_kb.fact_freq[tok] == len(postings)
        for fid in postings:
            assert tok in fact_tokens(*parse_rendered(small_kb.render_fact(fid)))


def brute_force_lookup(kb: KnowledgeBase, tokens, cutoff: int) -> list[int]:
    """Independent oracle: scan every fact's token set."""
    wanted = {t for t in tokens if kb.fact_freq.get(t, 0) <= cutoff}
    out = []
    for fid in range(kb.n_facts):
        if wanted & set(fact_tokens(*parse_rendered(kb.render_fact(fid)))):
            out.append(fid)
    return out


def fact_token_sets(kb: KnowledgeBase) -> list[set[str]]:
    return [set(fact_tokens(*parse_rendered(kb.render_fact(i)))) for i in range(kb.n_facts)]


def brute_force_recall(fact_sets: list[set[str]], tokens, cutoff: int) -> list[int]:
    """Independent oracle for `recall` with no budget: each distinct token's
    facts, and so its frequency, come from a scan of every fact's token set;
    tokens in at most `cutoff` facts, rarest first, ties by token; each fact
    once, in first-seen order.  A budget keeps a prefix of this list."""
    postings = {t: [i for i, fs in enumerate(fact_sets) if t in fs] for t in set(tokens)}
    out: list[int] = []
    seen: set[int] = set()
    for _, t in sorted((len(ids), t) for t, ids in postings.items() if len(ids) <= cutoff):
        for i in postings[t]:
            if i not in seen:
                seen.add(i)
                out.append(i)
    return out


RECALL_BUDGETS = (0, 1, 5, None)


def test_recall_matches_brute_force(small_kb):
    fact_sets = fact_token_sets(small_kb)
    queries = [
        ["kung fu hustle"], ["stephen", "chow"], ["comedy", "martial arts"],
        ["soccer", "2004", "soccer"], ["nonexistent", "comedy"], [],
    ]
    for q in queries:
        for cutoff in (1, 3, 100):
            want = brute_force_recall(fact_sets, q, cutoff)
            for budget in RECALL_BUDGETS:
                assert small_kb.recall(q, cutoff, budget) == want[:budget]


def test_recall_takes_rarest_token_first_and_caps(small_kb):
    # "martial arts" is in 1 fact, "comedy" in 3: its fact comes first
    comedy = small_kb.word_index["comedy"]
    (martial,) = small_kb.word_index["martial arts"]
    got = small_kb.recall(["comedy", "martial arts"], 500, None)
    assert got[0] == martial
    assert got[1:] == [f for f in comedy if f != martial]
    assert small_kb.recall(["comedy", "martial arts"], 500, 2) == got[:2]
    assert small_kb.recall(["comedy"], 500, 0) == []


def test_recall_rejects_bad_cutoff(small_kb):
    with pytest.raises(ValueError):
        small_kb.recall(["comedy"], 0, 5)


def test_hash_lookup_matches_brute_force(small_kb):
    queries = [
        ["kung fu hustle"], ["stephen", "chow"], ["comedy"],
        ["soccer", "2004"], ["nonexistent"], [],
    ]
    for q in queries:
        assert small_kb.hash_lookup(q, 100) == brute_force_lookup(small_kb, q, 100)


def test_hash_lookup_cutoff_drops_frequent_tokens(small_kb):
    # "comedy" appears in 3 facts; with cutoff 2 it recalls nothing
    assert small_kb.hash_lookup(["comedy"], 2) == []
    assert len(small_kb.hash_lookup(["comedy"], 3)) == 3


def test_hash_lookup_rejects_bad_cutoff(small_kb):
    with pytest.raises(ValueError):
        small_kb.hash_lookup(["comedy"], 0)


@st.composite
def random_kbs(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_movies = rng.randint(1, 12)
    n_people = rng.randint(1, 8)
    movies = [f"movie {i}" for i in range(n_movies)]
    people = [f"person {i}" for i in range(n_people)]
    kb = KnowledgeBase()
    for m in movies:
        for _ in range(rng.randint(1, 4)):
            kb.add_triple(m, rng.choice(RELATIONS), rng.choice(people))
    return kb.freeze(), rng


@settings(max_examples=50, deadline=None)
@given(random_kbs(), st.integers(1, 6))
def test_hash_lookup_property(kb_rng, cutoff):
    kb, rng = kb_rng
    tokens = rng.sample(sorted(kb.fact_freq), min(4, len(kb.fact_freq)))
    got = kb.hash_lookup(tokens, cutoff)
    assert got == brute_force_lookup(kb, tokens, cutoff)
    assert got == sorted(set(got))
    query = tokens + tokens[:1] + ["never a fact token"]
    want = brute_force_recall(fact_token_sets(kb), query, cutoff)
    for budget in RECALL_BUDGETS:
        assert kb.recall(query, cutoff, budget) == want[:budget]
