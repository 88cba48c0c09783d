import json

import pytest

from dialeval import DataError
from dialeval.ingest import (
    gen_synthetic_sources, load_ratings, load_threads, load_triples,
    save_ratings, save_triples,
)


def test_load_triples_roundtrip(tmp_path, small_kb):
    path = tmp_path / "kb.txt"
    save_triples(small_kb, path)
    loaded = load_triples(path)
    assert loaded.triples == small_kb.triples
    assert loaded.entities == small_kb.entities


def test_load_triples_reports_line_number(tmp_path):
    path = tmp_path / "kb.txt"
    path.write_text("a\tdirected_by\tb\nbad line\n")
    with pytest.raises(DataError, match=":2"):
        load_triples(path)


def test_load_triples_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "kb.txt"
    path.write_text("# header\n\na\tdirected_by\tb\n")
    assert load_triples(path).n_facts == 1


def test_load_triples_unknown_relation(tmp_path):
    path = tmp_path / "kb.txt"
    path.write_text("a\tknows\tb\n")
    with pytest.raises(DataError, match="relation"):
        load_triples(path)


def _ratings_file(tmp_path, lines):
    path = tmp_path / "ratings.tsv"
    path.write_text("".join(line + "\n" for line in lines))
    return path


def test_load_ratings_basic(tmp_path, small_kb):
    path = _ratings_file(tmp_path, [
        "u1\tkung fu hustle\t5",
        "u1\tshaolin soccer\t3",
        "u2\tkung fu hustle\t4",
        "u2\tshaolin soccer\t5",
    ])
    r = load_ratings(path, small_kb)
    assert r.user_ids == ["u1", "u2"]
    kfh = small_kb.entity_id("kung fu hustle")
    assert r.five_star(0) == [kfh]


def test_load_ratings_drops_unknown_and_sparse(tmp_path, small_kb):
    path = _ratings_file(tmp_path, [
        "u1\tkung fu hustle\t5",
        "u1\tunknown movie\t5",       # not in KB
        "u1\tstephen chow\t5",        # in KB but not a movie
        "u2\tkung fu hustle\t2",
        "u2\tshaolin soccer\t4",      # only one rating for this movie
    ])
    r = load_ratings(path, small_kb)
    assert r.dropped_unknown == 2
    assert r.dropped_sparse == 1
    assert all(small_kb.entity_id("shaolin soccer") not in d for d in r.by_user)


def test_load_ratings_rejects_bad_rating(tmp_path, small_kb):
    with pytest.raises(DataError, match=":1"):
        load_ratings(_ratings_file(tmp_path, ["u1\tkung fu hustle\t6"]), small_kb)
    with pytest.raises(DataError, match="integer"):
        load_ratings(_ratings_file(tmp_path, ["u1\tkung fu hustle\tx"]), small_kb)


def _threads_file(tmp_path, records):
    path = tmp_path / "threads.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_load_threads_first_reply_is_smallest_id(tmp_path):
    path = _threads_file(tmp_path, [
        {"id": "1", "parent_id": None, "body": "root"},
        {"id": "3", "parent_id": "1", "body": "late reply"},
        {"id": "2", "parent_id": "1", "body": "first reply"},
        {"id": "4", "parent_id": "2", "body": "followup"},
        {"id": "5", "parent_id": "4", "body": "second reply"},
    ])
    corpus = load_threads(path)
    assert corpus.dialogs == [[("root", "first reply"), ("followup", "second reply")]]


def test_load_threads_pools_off_chain_replies(tmp_path):
    path = _threads_file(tmp_path, [
        {"id": "1", "parent_id": None, "body": "root"},
        {"id": "3", "parent_id": "1", "body": "late reply"},
        {"id": "2", "parent_id": "1", "body": "first reply"},
        {"id": "4", "parent_id": "2", "body": "followup"},
        {"id": "5", "parent_id": "4", "body": "second reply"},
        {"id": "6", "parent_id": "4", "body": "late reply"},     # a repeat
        {"id": "7", "parent_id": "2", "body": "second reply"},   # a dialog reply
        {"id": "8", "parent_id": "3", "body": "reply to a late reply"},
        {"id": "9", "parent_id": None, "body": "a post nobody answered"},
    ])
    corpus = load_threads(path)
    assert corpus.dialogs == [[("root", "first reply"), ("followup", "second reply")]]
    assert corpus.candidate_pool == ["late reply", "reply to a late reply"]


def test_load_threads_drops_replyless_roots(tmp_path):
    path = _threads_file(tmp_path, [
        {"id": "1", "parent_id": None, "body": "lonely"},
        {"id": "2", "parent_id": None, "body": "root"},
        {"id": "3", "parent_id": "2", "body": "reply"},
    ])
    assert len(load_threads(path).dialogs) == 1


def test_load_threads_detects_cycles(tmp_path):
    path = _threads_file(tmp_path, [
        {"id": "1", "parent_id": None, "body": "a"},
        {"id": "2", "parent_id": "1", "body": "b"},
        {"id": "1", "parent_id": "2", "body": "a again"},
    ])
    with pytest.raises(DataError, match="cycl"):
        load_threads(path)


def test_load_threads_rejects_malformed(tmp_path):
    path = tmp_path / "threads.jsonl"
    path.write_text('{"id": "1"}\n')
    with pytest.raises(DataError, match=":1"):
        load_threads(path)


def test_synthetic_sources_invariants():
    kb, ratings, threads = gen_synthetic_sources(0, 30, 20, 15, 40)
    assert len(kb.movie_ids) == 30
    # every movie carries every relation
    relations_per_movie = {m: set() for m in kb.movie_ids}
    for s, r, _ in kb.triples:
        relations_per_movie[s].add(r)
    assert all(len(rs) == 8 for rs in relations_per_movie.values())
    # recommendation sampling never starves
    assert all(len(ratings.five_star(u)) >= 9 for u in range(ratings.n_users))
    # min-2-ratings invariant
    counts = {}
    for per_user in ratings.by_user:
        for m in per_user:
            counts[m] = counts.get(m, 0) + 1
    assert min(counts.values()) >= 2
    # candidate pool disjoint from dialog responses
    responses = {rep for d in threads.dialogs for _, rep in d}
    assert not responses & set(threads.candidate_pool)


def test_synthetic_sources_deterministic():
    a = gen_synthetic_sources(7, 10, 10, 5, 10)
    b = gen_synthetic_sources(7, 10, 10, 5, 10)
    assert a[0].triples == b[0].triples
    assert a[1].by_user == b[1].by_user
    assert a[2].dialogs == b[2].dialogs


def test_ratings_roundtrip(tmp_path):
    kb, ratings, _ = gen_synthetic_sources(3, 10, 10, 5, 5)
    path = tmp_path / "ratings.tsv"
    save_ratings(ratings, kb, path)
    loaded = load_ratings(path, kb)
    assert loaded.user_ids == ratings.user_ids
    assert loaded.by_user == ratings.by_user
