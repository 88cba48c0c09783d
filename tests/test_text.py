import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialeval import DataError
from dialeval.text import (
    NULL_ID, UNK_ID, Vocabulary, bag, build_vocabulary, normalize, tokenize,
)


def make_vocab(entities, corpus, min_freq=1):
    return build_vocabulary(corpus, entities, min_freq)


def test_normalize():
    assert normalize("Who directed X-Men?") == ["who", "directed", "x", "men"]
    assert normalize("  ") == []


def test_reserved_ids():
    v = make_vocab(["kung fu hustle"], ["hello world hello"])
    assert v.symbols[NULL_ID] == "<null>"
    assert v.symbols[UNK_ID] == "<unk>"


def test_id_layout_entities_then_unigrams_by_count():
    v = make_vocab(["zeta", "alpha"], ["b b b a a c"])
    # entities keep their given order; unigrams by desc count, ties lexicographic
    assert v.symbols[2:] == ["zeta", "alpha", "b", "a", "c"]
    assert v.entity_flags[2:4] == [True, True]
    assert v.entity_flags[4:] == [False, False, False]


def test_min_freq_floor():
    v = make_vocab([], ["a a a b"], min_freq=2)
    assert "a" in v.index and "b" not in v.index


def test_entities_always_enter_regardless_of_count():
    v = make_vocab(["rare title"], ["common common common"], min_freq=3)
    assert "rare title" in v.index


def test_greedy_longest_match():
    v = make_vocab(["kung fu hustle", "kung fu"], ["kung fu hustle is fun fun"])
    ids = tokenize(v, "kung fu hustle")
    assert [v.symbols[i] for i in ids] == ["kung fu hustle"]
    ids = tokenize(v, "kung fu fighting")
    assert v.symbols[ids[0]] == "kung fu"
    assert ids[1] == UNK_ID  # "fighting" unseen


def test_entity_wins_length_ties():
    # same surface as both entity and would-be unigram: entity flag wins
    v = make_vocab(["comedy"], ["comedy comedy comedy"])
    tid = tokenize(v, "comedy")[0]
    assert v.is_entity(tid)


def test_generator_corpus_builds_the_list_vocabulary():
    corpus = ["i saw kung fu hustle twice", "kung fu hustle is great"]
    from_list = make_vocab(["kung fu hustle"], corpus)
    from_gen = make_vocab(["kung fu hustle"], iter(corpus))
    assert from_list.counts[from_list.index["kung fu hustle"]] == 2
    assert (from_gen.symbols, from_gen.entity_flags, from_gen.counts) == \
        (from_list.symbols, from_list.entity_flags, from_list.counts)


def test_unknown_words_map_to_unk():
    v = make_vocab([], ["a a a"])
    assert tokenize(v, "b c") == [UNK_ID, UNK_ID]


def test_bag_drops_null_and_unk():
    assert bag([NULL_ID, UNK_ID, 5, 5, 7]) == {5: 2, 7: 1}


def test_save_load_roundtrip(tmp_path, small_vocab):
    path = tmp_path / "vocab.txt"
    small_vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.symbols == small_vocab.symbols
    assert loaded.entity_flags == small_vocab.entity_flags
    assert loaded.counts == small_vocab.counts
    assert tokenize(loaded, "who directed kung fu hustle") == \
        tokenize(small_vocab, "who directed kung fu hustle")


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("<null>\t0\n")
    with pytest.raises(DataError):
        Vocabulary.load(path)


def test_duplicate_entities_rejected():
    with pytest.raises(DataError):
        make_vocab(["Alpha", "alpha"], ["x"])


def test_empty_everything_rejected():
    with pytest.raises(DataError):
        make_vocab([], [])


words = st.text(alphabet="abcd", min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(
    entities=st.lists(st.lists(words, min_size=1, max_size=3).map(" ".join),
                      max_size=5, unique=True),
    text_words=st.lists(words, max_size=12),
)
def test_tokenize_covers_input_exactly(entities, text_words):
    """Greedy tokenization consumes every word exactly once: the word counts
    of the decoded symbols equal the normalized input."""
    corpus = [" ".join(text_words)] if text_words else ["a"]
    try:
        v = build_vocabulary(corpus * 2, entities, min_freq=1)
    except DataError:
        return  # duplicate entities after normalization
    text = " ".join(text_words)
    ids = tokenize(v, text)
    decoded = []
    for i in ids:
        decoded.extend(["?"] if i == UNK_ID else v.symbols[i].split())
    assert len(decoded) == len(normalize(text))
    for got, want in zip(decoded, normalize(text)):
        assert got in ("?", want)


@settings(max_examples=50, deadline=None)
@given(st.lists(words, min_size=1, max_size=10))
def test_multiword_entity_never_split_when_present(ws):
    entity = " ".join(ws[:3]) if len(ws) >= 3 else ws[0]
    v = build_vocabulary([" ".join(ws)], [entity], min_freq=1)
    ids = tokenize(v, entity)
    assert ids[0] == v.index[entity]
