import pytest

from dialeval import DataError
from dialeval.data import read_examples, read_pool, write_examples, write_pool
from dialeval.ingest import gen_synthetic_sources
from dialeval.taskgen import Example, gen_discussion, gen_qa, gen_qarecs
from dialeval.templates import DEFAULT_TEMPLATES


def roundtrip(tmp_path, examples, pool=None):
    path = tmp_path / "data.txt"
    write_examples(path, examples)
    return read_examples(path, pool)


def test_simple_roundtrip(tmp_path):
    examples = [
        Example(input="hello there", gold=("hi",), dialog_id=0),
        Example(input="who directed x", gold=("a", "b"), dialog_id=1),
    ]
    loaded = roundtrip(tmp_path, examples)
    assert [(e.input, e.gold) for e in loaded] == [(e.input, e.gold) for e in examples]


def test_multiturn_context_reconstructed(tmp_path):
    kb, ratings, _ = gen_synthetic_sources(2, 20, 15, 10, 10)
    examples = gen_qarecs(kb, ratings, DEFAULT_TEMPLATES, 0, 15)
    loaded = roundtrip(tmp_path, examples)
    assert any(len(ex.gold) > 1 and ex.response_position == 2 for ex in examples)
    # a multi-answer reply in a later turn's context reads back as generated
    assert loaded == examples


def test_multi_gold_pipe_join(tmp_path):
    kb, _, _ = gen_synthetic_sources(2, 20, 15, 10, 10)
    train, _, _ = gen_qa(kb, DEFAULT_TEMPLATES, 0, 50, 5, 5)
    multi = [ex for ex in train if len(ex.gold) > 1]
    assert multi, "need at least one multi-answer question"
    loaded = roundtrip(tmp_path, train)
    for got, want in zip(loaded, train):
        assert got.gold == want.gold


def test_discussion_pool_attachment(tmp_path):
    _, _, threads = gen_synthetic_sources(2, 20, 15, 10, 30)
    _, dev, _, dev_pool, _ = gen_discussion(threads, (10, 10), 0)
    path = tmp_path / "dev.txt"
    pool_path = tmp_path / "pool.txt"
    write_examples(path, dev)
    write_pool(pool_path, dev_pool)
    loaded = read_examples(path, read_pool(pool_path))
    for got, want in zip(loaded, dev):
        assert got.candidate_pool == want.candidate_pool
        assert got.gold == want.gold  # pipes in gold would break discussion


def test_discussion_examples_share_one_pool(tmp_path):
    _, _, threads = gen_synthetic_sources(2, 20, 15, 10, 30)
    _, _, test, _, test_pool = gen_discussion(threads, (10, 10), 0)
    path = tmp_path / "test.txt"
    write_examples(path, test)
    loaded = read_examples(path, list(test_pool))
    assert len(loaded) > 1
    first = loaded[0].candidate_pool
    assert first == tuple(test_pool)
    for got, want in zip(loaded, test):
        assert got.candidate_pool is first
        assert got.candidate_pool == want.candidate_pool


def test_dialog_lines_restart_numbering(tmp_path):
    kb, ratings, _ = gen_synthetic_sources(2, 20, 15, 10, 10)
    examples = gen_qarecs(kb, ratings, DEFAULT_TEMPLATES, 0, 5)
    path = tmp_path / "data.txt"
    write_examples(path, examples)
    numbers = [int(line.split(" ", 1)[0]) for line in path.read_text().splitlines()]
    assert numbers == [1, 2, 3] * (len(examples) // 3)


def test_write_rejects_mid_dialog_start(tmp_path):
    bad = [Example(input="q", gold=("a",), context=(("x", "y"),),
                   response_position=2, dialog_id=9)]
    with pytest.raises(DataError, match="position 1"):
        write_examples(tmp_path / "bad.txt", bad)


def test_read_requires_sidecar(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("1 hello\thi\n")
    with pytest.raises(DataError, match="sidecar"):
        read_examples(path)


def test_read_detects_position_mismatch(tmp_path):
    examples = [Example(input="q", gold=("a",))]
    path = tmp_path / "data.txt"
    write_examples(path, examples)
    path.write_text("2 q\ta\n")
    with pytest.raises(DataError):
        read_examples(path)


def test_tabs_and_newlines_sanitized(tmp_path):
    examples = [Example(input="a\tb\nc", gold=("d\te",))]
    loaded = roundtrip(tmp_path, examples)
    assert loaded[0].input == "a b c"
    assert loaded[0].gold == ("d e",)
