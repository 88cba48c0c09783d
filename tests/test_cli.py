import json
import logging
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import dialeval
from dialeval.cli import main
from dialeval.models.io import load_model, save_model
from dialeval.models.rankers import OracleRanker


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def qa_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "qa"
    code = run(["gen", "--task", "qa", "--out", out, "--synthetic",
                "--movies", 30, "--train", 150, "--dev", 20, "--test", 20,
                "--seed", 3])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def qa_model(qa_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "qa.bin"
    code = run(["train", "--data", qa_dir, "--model", "memn2n",
                "--out", path, "--epochs", 2, "--seed", 1])
    assert code == 0
    return path


def test_gen_writes_expected_files(qa_dir):
    for name in ("train.txt", "dev.txt", "test.txt", "train.txt.meta.jsonl",
                 "kb.txt", "manifest.json"):
        assert (qa_dir / name).exists(), name
    manifest = json.loads((qa_dir / "manifest.json").read_text())
    assert manifest["task"] == "qa"
    assert manifest["seed"] == 3
    assert manifest["sizes"]["train"] == 150
    assert not (qa_dir / "ratings.tsv").exists()  # qa needs no ratings


def test_gen_recs_writes_ratings(tmp_path):
    out = tmp_path / "recs"
    assert run(["gen", "--task", "recs", "--out", out, "--synthetic",
                "--movies", 20, "--users", 15, "--train", 40, "--dev", 5,
                "--test", 5, "--seed", 0]) == 0
    assert (out / "ratings.tsv").exists()


def test_gen_discussion_writes_pools(tmp_path):
    out = tmp_path / "disc"
    assert run(["gen", "--task", "discussion", "--out", out, "--synthetic",
                "--threads", 60, "--pool-size", 15, "--seed", 0]) == 0
    assert (out / "candidates_dev.txt").exists()
    assert (out / "candidates_test.txt").exists()
    assert len((out / "candidates_test.txt").read_text().splitlines()) == 15


def test_gen_joint_mixes_tasks(tmp_path):
    out = tmp_path / "joint"
    assert run(["gen", "--task", "joint", "--out", out, "--synthetic",
                "--movies", 25, "--users", 20, "--threads", 50,
                "--train", 120, "--dev", 20, "--test", 20,
                "--pool-size", 10, "--seed", 1]) == 0
    metas = [json.loads(l) for l in
             (out / "train.txt.meta.jsonl").read_text().splitlines()]
    tags = {m["task"] for m in metas}
    assert tags == {"qa", "recs", "qarecs", "discussion"}


def test_gen_is_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["gen", "--task", "qa", "--out", out, "--synthetic",
                    "--movies", 20, "--train", 50, "--dev", 10, "--test", 10,
                    "--seed", 9]) == 0
        outs.append(out)
    for f in ("train.txt", "train.txt.meta.jsonl", "kb.txt", "manifest.json"):
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes(), f


def test_usage_errors_exit_1(capsys):
    assert run(["gen", "--task", "nope", "--out", "x"]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["gen", "--task", "qa", "--out", "/tmp/x"]) == 1  # no sources
    assert "usage error" in capsys.readouterr().err


def test_data_errors_exit_2(tmp_path, capsys):
    assert run(["train", "--data", tmp_path, "--model", "memn2n",
                "--out", tmp_path / "m"]) == 2
    assert "data error" in capsys.readouterr().err


def test_train_writes_artifacts(qa_model):
    assert qa_model.exists()
    assert qa_model.with_suffix(".bin.cfg").exists()
    for suffix in (".vocab", ".losses.txt", ".manifest.json"):
        assert (qa_model.parent / (qa_model.name + suffix)).exists()
    losses = (qa_model.parent / (qa_model.name + ".losses.txt")).read_text()
    assert len(losses.splitlines()) == 2  # one line per epoch


def test_train_is_deterministic(qa_dir, tmp_path):
    models = []
    for name in ("m1", "m2"):
        path = tmp_path / name
        assert run(["train", "--data", qa_dir, "--model", "supemb",
                    "--out", path, "--epochs", 2, "--seed", 4]) == 0
        models.append(path)
    assert models[0].read_bytes() == models[1].read_bytes()


def test_eval_writes_report(qa_dir, qa_model, tmp_path, capsys):
    prefix = tmp_path / "report"
    assert run(["eval", "--data", qa_dir, "--model-file", qa_model,
                "--split", "test", "--breakdown", "type",
                "--out", prefix]) == 0
    out = capsys.readouterr().out
    assert "hits@1" in out
    tsv = (tmp_path / "report.tsv").read_text().splitlines()
    assert tsv[0] == "partition\tcell\thits\tcount"
    type_rows = [l for l in tsv if l.startswith("type\t")]
    assert len(type_rows) == 11


def test_eval_without_cfg_sidecar_exits_2(qa_dir, tmp_path, capsys):
    model = tmp_path / "m.bin"
    assert run(["train", "--data", qa_dir, "--model", "memn2n",
                "--out", model, "--epochs", 1, "--max-memories", 10]) == 0
    (tmp_path / "m.bin.cfg").unlink()
    capsys.readouterr()
    assert run(["eval", "--data", qa_dir, "--model-file", model]) == 2
    captured = capsys.readouterr()
    assert "m.bin.cfg" in captured.err
    assert "hits@" not in captured.out


def test_eval_oracle_is_perfect(qa_dir, capsys):
    assert run(["eval", "--data", qa_dir, "--split", "test", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "  100.0" in out.splitlines()[1]


def test_eval_logs_how_many_golds_tie(qa_dir, caplog):
    with caplog.at_level(logging.INFO, logger="dialeval"):
        assert run(["eval", "--data", qa_dir, "--oracle"]) == 0
    assert "0 of 20 examples: the gold's score ties another candidate's" in caplog.text


def test_eval_of_a_score_that_is_not_finite_exits_3(qa_dir, monkeypatch, capsys):
    def nan_scores(self, example):
        labels = self.labels(example)
        return labels, np.full(len(labels), np.nan)

    monkeypatch.setattr(OracleRanker, "score", nan_scores)
    assert run(["eval", "--data", qa_dir, "--oracle"]) == 3
    assert "numerical abort: example 0: " in capsys.readouterr().err


def test_eval_into_a_closed_pipe_exits_quietly(qa_dir):
    """`dialeval eval ... | head -1` where the reader has gone: status 141,
    no traceback."""
    src = os.path.dirname(os.path.dirname(dialeval.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dialeval.cli", "eval", "--data", str(qa_dir),
             "--oracle"], stdout=write_end, stderr=subprocess.PIPE, env=env,
            timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert b"Traceback" not in proc.stderr and b"Error" not in proc.stderr


def test_eval_requires_model_or_oracle(qa_dir, capsys):
    assert run(["eval", "--data", qa_dir]) == 1


def _damaged_copy(qa_dir, tmp_path, name, damage):
    """A copy of the dataset whose file `name` has had `damage` applied to
    its lines."""
    data = tmp_path / "qa"
    shutil.copytree(qa_dir, data)
    path = data / name
    path.write_text("".join(damage(path.read_text().splitlines(keepends=True))))
    return data


def _oracle_refused(data, capsys, message):
    capsys.readouterr()
    assert run(["eval", "--data", data, "--oracle"]) == 2
    assert message in capsys.readouterr().err


def test_eval_refuses_a_truncated_sidecar_record(qa_dir, tmp_path, capsys):
    data = _damaged_copy(qa_dir, tmp_path, "test.txt.meta.jsonl",
                         lambda lines: lines[:4] + [lines[4][:20] + "\n"] + lines[5:])
    _oracle_refused(data, capsys, "test.txt.meta.jsonl:5: bad metadata record")


def test_eval_refuses_a_sidecar_record_without_position(qa_dir, tmp_path, capsys):
    def drop_position(lines):
        record = json.loads(lines[2])
        del record["position"]
        return lines[:2] + [json.dumps(record) + "\n"] + lines[3:]

    data = _damaged_copy(qa_dir, tmp_path, "test.txt.meta.jsonl", drop_position)
    _oracle_refused(data, capsys, "test.txt.meta.jsonl:3: metadata record lacks 'position'")


def test_eval_refuses_a_cut_manifest(qa_dir, tmp_path, capsys):
    data = _damaged_copy(qa_dir, tmp_path, "manifest.json", lambda lines: lines[:3])
    _oracle_refused(data, capsys, "manifest.json:4: bad manifest")


def test_report_pretty_prints(qa_dir, qa_model, tmp_path, capsys):
    prefix = tmp_path / "r"
    run(["eval", "--data", qa_dir, "--model-file", qa_model, "--out", prefix])
    capsys.readouterr()
    assert run(["report", "--file", tmp_path / "r.tsv"]) == 0
    assert "overall" in capsys.readouterr().out


def test_report_rejects_junk(tmp_path):
    junk = tmp_path / "junk.tsv"
    junk.write_text("hello\n")
    assert run(["report", "--file", junk]) == 2


def test_chat_session(qa_dir, qa_model, monkeypatch, capsys, tmp_path):
    lines = iter(["", "who directed the silver river?", ":quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    transcript = tmp_path / "chat.log"
    assert run(["chat", "--data", qa_dir, "--model-file", qa_model,
                "--transcript", transcript]) == 0
    out = capsys.readouterr().out
    assert out.strip(), "expected a top-1 reply"
    logged = transcript.read_text()
    assert logged.startswith("user\twho directed")
    assert "model\t" in logged


def test_chat_eof_ends_session(qa_dir, qa_model, monkeypatch):
    def raise_eof(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", raise_eof)
    assert run(["chat", "--data", qa_dir, "--model-file", qa_model]) == 0


def test_gen_discussion_refuses_empty_pool(tmp_path, capsys):
    assert run(["gen", "--task", "discussion", "--out", tmp_path / "d", "--synthetic",
                "--threads", 60, "--pool-size", 0, "--seed", 0]) == 2
    assert "pool sizes must be >= 1" in capsys.readouterr().err


def _thread_sources(tmp_path, n_off_chain):
    """A triples file and a threads file of 10 dialogs, whose roots also get
    `n_off_chain` distinct later replies between them."""
    triples = tmp_path / "kb.txt"
    triples.write_text("the river\tdirected_by\tana holm\n")
    records = []
    for d in range(10):
        root, first = f"{d:02d}0", f"{d:02d}1"
        records.append({"id": root, "parent_id": None, "body": f"post number {d}"})
        records.append({"id": first, "parent_id": root, "body": f"reply number {d}"})
    records += [{"id": f"{i % 10:02d}{2 + i // 10}", "parent_id": f"{i % 10:02d}0",
                 "body": f"a later reply {i}"} for i in range(n_off_chain)]
    threads = tmp_path / "threads.jsonl"
    threads.write_text("".join(json.dumps(r) + "\n" for r in records))
    return triples, threads


def test_gen_discussion_pools_a_thread_file(tmp_path):
    triples, threads = _thread_sources(tmp_path, 12)
    out = tmp_path / "d"
    assert run(["gen", "--task", "discussion", "--out", out, "--triples", triples,
                "--threads-file", threads, "--pool-size", 5, "--seed", 0]) == 0
    dev = (out / "candidates_dev.txt").read_text().splitlines()
    test = (out / "candidates_test.txt").read_text().splitlines()
    assert len(dev) == len(test) == 5
    assert not set(dev) & set(test)
    assert all(c.startswith("a later reply") for c in dev + test)
    manifest = json.loads((out / "manifest.json").read_text())
    assert sum(manifest["sizes"].values()) == 10


def test_gen_discussion_refuses_a_thread_file_with_too_few_replies(tmp_path, capsys):
    triples, threads = _thread_sources(tmp_path, 9)
    assert run(["gen", "--task", "discussion", "--out", tmp_path / "d",
                "--triples", triples, "--threads-file", threads,
                "--pool-size", 5, "--seed", 0]) == 2
    assert "candidate pool has 9 responses, need 10" in capsys.readouterr().err


def test_gen_discussion_refuses_a_thread_file_with_a_repeated_id(tmp_path, capsys):
    triples, threads = _thread_sources(tmp_path, 12)
    with threads.open("a") as f:
        f.write(json.dumps({"id": "011", "parent_id": "020", "body": "reply b"}) + "\n")
    assert run(["gen", "--task", "discussion", "--out", tmp_path / "d",
                "--triples", triples, "--threads-file", threads,
                "--pool-size", 5, "--seed", 0]) == 2
    assert "threads.jsonl:33: record id '011' is repeated" in capsys.readouterr().err


def _trained(qa_dir, tmp_path, model, *extra):
    path = tmp_path / "m.bin"
    assert run(["train", "--data", qa_dir, "--model", model, "--out", path,
                "--epochs", 1, *extra]) == 0
    return path


def _eval_refused(qa_dir, model, capsys, *messages):
    capsys.readouterr()
    assert run(["eval", "--data", qa_dir, "--model-file", model]) == 2
    captured = capsys.readouterr()
    assert "hits@" not in captured.out
    for message in messages:
        assert message in captured.err


@pytest.mark.parametrize("damage", ["missing_W", "short_A_IN"])
def test_eval_rejects_matrix_that_disagrees_with_header(qa_dir, tmp_path, capsys, damage):
    model = _trained(qa_dir, tmp_path, "memn2n", "--dicts", 2)
    kind, p, cfg, h = load_model(model)
    mats = {"A_IN": p.A_in, "W": p.W, "R": p.R.reshape(-1, h["d"]), "T": p.T}
    if damage == "missing_W":
        del mats["W"]
        want = "m.bin: missing matrix W"
    else:
        mats["A_IN"] = p.A_in[:, :-1]
        want = f"m.bin: matrix A_IN is {h['d']}x{h['V'] - 1}"
    save_model(model, kind, list(mats.items()), cfg, h["d"], h["V"], h["K"], h["w"])
    _eval_refused(qa_dir, model, capsys, want)


def test_eval_rejects_cfg_with_other_max_memories(qa_dir, tmp_path, capsys):
    model = _trained(qa_dir, tmp_path, "memn2n")
    cfg = tmp_path / "m.bin.cfg"
    text = cfg.read_text()
    assert "max_memories=50\n" in text
    cfg.write_text(text.replace("max_memories=50\n", "max_memories=80\n"))
    _eval_refused(qa_dir, model, capsys, "m.bin: T has 51 rows", "max_memories=80")


@pytest.mark.parametrize("kind", ["supemb", "memn2n", "ir"])
def test_eval_and_chat_reject_vocab_of_other_size(qa_dir, tmp_path, capsys,
                                                  monkeypatch, kind):
    model = _trained(qa_dir, tmp_path, kind)
    with open(tmp_path / "m.bin.vocab", "a", encoding="utf-8") as f:
        f.write("zzextra\t5\tU\n")
    _eval_refused(qa_dir, model, capsys, "m.bin.vocab")

    def no_input(prompt=""):
        raise AssertionError("chat read input from a mismatched model")

    monkeypatch.setattr("builtins.input", no_input)
    assert run(["chat", "--data", qa_dir, "--model-file", model]) == 2
    assert "m.bin.vocab" in capsys.readouterr().err


@pytest.fixture(scope="module")
def qa40_dir(tmp_path_factory):
    """A qa dataset over a KB of 40 movies, where `qa_dir`'s has 30."""
    out = tmp_path_factory.mktemp("data") / "qa40"
    assert run(["gen", "--task", "qa", "--out", out, "--synthetic", "--movies", 40,
                "--train", 40, "--dev", 10, "--test", 10, "--seed", 3]) == 0
    return out


def _refused_for_its_kb(data, model, capsys, monkeypatch):
    """eval and chat of `model` on `data` exit 2, naming the model's .vocab."""
    capsys.readouterr()
    assert run(["eval", "--data", data, "--model-file", model]) == 2
    captured = capsys.readouterr()
    assert "hits@" not in captured.out
    assert f"{model.name}.vocab" in captured.err and "another KB" in captured.err

    def no_input(prompt=""):
        raise AssertionError("chat read input for a model of another KB")

    monkeypatch.setattr("builtins.input", no_input)
    assert run(["chat", "--data", data, "--model-file", model]) == 2
    assert "another KB" in capsys.readouterr().err


def test_eval_and_chat_refuse_a_model_of_another_kb(qa_dir, qa40_dir, qa_model, capsys,
                                                    monkeypatch):
    _refused_for_its_kb(qa40_dir, qa_model, capsys, monkeypatch)
    assert run(["eval", "--data", qa_dir, "--model-file", qa_model]) == 0


@pytest.mark.parametrize("kind", ["supemb", "ir"])
def test_eval_and_chat_refuse_a_model_on_a_dataset_without_kb(qa_dir, tmp_path, capsys,
                                                              monkeypatch, kind):
    model = _trained(qa_dir, tmp_path, kind)
    data = tmp_path / "no-kb"
    shutil.copytree(qa_dir, data)
    (data / "kb.txt").unlink()
    _refused_for_its_kb(data, model, capsys, monkeypatch)


def test_eval_accepts_a_model_of_an_equal_kb(qa_dir, qa_model, tmp_path, capsys):
    """Another dataset generated over the same KB keeps the entity list."""
    data = tmp_path / "qa"
    assert run(["gen", "--task", "qa", "--out", data, "--synthetic", "--movies", 30,
                "--train", 40, "--dev", 10, "--test", 10, "--seed", 3]) == 0
    assert (data / "kb.txt").read_bytes() == (qa_dir / "kb.txt").read_bytes()
    capsys.readouterr()
    assert run(["eval", "--data", data, "--model-file", qa_model]) == 0
    assert "hits@" in capsys.readouterr().out


def test_eval_refuses_damaged_model_files(qa_dir, tmp_path, capsys):
    """A model file cut inside its header, a .cfg value of the wrong type and
    a .vocab count that is not a number each exit 2 with the file named."""
    model = _trained(qa_dir, tmp_path, "supemb")
    data = model.read_bytes()
    for cut in (4, 20, 35):
        model.write_bytes(data[:cut])
        _eval_refused(qa_dir, model, capsys, "m.bin: truncated model file")
    model.write_bytes(data)
    cfg = tmp_path / "m.bin.cfg"
    text = cfg.read_text()
    cfg.write_text(text.replace("epochs=1\n", "epochs=one\n"))
    _eval_refused(qa_dir, model, capsys, "m.bin.cfg: epochs='one'")
    cfg.write_text(text)
    vocab = tmp_path / "m.bin.vocab"
    lines = vocab.read_text().splitlines(keepends=True)
    symbol, _, flag = lines[2].split("\t")
    vocab.write_text("".join([*lines[:2], f"{symbol}\tmany\t{flag}", *lines[3:]]))
    _eval_refused(qa_dir, model, capsys, "m.bin.vocab:3: count 'many'")


def test_eval_of_mf_refuses_response_lists(tmp_path, capsys):
    data = tmp_path / "joint"
    assert run(["gen", "--task", "joint", "--out", data, "--synthetic",
                "--movies", 25, "--users", 20, "--threads", 50,
                "--train", 120, "--dev", 20, "--test", 20,
                "--pool-size", 10, "--seed", 5]) == 0
    model = _trained(data, tmp_path, "mf")
    _eval_refused(data, model, capsys, "mf ranks movies and cannot rank a list of responses")


@pytest.fixture(scope="module")
def discussion_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "discussion"
    assert run(["gen", "--task", "discussion", "--out", out, "--synthetic",
                "--threads", 200, "--pool-size", 50, "--seed", 1]) == 0
    return out


def test_eval_refuses_a_discussion_split_without_pool(discussion_dir, tmp_path, capsys):
    """The train split has no candidates file: ranking its examples over the
    entity table would print a hits@k of 0 for any model."""
    model = _trained(discussion_dir, tmp_path, "ir")
    want = "has no candidates file"
    for argv in (["--model-file", model], ["--oracle"]):
        capsys.readouterr()
        assert run(["eval", "--data", discussion_dir, "--split", "train", *argv]) == 2
        captured = capsys.readouterr()
        assert "hits@" not in captured.out and want in captured.err
    assert run(["eval", "--data", discussion_dir, "--oracle"]) == 0


def test_chat_ranks_with_ir_relevance_feedback(discussion_dir, tmp_path, monkeypatch, capsys):
    """An ir model file holds no feedback pairs; chat refits them from the
    train split, as eval does, so each reply is the top 1 of the ranker eval
    makes, for the same input and history."""
    from dialeval.cli import _dataset, _read_split
    from dialeval.models.io import load_for_ranking
    from dialeval.pipeline import make_ranker, train_ir
    from dialeval.taskgen import Example

    model = _trained(discussion_dir, tmp_path, "ir", "--rf-weight", 0.5)
    _, kb = _dataset(discussion_dir)
    kind, _, cfg, vocab = load_for_ranking(model)
    train = _read_split(discussion_dir, "train")
    rankers = [make_ranker(kind, m, vocab, kb, cfg) for m in
               (train_ir(train, vocab, rf_weight=0.5), train_ir(train, vocab))]
    test = _read_split(discussion_dir, "test")
    pool = test[0].candidate_pool
    texts = [ex.gold[0] for ex in test[:20]]
    changed = 0
    for session in (texts[i:i + 2] for i in range(0, len(texts), 2)):
        lines = iter([*session, ":quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        capsys.readouterr()
        assert run(["chat", "--data", discussion_dir, "--model-file", model]) == 0
        replies = capsys.readouterr().out.splitlines()
        history = []
        for line, reply in zip(session, replies, strict=True):
            # the whole test pool, as chat ranks it
            ex = Example(input=line, gold=pool[:1], context=tuple(history),
                         task_tag="discussion", response_position=len(history) + 1,
                         candidate_pool=pool[1:])
            with_rf, without_rf = (r.rank(ex)[0] for r in rankers)
            assert reply == with_rf
            changed += with_rf != without_rf
            history.append((line, reply))
    assert changed  # the feedback changes some replies


def test_chat_replies_from_the_discussion_pool(discussion_dir, tmp_path, monkeypatch, capsys):
    """A discussion model answers with a response of the test split's pool,
    not with an entity name; without the pool file chat refuses."""
    import shutil

    from dialeval.data import read_pool

    model = _trained(discussion_dir, tmp_path, "ir")
    pool = set(read_pool(discussion_dir / "candidates_test.txt"))
    lines = iter(["what did you think of the ending?", "i liked the music", ":quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    capsys.readouterr()
    assert run(["chat", "--data", discussion_dir, "--model-file", model]) == 0
    replies = capsys.readouterr().out.splitlines()
    assert len(replies) == 2 and all(r in pool for r in replies), replies

    no_pool = tmp_path / "no_pool"
    shutil.copytree(discussion_dir, no_pool)
    (no_pool / "candidates_test.txt").unlink()
    monkeypatch.setattr("builtins.input", lambda prompt="": "hello")
    assert run(["chat", "--data", no_pool, "--model-file", model]) == 2
    assert "has no candidates file" in capsys.readouterr().err
