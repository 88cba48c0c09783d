import json

import pytest

from dialeval.cli import main


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


def test_eval_requires_model_or_oracle(qa_dir, capsys):
    assert run(["eval", "--data", qa_dir]) == 1


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
