"""Acceptance criteria for the whole framework.

Each test enforces one numbered criterion with its stated tolerance and time
budget, and prints a single PASS line on success.  The heavier end-to-end
runs (5, 6, 9) train real models and take a few minutes together.
"""

import math
import random
import time

import numpy as np
import pytest

from dialeval.cli import main as cli_main
from dialeval.evaluation import evaluate
from dialeval.ingest import gen_synthetic_sources
from dialeval.kb import RELATIONS, KnowledgeBase, fact_tokens, parse_rendered
from dialeval.models import TrainConfig
from dialeval.models.embeddings import EmbedParams, embed_sum, init_embed
from dialeval.models.memn2n import (
    MemoryState, PackedBags, _softmax, init_memn2n, memn2n_forward, memn2n_grads,
    memn2n_train,
)
from dialeval.models.rankers import RandomRanker, rank_by_score
from dialeval.pipeline import build_vocab, make_ranker, prepare_memn2n
from dialeval.taskgen import Example, gen_qa
from dialeval.templates import DEFAULT_TEMPLATES

from tests.embedding_reference import hinge_loss_and_grads
from tests.test_models_embeddings import away_from_hinge_kink, fd_grad, rel_err
from tests.test_kb import RECALL_BUDGETS, brute_force_recall
from tests.test_models_memn2n import rand_bag


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name}: {elapsed:.1f}s exceeds the {self.seconds}s budget")
            print(f"PASS {self.name} ({elapsed:.1f}s)")
        return False


def random_memn2n_instance(rng):
    V = rng.randint(5, 12)
    d = rng.randint(2, 4)
    K = rng.choice([1, 2, 3])
    n_mem = rng.randint(1, 3)
    p = init_memn2n(V, d, K, 4, n_dicts=3, seed=rng.randrange(10**6))
    ms = MemoryState(rand_bag(rng, V),
                     [rand_bag(rng, V) for _ in range(n_mem)],
                     [rng.randint(0, 4) for _ in range(n_mem)])
    cands = [rand_bag(rng, V) for _ in range(rng.randint(2, 5))]
    return p, ms, cands, rng.randrange(len(cands))


def test_criterion_1_gradient_oracle():
    """Analytic gradients match central finite differences, rel err < 1e-4."""
    with Budget("criterion 1: gradient oracle", 30):
        rng = random.Random(100)
        for _ in range(60):
            p, ms, cands, gold = random_memn2n_instance(rng)
            cands = PackedBags(cands)

            def ce():
                return memn2n_grads(ms, cands, gold, p)[0]

            _, g = memn2n_grads(ms, cands, gold, p)
            for name in ("A_in", "A_mem", "W", "R", "T"):
                assert rel_err(fd_grad(ce, getattr(p, name)), g[name]) < 1e-4

        margin = 0.2
        checked = 0
        while checked < 60:
            V, d = rng.randint(4, 12), rng.randint(2, 4)
            ep = init_embed(V, d, "two_dict", seed=rng.randrange(10**6))
            x, y_pos = rand_bag(rng, V), rand_bag(rng, V)
            y_negs = [rand_bag(rng, V) for _ in range(rng.randint(1, 4))]
            if not away_from_hinge_kink(ep, x, y_pos, y_negs, margin):
                continue
            loss, g_in, g_out = hinge_loss_and_grads(ep, x, y_pos, y_negs, margin)
            if loss == 0.0:
                continue

            def hinge():
                return hinge_loss_and_grads(ep, x, y_pos, y_negs, margin)[0]

            assert rel_err(fd_grad(hinge, ep.U_in), g_in) < 1e-4
            assert rel_err(fd_grad(hinge, ep.U_out), g_out) < 1e-4
            checked += 1


def test_criterion_2_normalization():
    """Attention vectors and output distributions sum to 1 within 1e-6."""
    with Budget("criterion 2: normalization", 10):
        rng = random.Random(200)
        for _ in range(1000):
            p, ms, cands, _ = random_memn2n_instance(rng)
            scores, attentions = memn2n_forward(ms, cands, p)
            assert len(attentions) == p.hops
            for a in attentions:
                assert abs(float(a.sum()) - 1.0) < 1e-6
            dist = _softmax(scores)
            assert abs(float(dist.sum()) - 1.0) < 1e-6


def test_criterion_3_hash_lookup_oracle():
    """KB recall equals a brute-force scan on KBs up to 10k facts: hash_lookup
    as a set, and recall ordered and capped at every budget."""
    with Budget("criterion 3: KB recall oracle", 20):
        rng = random.Random(300)
        for n_facts, n_queries in ((100, 300), (1000, 300), (10000, 400)):
            kb = KnowledgeBase()
            n_movies = max(n_facts // 8, 1)
            people = [f"p{i} q{i % 7}" for i in range(max(n_facts // 20, 3))]
            while kb.n_facts < n_facts:
                m = f"movie {rng.randrange(n_movies)} t{rng.randrange(9)}"
                kb.add_triple(m, rng.choice(RELATIONS), rng.choice(people))
            kb.freeze()
            fact_sets = [set(fact_tokens(*parse_rendered(kb.render_fact(i))))
                         for i in range(kb.n_facts)]
            tokens = sorted(kb.fact_freq)
            for _ in range(n_queries):
                q = rng.sample(tokens, rng.randint(1, 5))
                if rng.random() < 0.3:
                    q.append("never a fact token")
                cutoff = rng.choice([1, 5, 50, 500, 10**6])
                wanted = {t for t in q if kb.fact_freq.get(t, 0) <= cutoff}
                brute = [i for i, fs in enumerate(fact_sets) if wanted & fs]
                assert kb.hash_lookup(q, cutoff) == brute
                ordered = brute_force_recall(fact_sets, q, cutoff)
                for budget in RECALL_BUDGETS:
                    assert kb.recall(q, cutoff, budget) == ordered[:budget]


def test_criterion_4_hits_oracle():
    """evaluate matches the per-example loop; random scorer hits 100*k/C."""
    with Budget("criterion 4: hits@k oracle", 20):
        rng = random.Random(400)
        C, k, n = 100, 10, 10000
        labels = [f"c{i}" for i in range(C)]
        examples = []
        for i in range(n):
            gold = labels[rng.randrange(C)]
            examples.append(Example(
                input=f"q {i}", gold=(gold,), dialog_id=i, task_tag="discussion",
                candidate_pool=tuple(c for c in labels if c != gold)))
        ranker = RandomRanker(seed=4)
        # loop oracle, computed alongside an identically seeded ranker
        oracle_hits = 0
        oracle_ranker = RandomRanker(seed=4)
        for ex in examples:
            ranked = oracle_ranker.rank(ex)
            oracle_hits += int(any(c in set(ex.gold) for c in ranked[:k]))
        report = evaluate(ranker, examples, k)
        assert report.overall.hits == oracle_hits
        assert report.overall.count == n
        expected = 100.0 * k / C
        sigma = 100.0 * math.sqrt((k / C) * (1 - k / C) / n)
        assert abs(report.overall.percent - expected) <= 3 * sigma


def test_criterion_5_overfit_sanity():
    """1-hop d=50 lr=0.005 model reaches train hits@1 >= 0.90 in <= 50 epochs."""
    with Budget("criterion 5: overfit sanity", 180):
        kb, _, _ = gen_synthetic_sources(3, 100, 60, 50, 10)
        train, _, _ = gen_qa(kb, DEFAULT_TEMPLATES, 3, 1000, 100, 100)
        vocab = build_vocab(train, kb)
        cfg = TrainConfig(learning_rate=0.005, dim=50, hops=1, epochs=10, seed=1)
        prepared, entities = prepare_memn2n(train, vocab, kb, cfg, seed=cfg.seed)
        params = init_memn2n(vocab.size, cfg.dim, cfg.hops, cfg.max_memories,
                             n_dicts=cfg.n_dicts, seed=cfg.seed)
        best = 0.0
        for done in range(10, 51, 10):
            memn2n_train(prepared, entities.bags, params, cfg)
            ranker = make_ranker("memn2n", params, vocab, kb, cfg)
            best = evaluate(ranker, train, k=1).overall.percent
            if best >= 90.0:
                break
        assert best >= 90.0, f"train hits@1 {best:.1f} after {done} epochs"


def _eval_positions(data_dir, model_path, tmp_path, tag):
    prefix = tmp_path / f"report_{tag}"
    assert cli_main(["eval", "--data", str(data_dir), "--model-file",
                     str(model_path), "--split", "test",
                     "--out", str(prefix)]) == 0
    cells = {}
    for line in (tmp_path / f"report_{tag}.tsv").read_text().splitlines():
        part, cell, hits, count = line.split("\t")
        if part == "position":
            cells[cell] = float(hits)
    return cells


def test_criterion_6_context_use_trend(tmp_path):
    """2-hop memory network beats supervised embeddings on response
    positions 2 and 3 by >= 5 points held-out hits@10."""
    with Budget("criterion 6: context-use trend", 600):
        data = tmp_path / "qarecs"
        assert cli_main(["gen", "--task", "qarecs", "--out", str(data),
                         "--synthetic", "--movies", "100", "--users", "120",
                         "--train", "1800", "--dev", "100", "--test", "100",
                         "--seed", "5"]) == 0
        mem = tmp_path / "memn2n.bin"
        assert cli_main(["train", "--data", str(data), "--model", "memn2n",
                         "--out", str(mem), "--hops", "2", "--lr", "0.005",
                         "--epochs", "15", "--seed", "1"]) == 0
        emb = tmp_path / "supemb.bin"
        assert cli_main(["train", "--data", str(data), "--model", "supemb",
                         "--out", str(emb), "--dicts", "2", "--lr", "0.005",
                         "--epochs", "15", "--seed", "1"]) == 0
        mem_pos = _eval_positions(data, mem, tmp_path, "mem")
        emb_pos = _eval_positions(data, emb, tmp_path, "emb")
        for pos in ("2", "3+"):
            margin = mem_pos[pos] - emb_pos[pos]
            assert margin >= 5.0, (
                f"position {pos}: memn2n {mem_pos[pos]:.1f} vs "
                f"supemb {emb_pos[pos]:.1f} (margin {margin:.1f})")


def test_criterion_7_reduction_equivalence():
    """K=0 with empty memory ranks exactly like the two-dictionary embedder."""
    with Budget("criterion 7: reduction equivalence", 10):
        rng = random.Random(700)
        for _ in range(100):
            V, d = rng.randint(5, 14), rng.randint(2, 5)
            p = init_memn2n(V, d, 0, 4, n_dicts=2, seed=rng.randrange(10**6))
            ms = MemoryState(rand_bag(rng, V), [], [])
            cands = [rand_bag(rng, V) for _ in range(rng.randint(2, 8))]
            scores, _ = memn2n_forward(ms, cands, p)
            embed = EmbedParams(p.A_in, p.W.T)
            x = embed_sum(ms.input_bag, embed.U_in)
            embed_scores = np.array(
                [float(x @ embed_sum(c, embed.U_out)) for c in cands])
            labels = [str(i) for i in range(len(cands))]
            assert rank_by_score(labels, scores) == \
                rank_by_score(labels, embed_scores)


def test_criterion_8_determinism(tmp_path):
    """gen and train are byte-identical across runs with fixed seeds."""
    with Budget("criterion 8: determinism", 120):
        dirs = []
        for name in ("run_a", "run_b"):
            data = tmp_path / name
            assert cli_main(["gen", "--task", "qarecs", "--out", str(data),
                             "--synthetic", "--movies", "40", "--users", "30",
                             "--train", "80", "--dev", "10", "--test", "10",
                             "--seed", "8"]) == 0
            model = tmp_path / (name + ".bin")
            assert cli_main(["train", "--data", str(data), "--model", "memn2n",
                             "--out", str(model), "--epochs", "3",
                             "--seed", "8"]) == 0
            dirs.append((data, model))
        (data_a, model_a), (data_b, model_b) = dirs
        for f in ("train.txt", "dev.txt", "test.txt", "train.txt.meta.jsonl",
                  "kb.txt", "ratings.tsv", "manifest.json"):
            assert (data_a / f).read_bytes() == (data_b / f).read_bytes(), f
        assert model_a.read_bytes() == model_b.read_bytes()
        for suffix in (".cfg", ".vocab", ".losses.txt"):
            a = model_a.parent / (model_a.name + suffix)
            b = model_b.parent / (model_b.name + suffix)
            assert a.read_bytes() == b.read_bytes(), suffix


def test_criterion_9_end_to_end_pipeline(tmp_path, capsys):
    """gen -> train -> eval completes with a well-formed 11-row type report."""
    with Budget("criterion 9: end-to-end pipeline", 300):
        data = tmp_path / "qa"
        assert cli_main(["gen", "--task", "qa", "--out", str(data),
                         "--synthetic", "--movies", "50", "--train", "400",
                         "--dev", "50", "--test", "50", "--seed", "9"]) == 0
        model = tmp_path / "model.bin"
        assert cli_main(["train", "--data", str(data), "--model", "memn2n",
                         "--out", str(model), "--epochs", "5",
                         "--seed", "9"]) == 0
        prefix = tmp_path / "report"
        assert cli_main(["eval", "--data", str(data), "--model-file",
                         str(model), "--split", "test", "--breakdown", "type",
                         "--out", str(prefix)]) == 0
        capsys.readouterr()
        tsv = (tmp_path / "report.tsv").read_text().splitlines()
        assert tsv[0] == "partition\tcell\thits\tcount"
        type_rows = [l for l in tsv if l.startswith("type\t")]
        assert len(type_rows) == 11
        for row in type_rows:
            part, cell, hits, count = row.split("\t")
            assert 0.0 <= float(hits) <= 100.0
            assert int(count) >= 0
