"""Command-line pipeline: dialeval gen | train | eval | chat | report.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from functools import partial

from dialeval import DataError, NumericalError
from dialeval.data import read_examples, read_pool, write_examples, write_pool
from dialeval.ingest import (
    gen_synthetic_sources, load_ratings, load_threads, load_triples,
    save_ratings, save_triples,
)
from dialeval.models import TrainConfig
from dialeval.models.io import (
    KIND_IR, KIND_MEMN2N, KIND_MF, KIND_SUPEMB,
    load_for_ranking, save_ir, save_memn2n, save_mf, save_supemb,
)
from dialeval.models.rankers import OracleRanker
from dialeval.pipeline import (
    DEFAULT_K, build_vocab, make_ranker, train_ir, train_memn2n,
    train_mf_from_ratings, train_supemb,
)
from dialeval.evaluation import evaluate, format_report, report_tsv
from dialeval.taskgen import (
    gen_discussion, gen_joint, gen_qa, gen_qarecs, gen_recs,
)
from dialeval.templates import DEFAULT_TEMPLATES, load_templates

log = logging.getLogger("dialeval")

TASKS = ("qa", "recs", "qarecs", "discussion", "joint")
MODELS = (KIND_SUPEMB, KIND_MEMN2N, KIND_IR, KIND_MF)


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("DIALEVAL_SEED")
    return int(env) if env else 0


def build_parser() -> Parser:
    p = Parser(prog="dialeval", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a task dataset directory")
    g.add_argument("--task", choices=TASKS, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--synthetic", action="store_true",
                   help="synthesize sources instead of loading files")
    g.add_argument("--movies", type=int, default=100)
    g.add_argument("--people", type=int, default=60)
    g.add_argument("--users", type=int, default=50)
    g.add_argument("--threads", type=int, default=300)
    g.add_argument("--triples", help="triples file (non-synthetic)")
    g.add_argument("--ratings", help="ratings file (non-synthetic)")
    g.add_argument("--threads-file", help="discussion threads file (non-synthetic)")
    g.add_argument("--templates", help="template file; defaults built in")
    g.add_argument("--train", type=int, default=None)
    g.add_argument("--dev", type=int, default=None)
    g.add_argument("--test", type=int, default=None)
    g.add_argument("--pool-size", type=int, default=1000,
                   help="negative candidate pool per discussion split")
    g.add_argument("--proportions", default=None,
                   help="joint mixture, e.g. qa=0.4,recs=0.2,qarecs=0.2,discussion=0.2")

    t = sub.add_parser("train", help="train a model on a dataset directory")
    t.add_argument("--data", required=True)
    t.add_argument("--model", choices=MODELS, required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--dim", type=int, default=50)
    t.add_argument("--lr", type=float, default=None)
    t.add_argument("--epochs", type=int, default=10)
    t.add_argument("--hops", type=int, default=1)
    t.add_argument("--margin", type=float, default=0.1)
    t.add_argument("--n-neg", type=int, default=10)
    t.add_argument("--dicts", type=int, default=1, choices=(1, 2, 3))
    t.add_argument("--hash-cutoff", type=int, default=500)
    t.add_argument("--hash-n", type=int, default=0)
    t.add_argument("--max-memories", type=int, default=50)
    t.add_argument("--min-freq", type=int, default=5)
    t.add_argument("--rf-weight", type=float, default=0.0,
                   help="relevance feedback weight for --model ir")

    e = sub.add_parser("eval", help="evaluate a model file on a dataset split")
    e.add_argument("--data", required=True)
    e.add_argument("--model-file")
    e.add_argument("--oracle", action="store_true",
                   help="score the gold at the top (harness self-test)")
    e.add_argument("--split", choices=("train", "dev", "test"), default="test")
    e.add_argument("--k", type=int, default=None)
    e.add_argument("--breakdown", choices=("type", "position"), default=None)
    e.add_argument("--no-context", action="store_true",
                   help="ir only: query without dialog context")
    e.add_argument("--out", help="prefix for report files (.txt and .tsv)")

    c = sub.add_parser("chat", help="interactive top-1 retrieval session")
    c.add_argument("--data", required=True)
    c.add_argument("--model-file", required=True)
    c.add_argument("--transcript", help="append the session transcript here")

    r = sub.add_parser("report", help="pretty-print a report TSV")
    r.add_argument("--file", required=True)
    return p


# ---------------------------------------------------------------------------
# gen


_DEFAULT_SIZES = {
    "qa": (2000, 200, 200),
    "recs": (2000, 200, 200),
    "qarecs": (500, 50, 50),        # dialogs, x3 examples
    "discussion": (0, 0, 0),        # sized by the thread corpus
    "joint": (0, 0, 0),
}


def _load_sources(args, need_ratings: bool, need_threads: bool):
    if args.synthetic:
        return gen_synthetic_sources(_seed(args), args.movies, args.people,
                                     args.users, args.threads,
                                     pool_size=max(2 * args.pool_size + 50, 200))
    if not args.triples:
        raise UsageError("--triples is required without --synthetic")
    kb = load_triples(args.triples).freeze()
    ratings = None
    if need_ratings:
        if not args.ratings:
            raise UsageError(f"--ratings is required for task {args.task}")
        ratings = load_ratings(args.ratings, kb)
    threads = None
    if need_threads:
        if not args.threads_file:
            raise UsageError(f"--threads-file is required for task {args.task}")
        threads = load_threads(args.threads_file)
    return kb, ratings, threads


def _split_users(ratings, seed):
    import random
    users = list(range(ratings.n_users))
    random.Random(seed ^ 0x5EED).shuffle(users)
    n = len(users)
    n_dev = max(1, n // 10)
    return users[2 * n_dev:], users[:n_dev], users[n_dev:2 * n_dev]


def _gen_user_splits(gen, ratings, seed: int, first_seed: int,
                     sizes: tuple[int, int, int]) -> list:
    """Train, dev and test splits of a ratings-based generator
    `gen(seed, n, users, dialog_id_base=...)`: each from its own users
    (`_split_users(ratings, seed)`) and seed (first_seed, +1, +2), with
    dialog ids numbered on from the split before."""
    bases = (0, sizes[0], sizes[0] + sizes[1])
    return [gen(first_seed + i, n, users, dialog_id_base=base) for i, (n, users, base)
            in enumerate(zip(sizes, _split_users(ratings, seed), bases))]


def cmd_gen(args) -> int:
    seed = _seed(args)
    task = args.task
    need_ratings = task in ("recs", "qarecs", "joint")
    need_threads = task in ("discussion", "joint")
    kb, ratings, threads = _load_sources(args, need_ratings, need_threads)
    if not need_ratings:
        ratings = None
    if not need_threads:
        threads = None
    templates = load_templates(args.templates) if args.templates else DEFAULT_TEMPLATES
    d_train, d_dev, d_test = _DEFAULT_SIZES[task]
    n_train = args.train if args.train is not None else d_train
    n_dev = args.dev if args.dev is not None else d_dev
    n_test = args.test if args.test is not None else d_test

    os.makedirs(args.out, exist_ok=True)
    save_triples(kb, os.path.join(args.out, "kb.txt"))
    if ratings is not None:
        save_ratings(ratings, kb, os.path.join(args.out, "ratings.tsv"))

    splits = {}
    pools = {}
    if task == "qa":
        splits["train"], splits["dev"], splits["test"] = gen_qa(
            kb, templates, seed, n_train, n_dev, n_test)
    elif task == "recs":
        splits["train"], splits["dev"], splits["test"] = _gen_user_splits(
            partial(gen_recs, ratings, kb, templates), ratings, seed, seed,
            (n_train, n_dev, n_test))
    elif task == "qarecs":
        splits["train"], splits["dev"], splits["test"] = _gen_user_splits(
            partial(gen_qarecs, kb, ratings, templates), ratings, seed, seed,
            (n_train, n_dev, n_test))
    elif task == "discussion":
        tr, dv, te, dev_pool, test_pool = gen_discussion(
            threads, (args.pool_size, args.pool_size), seed)
        splits = {"train": tr, "dev": dv, "test": te}
        pools = {"dev": dev_pool, "test": test_pool}
    else:  # joint
        sizes = (n_train or 1000, n_dev or 100, n_test or 100)
        qa_tr, qa_dv, qa_te = gen_qa(kb, templates, seed, *sizes)
        rc_tr, rc_dv, rc_te = _gen_user_splits(
            partial(gen_recs, ratings, kb, templates), ratings, seed, seed + 10, sizes)
        qr_tr, qr_dv, qr_te = _gen_user_splits(
            partial(gen_qarecs, kb, ratings, templates), ratings, seed, seed + 20,
            (sizes[0] // 3, max(sizes[1] // 3, 1), max(sizes[2] // 3, 1)))
        di_tr, di_dv, di_te, dev_pool, test_pool = gen_discussion(
            threads, (args.pool_size, args.pool_size), seed + 30)
        pools = {"dev": dev_pool, "test": test_pool}
        per_task = {
            "train": {"qa": qa_tr, "recs": rc_tr, "qarecs": qr_tr, "discussion": di_tr},
            "dev": {"qa": qa_dv, "recs": rc_dv, "qarecs": qr_dv, "discussion": di_dv},
            "test": {"qa": qa_te, "recs": rc_te, "qarecs": qr_te, "discussion": di_te},
        }
        props = _parse_proportions(args.proportions, per_task["train"])
        for i, split in enumerate(("train", "dev", "test")):
            splits[split] = gen_joint(per_task[split], props, seed + 40 + i)

    for split, examples in splits.items():
        write_examples(os.path.join(args.out, split + ".txt"), examples)
    for split, pool in pools.items():
        write_pool(os.path.join(args.out, f"candidates_{split}.txt"), pool)

    manifest = {
        "task": task,
        "seed": seed,
        "sizes": {s: len(x) for s, x in splits.items()},
        "k_default": DEFAULT_K[task],
        "synthetic": bool(args.synthetic),
        "pool_size": args.pool_size if pools else None,
    }
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {sum(len(x) for x in splits.values())} examples to {args.out}")
    return 0


def _parse_proportions(spec: str | None, train_sets) -> dict[str, float]:
    if spec is None:
        total = sum(len(v) for v in train_sets.values())
        return {tag: len(v) / total for tag, v in train_sets.items()}
    out = {}
    for part in spec.split(","):
        tag, _, value = part.partition("=")
        if tag not in train_sets:
            raise UsageError(f"unknown task in --proportions: {tag!r}")
        out[tag] = float(value)
    for tag in train_sets:
        out.setdefault(tag, 0.0)
    return out


# ---------------------------------------------------------------------------
# train / eval helpers


def _dataset(data_dir: str):
    manifest_path = os.path.join(data_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise DataError(f"{data_dir}: not a dataset directory (no manifest.json)")
    with open(manifest_path, encoding="utf-8") as f:
        manifest = json.load(f)
    kb_path = os.path.join(data_dir, "kb.txt")
    kb = load_triples(kb_path).freeze() if os.path.exists(kb_path) else None
    return manifest, kb


def _read_split(data_dir: str, split: str):
    pool_path = os.path.join(data_dir, f"candidates_{split}.txt")
    pool = read_pool(pool_path) if os.path.exists(pool_path) else None
    return read_examples(os.path.join(data_dir, split + ".txt"), pool)


_TASK_LR = {"qa": 0.005, "recs": 0.01, "qarecs": 0.001, "discussion": 0.01}


def cmd_train(args) -> int:
    manifest, kb = _dataset(args.data)
    task = manifest["task"]
    lr = args.lr if args.lr is not None else _TASK_LR.get(task, 0.01)
    cfg = TrainConfig(
        learning_rate=lr, dim=args.dim, epochs=args.epochs, margin=args.margin,
        n_neg=args.n_neg, n_dicts=args.dicts, seed=_seed(args), hops=args.hops,
        hash_n=args.hash_n, hash_cutoff=args.hash_cutoff,
        max_memories=args.max_memories,
    ).validate()
    train_examples = _read_split(args.data, "train")
    vocab = build_vocab(train_examples, kb, min_freq=args.min_freq)
    vocab.save(args.out + ".vocab")

    losses: list[float] = []

    def log_loss(epoch, loss):
        losses.append(loss)
        print(f"epoch {epoch}: mean loss {loss:.6f}")

    if args.model == KIND_MEMN2N:
        params, _ = train_memn2n(train_examples, vocab, kb, cfg, log_fn=log_loss)
        save_memn2n(args.out, params, cfg)
    elif args.model == KIND_SUPEMB:
        variant = "single_dict" if args.dicts == 1 else "two_dict"
        params, _ = train_supemb(train_examples, vocab, cfg, variant=variant,
                                 log_fn=log_loss)
        save_supemb(args.out, params, cfg)
    elif args.model == KIND_IR:
        model = train_ir(train_examples, vocab, rf_weight=args.rf_weight)
        save_ir(args.out, model, vocab.size, cfg)
    else:  # mf
        ratings_path = os.path.join(args.data, "ratings.tsv")
        if not os.path.exists(ratings_path):
            raise DataError(f"{args.data}: no ratings.tsv; mf needs a recs dataset")
        ratings = load_ratings(ratings_path, kb)
        params, _ = train_mf_from_ratings(ratings, cfg, log_fn=log_loss)
        save_mf(args.out, params, cfg)

    with open(args.out + ".losses.txt", "w", encoding="utf-8") as f:
        f.writelines(f"{i}\t{l:.6f}\n" for i, l in enumerate(losses))
    with open(args.out + ".manifest.json", "w", encoding="utf-8") as f:
        json.dump({"model": args.model, "data": os.path.abspath(args.data),
                   "config": cfg.to_text().strip().split("\n")},
                  f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"model written to {args.out}")
    return 0


def _load_ranker(model_file: str, data_dir: str, kb, use_context: bool = True):
    """The vocabulary and ranker of a model file.  An ir model file keeps
    its relevance-feedback weight but not the training pairs, so those are
    refit from the dataset's train split."""
    kind, params, cfg, vocab = load_for_ranking(model_file)
    if kind == KIND_IR and params.rf_weight > 0.0:
        params = train_ir(_read_split(data_dir, "train"), vocab, rf_weight=params.rf_weight)
    return vocab, make_ranker(kind, params, vocab, kb, cfg, use_context=use_context)


def cmd_eval(args) -> int:
    manifest, kb = _dataset(args.data)
    examples = _read_split(args.data, args.split)
    k = args.k if args.k is not None else manifest.get("k_default", 10)

    if args.oracle:
        vocab = build_vocab(examples, kb)
        ranker = OracleRanker(vocab)
    else:
        if not args.model_file:
            raise UsageError("--model-file or --oracle is required")
        vocab, ranker = _load_ranker(args.model_file, args.data, kb,
                                     use_context=not args.no_context)

    report = evaluate(ranker, examples, k, vocab=vocab)
    text = format_report(report, breakdown=args.breakdown)
    print(text)
    if args.out:
        with open(args.out + ".txt", "w", encoding="utf-8") as f:
            f.write(text + "\n")
        with open(args.out + ".tsv", "w", encoding="utf-8") as f:
            f.write(report_tsv(report))
        print(f"report written to {args.out}.txt / {args.out}.tsv")
    return 0


def _chat_candidates(manifest, data_dir: str):
    """The task tag, gold and pool of a chat example.  A discussion model
    replies with a response of the test split's pool: the pool's first
    response stands in as the gold, so that the candidate list is the whole
    pool.  Without a pool file the ranker refuses the example."""
    if manifest["task"] != "discussion":
        return "qa", ("?",), None
    path = os.path.join(data_dir, "candidates_test.txt")
    if not os.path.exists(path):
        return "discussion", ("?",), None
    pool = read_pool(path)
    if not pool:
        raise DataError(f"{path}: the candidate pool is empty")
    return "discussion", (pool[0],), tuple(pool[1:])


def cmd_chat(args) -> int:
    manifest, kb = _dataset(args.data)
    _, ranker = _load_ranker(args.model_file, args.data, kb)
    task_tag, gold, pool = _chat_candidates(manifest, args.data)
    history: list[tuple[str, str]] = []
    transcript = open(args.transcript, "a", encoding="utf-8") if args.transcript else None
    from dialeval.taskgen import Example
    try:
        while True:
            try:
                line = input("> ").strip()
            except EOFError:
                break
            if not line:
                continue
            if line == ":quit":
                break
            ex = Example(input=line, gold=gold, context=tuple(history), task_tag=task_tag,
                         response_position=len(history) + 1, candidate_pool=pool)
            ranked = ranker.rank(ex)
            reply = ranked[0] if ranked else "(no candidates)"
            print(reply)
            if transcript:
                transcript.write(f"user\t{line}\nmodel\t{reply}\n")
            history.append((line, reply))
    finally:
        if transcript:
            transcript.close()
    return 0


def cmd_report(args) -> int:
    with open(args.file, encoding="utf-8") as f:
        lines = [line.rstrip("\n").split("\t") for line in f if line.strip()]
    if not lines or lines[0] != ["partition", "cell", "hits", "count"]:
        raise DataError(f"{args.file}: not a report TSV")
    width = max(len(row[1]) for row in lines)
    for row in lines:
        print(f"{row[0]:<16} {row[1]:<{width}} {row[2]:>10} {row[3]:>8}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "gen": cmd_gen, "train": cmd_train, "eval": cmd_eval,
            "chat": cmd_chat, "report": cmd_report,
        }[args.command]
        return handler(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
