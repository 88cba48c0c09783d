"""gen -> train -> eval benchmark for dialeval, one workload per process.

    python3 benchmark/run.py --workload qa-kb --seed 1 --seconds 20 --trace 0

A run writes source files from the seed, loads them, generates the task,
writes and reads back the splits, builds the vocabulary and featurizes for
memn2n (the timed set-up).  Then it runs rounds, each train+save (memn2n,
supemb, ir) and load+rank+evaluate (each model): the workload's minimum
number, and more while --seconds allow another.  Every call in a round is
timed as a part and scaled to a calm machine's speed with a fixed probe
(speed.py), and a rate is taken from each part's median scaled time over
the run's rounds (see `round_seconds`).  Finally it checks the program's
outputs.  The last line of standard output is one JSON object: correct,
attempted, failed and the metrics (end-to-end with --trace 0, per-layer
with --trace 1).  The exit status is 1 if a check failed; an error in any
operation ends the run without a result.

Run it with BLAS pinned to one thread (see BENCHMARK.json); run it from the
root of a dialeval checkout, whose src/ it imports.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import replace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


MODELS = ("memn2n", "supemb", "ir")
MEMORY_STEPS = 200
MODEL_SEED = 1      # model init and SGD order; the workload seed makes the data


class Setup:
    """Everything a round needs, built once per process."""


def setup(w, seed: int, work: str, tracer) -> Setup:
    import sources
    from dialeval import data, ingest, pipeline, taskgen
    from dialeval.cli import _split_users
    from dialeval.models import TrainConfig
    from dialeval.templates import DEFAULT_TEMPLATES

    s = Setup()
    t = time.perf_counter()
    paths = sources.write_sources(os.path.join(work, "sources"), w.sources, seed)
    s.sources_s = time.perf_counter() - t
    if tracer:
        tracer.stage = "setup"

    kb = ingest.load_triples(paths["triples"]).freeze()
    ratings = ingest.load_ratings(paths["ratings"], kb) if w.task == "qarecs" else None
    pools = {}
    if w.task == "qa":
        tr, dv, te = taskgen.gen_qa(kb, DEFAULT_TEMPLATES, seed, *w.splits)
    elif w.task == "qarecs":
        # the user split `dialeval gen` makes
        u_train, u_dev, u_test = _split_users(ratings, seed)
        n_tr, n_dv, n_te = w.splits
        tr = taskgen.gen_qarecs(kb, ratings, DEFAULT_TEMPLATES, seed, n_tr, u_train)
        dv = taskgen.gen_qarecs(kb, ratings, DEFAULT_TEMPLATES, seed + 1, n_dv, u_dev,
                                dialog_id_base=n_tr)
        te = taskgen.gen_qarecs(kb, ratings, DEFAULT_TEMPLATES, seed + 2, n_te, u_test,
                                dialog_id_base=n_tr + n_dv)
    else:
        threads = ingest.load_threads(paths["threads"])
        # load_threads never fills the held-out pool; the benchmark attaches it
        with open(paths["pool"], encoding="utf-8") as f:
            threads.candidate_pool = [line.rstrip("\n") for line in f if line.strip()]
        # the held-out responses make the dev and the test pool, half each
        pool_size = w.sources.pool_size // 2
        tr, dv, te, dev_pool, test_pool = taskgen.gen_discussion(
            threads, (pool_size, pool_size), seed)
        pools = {"dev": dev_pool, "test": test_pool}
    s.written = {"train": tr, "dev": dv, "test": te}

    s.split_path = {x: os.path.join(work, x + ".txt") for x in s.written}
    s.pool_path = {x: os.path.join(work, f"candidates_{x}.txt") for x in pools}
    for split, examples in s.written.items():
        data.write_examples(s.split_path[split], examples)
    for split, pool in pools.items():
        data.write_pool(s.pool_path[split], pool)
    # as `dialeval train` and `dialeval eval` read them
    s.train = data.read_examples(s.split_path["train"])
    s.test = data.read_examples(s.split_path["test"], data.read_pool(s.pool_path["test"])
                                if "test" in pools else None)
    s.vocab = pipeline.build_vocab(s.train, kb)
    s.mcfg = TrainConfig(seed=MODEL_SEED, **w.memn2n).validate()
    s.ecfg = TrainConfig(seed=MODEL_SEED, **w.supemb).validate()
    s.prepared, s.entities = pipeline.prepare_memn2n(s.train, s.vocab, kb, s.mcfg,
                                                     seed=s.mcfg.seed)
    if tracer:
        tracer.stage = None
    s.kb = kb
    s.slices = [s.prepared[i:i + w.train_slice]
                for i in range(0, len(s.prepared), w.train_slice)]
    s.chunks = [s.test[i:i + w.eval_chunk] for i in range(0, len(s.test), w.eval_chunk)]
    s.model_path = {m: os.path.join(work, m + ".bin") for m in MODELS}
    return s


def run_round(w, s: Setup, r: int, state: dict, tracer=None, memory: dict | None = None) -> dict:
    """Round r: more memn2n epochs, a whole supemb training, an ir fit, each
    saved; then for each model load_model and make_ranker, and evaluate with
    that ranker on every chunk of the test split in turn.  Each part is timed
    on its own, with a speed.Clock: every memn2n_train call on one slice of
    the training set for one epoch (the slices in a seeded order per epoch),
    the memn2n save, the supemb training with its save, each model's
    load+make_ranker, and its evaluation of each chunk.  Every round does
    the same parts.  memn2n's parameters live in `state` and carry over from
    round to round; every call shuffles with its own seed.  With `memory`,
    tracemalloc peaks of the train and eval stages go into it, no speed
    samples are taken, and training is cut short: one slice of MEMORY_STEPS
    examples and one supemb epoch; it allocates alike in every step and
    epoch.  Evaluation covers the whole split, over which rankers' caches
    grow."""
    from dialeval import evaluation, pipeline
    from dialeval.models import io as model_io
    from dialeval.models import memn2n

    import speed

    out = {"hits": dict.fromkeys(MODELS, 0), "memn2n_losses": [], "ops": 0}
    clock = speed.Clock(sample=tracer is None and memory is None)
    slices, chunks, epochs, ecfg = s.slices, s.chunks, s.mcfg.epochs, s.ecfg
    if memory is not None:
        slices, epochs = [s.prepared[:MEMORY_STEPS]], 1
        ecfg = replace(ecfg, epochs=1)
    _stage(tracer, memory, "train")
    mcfg = replace(s.mcfg, epochs=1)
    if "memn2n" not in state:
        state["memn2n"] = memn2n.init_memn2n(s.vocab.size, mcfg.dim, mcfg.hops,
                                             mcfg.max_memories, n_dicts=mcfg.n_dicts,
                                             seed=mcfg.seed)
    for e in range(epochs):
        epoch = r * epochs + e
        order = list(range(len(slices)))
        random.Random(mcfg.seed + epoch).shuffle(order)
        total = 0.0
        for j in order:
            with clock.part(("train", "memn2n", j)):
                (loss,) = memn2n.memn2n_train(
                    slices[j], s.entities.bags, state["memn2n"],
                    replace(mcfg, seed=mcfg.seed + epoch * len(slices) + j))
            total += loss * len(slices[j])
        out["memn2n_losses"].append(total / sum(len(part) for part in slices))
    with clock.part(("train", "memn2n", "save")):
        model_io.save_memn2n(s.model_path["memn2n"], state["memn2n"], s.mcfg)
    out["ops"] += sum(len(part) for part in slices) * epochs

    with clock.part(("train", "supemb", "train")):
        state["supemb"], out["supemb_losses"] = pipeline.train_supemb(
            s.train, s.vocab, ecfg, variant="single_dict")
        model_io.save_supemb(s.model_path["supemb"], state["supemb"], ecfg)
    out["ops"] += len(s.train) * ecfg.epochs

    state["ir"] = pipeline.train_ir(s.train, s.vocab)
    model_io.save_ir(s.model_path["ir"], state["ir"], s.vocab.size, ecfg)
    _stage(tracer, memory, "eval")

    for m in MODELS:
        # one ranker for the whole split, as `dialeval eval` has: its caches
        # grow over the split as they would there
        with clock.part(("eval", m, "ranker")):
            kind, loaded, cfg, _ = model_io.load_model(s.model_path[m])
            ranker = pipeline.make_ranker(kind, loaded, s.vocab, s.kb, cfg)
        for c, chunk in enumerate(chunks):
            with clock.part(("eval", m, c)):
                report = evaluation.evaluate(ranker, chunk, w.k, vocab=s.vocab)
            out["hits"][m] += report.overall.hits
            out["ops"] += len(chunk)
        del ranker
    _stage(tracer, memory, None)
    out["parts"] = clock.parts
    return out


def _stage(tracer, memory, stage) -> None:
    if tracer is not None:
        tracer.stage = stage
    if memory is not None:
        if tracemalloc.is_tracing():
            memory[memory.pop("_current")] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        if stage is not None:
            memory["_current"] = stage
            tracemalloc.start()


def round_seconds(rounds: list[dict], stage: str, model: str, scaled: bool = True) -> float:
    """Seconds of one round of a stage: each part's median time over the
    run's rounds, times the number of times a round does it, summed over the
    parts.  A part (a training slice, a test chunk, ...) is the same work in
    every round.  Times are scaled to a calm machine (see speed.py) unless
    `scaled` is false."""
    times: dict = {}
    for r in rounds:
        for (st, m, part), measured, scaled_s in r["parts"]:
            if (st, m) == (stage, model):
                times.setdefault(part, []).append(scaled_s if scaled else measured)
    per_round = Counter(part for (st, m, part), _, _ in rounds[0]["parts"]
                        if (st, m) == (stage, model))
    return sum(statistics.median(times[part]) * n for part, n in per_round.items())


def end_to_end(w, s: Setup, rounds: list[dict], setup_s: float, rss_mb: float) -> dict:
    def hits_pct(m, r):
        return 100.0 * rounds[r]["hits"][m] / len(s.test)

    n_test = len(s.test)
    return {
        "setup_s": (setup_s, "s"),
        "memn2n_train_ex_per_s": (len(s.prepared) * s.mcfg.epochs
                                  / round_seconds(rounds, "train", "memn2n"), "examples/s"),
        "supemb_train_ex_per_s": (len(s.train) * s.ecfg.epochs
                                  / round_seconds(rounds, "train", "supemb"), "examples/s"),
        "memn2n_eval_ex_per_s": (n_test / round_seconds(rounds, "eval", "memn2n"), "examples/s"),
        "supemb_eval_ex_per_s": (n_test / round_seconds(rounds, "eval", "supemb"), "examples/s"),
        "ir_eval_ex_per_s": (n_test / round_seconds(rounds, "eval", "ir"), "examples/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        # memn2n after the rounds every run makes, so the figure is fixed
        "memn2n_hits_at_k": (hits_pct("memn2n", w.rounds - 1), "%"),
        "supemb_hits_at_k": (hits_pct("supemb", -1), "%"),
    }


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "dialeval")):
        print(f"error: no dialeval sources at {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import speed
    import verify
    from tracing import Tracer, layer_metrics

    w = workloads.WORKLOADS[args.workload]
    work = os.path.join(HERE, "work", f"{w.name}-s{args.seed}-p{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        tracer = Tracer() if args.trace else None
        if tracer:
            import dialeval.cli  # noqa: F401  every module the CLI binds
            tracer.install()
        # set-up is one part: the imports before it (numpy's among them)
        # are scaled alike, and the benchmark's own source writing is left out
        before_s = time.perf_counter() - _T0
        clock = speed.Clock(sample=tracer is None)
        with clock.part("setup"):
            s = setup(w, args.seed, work, tracer)
        ((_, measured_s, scaled_s),) = clock.parts
        setup_s = before_s + measured_s - s.sources_s
        setup_scaled_s = setup_s * scaled_s / measured_s
        if tracer:
            tracer.uninstall()
        state: dict = {}
        rounds: list[dict] = []
        round_s: dict[bool, list[float]] = {False: [], True: []}
        start = time.perf_counter()
        while True:
            r = len(rounds)
            # traced runs do the fixed schedule alone, tracing every odd round
            traced = bool(tracer) and r % 2 == 1
            if traced:
                tracer.install()
            t = time.perf_counter()
            rounds.append(run_round(w, s, r, state, tracer if traced else None))
            now = time.perf_counter()
            round_s[traced].append(now - t)
            if traced:
                tracer.uninstall()
            if r + 1 >= w.rounds and (tracer or now - start + (now - t) > args.seconds):
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems, counts = verify.run_all(w, s, rounds, state)
        for p in problems:
            print(f"CHECK FAILED: {p}", file=sys.stderr)
        attempted = sum(r["ops"] for r in rounds)

        if tracer:
            memory: dict = {}
            attempted += run_round(w, s, 0, {}, memory=memory)["ops"]
            metrics = layer_metrics(tracer)
            metrics["io.model_mb"] = (sum(os.path.getsize(p) for p in s.model_path.values())
                                      / 2**20, "MB")
            metrics["mem.train.peak_mb"] = (memory["train"], "MB")
            metrics["mem.eval.peak_mb"] = (memory["eval"], "MB")
            metrics["trace.overhead_pct"] = (100.0 * (statistics.median(round_s[True])
                                                      / statistics.median(round_s[False])
                                                      - 1.0), "%")
            metrics["check.near_ties"] = (counts["near_ties"], "count")
            metrics["check.rewritten_contexts"] = (counts["rewritten_contexts"], "count")
            os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
            tracer.write_spans(os.path.join(
                HERE, "results", f"spans-{w.name}-s{args.seed}.jsonl"))
        else:
            metrics = end_to_end(w, s, rounds, setup_scaled_s, rss_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:14.4f} {unit}", file=sys.stderr)
    stages = [("train", m) for m in MODELS[:2]] + [("eval", m) for m in MODELS]
    print(f"rounds {len(rounds)}; seconds measured / scaled: set-up {setup_s:.3f} / "
          f"{setup_scaled_s:.3f}; per stage, a round: " + ", ".join(
              f"{m} {st} {round_seconds(rounds, st, m, scaled=False):.3f} / "
              f"{round_seconds(rounds, st, m):.3f}" for st, m in stages), file=sys.stderr)
    print(f"near-ties {counts['near_ties']}, contexts read back with '|' for ', ' "
          f"{counts['rewritten_contexts']}, checks {'passed' if not problems else 'FAILED'}",
          file=sys.stderr)
    # an operation that raises ends the run without a result, so none failed
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
