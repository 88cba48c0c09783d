"""Runs every correctness check of a benchmark run, untimed, after its rounds."""

from __future__ import annotations

import checks
import reference


def run_all(w, s, rounds: list[dict], trained: dict) -> tuple[list[str], dict]:
    """`trained` holds the in-memory models of the last round.  Returns the
    problems found and counts worth reporting (near-ties, rewritten contexts)."""
    from dialeval import data, pipeline
    from dialeval.models import io as model_io
    from dialeval.models.memn2n import build_memory
    from dialeval.text import bag, tokenize

    vocab, kb = s.vocab, s.kb
    problems: list[str] = []

    read = {"train": s.train, "test": s.test}
    dev_pool = data.read_pool(s.pool_path["dev"]) if "dev" in s.pool_path else None
    read["dev"] = data.read_examples(s.split_path["dev"], dev_pool)
    trip_problems, rewritten = checks.round_trip(s.written, read)
    problems += trip_problems
    for split, examples in read.items():
        problems += [f"{split} {p}" for p in checks.golds(examples, vocab)]

    # supemb and ir retrain from the same seeds every round: their
    # evaluations must agree (memn2n trains on from round to round)
    if any(r["supemb_losses"] != rounds[0]["supemb_losses"] for r in rounds):
        problems.append("supemb losses differ between rounds")
    for m in ("supemb", "ir"):
        if len({r["hits"][m] for r in rounds}) != 1:
            problems.append(f"{m}: hits@k differ between rounds")
    memn2n_losses = [x for r in rounds for x in r.get("memn2n_losses", [])]
    last = rounds[-1]

    entity_ids = [i for i, e in enumerate(vocab.entity_flags) if e]
    entity_labels = [vocab.symbols[i] for i in entity_ids]
    entity_bags = [{i: 1} for i in entity_ids]
    entity_index = {label: i for i, label in enumerate(entity_labels)}

    def labels_of(ex):
        return entity_labels if ex.candidate_pool is None else ex.explicit_candidates()

    def candidates(ex):
        """Candidate bags, label index and gold indices, for the sample."""
        if ex.candidate_pool is None:
            return entity_bags, entity_index, \
                [entity_index[g] for g in ex.gold if g in entity_index]
        labels = ex.explicit_candidates()
        return ([bag(tokenize(vocab, c)) for c in labels],
                {c: i for i, c in enumerate(labels)}, [0])

    def query_bag(ex):
        text = " ".join([t for turn in ex.context for t in turn] + [ex.input])
        return bag(tokenize(vocab, text))

    response_bags = [bag(tokenize(vocab, ex.gold[0])) for ex in s.train]
    idf = reference.idf_from_responses(response_bags, vocab.size)
    mp, ep = trained["memn2n"], trained["supemb"]

    def memory_of(ex):
        return build_memory(list(ex.context), ex.input, kb, vocab, s.mcfg)

    def fact_bag(fact_id):
        return bag(tokenize(vocab, kb.render_fact(fact_id)))

    def reference_scores(m, ex, cand_bags):
        if m == "memn2n":
            st = memory_of(ex)
            return reference.memn2n_scores(mp.A_in, mp.A_mem, mp.W, mp.R, mp.T,
                                           st.input_bag, st.memory_bags, st.slots, cand_bags)
        if m == "supemb":
            return reference.supemb_scores(ep.U_in, ep.U_out, query_bag(ex), cand_bags)
        return reference.ir_scores(idf, query_bag(ex), cand_bags)

    # model files hold the trained matrices bit for bit
    loaded = {m: model_io.load_model(s.model_path[m]) for m in trained}
    problems += ["memn2n model file: " + p for p in checks.matrices_equal(
        {"A_in": mp.A_in, "R": mp.R, "T": mp.T},
        {"A_in": loaded["memn2n"][1].A_in, "R": loaded["memn2n"][1].R,
         "T": loaded["memn2n"][1].T})]
    problems += ["supemb model file: " + p for p in checks.matrices_equal(
        {"U_in": ep.U_in}, {"U_in": loaded["supemb"][1].U_in})]
    problems += ["ir model file: " + p for p in checks.matrices_equal(
        {"idf": trained["ir"].idf_vector(vocab.size)},
        {"idf": loaded["ir"][1].idf_vector(vocab.size)})]

    step = max(1, len(s.test) // w.sample)
    sample = set(range(0, len(s.test), step)[:w.sample])
    near_ties = 0
    # a discussion pool holds responses, not entities: no chance level is set
    chance = 100.0 * w.k / len(entity_ids) if w.task != "discussion" else None
    for m in ("memn2n", "supemb", "ir"):
        kind, params, cfg, _ = loaded[m]
        ranker = pipeline.make_ranker(kind, params, vocab, kb, cfg)
        fresh = pipeline.make_ranker(m, trained[m], vocab, kb,
                                     s.mcfg if m == "memn2n" else s.ecfg)
        hits = 0
        sample_hits = ref_hits = 0
        for i, ex in enumerate(s.test):
            ranking = ranker.rank(ex)
            bad = checks.permutation(ranking, labels_of(ex))
            hit = int(any(g in set(ex.gold) for g in ranking[:w.k]))
            hits += hit
            if i in sample:
                if fresh.rank(ex) != ranking:
                    bad.append("loaded and in-memory models rank differently")
                cand_bags, index, gold_idx = candidates(ex)
                ref = reference_scores(m, ex, cand_bags)
                order, ties = checks.reference_order(ranking, index, ref)
                bad += order
                near_ties += ties
                sample_hits += hit
                ref_hits += checks.reference_hit(gold_idx, ref, w.k)
                if m == "memn2n":
                    bad += checks.kb_recall(memory_of(ex), kb, _hash_tokens(ex, vocab, s.mcfg),
                                            s.mcfg, fact_bag)
            if bad:
                problems += [f"{m} test[{i}]: {p}" for p in bad]
                break
        reported = last["hits"][m]
        if hits != reported:
            problems.append(f"{m}: evaluate reported {reported} hits, rankings give {hits}")
        if sample_hits != ref_hits:
            problems.append(f"{m}: sample hits@{w.k} {sample_hits}, reference {ref_hits}")
        if m != "ir":
            losses = memn2n_losses if m == "memn2n" else last["supemb_losses"]
            problems += checks.learning(losses, 100.0 * hits / len(s.test), chance, m)
    return problems, {"near_ties": near_ties, "rewritten_contexts": rewritten}


def _hash_tokens(ex, vocab, cfg) -> list[str]:
    """Distinct surface tokens of the last hash_n messages (0 = all)."""
    from dialeval.text import tokenize
    messages = [t for turn in ex.context for t in turn] + [ex.input]
    if cfg.hash_n > 0:
        messages = messages[-cfg.hash_n:]
    out: list[str] = []
    for msg in messages:
        for tid in tokenize(vocab, msg):
            if vocab.symbols[tid] not in out:
                out.append(vocab.symbols[tid])
    return out

