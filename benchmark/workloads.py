"""The benchmark's workloads: source sizes, split sizes and training settings.

Why each exists:
  qa-kb            factoid QA, k=1, over the largest KB and no dialog context;
                   every memn2n step scores the whole entity table and ir
                   rebuilds it per query, KB recall is the only memory
  discussion-pool  reply ranking against a 1000-response pool read back from
                   the split files; memn2n trains on 11 sampled candidates, eval
                   tokenizes, scores and holds the pool once per example
  qarecs-dialog    three-turn QA+recs dialogs, 2 hops, over a KB a third the
                   size of qa-kb's: the most memories per example against a
                   small entity table, the opposite corner of the memn2n layer
"""

from __future__ import annotations

from dataclasses import dataclass

from sources import SourceSpec


@dataclass(frozen=True)
class Workload:
    name: str
    task: str                       # qa | discussion | qarecs
    sources: SourceSpec
    splits: tuple[int, int, int]    # train, dev, test (qarecs: dialogs)
    k: int
    rounds: int                     # rounds every run makes; memn2n_hits_at_k after them
    memn2n: dict                    # TrainConfig fields; epochs per round
    supemb: dict                    # TrainConfig fields, retrained every round
    train_slice: int                # training examples per timed memn2n_train call
    eval_chunk: int                 # test examples per timed evaluation
    sample: int                     # test examples checked against the reference


WORKLOADS = {w.name: w for w in (
    Workload(
        name="qa-kb",
        task="qa",
        sources=SourceSpec(movies=200, people=50, users=10, threads=1),
        splits=(600, 20, 1200),
        k=1,
        rounds=3,
        memn2n=dict(learning_rate=0.08, dim=30, epochs=1, hops=1),
        supemb=dict(learning_rate=0.05, dim=30, epochs=20),
        train_slice=100,
        eval_chunk=200,
        sample=30,
    ),
    Workload(
        name="discussion-pool",
        task="discussion",
        sources=SourceSpec(movies=300, people=60, users=10, threads=850,
                           pool_size=2000),
        splits=(0, 0, 0),
        k=10,
        rounds=3,
        memn2n=dict(learning_rate=0.03, dim=30, epochs=3, hops=1),
        supemb=dict(learning_rate=0.01, dim=30, epochs=10),
        train_slice=300,
        eval_chunk=20,
        sample=10,
    ),
    Workload(
        name="qarecs-dialog",
        task="qarecs",
        sources=SourceSpec(movies=40, people=15, users=200, threads=1),
        splits=(300, 10, 600),
        k=10,
        rounds=3,
        memn2n=dict(learning_rate=0.02, dim=30, epochs=1, hops=2),
        supemb=dict(learning_rate=0.005, dim=30, epochs=10),
        train_slice=150,
        eval_chunk=200,
        sample=30,
    ),
)}
