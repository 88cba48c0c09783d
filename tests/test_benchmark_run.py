"""The benchmark's own code path, in-process: for each workload, the set-up,
one short round (the one a traced run makes for its memory figures) and
every correctness check.  An API change that breaks `benchmark/run.py`
fails here rather than only when the benchmark is run."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmark"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_round_passes_every_check(tmp_path, name):
    w = workloads.WORKLOADS[name]
    s = run.setup(w, 1, str(tmp_path), None)
    state: dict = {}
    memory: dict = {}
    round_ = run.run_round(w, s, 0, state, memory=memory)
    assert set(memory) == {"train", "eval"}
    problems, _ = verify.run_all(w, s, [round_], state)
    assert problems == []
