"""Every report the benchmark pins is still byte-identical.

`perfbench/pins.json` holds the exit code and stdout sha256 of every
`twodual.cli.main` call of the four benchmark workloads.  These tests run
one pass of each workload's seed-0 calls, and of the biconvex and
documents calls at every other pinned seed, through the benchmark's own
worker, so a changed report byte fails here, not only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from twodual import cli

WORKER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def load_worker():
    # The worker puts its own directory on sys.path to import its workloads.
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER_PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def run_one_pass(workload, seed, tmp_path):
    worker = load_worker()
    if workload == "documents":
        calls = worker.document_calls(seed, False, str(tmp_path))
        docs = len({c.id.split()[1] for c in calls})
    else:
        calls = worker.suite_calls(workload, seed, False)
        docs = 0
    pinned = worker.load_pins(workload, False, seed)
    assert pinned is not None
    runner = worker.Runner(cli, calls, pinned, docs)
    runner.one_pass()
    assert runner.attempted == len(calls) > 0
    assert runner.failed == 0, runner.failures


@pytest.mark.parametrize("workload", ["transit", "biconvex", "structures", "documents"])
def test_one_pass_matches_the_pinned_digests(workload, tmp_path):
    run_one_pass(workload, 0, tmp_path)


# The table kernels see other tables at other seeds; these two workloads
# are cheap enough to run at every pinned seed.
@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("workload", ["biconvex", "documents"])
def test_every_pinned_seed_matches_its_digests(workload, seed, tmp_path):
    run_one_pass(workload, seed, tmp_path)
