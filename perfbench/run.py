"""twodual benchmark: one workload, end to end (`--trace 0`) or per layer
(`--trace 1`).

Run from the repository root:

    python3 perfbench/run.py --workload transit --seed 0 --seconds 25 --trace 0

Workloads (see workloads.py): `transit` (verify --suite pasch --max-size 5),
`biconvex` (verify --suite biconvex), `structures` (verify priestley, hms,
stone, betweenness, ultimate) and `documents` (a seeded corpus of small
check-axioms / separate / dual / reflexivity requests).  Every call goes
through `twodual.cli.main` in one worker process, at the CLI's defaults.

The worker is started `SETUP_RUNS` times in all; `setup_s` is the median
time from starting it to its first timed call.  The last one then runs
the workload.  stdout gets one line with the machine, the quartiles and
sample count of each metric and any unpinned digests, then the result as
the last line: `{"correct", "attempted", "failed", "metrics"}`.  The exit
code is 0 when a result was printed, 2 on a bad argument or a checkout
without `src/twodual`, 1 when the worker failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_RUNS = 5  # worker starts per run; setup_s is their median
DEADLINE_S = 170.0  # the whole run, set-up included, ends before this
TAIL_PERCENTILES = (99, 95, 90)
MIN_BEYOND = 10  # samples a reported tail percentile needs above it

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def machine(threads: list) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "commit": commit_sha(),
        "threads": threads,  # `--threads` of the verify calls
    }


def commit_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def summary(values: list) -> dict:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q2 = q3 = values[0]
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def tail(values: list) -> tuple:
    """The highest tail percentile with at least MIN_BEYOND samples above
    it, or the maximum when there are too few samples for p90.  Suite
    workloads make a few requests a run, so theirs is always the maximum;
    documents makes thousands, so its is p99."""
    n = len(values)
    for q in TAIL_PERCENTILES:
        if n * (100 - q) / 100 >= MIN_BEYOND:
            return f"p{q}", statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return "max", max(values)


def start_worker(args, extra: list, deadline: float):
    """Start a worker; return (process, seconds until it printed `ready`)."""
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def finish(proc, deadline: float) -> str:
    """Wait for a worker until the deadline, killing it past that."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the deadline and was stopped")
    return out


def end_to_end(workload: str, raw: dict, setups: list) -> tuple:
    passes = raw["passes"]
    # A request is one document call; a suite workload's request is its
    # whole pass (one verify call, or structures' five suites together).
    if workload == "documents":
        lat_ms = [x * 1000 for x in raw["latencies"]]
    else:
        lat_ms = [p["wall"] * 1000 for p in passes]
    tail_name, tail_ms = tail(lat_ms)
    samples = {
        "wall_s": [p["wall"] for p in passes],
        "cpu_s": [p["cpu"] for p in passes],
        "items_per_s": [p["items"] / p["wall"] for p in passes],
        "latency_p50_ms": lat_ms,
        "latency_p99_ms": lat_ms,
        "peak_rss_mb": [raw["peak_rss_mb"]],
        "setup_s": setups,
    }
    units = {
        "wall_s": "s", "cpu_s": "s", "items_per_s": "1/s", "latency_p50_ms": "ms",
        "latency_p99_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s",
    }
    details = {name: summary(vals) for name, vals in samples.items()}
    details["latency_p99_ms"]["reported"] = tail_name
    metrics = {name: {"value": details[name]["median"], "unit": units[name]} for name in samples}
    metrics["latency_p99_ms"]["value"] = tail_ms
    return metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes (self-check)")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if args.seed < 0 or args.seconds < 1:
        print("perfbench: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "twodual", "cli.py")):
        print(f"perfbench: no twodual sources under {ROOT}/src", file=sys.stderr)
        return 2
    extra = ["--tiny"] if args.tiny else []

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                proc, setup = start_worker(args, extra + ["--setup-only"], deadline)
                finish(proc, deadline)
                setups.append(setup)
        proc, setup = start_worker(args, extra, deadline)
        setups.append(setup)
        out = finish(proc, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}")
        raw = json.loads(out.strip().splitlines()[-1])
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw["layers"].items()}
        details = {"traced_passes": raw["traced_passes"]}
    else:
        metrics, details = end_to_end(args.workload, raw, setups)
    stanza = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(raw["threads"]),
        "samples": details,
        "failures": raw["failures"],
        "pinned": raw["pinned"],
    }
    if not raw["pinned"]:
        stanza["digests"] = raw["digests"]
    print(json.dumps(stanza, sort_keys=True))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
