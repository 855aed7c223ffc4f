"""Run one workload in this process and print its raw measurements.

`run.py` starts this script from the checkout root; it is not meant to be
called by hand.  It imports `twodual` from `src/` of the checkout, builds
the workload's calls (writing the documents corpus), prints `ready` right
before the first timed call, then runs passes in a closed loop until the
time is up and prints one JSON line.  Each call is `twodual.cli.main(argv)`
with stdout captured; its exit code and the sha256 of its stdout are
checked against the digests pinned in `pins.json`.

With `--trace 1` untraced and traced passes alternate (the tracer is
installed for the traced ones only); the difference of their median walls
is the tracing overhead.  A workload whose pass takes more than a third
of `--seconds` (transit at 25 s) gets one pass of each, so its overhead is
the difference of a single pair.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
PINS = os.path.join(HERE, "pins.json")

sys.path.insert(0, HERE)
from workloads import (  # noqa: E402
    WORKLOADS,
    BenchError,
    document_calls,
    report_items,
    suite_calls,
)

MAX_FAILURE_NOTES = 5


def import_cli():
    """`twodual.cli` from this checkout's sources, never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "twodual", "cli.py")):
        raise BenchError(f"no twodual sources under {src}")
    sys.path.insert(0, src)
    from twodual import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise BenchError(f"twodual was imported from {cli.__file__}, not {src}")
    return cli


def load_pins(workload: str, tiny: bool, seed: int) -> dict | None:
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    return pins.get(workload, {}).get("tiny" if tiny else "full", {}).get(str(seed))


class Runner:
    def __init__(self, cli, calls: list, pinned: dict | None, docs: int):
        self.cli = cli
        self.calls = calls
        self.pinned = pinned
        self.docs = docs
        self.seen = {}  # call id -> (exit, sha) of the first run, when unpinned
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.latencies = []
        self.pasch_pairs = 0

    def _fail(self, call, why: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_NOTES:
            self.failures.append(f"{call.id}: {why}")

    def _check(self, call, code: int, text: str) -> int:
        """Validate one call's outcome; return its checked item count."""
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.pinned is not None:
            expected = self.pinned.get(call.id)
            if expected is None:
                self._fail(call, "no pinned digest")
                return 0
        else:
            expected = self.seen.setdefault(call.id, [code, digest])
        if code not in call.ok_exits:
            self._fail(call, f"exit {code}")
            return 0
        if [code, digest] != list(expected):
            self._fail(call, f"exit {code} sha256 {digest} != pinned {expected[0]} {expected[1]}")
            return 0
        if call.argv[0] != "verify":
            return 0
        report = json.loads(text)
        if report.get("pass") is not True:
            self._fail(call, "report does not pass")
        if report.get("suite") == "pasch":
            self.pasch_pairs += sum(e["pairs"] - 1 for e in report["entries"])
        return report_items(report)

    def one_pass(self) -> dict:
        wall = cpu = 0.0
        items = 0
        for call in self.calls:
            out, err = io.StringIO(), io.StringIO()
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(call.argv)
            except Exception:  # a crash fails this call; the run goes on
                code = None
                if self.failed < MAX_FAILURE_NOTES:
                    traceback.print_exc()
            dt = time.perf_counter() - t0
            cpu += time.process_time() - c0
            wall += dt
            self.latencies.append(dt)
            self.attempted += 1
            items += self._check(call, code, out.getvalue())
        return {"wall": wall, "cpu": cpu, "items": self.docs or items}

    def digests(self) -> dict:
        return dict(sorted(self.seen.items()))


def verify_threads(calls: list) -> list:
    """The `--threads` values the verify calls run with (CLI default:
    `os.cpu_count()`)."""
    out = set()
    for call in calls:
        if call.argv[0] == "verify":
            argv = call.argv
            out.add(int(argv[argv.index("--threads") + 1]) if "--threads" in argv else os.cpu_count() or 1)
    return sorted(out)


def run_passes(runner: Runner, seconds: float) -> list:
    """Closed loop of at least two passes: stop once the next pass would
    overrun."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.one_pass())
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= 2 and elapsed + typical > seconds * 1.1:
            return passes


def run_traced(runner: Runner, tracer, seconds: float) -> tuple:
    """Alternate untraced and traced passes until the next pair would
    overrun; return (untraced passes, traced passes, traced pasch pairs)."""
    untraced, traced = [], []
    pairs = 0
    start = time.perf_counter()
    while True:
        untraced.append(runner.one_pass())
        before = runner.pasch_pairs
        tracer.install()
        try:
            traced.append(runner.one_pass())
        finally:
            tracer.uninstall()
        pairs += runner.pasch_pairs - before
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in untraced) + statistics.median(p["wall"] for p in traced)
        if elapsed + typical > seconds * 1.1:
            return untraced, traced, pairs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    scratch = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    try:
        cli = import_cli()
        if args.workload == "documents":
            calls = document_calls(args.seed, args.tiny, os.path.join(scratch, "docs"))
            docs = len({c.id.split()[1] for c in calls})
        else:
            calls = suite_calls(args.workload, args.seed, args.tiny)
            docs = 0
        pinned = load_pins(args.workload, args.tiny, args.seed)
        print("ready", flush=True)
        if args.setup_only:
            return 0

        runner = Runner(cli, calls, pinned, docs)
        result = {}
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            untraced, traced, pairs = run_traced(runner, tracer, args.seconds)
            wall = statistics.median(p["wall"] for p in traced)
            untraced_wall = statistics.median(p["wall"] for p in untraced)
            layers = tracer.metrics(len(traced), pairs)
            layers["trace.overhead_s"] = (wall - untraced_wall, "s")
            layers["trace.untraced_wall_s"] = (untraced_wall, "s")
            layers["fail_ratio"] = (runner.failed / runner.attempted, "ratio")
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            result["layers"] = layers
            result["traced_passes"] = len(traced)
            passes = untraced + traced
        else:
            passes = run_passes(runner, args.seconds)
        result.update(
            passes=passes,
            latencies=runner.latencies,
            attempted=runner.attempted,
            failed=runner.failed,
            failures=runner.failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            threads=verify_threads(calls),
            pinned=pinned is not None,
        )
        if pinned is None:
            result["digests"] = runner.digests()
        print(json.dumps(result), flush=True)
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
