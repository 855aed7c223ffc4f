"""Self-check of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selfcheck.py

For every workload, an untraced and a traced run at tiny sizes must pass
their pinned digests and emit exactly the metrics BENCHMARK.json names;
the traced layer map must hold (no homs on transit and biconvex, no table
i3 on structures, transit's per-item pasch work counted as verifier self
time on every thread).  A negative control alters one pinned digest and
must see a pass fail; a falsy suite value must be refused; and a directory
holding only the benchmark (no sources) must make it exit non-zero without
a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)
from worker import Runner, import_cli, load_pins  # noqa: E402
from workloads import WORKLOADS, BenchError, _verify, document_calls  # noqa: E402


def run(*args: str, cwd: str = ROOT) -> tuple:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if proc.returncode == 0 else None), proc


def pasch_item_spans() -> tuple:
    """From the tiny traced transit run's spans: (self CPU seconds of the
    verify_pasch item spans, whether any ran off verify_pasch's thread)."""
    with open(os.path.join(OUT_DIR, "spans-transit-seed0.jsonl"), encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    child_cpu = {}
    for _sid, parent, _name, _start, _end, cpu, tid in spans:
        child_cpu[parent, tid] = child_cpu.get((parent, tid), 0.0) + cpu
    verifier_tids = {s[6] for s in spans if s[2] == "instances.verifiers.verify_pasch"}
    items = [s for s in spans if s[2] == "instances.verifiers.verify_pasch.item"]
    own = sum(cpu - child_cpu.get((sid, tid), 0.0) for sid, _p, _n, _s, _e, cpu, tid in items)
    return own, any(s[6] not in verifier_tids for s in items)


def check(cond: bool, what: str, proc=None) -> None:
    if not cond:
        detail = f"\n{proc.stderr}" if proc is not None else ""
        raise SystemExit(f"selfcheck FAILED: {what}{detail}")
    print(f"ok  {what}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    tiny = ["--seed", "0", "--seconds", "1", "--tiny"]

    for workload in WORKLOADS:
        code, res, proc = run("--workload", workload, "--trace", "0", *tiny)
        check(code == 0 and res["correct"] and res["failed"] == 0, f"{workload}: tiny run passes its pinned digests", proc)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        check(got == e2e, f"{workload}: every end-to-end metric, with its unit")
        check(all(v["value"] > 0 and math.isfinite(v["value"]) for v in res["metrics"].values()),
              f"{workload}: end-to-end metrics are positive")

        code, res, proc = run("--workload", workload, "--trace", "1", *tiny)
        check(code == 0 and res["correct"], f"{workload}: traced tiny run passes", proc)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        check(got == layers, f"{workload}: every per-layer metric, with its unit")
        value = {k: v["value"] for k, v in res["metrics"].items()}
        check(value["cli.main.calls"] > 0, f"{workload}: cli.main is traced")
        if workload in ("transit", "biconvex"):
            check(value["homs.enumerate_homs.calls"] == 0, f"{workload}: no hom enumeration")
            check(value["bea.check_axiom.i3.table.calls"] > 0, f"{workload}: table i3 is traced")
        if workload == "structures":
            check(value["bea.check_axiom.i3.table.calls"] == 0, "structures: no table i3")
            check(value["homs.enumerate_homs.self_s"] > 0, "structures: enumerate_homs has self time")
        if workload == "transit":
            check(0 < value["instances.pasch.pair_accept_ratio"] <= 1, "transit: pair accept ratio in (0, 1]")
            item_self, off_thread = pasch_item_spans()
            passes = json.loads(proc.stdout.strip().splitlines()[-2])["samples"]["traced_passes"]
            check(item_self > 0 and value["instances.verifiers.self_s"] * passes >= item_self * (1 - 1e-9),
                  "transit: verify_pasch's per-item work counts in instances.verifiers.self_s")
            if (os.cpu_count() or 1) > 1:
                check(off_thread, "transit: pasch items on pool threads are spanned")

    # Negative control: one altered digest must fail exactly that call.
    pins = dict(load_pins("documents", True, 0))
    first = sorted(pins)[0]
    pins[first] = [pins[first][0], "0" * 64]
    docs = os.path.join(OUT_DIR, "selfcheck-docs")
    try:
        runner = Runner(import_cli(), document_calls(0, True, docs), pins, 1)
        runner.one_pass()
    finally:
        shutil.rmtree(docs, ignore_errors=True)
    check(runner.failed == 1 and runner.failures[0].startswith(first + ":"), "an altered digest fails its call")

    # A value run_suite would silently replace is refused.
    try:
        _verify("pasch", seed=0)
    except BenchError:
        check(True, "a falsy suite seed is refused")
    else:
        check(False, "a falsy suite seed is refused")
    code, _, _ = run("--workload", "transit", "--seed", "-1", "--seconds", "1", "--trace", "0")
    check(code == 2, "a negative --seed exits 2")

    # Without the sources the benchmark exits non-zero and prints no result.
    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    code, _, proc = run("--workload", "transit", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    check(code != 0 and not proc.stdout.strip(), "no sources: non-zero exit, no result")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
