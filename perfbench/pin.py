"""Record the exit code and stdout sha256 of every workload call into
pins.json.  Run it from the repository root on the commit whose reports
are the reference:

    python3 perfbench/pin.py      # full sizes at seeds 0..SEEDS-1, tiny at seed 0

A later change must reproduce these bytes exactly; `worker.py` counts any
difference as a failed call.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from worker import OUT_DIR, PINS, Runner, import_cli  # noqa: E402
from workloads import WORKLOADS, document_calls, suite_calls  # noqa: E402

SEEDS = 11  # full-size seeds pinned: 0..SEEDS-1


def record(cli, workload: str, seed: int, tiny: bool) -> dict:
    scratch = os.path.join(OUT_DIR, f"pin-{os.getpid()}")
    try:
        if workload == "documents":
            calls = document_calls(seed, tiny, scratch)
        else:
            calls = suite_calls(workload, seed, tiny)
        runner = Runner(cli, calls, None, 1)
        runner.one_pass()
        if runner.failed:
            raise SystemExit(f"{workload} seed {seed}: {runner.failures}")
        return runner.digests()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    cli = import_cli()
    pins = {}
    for workload in WORKLOADS:
        sizes = {"tiny": [0], "full": list(range(SEEDS))}
        for size, seeds in sizes.items():
            for seed in seeds:
                pins.setdefault(workload, {}).setdefault(size, {})[str(seed)] = record(
                    cli, workload, seed, size == "tiny"
                )
                print(f"pinned {workload} {size} seed {seed}", file=sys.stderr)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
