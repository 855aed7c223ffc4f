"""The benchmark tracer still finds the functions it wraps.

`perfbench/tracer.py` patches package functions by name and reads some of
their arguments, so a rename or a changed signature would only show up in
a traced benchmark run.  These tests run small suites under the tracer
and check the spans and counters it records.
"""

import importlib.util
import json
from pathlib import Path

from twodual import cli
from twodual.instances.verifiers import random_oracle_instances
from twodual.rng import SplitMix64

from test_instances import reference_unlinked_pairs

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_the_biconvex_audit_spans(capsys):
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(
            ["verify", "--suite", "biconvex", "--max-size", "3",
             "--threads", "1", "--format", "json"]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    names = {span[2] for span in tracer.spans}
    assert "instances.verifiers.verify_biconvex" in names
    assert "duality.ultimate_bidual_report" in names
    assert "convexity.check_pasch_convex" in names
    assert "convexity.check_complemented" in names
    assert "bea.all_halfspaces.backtrack" in names


def test_tracer_counts_one_mask_call_per_sampled_side(capsys):
    # The tracer derives instances.pasch.pair_accept_ratio from the
    # SplitMix64.mask calls made inside pasch items, so the pair sampler
    # must keep drawing each side with one mask call.
    samples, seed, max_universe, pairs_per = 20, 5, 3, 50
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(
            ["verify", "--suite", "pasch", "--max-size", str(max_universe),
             "--samples", str(samples), "--format", "json"]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True

    oracles = random_oracle_instances(samples, seed, max_universe=max_universe)
    seeds = SplitMix64(seed + 1)
    attempts = 0
    ran_out = 0
    for oracle in oracles:
        pseed = seeds.next_u64()
        found, tries = reference_unlinked_pairs(oracle, SplitMix64(pseed), pairs_per)
        n = oracle.universe
        if len(found) < pairs_per and all(
            oracle.query(s, t) or (s, t) in found
            for s in range(1 << n)
            for t in range(1 << n)
        ):
            # None left: the sampler stops at the draw that found the last
            # pair, which is that pair's first draw (none if only (0, 0)).
            ran_out += 1
            rng = SplitMix64(pseed)
            tries = 0
            if len(found) > 1:
                tries = 1
                while (rng.mask(n), rng.mask(n)) != found[-1]:
                    tries += 1
        attempts += tries
    assert ran_out > 0
    assert tracer.counts()["pasch.mask.calls"] == 2 * attempts

    pairs = sum(e["pairs"] - 1 for e in report["entries"])
    ratio = tracer.metrics(1, pairs)["instances.pasch.pair_accept_ratio"][0]
    assert 0 < ratio <= 1
