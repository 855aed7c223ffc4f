"""The benchmark tracer still finds the functions it wraps.

`perfbench/tracer.py` patches package functions by name and reads some of
their arguments, so a rename or a changed signature would only show up in
a traced benchmark run.  This test runs a small biconvex suite under the
tracer and checks the spans it records.
"""

import importlib.util
import json
from pathlib import Path

from twodual import cli

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
