"""Module boundaries: no module of the package imports a private
(underscore-prefixed) name from another of its modules (tests may) or a
name it never uses, and importing the CLI leaves the suites unloaded until
a ``verify`` or ``gen`` needs them."""

import ast
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "twodual"


def private_imports(source: str, where: str) -> list[str]:
    """``where:line name`` for each private name that ``source`` imports
    from a ``twodual`` module, relatively or by absolute name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            ours = node.level > 0 or root == "twodual"
            names = [alias.name for alias in node.names] if ours else []
        elif isinstance(node, ast.Import):
            names = [
                alias.name
                for alias in node.names
                if alias.name.split(".")[0] == "twodual"
            ]
        else:
            continue
        out += [
            f"{where}:{node.lineno} {name}"
            for name in names
            if any(part.startswith("_") for part in name.split("."))
        ]
    return out


def test_the_check_sees_private_imports():
    source = (
        "from __future__ import annotations\n"
        "from .bea import BeaOracle, _report\n"
        "from ..duality import dual\n"
        "from twodual.core import _preserved\n"
        "import twodual._hidden\n"
    )
    assert private_imports(source, "m.py") == [
        "m.py:2 _report",
        "m.py:4 _preserved",
        "m.py:5 twodual._hidden",
    ]


def test_no_module_imports_a_private_name_of_another():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) >= 15
    found = []
    for path in files:
        where = str(path.relative_to(SRC.parent))
        found += private_imports(path.read_text(encoding="utf-8"), where)
    assert found == []


def unused_imports(source: str, where: str) -> list[str]:
    """``where:line name`` for each name that ``source`` imports and never
    reads.  A name spelled out in the module's ``__all__`` is a re-export
    and counts as read; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read |= {
                elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)
            }
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [
                f"{where}:{node.lineno} {bound}"
                for alias in node.names
                if (bound := alias.asname or alias.name.split(".")[0]) not in read
            ]
    return out


def test_the_check_sees_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys\n"
        "from .bea import BeaOracle, separate as split\n"
        "from .core import bits\n"
        "__all__ = ['bits', *OTHERS]\n"
        "def f(x: BeaOracle):\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source, "m.py") == ["m.py:2 sys", "m.py:3 split"]


def test_no_module_imports_a_name_it_never_uses():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) >= 15
    found = []
    for path in files:
        where = str(path.relative_to(SRC.parent))
        found += unused_imports(path.read_text(encoding="utf-8"), where)
    assert found == []


LAZY_LOAD = r"""
import json, sys
from contextlib import redirect_stdout
from io import StringIO

import twodual.cli as cli
import twodual.instances as instances

LAZY = ("twodual.instances.generators", "twodual.instances.verifiers")
seen = {"import": [m in sys.modules for m in LAZY]}
with redirect_stdout(StringIO()):
    seen["dual"] = cli.main(["dual", "--in", sys.argv[1], "--template", "order"])
seen["after dual"] = [m in sys.modules for m in LAZY]
with redirect_stdout(StringIO()):
    seen["verify"] = cli.main(
        ["verify", "--suite", "stone", "--max-size", "2", "--threads", "1"]
    )
seen["after verify"] = [m in sys.modules for m in LAZY]

names = {}
exec("from twodual.instances import *", names)
seen["unbound"] = [n for n in instances.__all__ if n not in names]
verifiers = sys.modules["twodual.instances.verifiers"]
seen["same objects"] = names["run_suite"] is verifiers.run_suite
seen["stored"] = [n for n in instances.__all__ if n in vars(instances)]
# A rebinding in the submodule, as a tracer makes, shows through.
real = verifiers.run_suite
verifiers.run_suite = "wrapped"
seen["rebound"] = instances.run_suite
verifiers.run_suite = real
seen["unwrapped"] = instances.run_suite is real
try:
    instances.no_such_name
except AttributeError as exc:
    seen["unknown"] = str(exc)
print(json.dumps(seen))
"""


def test_the_cli_loads_the_suites_on_first_use(tmp_path):
    # A fresh process: this one has imported every module already.
    chain = tmp_path / "chain2.json"
    chain.write_text(json.dumps({
        "kind": "structure",
        "universe": 2,
        "signature": [{"name": "leq", "arity": 2, "functional": False}],
        "relations": {"leq": [[0, 0], [0, 1], [1, 1]]},
        "constants": {},
    }))
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", LAZY_LOAD, str(chain)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "import": [False, False],
        "dual": 0,
        "after dual": [False, False],
        "verify": 0,
        "after verify": [True, True],
        "unbound": [],
        "same objects": True,
        # Only the catalog's names live in the package; the rest are read
        # from their submodule on each access.
        "stored": [
            "TEMPLATES", "ORACLE_TEMPLATES", "template", "oracle_template",
            "template_names", "suite_names",
        ],
        "rebound": "wrapped",
        "unwrapped": True,
        "unknown": "module 'twodual.instances' has no attribute 'no_such_name'",
    }
