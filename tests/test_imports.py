"""Module boundaries: no module of the package imports a private
(underscore-prefixed) name from another of its modules.  Tests may."""

import ast
import pathlib

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
