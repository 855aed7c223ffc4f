"""Every cap in ``caps.DEFAULT_CAPS`` is read somewhere, and every cap the
package reads is declared there.  A cap that no ``get_cap`` or ``guard``
call names bounds nothing, whatever its comment says."""

import ast
import pathlib

import pytest

from twodual import caps
from twodual.errors import InputError

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "twodual"


def cap_names(source: str) -> set[str]:
    """The string-literal cap names of the ``get_cap`` and ``guard`` calls
    in ``source``, called by bare name or as a module attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        first = node.args[0]
        if name in ("get_cap", "guard") and isinstance(first, ast.Constant):
            out.add(first.value)
    return out


def test_the_check_sees_both_call_forms():
    source = (
        "guard('a', n)\n"
        "caps.get_cap('b')\n"
        "get_cap(name)\n"
        "other('c')\n"
    )
    assert cap_names(source) == {"a", "b"}


def test_the_declared_caps_are_the_caps_read():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) >= 15
    read = set()
    for path in files:
        read |= cap_names(path.read_text(encoding="utf-8"))
    assert read == set(caps.DEFAULT_CAPS)


def test_an_undeclared_cap_is_refused_from_the_environment(monkeypatch):
    before = dict(caps.ACTIVE_CAPS)
    # Each name was a cap once; the last three were folded into
    # pair-axiom-sweep and family-base, which bound the same work.
    for name in ("axiom-sweep", "oracle-table", "biconv-table", "halfspace-universe"):
        monkeypatch.setenv("DUALITY_CAPS", f"{name}=12")
        with pytest.raises(InputError, match=f"unknown cap '{name}'"):
            caps.reload_caps()
        # A refused reload keeps the caps in force.
        assert caps.ACTIVE_CAPS == before


def test_a_refusal_at_import_holds_until_a_reload_succeeds(monkeypatch):
    # The state a refused DUALITY_CAPS leaves at import, on a copy of the
    # caps so that the reload below leaves the session's caps alone.
    monkeypatch.setattr(caps, "ACTIVE_CAPS", dict(caps.ACTIVE_CAPS))
    monkeypatch.setattr(caps, "_refused", "DUALITY_CAPS names unknown cap 'x'")
    with pytest.raises(InputError, match="unknown cap 'x'"):
        caps.get_cap("hom-limit")
    monkeypatch.setenv("DUALITY_CAPS", "x=1")
    with pytest.raises(InputError):
        caps.reload_caps()
    with pytest.raises(InputError, match="unknown cap 'x'"):
        caps.check_environment()
    monkeypatch.delenv("DUALITY_CAPS")
    caps.reload_caps()
    assert caps.get_cap("hom-limit") == caps.DEFAULT_CAPS["hom-limit"]
