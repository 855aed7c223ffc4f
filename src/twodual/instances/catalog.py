"""The catalog of two-element templates, and the names of the suites.

Each finite-signature template is a :class:`~twodual.core.TwoTemplate`
over the universe {0, 1}; the three ``ultimate*`` entries are linkage
oracles realizing min ≤ max on {0, 1} directly, with progressively more
designated constants.  ``SUITES`` names each ``verify`` suite's verifier
and the CLI values it reads, as strings only, so that the CLI can list
the suites without importing the verifiers.
"""

from __future__ import annotations

from ..bea import BeaOracle
from ..core import FiniteStructure, Signature, Symbol, TwoTemplate
from ..errors import InputError

_LEQ = frozenset({(0, 0), (0, 1), (1, 1)})
_EQ = frozenset({(0, 0), (1, 1)})
_MEET = frozenset({(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)})
_JOIN = frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)})
_NEG = frozenset({(0, 1), (1, 0)})
# β(x, y, z): y lies between x and z on the chain 0 < 1 — every triple
# except (1, 0, 1).
_BETA = frozenset(
    (x, y, z)
    for x in (0, 1)
    for y in (0, 1)
    for z in (0, 1)
    if not (x == 1 and y == 0 and z == 1)
)
# B(x, y, z): y ∈ {x, z} — the discrete betweenness on two points.
_NATURAL = frozenset(
    (x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1) if y in (x, z)
)


def _t(symbols, constants, relations, consts) -> TwoTemplate:
    sig = Signature(
        symbols=tuple(symbols), constants=tuple(constants)
    )
    return TwoTemplate(
        FiniteStructure(
            signature=sig, size=2, tuples=dict(relations), constants=dict(consts)
        )
    )


TEMPLATES: dict[str, TwoTemplate] = {
    "order": _t([Symbol("leq", 2)], [], {"leq": _LEQ}, {}),
    "pure_set": _t([Symbol("eq", 2)], [], {"eq": _EQ}, {}),
    "semilattice": _t(
        [Symbol("meet", 3, functional=True)], [], {"meet": _MEET}, {}
    ),
    "semilattice0": _t(
        [Symbol("meet", 3, functional=True)],
        ["zero"],
        {"meet": _MEET},
        {"zero": 0},
    ),
    "semilattice01": _t(
        [Symbol("meet", 3, functional=True)],
        ["zero", "one"],
        {"meet": _MEET},
        {"zero": 0, "one": 1},
    ),
    "bounded_lattice": _t(
        [Symbol("meet", 3, functional=True), Symbol("join", 3, functional=True)],
        ["zero", "one"],
        {"meet": _MEET, "join": _JOIN},
        {"zero": 0, "one": 1},
    ),
    "boolean_algebra": _t(
        [
            Symbol("meet", 3, functional=True),
            Symbol("join", 3, functional=True),
            Symbol("neg", 2, functional=True),
        ],
        ["zero", "one"],
        {"meet": _MEET, "join": _JOIN, "neg": _NEG},
        {"zero": 0, "one": 1},
    ),
    "betweenness_s0": _t([Symbol("between", 3)], [], {"between": _BETA}, {}),
    "natural_betweenness": _t(
        [Symbol("between", 3)], [], {"between": _NATURAL}, {}
    ),
}

# min(s) ≤ max(t) over {0, 1} fails exactly when s ⊆ {1} and t ∩ {1} = ∅
# (min ∅ = 1, max ∅ = 0), i.e. exactly when the halfspace {1} (mask 0b10)
# clashes — so that one halfspace induces the whole relation.
ORACLE_TEMPLATES: dict[str, BeaOracle] = {
    "ultimate": BeaOracle.from_halfspaces(2, (0b10,)),
    "ultimate0": BeaOracle.from_halfspaces(2, (0b10,), zero=0),
    "ultimate01": BeaOracle.from_halfspaces(2, (0b10,), zero=0, one=1),
}


def template_names() -> list[str]:
    return sorted(TEMPLATES) + sorted(ORACLE_TEMPLATES)


def template(name: str) -> TwoTemplate:
    try:
        return TEMPLATES[name.lower()]
    except KeyError:
        raise InputError(
            f"unknown template {name!r}; finite-signature templates: "
            + ", ".join(sorted(TEMPLATES))
        ) from None


def oracle_template(name: str) -> BeaOracle:
    try:
        return ORACLE_TEMPLATES[name.lower()]
    except KeyError:
        raise InputError(
            f"unknown oracle template {name!r}; choices: "
            + ", ".join(sorted(ORACLE_TEMPLATES))
        ) from None


# suite -> (its verifier's name in ``verifiers``, {CLI value it reads:
# the keyword it sets}).  ``threads`` is passed only to the verifiers
# that split their instances across a pool.
SUITES: dict[str, tuple[str, dict[str, str]]] = {
    "priestley": (
        "verify_priestley", {"max_size": "max_size", "threads": "threads"}
    ),
    "stone": ("verify_stone", {"max_size": "max_size", "threads": "threads"}),
    "hms": (
        "verify_hms",
        {"max_size": "max_size", "samples": "samples", "seed": "seed",
         "threads": "threads"},
    ),
    "biconvex": ("verify_biconvex", {"max_size": "max_size", "seed": "seed"}),
    "pasch": (
        "verify_pasch",
        {"max_size": "max_universe", "samples": "samples", "seed": "seed",
         "threads": "threads"},
    ),
    "betweenness": (
        "verify_betweenness",
        {"samples": "samples", "seed": "seed", "threads": "threads"},
    ),
    "ultimate": (
        "verify_ultimate",
        {"max_size": "max_size", "samples": "samples", "seed": "seed",
         "threads": "threads"},
    ),
}


def suite_names() -> list[str]:
    return sorted(SUITES)
