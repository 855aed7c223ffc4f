"""Template catalog, instance generators and suite verifiers.

The catalog (templates and suite names) loads with the package.  The
generators and the verifiers, most of its code, load on first use of one
of their names (PEP 562), so importing ``twodual.cli`` does not compile
them.  The lazy names are not stored in this module's globals: each
access reads the submodule's current binding.
"""

import importlib

from .catalog import (
    TEMPLATES,
    ORACLE_TEMPLATES,
    template,
    oracle_template,
    template_names,
    suite_names,
)

_LAZY = {
    name: "generators"
    for name in (
        "chain_interval_space",
        "count_posets_brute",
        "count_semilattice_tables",
        "discrete_space",
        "down_set_lattice",
        "gen_betweenness",
        "gen_biconvexity",
        "gen_distributive_lattices",
        "gen_families",
        "gen_posets",
        "gen_semilattices",
        "gen_separated_instances",
        "leq_rows",
        "minimal_betweenness",
        "nonnormal_planar",
        "planar_trace_space",
        "powerset_family_space",
        "random_oracle_instances",
    )
} | {
    name: "verifiers"
    for name in (
        "betweenness_axioms",
        "make_transit_fixture",
        "run_suite",
        "verify_betweenness",
        "verify_biconvex",
        "verify_hms",
        "verify_hom_equivalence",
        "verify_pasch",
        "verify_priestley",
        "verify_stone",
        "verify_ultimate",
    )
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    # Not cached here: perfbench's tracer rebinds the verifiers in their
    # own module while it is installed, and unbinds them after.
    return getattr(importlib.import_module(f".{module}", __name__), name)


__all__ = [
    "TEMPLATES",
    "ORACLE_TEMPLATES",
    "template",
    "oracle_template",
    "template_names",
    "suite_names",
    *_LAZY,
]
