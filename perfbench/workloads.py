"""Workload definitions: the `twodual` CLI calls each pass makes.

Every workload is a list of calls.  A call is one `twodual.cli.main(argv)`
invocation with an id that is stable across checkouts (the pinned digests
are keyed by it).  The documents workload also writes its corpus here.

Seeds: `--seed n` of the benchmark maps to suite seed `default + n` (the
pasch suite of `transit` stays at its default), so `--seed 0` runs every
suite at its CLI default and reproduces the reports of a plain `twodual
verify`.  A value that would reach the CLI as a falsy
integer is refused: `run_suite` reads `seed or default`, so `--seed 0`
would silently run the default corpus.
"""

from __future__ import annotations

import json
import os
import random
from typing import NamedTuple

WORKLOADS = ("transit", "biconvex", "structures", "documents")

# The defaults `run_suite` falls back to when given a falsy seed.
SUITE_SEEDS = {"pasch": 5, "biconvex": 2026, "hms": 11, "betweenness": 7, "ultimate": 3}


class BenchError(Exception):
    """The benchmark cannot run as asked (bad argument or checkout)."""


class Call(NamedTuple):
    id: str
    argv: list
    ok_exits: tuple = (0,)


def _truthy_ints(argv: list) -> list:
    """Refuse any integer option value that `run_suite` would replace."""
    for flag, value in zip(argv, argv[1:]):
        if flag in ("--seed", "--samples", "--max-size") and int(value) <= 0:
            raise BenchError(
                f"{flag} {value} would silently fall back to the suite default"
            )
    return argv


def _verify(suite: str, *extra: str, seed: int | None = None) -> Call:
    argv = ["verify", "--suite", suite, *extra]
    if seed is not None:
        argv += ["--seed", str(seed)]
    argv += ["--format", "json"]
    return Call(" ".join(argv), _truthy_ints(argv))


def suite_calls(workload: str, seed: int, tiny: bool) -> list:
    if seed < 0:
        raise BenchError("--seed must be a non-negative integer")
    if workload == "transit":
        # The suite seed stays at its default: the number of 5-point
        # fixtures, and so the i3 work, swings 2x between suite seeds.
        size = ("--max-size", "3", "--samples", "20") if tiny else ("--max-size", "5")
        return [_verify("pasch", *size, seed=SUITE_SEEDS["pasch"])]
    if workload == "biconvex":
        size = ("--max-size", "3") if tiny else ()
        return [_verify("biconvex", *size, seed=SUITE_SEEDS["biconvex"] + seed)]
    if workload == "structures":
        # One thread: with the default pool every suite's wall time follows
        # the load on the other CPU (the GIL handoffs wait for it), which
        # moved this workload's wall 55% between two sets of runs while its
        # CPU time moved 13%.  The pool still runs in transit.
        one = ("--threads", "1")
        if tiny:
            return [
                _verify("priestley", *one, "--max-size", "2"),
                _verify("hms", *one, "--max-size", "2", "--samples", "10", seed=SUITE_SEEDS["hms"] + seed),
                _verify("stone", *one, "--max-size", "2"),
                _verify("betweenness", *one, "--samples", "6", seed=SUITE_SEEDS["betweenness"] + seed),
                _verify("ultimate", *one, "--max-size", "3", "--samples", "2", seed=SUITE_SEEDS["ultimate"] + seed),
            ]
        return [
            _verify("priestley", *one),
            _verify("hms", *one, seed=SUITE_SEEDS["hms"] + seed),
            _verify("stone", *one),
            _verify("betweenness", *one, seed=SUITE_SEEDS["betweenness"] + seed),
            _verify("ultimate", *one, seed=SUITE_SEEDS["ultimate"] + seed),
        ]
    raise BenchError(f"unknown suite workload {workload!r}")


def report_items(report) -> int:
    """Checked items of a suite report: every entry or fixture, i.e. every
    object carrying a `pass` verdict that sits in a list."""
    count = 0
    stack = [report]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, list):
            for item in node:
                if isinstance(item, dict) and "pass" in item:
                    count += 1
                stack.append(item)
    return count


# ------------------------------------------------------------- documents
#
# Small seeded documents, sized so every request exits 0 or 1 under the
# default caps (no cap hit, no usage error): family and table linkages for
# check-axioms / separate / dual / reflexivity, posets and meet-semilattices
# for dual / reflexivity under catalog templates.  Sizes follow a fixed
# cycle and only the content comes from the seed, so every seed asks for
# about the same work.

DOCS_FULL = 48
DOCS_TINY = 8


def _indices(mask: int) -> list:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _family(rng: random.Random, base: int, members: int) -> list:
    return sorted(rng.sample(range(1, 1 << base), members))


def _family_doc(rng: random.Random, j: int) -> dict:
    base = 3 + j % 3
    sets = _family(rng, base, 3 + j % 4)
    return {
        "kind": "family",
        "base": base,
        "sets": [_indices(m) for m in sets],
        "zero": False,
        "one": False,
    }


def _table_doc(rng: random.Random, j: int) -> dict:
    """The induced linkage of a random family, as an explicit table; one
    pair in three tables is dropped, so some fail their axioms."""
    k = (2, 3, 3)[j % 3]
    sets = _family(rng, 3, k)
    rows = {sum(1 << i for i, m in enumerate(sets) if m >> x & 1) for x in range(3)}
    pairs = [
        (s, t)
        for s in range(1 << k)
        for t in range(1 << k)
        if not any(s & ~h == 0 and t & h == 0 for h in rows)
    ]
    if j % 3 == 1:
        pairs.pop(rng.randrange(len(pairs)))
    return {
        "kind": "bea",
        "universe": k,
        "pairs": [[_indices(s), _indices(t)] for s, t in pairs],
        "zero": None,
        "one": None,
    }


def _poset_doc(rng: random.Random, j: int) -> dict:
    n = 2 + j % 3
    up = [1 << i for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.randrange(2):
                up[a] |= 1 << b
    for c in range(n):  # transitive closure
        for a in range(n):
            if up[a] >> c & 1:
                up[a] |= up[c]
    leq = [[a, b] for a in range(n) for b in range(n) if up[a] >> b & 1]
    return {
        "kind": "structure",
        "universe": n,
        "signature": [{"name": "leq", "arity": 2, "functional": False}],
        "relations": {"leq": leq},
        "constants": {},
    }


def _semilattice_doc(rng: random.Random, j: int) -> dict:
    """Sets closed under intersection, with meet = intersection."""
    while True:
        elems = set(_family(rng, 3, 2 + j % 2))
        grown = True
        while grown:
            grown = False
            for a in list(elems):
                for b in list(elems):
                    if a & b not in elems:
                        elems.add(a & b)
                        grown = True
        if len(elems) <= 5:
            break
    elems = sorted(elems)
    index = {m: i for i, m in enumerate(elems)}
    meet = [
        [i, j, index[a & b]] for i, a in enumerate(elems) for j, b in enumerate(elems)
    ]
    return {
        "kind": "structure",
        "universe": len(elems),
        "signature": [{"name": "meet", "arity": 3, "functional": True}],
        "relations": {"meet": meet},
        "constants": {},
    }


def _mask_arg(rng: random.Random, universe: int) -> str:
    return ",".join(str(i) for i in _indices(rng.randrange(1 << universe)))


def _doc_requests(rng: random.Random, doc: dict) -> list:
    kind = doc["kind"]
    if kind in ("family", "bea"):
        universe = len(doc["sets"]) if kind == "family" else doc["universe"]
        return [
            ["check-axioms"],
            ["separate", "--a", _mask_arg(rng, universe), "--b", _mask_arg(rng, universe)],
            ["dual"],
            ["reflexivity"],
        ]
    if doc["signature"][0]["name"] == "leq":
        pair = ["--template", "order", "--e-template", "bounded_lattice"]
    else:
        pair = ["--template", "semilattice", "--e-template", "semilattice01"]
    return [["dual", *pair], ["reflexivity", *pair]]


def document_calls(seed: int, tiny: bool, directory: str) -> list:
    """Write the seeded corpus into `directory`; return its calls in a
    fixed seeded order.  Requests may exit 0 (pass) or 1 (counterexample)."""
    if seed < 0:
        raise BenchError("--seed must be a non-negative integer")
    rng = random.Random(f"twodual-documents-{seed}")
    makers = (_family_doc, _table_doc, _poset_doc, _semilattice_doc)
    os.makedirs(directory, exist_ok=True)
    calls = []
    for i in range(DOCS_TINY if tiny else DOCS_FULL):
        doc = makers[i % len(makers)](rng, i // len(makers))
        name = f"doc{i:03d}.json"
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for tail in _doc_requests(rng, doc):
            argv = [tail[0], "--in", path, *tail[1:], "--format", "json"]
            calls.append(Call(f"{tail[0]} {name} {' '.join(tail[1:])}".strip(), argv, (0, 1)))
    random.Random(f"twodual-order-{seed}").shuffle(calls)
    return calls
