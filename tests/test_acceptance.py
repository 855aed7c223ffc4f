"""Acceptance criteria, one test per criterion.

Each test prints a single ``criterion NN PASS/FAIL`` line (visible with
``pytest -v -rA`` or on failure) and asserts the criterion at its stated
tolerance, including the runtime limits where one is stated.  Budgets are
wall-clock; the machine is assumed to be an ordinary single desk core.
"""

import time

import pytest

from twodual import bidual_and_evaluate, enumerate_homs
from twodual.core import FiniteStructure
from twodual.instances import (
    gen_betweenness,
    gen_posets,
    gen_semilattices,
    template,
    verify_betweenness,
    verify_biconvex,
    verify_hms,
    verify_hom_equivalence,
    verify_pasch,
    verify_priestley,
    verify_stone,
    verify_ultimate,
)
from twodual.rng import SplitMix64


def _line(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_priestley_exhaustive_posets():
    t0 = time.monotonic()
    rep = verify_priestley(4)
    elapsed = time.monotonic() - t0
    counts = {int(n): c for n, c in rep["poset_counts"].items()}
    assert {n: c["generated"] for n, c in counts.items()} == {
        1: 1, 2: 3, 3: 19, 4: 219,
    }
    assert all(c["generated"] == c["brute"] for c in counts.values())
    ok = rep["pass"] and elapsed < 60
    assert _line(
        1, ok, f"{sum(c['generated'] for c in counts.values())} posets, "
        f"{elapsed:.1f}s"
    )


def test_criterion_02_stone_antichains():
    t0 = time.monotonic()
    rep = verify_stone(4)
    elapsed = time.monotonic() - t0
    for entry in rep["antichains"]:
        assert entry["dual_size"] == 2 ** entry["n"]
        assert entry["negation_is_complement"]
        assert entry["injective"] and entry["surjective"]
    ok = rep["pass"] and elapsed < 10
    assert _line(2, ok, f"n=1..4 duals sized 2^n, {elapsed:.1f}s")


def test_criterion_03_hms_semilattices():
    t0 = time.monotonic()
    rep = verify_hms(4, 200)
    elapsed = time.monotonic() - t0
    assert rep["count"] == 88 + 200  # exhaustive ≤ 4 plus seeded randoms
    for entry in rep["entries"]:
        assert entry["principal_filters"]
        assert entry["bijective"] and entry["with_zero_bijective"]
    ok = rep["pass"] and elapsed < 120
    assert _line(3, ok, f"{rep['count']} semilattices, {elapsed:.1f}s")


def test_criterion_04_every_dual_hom_is_an_evaluation():
    t0 = time.monotonic()
    rep = verify_ultimate(100, budget=600.0, max_size=5)
    elapsed = time.monotonic() - t0
    assert len(rep["templates"]) == 12
    checked = timeouts = 0
    for section in rep["templates"]:
        assert section["outcome"] in ("checked", "timeout")
        if section["outcome"] == "timeout":
            timeouts += 1
            continue
        assert section["pass"]  # per-instance timeouts are not failures
        assert not section["failures"]
        checked += section["checked"]
        timeouts += section["timeouts"]
    assert checked > 0
    ok = rep["pass"] and elapsed < 630
    assert _line(
        4, ok,
        f"{checked} instances across 12 templates, "
        f"{timeouts} timeouts, {elapsed:.0f}s",
    )


def test_criterion_05_separation_algorithm():
    rep = verify_pasch(500, max_universe=8)
    assert rep["count"] == 500
    assert all(e["failure"] is None and e["pass"] for e in rep["entries"])
    assert len(rep["fixtures"]) == 20
    for fx in rep["fixtures"]:
        assert fx["separate_outcome"] == "pasch_failure"
        assert fx["pass"]
    pairs = sum(e["pairs"] for e in rep["entries"])
    assert _line(5, rep["pass"], f"{pairs} separations, 20 broken fixtures")


def test_criterion_06_homs_equal_halfspaces():
    rep = verify_hom_equivalence()
    assert len(rep["templates"]) == 9
    for section in rep["templates"]:
        assert all(e["equal"] for e in section["entries"])
    count = sum(len(s["entries"]) for s in rep["templates"])
    assert _line(6, rep["pass"], f"{count} hom-set/halfspace comparisons")


def test_criterion_07_convexity_round_trips():
    rep = verify_biconvex(max_size=6)
    for entry in rep["plain"]["entries"] + rep["symmetric"]["entries"]:
        assert entry["round_trip"]
        assert entry["dual_through_point"]
    for entry in rep["symmetric"]["entries"]:
        assert entry["dual_complemented"]
        assert entry["second_dual_symmetric"]
    assert rep["planar_witness"]["normal"] is False
    assert rep["planar_witness"]["hull_transit"] is False
    spaces = len(rep["plain"]["entries"]) + len(rep["symmetric"]["entries"])
    assert _line(
        7, rep["pass"], f"{spaces} spaces round-tripped, planar witness fails"
    )


def test_criterion_08_negative_control_exact_counts():
    sig = template("bounded_lattice").signature
    meet = [(a, b, min(a, b)) for a in range(3) for b in range(3)]
    join = [(a, b, max(a, b)) for a in range(3) for b in range(3)]
    chain = FiniteStructure(
        sig, 3, {"meet": meet, "join": join}, {"zero": 0, "one": 2}
    )
    _, _, rep = bidual_and_evaluate(
        chain, template("bounded_lattice"), template("pure_set")
    )
    assert rep.sizes == (3, 2, 4)
    assert rep.injective and not rep.surjective
    assert len(rep.unrepresented) == 1
    assert not rep.passed
    assert _line(8, True, "|X**| = 4 ≠ 3 with 1 unrepresented hom")


def test_criterion_09_backtrack_equals_brute():
    order_t = template("order")
    semi_t = template("semilattice")
    beta_t = template("betweenness_s0")

    compared = 0
    for n in (1, 2, 3, 4):
        for x in gen_posets(n):
            a = enumerate_homs(x, order_t)
            b = enumerate_homs(x, order_t, method="brute")
            assert a.homs.sets == b.homs.sets, sorted(x.rel("leq"))
            compared += 1
        for x in gen_semilattices(n):
            a = enumerate_homs(x, semi_t)
            b = enumerate_homs(x, semi_t, method="brute")
            assert a.homs.sets == b.homs.sets
            compared += 1
    exhaustive = compared

    rng = SplitMix64(20260819)
    randoms = 0
    while randoms < 500:
        n = rng.randint(1, 8)
        kind = rng.randint(0, 2)
        if kind == 0:
            x, t = gen_posets(n, "random", seed=rng.next_u64(), count=1)[0], order_t
        elif kind == 1:
            x, t = (
                gen_semilattices(n, "random", seed=rng.next_u64(), count=1)[0],
                semi_t,
            )
        else:
            x, t = (
                gen_betweenness(n, "raw", seed=rng.next_u64(), count=1)[0],
                beta_t,
            )
        a = enumerate_homs(x, t)
        b = enumerate_homs(x, t, method="brute")
        assert a.homs.sets == b.homs.sets
        randoms += 1
    assert _line(
        9, True, f"{exhaustive} exhaustive + {randoms} random instances agree"
    )


def test_criterion_10_betweenness_halfspace_counts():
    rep = verify_betweenness()
    for entry in rep["minimal"]:
        assert entry["halfspaces"] == entry["n"] + 2
        assert entry["separated"]
    # Axiom violations and separation failures must coincide, with the
    # forced antisymmetry fixture flagged at the exact pair.
    for entry in rep["axioms_vs_separation"]:
        assert entry["pass"]
    fixture = rep["antisymmetry_fixture"]
    assert fixture["pass"]
    assert tuple(fixture["axiom_witness"]) == (0, 1)
    assert (0, 1) in {tuple(c) for c in fixture["collisions"]}
    broken = [e for e in rep["axioms_vs_separation"] if not e["axioms"]]
    assert _line(
        10, rep["pass"],
        f"minimal n+2 halfspaces, {len(broken) + 1} violating fixtures flagged",
    )
