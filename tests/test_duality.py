"""Duals, second duals, evaluation reports, and the linkage dual."""

import itertools

import pytest

from twodual import (
    BeaOracle,
    SetFamily,
    all_halfspaces,
    bea_from_biconvexity,
    bidual_and_evaluate,
    check_semi_dual,
    dual,
    dual_of_surjection,
    evaluation_rows,
    family_bea,
    hom_equivalence,
    oracle_from_homs,
    oracle_to_table,
    ultimate_bidual_report,
    ultimate_dual,
)
from twodual.core import FiniteStructure, bits
from twodual.errors import (
    AxiomsFail,
    EmptyUniverse,
    S1Violation,
    SignatureMismatch,
)
from twodual.homs import enumerate_homs
from twodual.instances import (
    chain_interval_space,
    gen_distributive_lattices,
    gen_posets,
    gen_semilattices,
    template,
)
from twodual.instances.verifiers import _antichain, _with_zero
from twodual.rng import SplitMix64


def chain_lattice(n):
    """The n-chain as a bounded lattice structure."""
    sig = template("bounded_lattice").signature
    meet = [(a, b, min(a, b)) for a in range(n) for b in range(n)]
    join = [(a, b, max(a, b)) for a in range(n) for b in range(n)]
    return FiniteStructure(
        sig, n, {"meet": meet, "join": join}, {"zero": 0, "one": n - 1}
    )


def test_three_chain_dual_carrier_is_the_two_prime_filters():
    x = chain_lattice(3)
    ds = dual(x, template("bounded_lattice"), template("pure_set"))
    assert ds.carrier.homs.sets == (0b100, 0b110)
    assert ds.size == 2


def test_three_chain_against_pure_set_has_a_fat_second_dual():
    """The negative control: |X**| = 4 over a 3-element chain."""
    x = chain_lattice(3)
    ds, bidual, rep = bidual_and_evaluate(
        x, template("bounded_lattice"), template("pure_set")
    )
    assert rep.sizes == (3, 2, 4)
    assert rep.injective
    assert not rep.surjective
    assert rep.unrepresented == (0b01,)
    assert not rep.passed


def test_check_semi_dual_flags_the_negative_control():
    rep = check_semi_dual(
        template("bounded_lattice"), template("pure_set"), [chain_lattice(3)]
    )
    assert not rep.passed
    entry = rep.entries[0]
    assert entry["sizes"] == {"X": 3, "Xstar": 2, "Xbidual": 4}
    assert entry["unrepresented"] == 1


def test_signature_mismatch_is_refused():
    x = chain_lattice(3)
    with pytest.raises(SignatureMismatch):
        dual(x, template("order"), template("order"))


def test_s1_violation_names_the_broken_symbol():
    # hom(3-chain, bounded_lattice) lacks the constant-one function, so the
    # carrier cannot support a template that demands a one.
    x = chain_lattice(3)
    with pytest.raises(S1Violation) as err:
        dual(x, template("bounded_lattice"), template("semilattice01"))
    assert err.value.symbol == "one"


def test_semi_dual_reports_the_violating_application():
    rep = check_semi_dual(
        template("bounded_lattice"), template("semilattice01"), [chain_lattice(3)]
    )
    assert not rep.passed
    (entry,) = rep.entries
    assert entry["closed"] is False
    assert entry["witness"] == {"symbol": "one", "args": []}


def test_evaluation_rows_are_point_rows_of_the_carrier():
    x = chain_lattice(3)
    ds = dual(x, template("bounded_lattice"), template("pure_set"))
    assert evaluation_rows(ds.carrier) == [0b00, 0b10, 0b11]


def test_priestley_round_trip_on_every_labeled_poset_up_to_three():
    order_t = template("order")
    dist_t = template("bounded_lattice")
    for n in (1, 2, 3):
        for p in gen_posets(n):
            _, _, rep = bidual_and_evaluate(p, order_t, dist_t)
            assert rep.passed, sorted(p.rel("leq"))


# ---------------------------------------------------- linkage duals


def test_ultimate_dual_constant_rule_no_constants():
    """A constant-free oracle gets both constants when ∅/full are halfspaces."""
    fam = SetFamily(base=2, sets=(0b01, 0b11))
    ud = ultimate_dual(family_bea(fam))
    # Halfspaces of the two-chain family: {1} and {0,1} (member indices).
    assert ud.carrier.sets == (0b10, 0b11)
    assert not ud.carrier.has_empty_as_zero  # ∅ is not a halfspace here
    assert ud.carrier.has_base_as_one


def test_ultimate_dual_constant_rule_with_constants():
    fam = SetFamily(
        base=2,
        sets=(0, 0b01, 0b11),
        has_empty_as_zero=True,
        has_base_as_one=True,
    )
    o = family_bea(fam)
    ud = ultimate_dual(o)
    # Source has both constants, so the dual gets neither.
    assert not ud.carrier.has_empty_as_zero
    assert not ud.carrier.has_base_as_one


def test_ultimate_dual_requires_the_core_axioms():
    broken = BeaOracle.from_table(2, {(0, 0)})
    with pytest.raises(AxiomsFail):
        ultimate_dual(broken)


def test_ultimate_bidual_report_powerset_family():
    fam = SetFamily(
        base=3,
        sets=tuple(range(8)),
        has_empty_as_zero=True,
        has_base_as_one=True,
    )
    oracle = family_bea(fam)
    rep = ultimate_bidual_report(oracle, ultimate_dual(oracle))
    assert rep["pass"]
    # The halfspaces of the full powerset family are the three point
    # filters, and their halfspaces recover all eight members.
    assert rep["sizes"] == {"X": 8, "Xstar": 3, "Xbidual": 8}


def test_ultimate_bidual_report_is_exact_on_small_oracles():
    import itertools

    for k in (1, 2, 3):
        for combo in itertools.combinations(range(8), k):
            fam = SetFamily(base=3, sets=combo)
            oracle = family_bea(fam)
            rep = ultimate_bidual_report(oracle, ultimate_dual(oracle))
            assert rep["pass"], (combo, rep["counterexamples"])


def test_ultimate_bidual_report_lists_untransported_pairs_in_order():
    # The interval table of the 4-chain with three linked pairs deleted:
    # the second dual restores them, so each deletion is a linkage
    # counterexample, listed in increasing (s, t) order.
    table = oracle_to_table(bea_from_biconvexity(chain_interval_space(4)))
    deleted = {(0b0011, 0b0110), (0b0110, 0b1100), (0b0101, 0b0110)}
    assert deleted <= table.pairs
    broken = BeaOracle.from_table(4, table.pairs - deleted)
    ud = ultimate_dual(broken, assume_axioms=True)
    rep = ultimate_bidual_report(broken, ud)
    assert rep["pass"] is False
    assert rep["counterexamples"] == [
        {"kind": "linkage", "s": [0, 1], "t": [1, 2]},
        {"kind": "linkage", "s": [0, 2], "t": [1, 2]},
        {"kind": "linkage", "s": [1, 2], "t": [2, 3]},
    ]
    assert rep["sizes"] == {"X": 4, "Xstar": 8, "Xbidual": 4}


def test_transport_sweep_agrees_on_induced_and_table_oracles():
    # The sweep reads an induced oracle through halfspace masks and a table
    # through its pairs; both must give the same report, in the same order.
    rng = SplitMix64(20261018)
    kinds = set()
    for _ in range(60):
        base = rng.randint(1, 5)
        members = {rng.mask(base) for _ in range(rng.randint(1, 6))}
        full = (1 << base) - 1
        zero, one = rng.below(2) and 0 in members, rng.below(2) and full in members
        fam = SetFamily(
            base=base,
            sets=tuple(sorted(members)),
            has_empty_as_zero=zero,
            has_base_as_one=one,
        )
        induced = family_bea(fam)
        rep = ultimate_bidual_report(induced, ultimate_dual(induced))
        table = oracle_to_table(induced)
        assert rep == ultimate_bidual_report(table, ultimate_dual(table))
        # Halfspace lists that need not satisfy the axioms.
        n = rng.randint(1, 4)
        loose = BeaOracle.from_halfspaces(
            n, [rng.mask(n) for _ in range(rng.randint(0, 3))]
        )
        if not all_halfspaces(loose).sets:
            continue  # no dual to take
        ud = ultimate_dual(loose, assume_axioms=True)
        rep = ultimate_bidual_report(loose, ud)
        table = oracle_to_table(loose)
        ud = ultimate_dual(table, assume_axioms=True)
        assert rep == ultimate_bidual_report(table, ud)
        kinds |= {c["kind"] for c in rep["counterexamples"]}
    assert kinds == {"collision"}


def reference_untransported(oracle):
    """Linkage counterexamples by querying both oracles on every subset
    pair (the sweep `ultimate_bidual_report` ran before its masks)."""
    ud = ultimate_dual(oracle, assume_axioms=True)
    second = all_halfspaces(ud.oracle).sets
    bi = family_bea(SetFamily(base=len(ud.carrier.sets), sets=second))
    n = oracle.universe
    ev = [1 << second.index(ud.carrier.point_rows[x]) for x in range(n)]

    def image(s):
        return sum(ev[x] for x in range(n) if s >> x & 1)

    return [
        {"kind": "linkage", "s": sorted(bits(s)), "t": sorted(bits(t))}
        for s in range(1 << n)
        for t in range(1 << n)
        if oracle.query(s, t) != bi.query(image(s), image(t))
    ]


def test_transport_sweep_matches_the_query_sweep_on_damaged_tables():
    rng = SplitMix64(7)
    found = 0
    for _ in range(40):
        base = rng.randint(2, 4)
        members = {rng.mask(base) for _ in range(rng.randint(2, 4))}
        fam = SetFamily(base=base, sets=tuple(sorted(members)))
        pairs = sorted(oracle_to_table(family_bea(fam)).pairs)
        kept = [p for p in pairs if rng.below(8)]
        table = BeaOracle.from_table(len(members), kept)
        try:
            ud = ultimate_dual(table, assume_axioms=True)
            rep = ultimate_bidual_report(table, ud)
        except (AssertionError, EmptyUniverse):
            continue  # the evaluation left the second dual, or no dual
        linkage = [c for c in rep["counterexamples"] if c["kind"] == "linkage"]
        assert linkage == reference_untransported(table)
        found += bool(linkage)
    assert found >= 5


def test_oracle_from_homs_carries_template_constants():
    x = chain_lattice(3)
    o = oracle_from_homs(x, template("bounded_lattice"))
    assert o.zero_elem == 0
    assert o.one_elem == 2
    assert o.halfspaces == (0b100, 0b110)
    # Characteristic rule: s ⋈ t iff no hom separates them.
    assert o.query(0b010, 0b100)  # 1 ≤ 2
    assert not o.query(0b100, 0b010)  # 2 ≰ 1


def test_hom_equivalence_on_the_three_chain():
    x = chain_lattice(3)
    rep = hom_equivalence(x, template("bounded_lattice"))
    assert rep.equal
    assert rep.only_homs == ()
    assert rep.only_halfspaces == ()


def test_dual_of_surjection_embeds_the_dual():
    # Collapse the 3-chain onto the 2-chain: 0,1 ↦ 0 and 2 ↦ 1.
    x, y = chain_lattice(3), chain_lattice(2)
    lat = template("bounded_lattice")
    rep = dual_of_surjection([0, 0, 1], x, y, lat)
    assert rep.embedding
    assert rep.witnesses == ()


def test_dual_of_surjection_rejects_non_homs():
    from twodual.errors import NotHomomorphism, NotSurjective

    x, y = chain_lattice(3), chain_lattice(2)
    lat = template("bounded_lattice")
    with pytest.raises(NotHomomorphism):
        dual_of_surjection([1, 0, 1], x, y, lat)
    with pytest.raises(NotSurjective):
        dual_of_surjection([0, 0, 0], x, y, lat)


def reference_dual(structure, template_d, template_e):
    """The induced tuples of `dual` by the pointwise loops it ran before it
    read the hom masks as bitsets: a point at a time for each operation
    application and each relation tuple.  Returns ``(symbol, args, mask)``
    of the first application that leaves the carrier instead."""
    masks = enumerate_homs(structure, template_d).homs.sets
    index = {mask: i for i, mask in enumerate(masks)}
    n, m = structure.size, len(masks)

    def values(args, x):
        return tuple(masks[i] >> x & 1 for i in args)

    tuples = {}
    for sym in template_e.signature.symbols:
        rel_e = template_e.structure.rel(sym.name)
        if sym.functional:
            graph = template_e.structure.op(sym.name)
            made = set()
            for args in itertools.product(range(m), repeat=sym.arity - 1):
                out = sum(1 << x for x in range(n) if graph[values(args, x)])
                if out not in index:
                    return sym.name, args, out
                made.add(args + (index[out],))
        else:
            made = {
                args
                for args in itertools.product(range(m), repeat=sym.arity)
                if all(values(args, x) in rel_e for x in range(n))
            }
        tuples[sym.name] = made
    for cname in template_e.signature.constants:
        value = template_e.structure.constants[cname]
        cmask = (1 << n) - 1 if value else 0
        if cmask not in index:
            return cname, (), cmask
    return tuples


def test_dual_matches_the_pointwise_loops_on_every_suite_pair():
    posets = [p for k in range(1, 5) for p in gen_posets(k)]
    lattices = [lat for k in range(1, 5) for lat in gen_distributive_lattices(k)]
    semis = [x for k in range(1, 5) for x in gen_semilattices(k)]
    cases = [
        ("order", "bounded_lattice", posets),
        ("bounded_lattice", "order", lattices),
        ("pure_set", "boolean_algebra", [_antichain(k) for k in range(1, 5)]),
        ("semilattice", "semilattice01", semis),
        ("semilattice0", "semilattice0", [_with_zero(x) for x in semis]),
        ("bounded_lattice", "pure_set", [chain_lattice(k) for k in range(2, 5)]),
        ("bounded_lattice", "semilattice01", [chain_lattice(k) for k in (3, 4)]),
    ]
    closed = broken = 0
    for d, e, structures in cases:
        for x in structures:
            want = reference_dual(x, template(d), template(e))
            try:
                ds = dual(x, template(d), template(e), max_source=64)
            except S1Violation as exc:
                assert (exc.symbol, exc.point, exc.missing_mask) == want
                assert str(exc) == str(S1Violation(*want))
                broken += 1
                continue
            assert {k: set(v) for k, v in ds.induced.tuples.items()} == want
            closed += 1
    assert (closed, broken) == (496, 2)
