"""Linkage oracles: queries, axioms, halfspaces, and separation.

The reference implementation used throughout this file computes linkage
directly with Python sets — intersection of the left side covered by the
union of the right side — independently of the bit-mask row machinery.
"""

import itertools

import pytest

from twodual import (
    AxiomsFail,
    BeaOracle,
    PaschFailure,
    PreconditionViolated,
    all_halfspaces,
    associated_order,
    bea,
    bits,
    caps,
    check_axiom,
    check_axioms,
    complement,
    family_bea,
    is_halfspace,
    oracle_to_table,
    require_axioms,
    separate,
)
from twodual.bea import (
    _check_i4_sweep,
    _halfspaces_backtrack,
    _i1_failures,
    _i3_failures,
    _index_masks,
    _report,
    column_bits,
    pairs_of,
    row_bits,
    singleton_links,
    transversal_bits,
    up_closure,
)
from twodual.convexity import bea_from_biconvexity, biconvexity_from_bea
from twodual.core import SetFamily, mask_of
from twodual.errors import EmptyUniverse, InputError
from twodual.instances import verifiers
from twodual.instances.generators import gen_biconvexity, random_oracle_instances
from twodual.jsonio import bea_to_json, dumps
from twodual.rng import SplitMix64


def naive_family_query(base_size, members, s_mask, t_mask):
    """S ⋈ T by the definition: ⋂_{i∈S} A_i ⊆ ⋃_{j∈T} A_j.

    The empty intersection is the whole base, the empty union is ∅.
    """
    inter = set(range(base_size))
    for i in bits(s_mask):
        inter &= members[i]
    union = set()
    for j in bits(t_mask):
        union |= members[j]
    return inter <= union


def as_sets(family):
    return [set(bits(m)) for m in family.sets]


def small_families(base, max_members):
    """Every family over ``base`` points with up to ``max_members`` sets."""
    all_masks = range(1 << base)
    for k in range(1, max_members + 1):
        for combo in itertools.combinations(all_masks, k):
            yield SetFamily(base=base, sets=combo)


def test_family_bea_matches_the_set_theoretic_definition():
    checked = 0
    for fam in small_families(3, 3):
        oracle = family_bea(fam)
        members = as_sets(fam)
        n = len(fam)
        for s in range(1 << n):
            for t in range(1 << n):
                assert oracle.query(s, t) == naive_family_query(
                    fam.base, members, s, t
                ), (
                    fam.sets,
                    s,
                    t,
                )
                checked += 1
    # C(8,1)·4 + C(8,2)·16 + C(8,3)·64 subset pairs over 92 families.
    assert checked == 4064


def test_family_bea_needs_members():
    with pytest.raises(EmptyUniverse):
        family_bea(SetFamily(base=2, sets=()))


def test_realizations_are_exclusive():
    with pytest.raises(InputError):
        BeaOracle(2, pairs=frozenset(), halfspaces=(1,))
    with pytest.raises(InputError):
        BeaOracle(2)


def test_oracle_normalizes_masks_and_dedups_halfspaces():
    o = BeaOracle.from_halfspaces(2, (0b101, 0b01, 0b11))
    assert o.halfspaces == (0b01, 0b11)
    t = BeaOracle.from_table(2, {(0b100, 0b111)})
    assert t.pairs == frozenset({(0, 0b11)})


def test_query_constants_out_of_range():
    with pytest.raises(InputError):
        BeaOracle.from_halfspaces(2, (1,), zero=5)


def test_table_and_induced_realizations_agree():
    fam = SetFamily(base=4, sets=(0b0011, 0b0110, 0b1100, 0b1111))
    induced = family_bea(fam)
    table = oracle_to_table(induced)
    assert table.realization == "table"
    n = induced.universe
    for s in range(1 << n):
        for t in range(1 << n):
            assert induced.query(s, t) == table.query(s, t)


# ----------------------------------------------------------- axioms


def test_core_axioms_hold_for_every_small_family_oracle():
    for fam in small_families(3, 3):
        reports = check_axioms(family_bea(fam))
        assert set(reports) == {"i0", "i1", "i2", "i3"}
        for name, rep in reports.items():
            assert rep.passed, (fam.sets, name, rep.witness)


def test_i0_fails_when_empty_links_empty():
    o = BeaOracle.from_table(2, {(0, 0)})
    rep = check_axiom(o, "i0")
    assert not rep.passed
    assert rep.witness == (0, 0)


def test_i1_fails_for_a_non_monotone_table():
    # {0} ⋈ {1} but the extension {0} ⋈ {1, 0} is missing.
    o = BeaOracle.from_table(2, {(0b01, 0b10)})
    rep = check_axiom(o, "i1")
    assert not rep.passed


def test_i2_detects_asymmetric_singletons():
    # 0 links to 1 but nothing else; the associated order is not reflexive.
    o = BeaOracle.from_table(2, {(0b01, 0b10)})
    rep = check_axiom(o, "i2")
    assert not rep.passed


def test_i5_symmetry_of_a_symmetric_and_an_asymmetric_family():
    sym = SetFamily(base=2, sets=(0b01, 0b10))
    assert check_axiom(family_bea(sym), "i5").passed
    asym = SetFamily(base=2, sets=(0b01, 0b11))
    assert not check_axiom(family_bea(asym), "i5").passed


def test_constant_axioms_follow_the_designated_members():
    fam = SetFamily(
        base=2,
        sets=(0, 0b01, 0b11),
        has_empty_as_zero=True,
        has_base_as_one=True,
    )
    o = family_bea(fam)
    assert o.zero_elem == 0
    assert o.one_elem == 2
    reports = check_axioms(o)
    assert set(reports) == {"i0", "i1", "i2", "i3", "c0", "c1"}
    assert all(r.passed for r in reports.values())
    # Misdesignating a non-empty member as zero breaks c0.
    bad = BeaOracle.from_halfspaces(3, family_bea(fam).halfspaces, zero=1)
    assert not check_axiom(bad, "c0").passed


def test_require_axioms_raises_with_the_failing_reports():
    o = BeaOracle.from_table(2, {(0, 0)})
    with pytest.raises(AxiomsFail) as err:
        require_axioms(o, ("i0", "i1"))
    assert "i0" in err.value.failures


def test_unknown_axiom_is_an_input_error():
    o = family_bea(SetFamily(base=1, sets=(1,)))
    with pytest.raises(InputError):
        check_axiom(o, "i7")


def test_associated_order_of_a_nested_family_is_the_chain():
    fam = SetFamily(base=3, sets=(0b001, 0b011, 0b111))
    order = associated_order(family_bea(fam))
    assert order == frozenset(
        (p, q) for p in range(3) for q in range(3) if p <= q
    )


def test_complement_in_the_powerset_family():
    fam = SetFamily(
        base=2,
        sets=tuple(range(4)),
        has_empty_as_zero=True,
        has_base_as_one=True,
    )
    o = family_bea(fam)
    # Member masks are 0,1,2,3; complements swap 0↔3 and 1↔2.
    assert complement(o, fam.index[0b01]) == fam.index[0b10]
    assert complement(o, fam.index[0b00]) == fam.index[0b11]


# ------------------------------------------------------- halfspaces


def test_halfspace_methods_agree_on_small_oracles():
    for fam in small_families(3, 3):
        o = family_bea(fam)
        brute = all_halfspaces(o, method="brute").sets
        analytic = all_halfspaces(o, method="analytic").sets
        assert brute == analytic, fam.sets
        table = oracle_to_table(o)
        backtrack = all_halfspaces(table, method="backtrack").sets
        assert brute == backtrack, fam.sets


def test_halfspaces_respect_constants():
    fam = SetFamily(
        base=2,
        sets=(0, 0b01, 0b11),
        has_empty_as_zero=True,
        has_base_as_one=True,
    )
    o = family_bea(fam)
    for h in all_halfspaces(o).sets:
        assert not h >> o.zero_elem & 1
        assert h >> o.one_elem & 1
    brute = all_halfspaces(oracle_to_table(o), method="brute").sets
    assert brute == all_halfspaces(o).sets


def test_is_halfspace_on_the_two_chain():
    o = family_bea(SetFamily(base=2, sets=(0b01, 0b11)))
    # Universe is the two members; the up-closed index sets {1} and {0,1}
    # are halfspaces.  ∅ is not: ∅ ⋈ {0,1} because the members cover the base.
    assert is_halfspace(o, 0b10)
    assert is_halfspace(o, 0b11)
    assert not is_halfspace(o, 0b00)
    assert not is_halfspace(o, 0b01)


# -------------------------------------------------------- separation


def test_separate_rejects_linked_pairs():
    o = family_bea(SetFamily(base=2, sets=(0b01, 0b11)))
    with pytest.raises(PreconditionViolated):
        separate(o, 0b01, 0b10)  # member 0 ⊆ member 1


def test_separate_certificates_on_every_small_family():
    """Every non-linked pair of every small family yields a verified split."""
    produced = 0
    for fam in small_families(3, 3):
        o = family_bea(fam)
        n = o.universe
        full = o.full_mask
        for s in range(1 << n):
            for t in range(1 << n):
                if o.query(s, t):
                    continue
                u = separate(o, s, t)
                assert s & ~u == 0, (fam.sets, s, t, u)
                assert t & u == 0, (fam.sets, s, t, u)
                assert is_halfspace(o, u), (fam.sets, s, t, u)
                produced += 1
    assert produced > 1000


def test_separate_works_on_tables_too():
    fam = SetFamily(base=4, sets=(0b0001, 0b0011, 0b0111, 0b1111))
    table = oracle_to_table(family_bea(fam))
    u = separate(table, 0b1000, 0b0001)
    assert is_halfspace(table, u)
    assert 0b1000 & ~u == 0 and 0b0001 & u == 0


def test_separate_on_an_axiom_breaking_table_raises_pasch_failure():
    """Dropping a positive pair from a sound table gets separation stuck."""
    fam = SetFamily(base=4, sets=(0b0011, 0b0101, 0b1001, 0b1110))
    table = oracle_to_table(family_bea(fam))
    victims = [
        (s, t)
        for s, t in sorted(table.pairs)
        if s and t and s & t == 0 and (s | t) != table.full_mask
    ]
    assert victims, "fixture family too small to have a removable pair"
    s0, t0 = victims[0]
    broken = BeaOracle.from_table(
        table.universe, set(table.pairs) - {(s0, t0)}
    )
    assert not check_axiom(broken, "i3").passed
    with pytest.raises(PaschFailure):
        separate(broken, s0, t0)


def test_axiom_witnesses_are_popcount_minimal():
    # i3 witness of the broken two-chain: all masks in it stay small.
    fam = SetFamily(base=3, sets=(0b001, 0b011, 0b111))
    table = oracle_to_table(family_bea(fam))
    victims = [
        (s, t)
        for s, t in sorted(table.pairs)
        if s and t and s & t == 0 and (s | t) != table.full_mask
    ]
    s0, t0 = victims[0]
    broken = BeaOracle.from_table(table.universe, set(table.pairs) - {(s0, t0)})
    rep = check_axiom(broken, "i3")
    assert not rep.passed
    # The reported conclusion pair is the deleted one (it is the unique hole).
    a0, b0 = rep.witness[0], rep.witness[1]
    assert (a0, b0) == (s0, t0)


def test_i4_fallback_sweep_agrees_with_the_closure_path(monkeypatch):
    # A closure-size of 0 makes every closure blow up, so check_axiom falls
    # back to the 4^n pair sweep; verdicts must match the closure path.
    oracles = [
        family_bea(fam) for base in (2, 3) for fam in small_families(base, 3)
    ]
    closure = [check_axiom(o, "i4") for o in oracles]
    assert any(r.passed for r in closure) and not all(r.passed for r in closure)
    failing = {
        (2, (0b01, 0b10)): (0b00, 0b11),
        (3, (0b001, 0b010)): (0b11, 0b00),
        (3, (0b001, 0b110)): (0b00, 0b11),
    }
    pinned = {
        (base, sets): family_bea(SetFamily(base=base, sets=sets))
        for base, sets in failing
    }
    pinned_closure = {k: check_axiom(o, "i4") for k, o in pinned.items()}

    monkeypatch.setitem(caps.ACTIVE_CAPS, "closure-size", 0)
    for o, want in zip(oracles, closure):
        assert check_axiom(o, "i4").passed == want.passed
    for key, o in pinned.items():
        rep = check_axiom(o, "i4")
        assert not rep.passed
        assert rep.witness == pinned_closure[key].witness == failing[key]


def test_i4_witness_does_not_depend_on_the_closure_cap(monkeypatch):
    oracle = family_bea(SetFamily(base=2, sets=(0, 1, 2)))
    closure = check_axiom(oracle, "i4")
    monkeypatch.setitem(caps.ACTIVE_CAPS, "closure-size", 0)
    sweep = check_axiom(oracle, "i4")
    assert closure == sweep
    assert closure.to_json()["witness"] == [[], [1, 2]]


def test_i4_reports_a_hull_pair_past_the_sweep_cap(monkeypatch):
    oracles = [
        family_bea(fam) for base in (2, 3) for fam in small_families(base, 3)
    ]
    swept = [check_axiom(o, "i4") for o in oracles]
    monkeypatch.setitem(caps.ACTIVE_CAPS, "pair-axiom-sweep", 0)
    for o, want in zip(oracles, swept):
        rep = check_axiom(o, "i4")
        assert rep.passed == want.passed
        if not rep.passed:
            assert rep.note == (
                "a hull pair past the pair-axiom-sweep cap: not "
                "popcount-minimal, and it depends on closure-size"
            )
            # A genuine failure: linked, with no point linked between.
            a, b = rep.witness
            assert o.query(a, b)
            assert not any(
                o.query(a, 1 << p) and o.query(1 << p, b)
                for p in range(o.universe)
            )
    oracle = family_bea(SetFamily(base=2, sets=(0, 1, 2)))
    assert check_axiom(oracle, "i4").to_json()["witness"] == [[], [0, 1, 2]]


def reference_i3_walk(oracle):
    """The table i3 witness by the unpruned depth-first walk: every
    premise ``y`` whose ``joins`` is nonempty is visited and tested
    against every ``p``, whether or not the table is up-closed."""
    n = oracle.universe
    with_bit, levels = _index_masks(n)
    table = oracle.linkage

    def joined(bitset, j):
        hit = bitset & with_bit[j]
        return hit | hit >> (1 << j)

    firsts = [joined(table, p + n) for p in range(n)]
    seconds = [joined(table, p) for p in range(n)]
    best = None

    def visit(y, joins, below):
        nonlocal best
        size = y.bit_count()
        for p, second in enumerate(seconds):
            if not second >> y & 1:
                continue
            fails = firsts[p] & ~joins
            top = len(levels) if best is None else best[0] - size + 1
            for c, level in enumerate(levels[:top]):
                hit = fails & level
                if hit:
                    key = (c + size, (hit & -hit).bit_length() - 1, y, p)
                    if best is None or key < best:
                        best = key
                    break
        if best is not None and size >= best[0]:
            return
        for j in range(below):
            child = joined(joins, j)
            if child:
                visit(y | 1 << j, child, j)

    if table:
        visit(0, table, 2 * n)
    if best is None:
        return None
    _, x, y, p = best
    full = oracle.full_mask
    return (x >> n, x & full, y >> n, y & full, 1 << p)


def _assert_i3_matches_the_walk(oracle):
    want = reference_i3_walk(oracle)
    assert check_axiom(oracle, "i3") == bea.AxiomReport("i3", want is None, want)
    return want is None


def up_closed_table(bitset, n):
    return BeaOracle.from_table(n, pairs_of(up_closure(bitset, n), n))


def _assert_i3_matches_the_join(oracle):
    assert check_axiom(oracle, "i3") == _report("i3", _i3_failures(oracle))


def test_bitset_i3_matches_the_pair_join_on_random_tables():
    rng = SplitMix64(3)
    for n in range(1, 5):
        size = 1 << 2 * n
        full = (1 << n) - 1
        every = [(x >> n, x & full) for x in range(size)]
        _assert_i3_matches_the_join(BeaOracle.from_table(n, []))
        _assert_i3_matches_the_join(BeaOracle.from_table(n, every))
        for sixteenths in (1, 4, 8, 12, 15):
            for _ in range(6 if n < 4 else 2):
                pairs = [p for p in every if rng.below(16) < sixteenths]
                _assert_i3_matches_the_join(BeaOracle.from_table(n, pairs))
                # Its monotone closure: every pair above a drawn one.
                upward = [
                    (s, t)
                    for s, t in every
                    if any(a & ~s == 0 and b & ~t == 0 for a, b in pairs)
                ]
                _assert_i3_matches_the_join(BeaOracle.from_table(n, upward))


def test_bitset_i3_matches_the_pair_join_on_transit_fixtures(monkeypatch):
    fixtures = []
    make_fixture = verifiers.make_transit_fixture

    def recorded(oracle):
        out = make_fixture(oracle)
        fixtures.append(out[0])
        return out

    monkeypatch.setattr(verifiers, "make_transit_fixture", recorded)
    verifiers.verify_pasch(0, seed=5, max_universe=5)
    assert len(fixtures) == 20
    # The join costs about a second per 5-point table: check one of them.
    small = [o for o in fixtures if o.universe < 5]
    large = [o for o in fixtures if o.universe == 5]
    assert small and large
    for oracle in small + large[:1]:
        assert not check_axiom(oracle, "i3").passed
        _assert_i3_matches_the_join(oracle)


def test_bitset_i3_matches_the_pair_join_on_crosscheck_tables():
    corpus = gen_biconvexity()
    tables = [
        bea_from_biconvexity(space, force=True)
        for kind in ("plain", "symmetric")
        for space in corpus[kind]
        if space.universe <= 5
    ]
    small = [o for o in tables if o.universe < 5]
    large = [o for o in tables if o.universe == 5]
    assert small and large
    for oracle in tables:
        # Every crosscheck table is up-closed, so it takes the pruned walk.
        assert oracle.above == oracle.linkage
        assert _assert_i3_matches_the_walk(oracle)
    for oracle in small + large[:1]:
        _assert_i3_matches_the_join(oracle)


def test_pruned_i3_matches_the_full_walk_on_up_closures():
    rng = SplitMix64(61)
    verdicts = []
    for n in range(5, 8):
        _, levels = _index_masks(n)
        tables = [up_closed_table(levels[c], n) for c in (n - 1, n, n + 1)]
        for drawn in range(1, 9):
            bitset = mask_of(rng.below(1 << 2 * n) for _ in range(drawn))
            tables.append(up_closed_table(bitset, n))
        for oracle in tables:
            assert oracle.above == oracle.linkage
            verdicts.append(_assert_i3_matches_the_walk(oracle))
    assert 0 < sum(verdicts) < len(verdicts)


def test_pruned_i3_matches_the_full_walk_on_induced_tables():
    oracles = random_oracle_instances(40, 67, max_universe=6)
    assert {o.universe for o in oracles} == set(range(2, 7))
    for oracle in oracles:
        table = oracle_to_table(oracle)
        assert table.above == table.linkage
        assert _assert_i3_matches_the_walk(table)


def test_index_masks_and_the_linkage_bitset_match_their_definitions():
    rng = SplitMix64(17)
    for n in range(1, 8):
        size = 1 << 2 * n
        ones = (1 << size) - 1
        with_bit, _ = _index_masks(n)
        # The repunit form the doubling build replaced.
        assert with_bit == tuple(
            ones // ((1 << (2 << j)) - 1) * (((1 << (1 << j)) - 1) << (1 << j))
            for j in range(2 * n)
        )
        if n > 4:
            continue
        for j, mask in enumerate(with_bit):
            assert mask == mask_of(x for x in range(size) if x >> j & 1)
        full = (1 << n) - 1
        for count in range(5):
            induced = BeaOracle.from_halfspaces(
                n, [rng.mask(n) for _ in range(count)]
            )
            for oracle in (induced, oracle_to_table(induced)):
                assert oracle.linkage == mask_of(
                    x for x in range(size) if oracle.query(x >> n, x & full)
                )


def reference_pairs(n, pred):
    """The subset pairs on which ``pred`` holds, by the double loop over
    ``s`` and then ``t``."""
    size = 1 << n
    return [(s, t) for s in range(size) for t in range(size) if pred(s, t)]


def test_transversal_bits_and_pairs_of_match_the_double_loop():
    rng = SplitMix64(23)
    for n in range(1, 7):
        size = 1 << n
        every = reference_pairs(n, lambda s, t: True)
        assert list(pairs_of(0, n)) == []
        assert list(pairs_of((1 << size * size) - 1, n)) == every
        ones = [1] * size
        assert transversal_bits(n, [0] * size, ones) == 0
        assert transversal_bits(n, ones, ones) == (1 << size * size) - 1
        for width in (1, n, 9):
            for _ in range(3):
                left = [rng.mask(width) for _ in range(size)]
                right = [rng.mask(width) for _ in range(size)]
                want = reference_pairs(n, lambda s, t: left[s] & right[t])
                bitset = transversal_bits(n, left, right)
                assert bitset == mask_of(s << n | t for s, t in want)
                assert list(pairs_of(bitset, n)) == want


def reference_singleton_links(oracle):
    """The singleton links by their definition, one query per subset and
    point: the points ``p`` with ``s ⋈ {p}``, and those with ``{p} ⋈ s``."""
    n = oracle.universe
    subsets = range(1 << n)
    return (
        [mask_of(p for p in range(n) if oracle.query(s, 1 << p)) for s in subsets],
        [mask_of(p for p in range(n) if oracle.query(1 << p, s)) for s in subsets],
    )


def test_singleton_links_match_the_query_loop():
    induced = list(induced_oracles(79, 40, 7))
    tables = [oracle_to_table(o) for o in induced] + list(damaged_tables(83, 40, 6))
    constants = set()
    for oracle in induced + tables:
        assert singleton_links(oracle) == reference_singleton_links(oracle)
        constants.add((oracle.realization, oracle.zero_elem is None))
    assert constants == {
        (realization, bare)
        for realization in ("induced", "table")
        for bare in (True, False)
    }


def test_singleton_links_are_built_once_per_oracle_without_queries(monkeypatch):
    corpus = gen_biconvexity()
    oracles = [
        bea_from_biconvexity(space, force=True)
        for kind in ("plain", "symmetric")
        for space in corpus[kind]
    ]
    assert len(oracles) > 10

    def refused(*args):
        raise AssertionError("a singleton link was queried")

    monkeypatch.setattr(BeaOracle, "query", refused)
    for oracle in oracles:
        assert check_axiom(oracle, "i4").passed
        links = oracle._bitsets["links"]
        biconvexity_from_bea(oracle, skip_axioms=True)
        assert oracle._bitsets["links"] is links
        assert singleton_links(oracle) is links


def test_i4_sweep_and_oracle_to_table_match_the_query_loops():
    oracles = random_oracle_instances(60, 29, max_universe=6)
    oracles += [
        BeaOracle.from_halfspaces(o.universe, o.halfspaces, zero=0, one=1)
        for o in oracles[:10]
    ]
    failing = 0
    for o in oracles:
        n = o.universe
        to_points, from_points = reference_singleton_links(o)
        want = _report(
            "i4",
            reference_pairs(
                n,
                lambda s, t: not to_points[s] & from_points[t] and o.query(s, t),
            ),
        )
        table = BeaOracle.from_table(
            n, reference_pairs(n, o.query), zero=o.zero_elem, one=o.one_elem
        )
        assert oracle_to_table(o) == table
        assert _check_i4_sweep(o) == want
        assert _check_i4_sweep(table) == want
        failing += not want.passed
    assert 0 < failing < len(oracles)


def test_up_closure_and_the_selectors_match_their_definitions():
    rng = SplitMix64(43)
    for n in range(1, 6):
        size = 1 << n
        full = size - 1
        every = reference_pairs(n, lambda s, t: True)
        for _ in range(4):
            rows, cols = rng.mask(size), rng.mask(size)
            assert row_bits(n, rows) == mask_of(
                s << n | t for s, t in every if rows >> s & 1
            )
            assert column_bits(n, cols) == mask_of(
                s << n | t for s, t in every if cols >> t & 1
            )
            drawn = [(s, t) for s, t in every if rng.below(8) == 0]
            bitset = mask_of(s << n | t for s, t in drawn)
            assert up_closure(bitset, n) == mask_of(
                x
                for x in range(size * size)
                if any(a & ~(x >> n) == 0 and b & ~(x & full) == 0 for a, b in drawn)
            )


def reference_backtrack(oracle):
    """The table halfspaces by the element-split backtrack that scans the
    stored pairs at every node and certifies each leaf."""
    n = oracle.universe
    results = []

    def viable(inmask, outmask):
        return not any(
            s & ~inmask == 0 and t & ~outmask == 0 for s, t in oracle.pairs
        )

    def rec(x, inmask, outmask):
        if x == n:
            if is_halfspace(oracle, inmask):
                results.append(inmask)
            return
        bit = 1 << x
        if oracle.zero_elem == x:
            choices = (outmask | bit, None)
        elif oracle.one_elem == x:
            choices = (None, inmask | bit)
        else:
            choices = (outmask | bit, inmask | bit)
        if choices[0] is not None and viable(inmask, choices[0]):
            rec(x + 1, inmask, choices[0])
        if choices[1] is not None and viable(choices[1], outmask):
            rec(x + 1, choices[1], outmask)

    rec(0, 0, 0)
    return sorted(results)


def damaged_tables(seed, count, max_universe):
    """Seeded tables: monotone tables of random induced oracles with a
    few pairs dropped or added, and sparse random (non-monotone) tables;
    every other one with designated constants."""
    rng = SplitMix64(seed)
    for i in range(count):
        n = 1 + i % max_universe
        size = 1 << 2 * n
        full = (1 << n) - 1
        zero = one = None
        if i % 2:
            zero, one = rng.below(n), rng.below(n)
        if i % 3:
            induced = BeaOracle.from_halfspaces(
                n, [rng.mask(n) for _ in range(rng.below(2 * n) + 1)]
            )
            pairs = set(oracle_to_table(induced).pairs)
            for _ in range(rng.below(3)):
                x = rng.below(size)
                pairs ^= {(x >> n, x & full)}
        else:
            pairs = {
                (x >> n, x & full) for x in range(size) if rng.below(8) == 0
            }
        yield BeaOracle.from_table(n, pairs, zero=zero, one=one)


def test_table_i1_matches_the_one_step_scan():
    verdicts = set()
    for oracle in damaged_tables(47, 120, 6):
        want = _report("i1", _i1_failures(oracle))
        assert check_axiom(oracle, "i1") == want
        verdicts.add(want.passed)
    assert verdicts == {True, False}


def test_table_backtrack_matches_brute_and_the_pair_scan():
    found = set()
    for oracle in damaged_tables(53, 120, 6):
        brute = all_halfspaces(oracle, method="brute").sets
        assert tuple(_halfspaces_backtrack(oracle)) == brute
        assert reference_backtrack(oracle) == list(brute)
        assert all_halfspaces(oracle).sets == brute
        found.add((oracle.zero_elem is None, len(brute) > 1))
    assert found == {(True, True), (True, False), (False, True), (False, False)}


def reference_i4(oracle):
    """The i4 report by the pair scan: every linked pair with no point
    ``b`` such that ``s ⋈ {b}`` and ``{b} ⋈ t``."""
    n = oracle.universe
    points = [1 << p for p in range(n)]
    return _report(
        "i4",
        reference_pairs(
            n,
            lambda s, t: oracle.query(s, t)
            and not any(oracle.query(s, b) and oracle.query(b, t) for b in points),
        ),
    )


@pytest.mark.parametrize("cap", [None, 2], ids=["within-cap", "past-cap"])
def test_table_i4_matches_the_pair_scan(cap, monkeypatch):
    # Built first: the corpus materializes tables, which needs the cap.
    tables = list(damaged_tables(61, 200, 6))
    if cap is not None:
        monkeypatch.setitem(caps.ACTIVE_CAPS, "pair-axiom-sweep", cap)
    verdicts = set()
    for oracle in tables:
        want = reference_i4(oracle)
        assert check_axiom(oracle, "i4") == want
        verdicts.add(want.passed)
    assert verdicts == {True, False}


def separations(oracle):
    """The outcome of :func:`separate` on every subset pair."""
    every = range(1 << oracle.universe)
    return [separation_outcome(separate, oracle, s, t) for s in every for t in every]


def test_table_backtrack_and_i1_scan_pairs_past_the_sweep_cap(monkeypatch):
    tables = [o for o in damaged_tables(59, 60, 5) if o.universe >= 3]
    assert {o.universe for o in tables} == {3, 4, 5}

    def axioms(oracle):
        # The pair join of i3 costs O(n·|T|²): seconds on dense 5-point tables.
        return ("i1", "i3", "i4") if oracle.universe <= 4 else ("i1", "i4")

    within = [(check_axioms(o, axioms(o)), separations(o)) for o in tables]
    monkeypatch.setitem(caps.ACTIVE_CAPS, "pair-axiom-sweep", 2)

    def refused(*args):
        raise AssertionError("a pair-index bitset is built past the sweep cap")

    monkeypatch.setattr(bea, "up_closure", refused)
    monkeypatch.setattr(BeaOracle, "linkage", property(refused))
    monkeypatch.setattr(BeaOracle, "above", property(refused))
    for oracle, (reports, outcomes) in zip(tables, within):
        brute = all_halfspaces(oracle, method="brute").sets
        assert all_halfspaces(oracle, method="backtrack").sets == brute
        assert check_axiom(oracle, "i1") == _report("i1", _i1_failures(oracle))
        assert check_axioms(oracle, axioms(oracle)) == reports
        assert separations(oracle) == outcomes


def test_a_table_builds_its_up_closure_once_and_stays_equal_to_a_fresh_one(
    monkeypatch,
):
    calls = []

    def counted(bitset, n):
        calls.append(n)
        return up_closure(bitset, n)

    monkeypatch.setattr(bea, "up_closure", counted)
    fam = SetFamily(base=4, sets=(0b0011, 0b0110, 0b1100, 0b1111))
    used = oracle_to_table(family_bea(fam))
    fresh = oracle_to_table(family_bea(fam))
    reports = check_axioms(used, ["i0", "i1", "i2", "i3", "i4"])
    assert [a for a, r in reports.items() if not r.passed] == ["i4"]
    assert all_halfspaces(used).sets == all_halfspaces(fresh, method="brute").sets
    a, b = 0b0001, 0b0100
    assert not used.query(a, b)
    assert separate(used, a, b) == reference_separate(fresh, a, b)
    assert calls == [4]
    assert set(used._bitsets) == {"linkage", "above", "links"}
    assert not fresh._bitsets
    assert used == fresh and fresh == used
    assert hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert dumps(bea_to_json(used)) == dumps(bea_to_json(fresh))


def reference_separate(oracle, a, b):
    """Separation by its two former paths: candidate tracking over the
    stored halfspaces of an induced oracle, pair scans for a table."""
    full = oracle.full_mask
    a &= full
    b &= full
    if oracle.query(a, b):
        raise PreconditionViolated("the sides are linked; nothing separates them")
    if a & b:
        raise PaschFailure(
            "sides overlap yet are not linked; singleton axioms must fail",
            witness=(a, b),
        )
    n = oracle.universe
    inside = a
    if oracle.halfspaces is not None:
        cands = [h for h in oracle.halfspaces if a & ~h == 0 and b & h == 0]
        for p in range(n):
            bit = 1 << p
            if (inside | b) & bit:
                continue
            keep = [h for h in cands if h & bit]
            if keep:
                inside |= bit
                cands = keep
        outside = b
        for p in range(n):
            bit = 1 << p
            if (inside | outside) & bit:
                continue
            avoid = [h for h in cands if not h & bit]
            if avoid:
                outside |= bit
                cands = avoid
    else:
        linked_to_b = [s for s, t in oracle.pairs if t == b]
        for p in range(n):
            bit = 1 << p
            if (inside | b) & bit:
                continue
            grown = inside | bit
            if not any(s & ~grown == 0 for s in linked_to_b):
                inside = grown
        outside = b
        clash = next(
            (
                (s, t)
                for s, t in oracle.pairs
                if s & ~inside == 0 and t & ~outside == 0
            ),
            None,
        )
        if clash is not None:
            raise PaschFailure(
                "a stored pair already links the grown sides", witness=clash
            )
        for p in range(n):
            bit = 1 << p
            if (inside | outside) & bit:
                continue
            grown = outside | bit
            if not any(
                s & ~inside == 0 and t & ~grown == 0 for s, t in oracle.pairs
            ):
                outside = grown
    if inside | outside != full:
        stuck = next(p for p in range(n) if not (inside | outside) >> p & 1)
        raise PaschFailure(
            f"element {stuck} can join neither side; the oracle breaks the "
            "monotonicity or transit axioms",
            stuck_point=stuck,
        )
    if not is_halfspace(oracle, inside):
        raise PaschFailure(
            "the grown side fails the halfspace certificate",
            witness=(inside, full & ~inside),
        )
    return inside


def separation_outcome(fn, oracle, a, b):
    """The halfspace, or the exception's type, message and payload."""
    try:
        return ("halfspace", fn(oracle, a, b))
    except PaschFailure as exc:
        kind = "stuck" if exc.stuck_point is not None else "witness"
        return (kind, str(exc), exc.stuck_point, exc.witness)
    except PreconditionViolated as exc:
        return ("precondition", str(exc))


def induced_oracles(seed, count, max_universe):
    """Seeded induced oracles of 1 .. 2n random halfspaces, every other
    one with designated constants."""
    rng = SplitMix64(seed)
    for i in range(count):
        n = 1 + i % max_universe
        zero = one = None
        if i % 2:
            zero, one = rng.below(n), rng.below(n)
        sets = [rng.mask(n) for _ in range(rng.below(2 * n) + 1)]
        yield BeaOracle.from_halfspaces(n, sets, zero=zero, one=one)


def separation_corpus():
    yield from induced_oracles(67, 40, 5)
    yield from damaged_tables(71, 60, 4)


@pytest.mark.parametrize("cap", [None, 2], ids=["within-cap", "past-cap"])
def test_separate_matches_the_two_path_reference(cap, monkeypatch):
    corpus = list(separation_corpus())
    if cap is not None:
        monkeypatch.setitem(caps.ACTIVE_CAPS, "pair-axiom-sweep", cap)
    kinds = set()
    for oracle in corpus:
        for s in range(1 << oracle.universe):
            for t in range(1 << oracle.universe):
                want = separation_outcome(reference_separate, oracle, s, t)
                assert separation_outcome(separate, oracle, s, t) == want
                kinds.add((oracle.realization, want[0]))
    assert kinds == {
        (realization, kind)
        for realization in ("induced", "table")
        for kind in ("halfspace", "stuck", "witness", "precondition")
    } - {("induced", "stuck")}


@pytest.mark.parametrize("cap", [None, 2], ids=["within-cap", "past-cap"])
def test_cover_test_matches_its_definition(cap, monkeypatch):
    corpus = [(o, oracle_to_table(o).pairs) for o in separation_corpus()]
    if cap is not None:
        monkeypatch.setitem(caps.ACTIVE_CAPS, "pair-axiom-sweep", cap)
    for oracle, pairs in corpus:
        n = oracle.universe
        covered = bea._cover_test(oracle)
        for s in range(1 << n):
            for t in range(1 << n):
                want = any(a & ~s == 0 and b & ~t == 0 for a, b in pairs)
                assert covered(s, t) == want, (oracle, s, t)


def test_induced_backtrack_matches_brute():
    found = set()
    for oracle in induced_oracles(73, 80, 6):
        brute = all_halfspaces(oracle, method="brute").sets
        assert tuple(_halfspaces_backtrack(oracle)) == brute
        found.add((oracle.zero_elem is None, len(brute) > 1))
    assert found == {(True, True), (True, False), (False, True), (False, False)}
