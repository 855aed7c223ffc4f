"""Bi-convexities: hulls, normality, the transversal oracle, round trips."""

import pytest

from twodual import (
    BeaOracle,
    BiConvexity,
    SetFamily,
    bea,
    bea_from_biconvexity,
    biconvexity_from_bea,
    bits,
    check_axiom,
    check_complemented,
    check_normal,
    check_pasch_convex,
    complement,
    conv_hull,
    get_cap,
    oracle_to_table,
    verify_convexity_duality,
)
from twodual.bea import pairs_of, transversal_bits
from twodual.convexity import ComplementedReport
from twodual.core import subset_images
from twodual.duality import ultimate_dual
from twodual.errors import (
    DuplicateComplement,
    MissingConstants,
    NotNormal,
    RoundTripFailure,
)
from twodual.instances import (
    chain_interval_space,
    discrete_space,
    gen_biconvexity,
    nonnormal_planar,
    planar_trace_space,
    powerset_family_space,
)
from twodual.rng import SplitMix64


def test_families_must_be_closure_systems():
    good = SetFamily(base=2, sets=(0, 0b01, 0b11))
    with pytest.raises(ValueError):
        BiConvexity(3, good, good)  # base disagrees
    with pytest.raises(ValueError):
        BiConvexity(2, SetFamily(base=2, sets=(0, 0b01)), good)  # no full set
    with pytest.raises(ValueError):
        BiConvexity(2, SetFamily(base=2, sets=(0b01, 0b10, 0b11)), good)
    with pytest.raises(ValueError):
        BiConvexity(2, good, good, zero_elem=5)


def test_chain_hulls_fill_gaps():
    space = chain_interval_space(4)
    assert space.hull_lower(0b0101) == 0b0111
    assert space.hull_upper(0b1001) == 0b1111
    assert space.hull_lower(0b0010) == 0b0010
    assert space.hull_lower(0) == 0
    assert conv_hull(space, "L", 0b0101) == 0b0111
    assert conv_hull(space, "U", 0b0101) == 0b0111


def test_normality_of_the_stock_spaces():
    for space in (
        chain_interval_space(1),
        chain_interval_space(4),
        discrete_space(3),
        powerset_family_space(2),
        planar_trace_space(((0, 0), (1, 0), (0, 1))),
    ):
        assert check_normal(space).passed


def test_planar_fixture_is_not_normal():
    rep = check_normal(nonnormal_planar())
    assert not rep.passed
    assert rep.split_witnesses  # a disjoint pair admits no separating half
    doc = rep.to_json()
    assert doc["pass"] is False


def test_hull_transit_on_chains_and_the_planar_fixture():
    chain = chain_interval_space(4)
    rep = check_pasch_convex(chain)
    assert rep.passed
    assert rep.to_json() == {"pass": True, "witness": None}
    assert check_axiom(bea_from_biconvexity(chain), "i3").passed

    planar = nonnormal_planar()
    bad = check_pasch_convex(planar)
    assert not bad.passed
    assert bad.witness is not None
    # The transversal oracle's transit axiom agrees with the sweep.
    assert not check_axiom(bea_from_biconvexity(planar, force=True), "i3").passed


def test_transversal_oracle_refuses_non_normal_spaces():
    with pytest.raises(NotNormal):
        bea_from_biconvexity(nonnormal_planar())
    forced = bea_from_biconvexity(nonnormal_planar(), force=True)
    assert forced.universe == 5


def test_round_trip_is_exact_on_normal_spaces():
    spaces = [
        chain_interval_space(1),
        chain_interval_space(3),
        chain_interval_space(4),
        discrete_space(2),
        discrete_space(3),
        powerset_family_space(2),
    ]
    for space in spaces:
        rebuilt = biconvexity_from_bea(bea_from_biconvexity(space))
        assert rebuilt.lower.sets == space.lower.sets
        assert rebuilt.upper.sets == space.upper.sets
        assert rebuilt.zero_elem == space.zero_elem
        assert rebuilt.one_elem == space.one_elem


def test_unrealizable_oracle_raises_round_trip_failure():
    # Delete a linked pair whose sides are both non-singletons: the hulls
    # rebuilt from singleton linkage cannot see the deletion, so the
    # transversal rule must disagree somewhere.
    oracle = bea_from_biconvexity(chain_interval_space(3))
    pairs = set(oracle_to_table(oracle).pairs)
    assert (0b011, 0b110) in pairs
    pairs.discard((0b011, 0b110))
    broken = BeaOracle.from_table(3, pairs)
    with pytest.raises(RoundTripFailure) as info:
        biconvexity_from_bea(broken, skip_axioms=True)
    assert info.value.witness == (0b011, 0b110)


def test_complementation_of_the_powerset_space():
    space = powerset_family_space(2)
    rep = check_complemented(space)
    assert rep.passed
    # Points are the four subsets of a two-point base in mask order;
    # negation is set complement.
    assert rep.negation == (3, 2, 1, 0)
    assert rep.to_json()["pass"] is True


def test_swap_law_failure_reports_the_first_pair():
    # Every point has a complement, but the lower and upper families are
    # not mirror images, so negation does not reverse linkage.
    space = BiConvexity(
        4,
        SetFamily(base=4, sets=(0, 1, 2, 8, 9, 10, 15)),
        SetFamily(base=4, sets=(0, 2, 4, 5, 6, 10, 14, 15)),
        zero_elem=3,
        one_elem=2,
    )
    rep = check_complemented(space)
    assert rep.complemented and rep.swap_passed is False
    assert rep.negation == (1, 0, 3, 2)
    assert rep.swap_witness == (0b0010, 0b0100)
    assert rep.to_json()["swap_witness"] == [[1], [2]]


def test_complementation_needs_constants():
    with pytest.raises(MissingConstants):
        check_complemented(chain_interval_space(3))


def test_chain_space_is_not_complemented():
    # Designate the endpoints of a three-chain: the middle point has no
    # complement.
    base = chain_interval_space(3)
    space = BiConvexity(3, base.lower, base.upper, zero_elem=0, one_elem=2)
    rep = check_complemented(space)
    assert not rep.passed
    assert 1 in rep.missing


def test_symmetric_audit_passes_on_interval_and_discrete_spaces():
    rep = verify_convexity_duality(
        [chain_interval_space(n) for n in (1, 2, 3)] + [discrete_space(2)],
        symmetric=True,
    )
    assert rep["pass"]
    for entry in rep["entries"]:
        assert entry["round_trip"]
        assert entry["dual_complemented"]
        assert entry["second_dual_symmetric"]


def test_audit_reports_the_planar_fixture_as_failed():
    rep = verify_convexity_duality([nonnormal_planar()])
    assert not rep["pass"]
    assert rep["entries"][0]["normal"] is False


def test_audit_backtracks_each_space_table_once(monkeypatch):
    calls = []
    backtrack = bea._halfspaces_backtrack

    def counted(oracle):
        calls.append(oracle.universe)
        return backtrack(oracle)

    monkeypatch.setattr(bea, "_halfspaces_backtrack", counted)
    corpus = gen_biconvexity(4)
    for spaces, symmetric in ((corpus["plain"], False), (corpus["symmetric"], True)):
        calls.clear()
        rep = verify_convexity_duality(spaces, symmetric=symmetric)
        assert rep["pass"]
        assert calls == [space.universe for space in spaces]


def test_transit_crosscheck_is_the_table_i3_up_to_its_cap():
    cap = get_cap("pasch-crosscheck")
    corpus = gen_biconvexity(6)
    sizes = set()
    for spaces, symmetric in ((corpus["plain"], False), (corpus["symmetric"], True)):
        rep = verify_convexity_duality(spaces, symmetric=symmetric)
        for space, entry in zip(spaces, rep["entries"]):
            want = None
            if space.universe <= cap:
                oracle = bea_from_biconvexity(space, force=True)
                want = check_axiom(oracle, "i3").passed
            assert entry["transit_crosscheck"] is want
            sizes.add(space.universe <= cap)
    assert sizes == {True, False}


def reference_pasch_witness(space):
    """The first failing ``(a0, b1, p, q, r)`` of the hull-transit
    pattern, by the quintuple loop."""
    n = space.universe
    hu = [space.hull_upper(m) for m in range(1 << n)]
    hl = [space.hull_lower(m) for m in range(1 << n)]
    for a0 in range(1 << n):
        for b1 in range(1 << n):
            for p in range(n):
                for q in bits(hu[a0 | 1 << p]):
                    for r in bits(hl[b1 | 1 << p]):
                        if not hu[a0 | 1 << r] & hl[b1 | 1 << q]:
                            return a0, b1, p, q, r
    return None


def reference_complemented(space):
    """The complemented report by complement queries on the transversal
    table, and the swap law against its linkage."""
    oracle = bea_from_biconvexity(space, force=True)
    n = space.universe
    negation = [complement(oracle, a) for a in range(n)]
    missing = tuple(a for a, b in enumerate(negation) if b is None)
    if missing:
        return ComplementedReport(False, tuple(negation), missing, None, None)
    neg = subset_images(n, [1 << b for b in negation])
    lower = [space.hull_lower(m) for m in neg]
    upper = [space.hull_upper(m) for m in neg]
    swapped = oracle.linkage ^ transversal_bits(n, lower, upper)
    witness = next(pairs_of(swapped, n), None)
    return ComplementedReport(True, tuple(negation), (), witness is None, witness)


def random_family(rng, n):
    """A random intersection-closed family on ``n`` points, with the full
    set: a few random masks closed under pairwise intersection."""
    full = (1 << n) - 1
    sets = {full}
    for _ in range(rng.below(2 * n + 2)):
        m = rng.mask(n)
        sets |= {m & s for s in sets} | {m}
    return SetFamily(base=n, sets=tuple(sorted(sets)))


def random_spaces(seed, count, *, constants=False):
    rng = SplitMix64(seed)
    for i in range(count):
        n = 1 + i % 6
        zero = one = None
        if constants:
            zero, one = rng.below(n), rng.below(n)
        yield BiConvexity(
            n, random_family(rng, n), random_family(rng, n),
            zero_elem=zero, one_elem=one,
        )


def test_pasch_sweep_matches_the_quintuple_loop():
    corpus = gen_biconvexity(6)
    spaces = corpus["plain"] + corpus["symmetric"] + [nonnormal_planar()]
    spaces += list(random_spaces(31, 60))
    planar = check_pasch_convex(nonnormal_planar())
    assert planar.witness == (10, 17, 2, 4, 3)
    failing = []
    for space in spaces:
        want = reference_pasch_witness(space)
        rep = check_pasch_convex(space)
        assert rep.witness == want
        assert rep.passed is (want is None)
        if want is not None:
            failing.append(want)
    assert len({w[:2] for w in failing}) >= 5
    assert any(w[2] > 0 for w in failing)
    assert 0 < len(failing) < len(spaces)


def _same_complemented(space):
    try:
        want = reference_complemented(space)
    except DuplicateComplement as exc:
        with pytest.raises(DuplicateComplement) as info:
            check_complemented(space)
        assert (info.value.element, info.value.candidates) == (
            exc.element, exc.candidates
        )
        return "duplicate"
    rep = check_complemented(space)
    assert rep == want
    if not rep.complemented:
        return "missing"
    return "swap" if rep.swap_passed else "swap-fails"


def test_complemented_matches_the_table_queries():
    duals = []
    for space in gen_biconvexity(6)["symmetric"]:
        oracle = bea_from_biconvexity(space)
        dual = ultimate_dual(oracle, assume_axioms=True)
        duals.append(biconvexity_from_bea(dual.oracle, skip_axioms=True))
    assert {_same_complemented(space) for space in duals} == {"swap"}
    kinds = [_same_complemented(s) for s in random_spaces(37, 300, constants=True)]
    # Zero and one on one point: every point is a complement of it.
    both = discrete_space(2)
    doubled = BiConvexity(2, both.lower, both.upper, zero_elem=0, one_elem=0)
    kinds.append(_same_complemented(doubled))
    assert set(kinds) == {"duplicate", "missing", "swap", "swap-fails"}
