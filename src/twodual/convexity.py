"""Paired hull systems (bi-convexities) and their linkage oracles.

A *bi-convexity* carries two families of subsets of one universe — the
lower and upper convex sets — each closed under pairwise intersection and
containing the full set (the empty set is allowed but not required).  The
hull of ``a`` on a side is the intersection of that side's members
containing ``a``; the hull of the empty set is the intersection of the
whole family.

A space is *normal* when distinct points have hulls meeting on at most one
side, and disjoint members of the two families are split by a member whose
complement belongs to the other family.  Normal spaces induce linkage
oracles by the transversal rule — ``a ⋈ b`` iff the upper hull of ``a``
meets the lower hull of ``b`` — and conversely, well-behaved oracles
rebuild the hulls from singleton linkage.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bea import (
    BeaOracle,
    check_axiom,
    check_axioms,
    column_bits,
    pairs_of,
    require_axioms,
    row_bits,
    singleton_links,
    table_from_linkage,
    transversal_bits,
)
from .caps import get_cap, guard
from .core import SetFamily, bits, point_columns, subset_images
from .errors import (
    DuplicateComplement,
    InputError,
    MissingConstants,
    NotNormal,
    RoundTripFailure,
)


@dataclass(frozen=True)
class BiConvexity:
    universe: int
    lower: SetFamily
    upper: SetFamily
    zero_elem: int | None = None
    one_elem: int | None = None

    def __post_init__(self):
        for side, fam in (("lower", self.lower), ("upper", self.upper)):
            if fam.base != self.universe:
                raise ValueError(f"{side} family base disagrees with the universe")
            members = fam.member_set
            if fam.full_mask not in members:
                raise ValueError(f"{side} family must contain the full set")
            for a in fam.sets:
                for b in fam.sets:
                    if a & b not in members:
                        raise ValueError(
                            f"{side} family not closed under intersection: "
                            f"{sorted(bits(a))} ∩ {sorted(bits(b))}"
                        )
        for c in (self.zero_elem, self.one_elem):
            if c is not None and not 0 <= c < self.universe:
                raise ValueError(f"constant {c} out of range")
        object.__setattr__(self, "_hull_cache", ({}, {}))

    def _hull(self, which: int, fam: SetFamily, a: int) -> int:
        a &= fam.full_mask
        cache = self._hull_cache[which]
        got = cache.get(a)
        if got is None:
            got = fam.full_mask
            for g in fam.sets:
                if a & ~g == 0:
                    got &= g
            cache[a] = got
        return got

    def hull_lower(self, a: int) -> int:
        return self._hull(0, self.lower, a)

    def hull_upper(self, a: int) -> int:
        return self._hull(1, self.upper, a)


def conv_hull(space: BiConvexity, side: str, a: int) -> int:
    if side in ("L", "lower"):
        return space.hull_lower(a)
    if side in ("U", "upper"):
        return space.hull_upper(a)
    raise InputError(f"unknown side {side!r}")


@dataclass(frozen=True)
class NormalReport:
    passed: bool
    point_witnesses: tuple[tuple[int, int], ...]
    split_witnesses: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "points": [list(w) for w in self.point_witnesses],
            "splits": [
                sorted(bits(a)) + ["|"] + sorted(bits(b))
                for a, b in self.split_witnesses
            ],
        }


def check_normal(space: BiConvexity) -> NormalReport:
    """Both normality conditions, with every violation reported.

    The point condition: for distinct ``x, y`` at least one of
    ``hull_L(x) ∩ hull_U(y)``, ``hull_U(x) ∩ hull_L(y)`` is empty.  The
    split condition: disjoint ``A`` (lower) and ``B`` (upper) admit an
    upper ``H`` with lower complement, ``B ⊆ H``, ``A ∩ H = ∅``.
    """
    n = space.universe
    guard("normal-universe", n, "normality sweep")
    points = []
    for x in range(n):
        for y in range(x + 1, n):
            if (
                space.hull_lower(1 << x) & space.hull_upper(1 << y)
                and space.hull_upper(1 << x) & space.hull_lower(1 << y)
            ):
                points.append((x, y))
    lower_members = space.lower.member_set
    halves = [h for h in space.upper.sets if space.upper.full_mask & ~h in lower_members]
    splits = []
    for a in space.lower.sets:
        for b in space.upper.sets:
            if a & b:
                continue
            if not any(b & ~h == 0 and a & h == 0 for h in halves):
                splits.append((a, b))
    return NormalReport(not points and not splits, tuple(points), tuple(splits))


def bea_from_biconvexity(space: BiConvexity, *, force: bool = False) -> BeaOracle:
    """The transversal oracle of a space: ``a ⋈ b`` iff the upper hull of
    ``a`` meets the lower hull of ``b``.  Refuses non-normal spaces unless
    ``force`` is set (the induced relation then has no separation
    guarantees)."""
    if not force:
        report = check_normal(space)
        if not report.passed:
            raise NotNormal(report)
    n = space.universe
    guard("pair-axiom-sweep", n, "transversal table")
    hu = [space.hull_upper(m) for m in range(1 << n)]
    hl = [space.hull_lower(m) for m in range(1 << n)]
    return table_from_linkage(
        n, transversal_bits(n, hu, hl), zero=space.zero_elem, one=space.one_elem
    )


@dataclass(frozen=True)
class PaschConvexReport:
    passed: bool
    witness: tuple | None

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "witness": None if self.witness is None else list(self.witness),
        }


def check_pasch_convex(space: BiConvexity) -> PaschConvexReport:
    """Sweep the hull-transit pattern over all parameter choices.

    The pattern: ``q`` in the upper hull of ``a0 ∪ {p}`` and ``r`` in the
    lower hull of ``b1 ∪ {p}`` force the upper hull of ``a0 ∪ {r}`` to
    meet the lower hull of ``{q} ∪ b1``.  Together with the point axioms,
    the pattern is equivalent to the transit axiom ``i3`` of the
    transversal oracle.

    Every ``(a0, b1)`` is swept at once, as one pair-index bitset (see
    :mod:`twodual.bea`) per ``(q, r)``: the premise is the OR over ``p``,
    and the conclusion the OR over the points ``v`` of both hulls, of a
    row selector (``v ∈ hu[a0 ∪ {i}]``) AND a column selector
    (``v ∈ hl[b1 ∪ {i}]``).  The selectors come from
    :func:`~twodual.core.point_columns` of each hull list, so each distinct
    hull is decoded once, and one shift per ``(i, v)`` moves the subsets
    missing ``i`` onto ``a0 ∪ {i}``.  The first failing pair is the lowest
    bit of the failures; its first ``(p, q, r)`` is then found point by
    point, so the witness is the first in ``(a0, b1, p, q, r)`` order.
    """
    n = space.universe
    guard("pasch-sweep", n, "hull-transit sweep")
    hu = [space.hull_upper(m) for m in range(1 << n)]
    hl = [space.hull_lower(m) for m in range(1 << n)]
    # ups[v]: the m with v ∈ hu[m]; lows[v]: those with v ∈ hl[m];
    # holds[i]: those with i ∈ m.  Each has n entries, as the hulls of the
    # full set are full.
    ups, lows = point_columns(hu), point_columns(hl)
    holds = point_columns(range(1 << n))

    def through(members: int, i: int) -> int:
        """The m with ``m ∪ {i}`` in ``members``."""
        hit = members & holds[i]
        return hit | hit >> (1 << i)

    # rows[i][v]: the a0 with v ∈ hu[a0 ∪ {i}]; cols[i][v]: the b1 with
    # v ∈ hl[b1 ∪ {i}].
    rows = [[row_bits(n, through(u, i)) for u in ups] for i in range(n)]
    cols = [[column_bits(n, through(c, i)) for c in lows] for i in range(n)]
    fail = 0
    for q in range(n):
        for r in range(n):
            premise = meet = 0
            for i in range(n):
                premise |= rows[i][q] & cols[i][r]
                meet |= rows[r][i] & cols[q][i]
            fail |= premise & ~meet
    if not fail:
        return PaschConvexReport(passed=True, witness=None)
    x = (fail & -fail).bit_length() - 1
    a0, b1 = x >> n, x & ((1 << n) - 1)
    witness = next(
        (a0, b1, p, q, r)
        for p in range(n)
        for q in bits(hu[a0 | 1 << p])
        for r in bits(hl[b1 | 1 << p])
        if not hu[a0 | 1 << r] & hl[b1 | 1 << q]
    )
    return PaschConvexReport(passed=False, witness=witness)


def biconvexity_from_bea(
    oracle: BeaOracle, *, skip_axioms: bool = False
) -> BiConvexity:
    """Rebuild the hull systems from singleton linkage.

    The lower hull of ``a`` collects the points linked *to* ``a``, the
    upper hull the points ``a`` links to; the families are the fixed
    points of these operators.  The rebuilt space must reproduce the
    oracle by the transversal rule on every subset pair, and the operators
    must be extensive and idempotent — any failure raises
    :class:`RoundTripFailure` (no bi-convexity realizes such an oracle).
    """
    if not skip_axioms:
        require_axioms(oracle, ("i0", "i1", "i2", "i3", "i4"))
    n = oracle.universe
    guard("pair-axiom-sweep", n, "hull reconstruction")
    cu, cl = singleton_links(oracle)
    for m in range(1 << n):
        if m & ~cl[m] or m & ~cu[m]:
            raise RoundTripFailure(
                "hull operators are not extensive", witness=(m,)
            )
        if cl[cl[m]] != cl[m] or cu[cu[m]] != cu[m]:
            raise RoundTripFailure(
                "hull operators are not idempotent", witness=(m,)
            )
    clash = next(pairs_of(oracle.linkage ^ transversal_bits(n, cu, cl), n), None)
    if clash is not None:
        raise RoundTripFailure(
            "transversal rule disagrees with the oracle", witness=clash
        )
    lower = tuple(sorted({cl[m] for m in range(1 << n)}))
    upper = tuple(sorted({cu[m] for m in range(1 << n)}))
    try:
        return BiConvexity(
            n,
            SetFamily(base=n, sets=lower),
            SetFamily(base=n, sets=upper),
            zero_elem=oracle.zero_elem,
            one_elem=oracle.one_elem,
        )
    except ValueError as exc:
        raise RoundTripFailure(str(exc)) from exc


@dataclass(frozen=True)
class ComplementedReport:
    complemented: bool
    negation: tuple
    missing: tuple[int, ...]
    swap_passed: bool | None
    swap_witness: tuple | None

    @property
    def passed(self) -> bool:
        return self.complemented and bool(self.swap_passed)

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "negation": list(self.negation),
            "missing": list(self.missing),
            "swap_pass": self.swap_passed,
            "swap_witness": None
            if self.swap_witness is None
            else [sorted(bits(m)) for m in self.swap_witness],
        }


def check_complemented(space: BiConvexity) -> ComplementedReport:
    """Find every point's complement and verify the swap law.

    Needs designated zero and one.  The complement of ``a`` is the unique
    ``b`` with ``{a, b} ⋈ {zero}`` and ``{one} ⋈ {a, b}`` in the
    transversal oracle, read straight off the hulls.  When every point has
    one, the swap law is swept: ``a ⋈ b`` iff ``¬b ⋈ ¬a`` with negation
    applied pointwise.
    """
    if space.zero_elem is None or space.one_elem is None:
        raise MissingConstants("complementation needs designated constants")
    n = space.universe
    guard("pair-axiom-sweep", n, "transversal table")
    hu = [space.hull_upper(m) for m in range(1 << n)]
    hl = [space.hull_lower(m) for m in range(1 << n)]
    below_zero = hl[1 << space.zero_elem]
    above_one = hu[1 << space.one_elem]
    negation = []
    for a in range(n):
        found = [
            b
            for b in range(n)
            if hu[1 << a | 1 << b] & below_zero and above_one & hl[1 << a | 1 << b]
        ]
        if len(found) > 1:
            raise DuplicateComplement(a, found)
        negation.append(found[0] if found else None)
    missing = tuple(a for a, b in enumerate(negation) if b is None)
    if missing:
        return ComplementedReport(False, tuple(negation), missing, None, None)
    neg = subset_images(n, [1 << b for b in negation])
    # ¬t ⋈ ¬s iff the upper hull of ¬t meets the lower hull of ¬s.
    lower = [hl[m] for m in neg]
    upper = [hu[m] for m in neg]
    swapped = transversal_bits(n, hu, hl) ^ transversal_bits(n, lower, upper)
    swap_witness = next(pairs_of(swapped, n), None)
    return ComplementedReport(
        True, tuple(negation), (), swap_witness is None, swap_witness
    )


def verify_convexity_duality(spaces, *, symmetric: bool = False) -> dict:
    """End-to-end audit of the convexity duality over a batch of spaces.

    Per space: normality; the point/monotonicity/through-point axioms of
    the transversal oracle plus the hull-transit sweep (which together
    give the transit axiom, cross-checked on the oracle up to the
    ``pasch-crosscheck`` cap); the halfspace dual's through-point axiom; the
    bidual evaluation; and the exact hull round trip.  With
    ``symmetric=True`` the oracle must also be symmetric, its dual space
    complemented, and the second dual symmetric again.
    """
    from .duality import ultimate_bidual_report, ultimate_dual

    entries = []
    ok = True
    for i, space in enumerate(spaces):
        entry: dict = {"instance": i, "universe": space.universe}
        normal = check_normal(space)
        entry["normal"] = normal.passed
        if not normal.passed:
            entry["pass"] = False
            entries.append(entry)
            ok = False
            continue
        oracle = bea_from_biconvexity(space, force=True)
        axioms = ["i0", "i1", "i2", "i4"]
        if oracle.zero_elem is not None:
            axioms.append("c0")
        if oracle.one_elem is not None:
            axioms.append("c1")
        reports = check_axioms(oracle, axioms)
        entry["axioms"] = {a: r.passed for a, r in reports.items()}
        pasch = check_pasch_convex(space)
        entry["hull_transit"] = pasch.passed
        # On small spaces the table's own i3 must agree with the sweep.
        transit = None
        if space.universe <= get_cap("pasch-crosscheck"):
            transit = check_axiom(oracle, "i3").passed
        entry["transit_crosscheck"] = transit
        base_ok = all(r.passed for r in reports.values()) and pasch.passed
        if transit is not None:
            base_ok = base_ok and transit

        dual = ultimate_dual(oracle, assume_axioms=True)
        dual_through = check_axiom(dual.oracle, "i4")
        entry["dual_through_point"] = dual_through.passed
        bidual = ultimate_bidual_report(oracle, dual)
        entry["bidual"] = bidual["pass"]

        rebuilt = biconvexity_from_bea(oracle, skip_axioms=True)
        round_trip = (
            set(rebuilt.lower.sets) == set(space.lower.sets)
            and set(rebuilt.upper.sets) == set(space.upper.sets)
        )
        entry["round_trip"] = round_trip

        good = base_ok and dual_through.passed and bidual["pass"] and round_trip
        if symmetric:
            sym = check_axiom(oracle, "i5")
            entry["symmetric"] = sym.passed
            dual_space = biconvexity_from_bea(dual.oracle, skip_axioms=True)
            comp = check_complemented(dual_space)
            entry["dual_complemented"] = comp.passed
            second = ultimate_dual(dual.oracle, assume_axioms=True)
            second_sym = check_axiom(second.oracle, "i5")
            entry["second_dual_symmetric"] = second_sym.passed
            good = good and sym.passed and comp.passed and second_sym.passed
        entry["pass"] = good
        ok = ok and good
        entries.append(entry)
    return {"pass": ok, "entries": entries}
