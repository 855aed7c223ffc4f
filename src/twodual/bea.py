"""The linkage oracle: a relation ``s ⋈ t`` between subsets of a universe.

A *linkage oracle* answers, for any pair of subsets ``(s, t)`` of a finite
universe, whether ``s`` is linked to ``t``.  Two realizations are provided:

``table``
    The positive pairs are stored exhaustively as a frozen set of mask
    pairs.  Nothing is assumed about them; the axiom checkers below do the
    honest sweeps.  Within the ``pair-axiom-sweep`` cap, ``i3`` and ``i4``
    read the table as its pair-index bitset (below), and ``i1``, the
    halfspace backtrack and :func:`separate` read its up-closure; past it,
    they join or scan the stored pairs, and neither bitset is built.

``induced``
    A tuple of *halfspace* masks ``H`` is stored and ``s ⋈ t`` holds iff no
    ``h ∈ H`` contains all of ``s`` while missing all of ``t``.  Set
    families give rise to exactly this realization (see
    :func:`family_bea`): with sets ``A_i``, ``S ⋈ T`` iff
    ``⋂_{i∈S} A_i ⊆ ⋃_{j∈T} A_j`` — the empty intersection being the whole
    base and the empty union being empty.

The axiom names used throughout (``i0`` … ``i5``, ``c0``, ``c1``) match the
CLI flags:

* ``i0``  — the empty pair is not linked;
* ``i1``  — linkage is monotone under enlarging either side;
* ``i2``  — singleton linkage both ways happens exactly on the diagonal;
* ``i3``  — the transit rule: from ``(a0 ∪ {p}) ⋈ b0`` and
  ``a1 ⋈ (b1 ∪ {p})`` conclude ``(a0 ∪ a1) ⋈ (b0 ∪ b1)``;
* ``i4``  — every linked pair is linked through a point:
  ``a ⋈ {p}`` and ``{p} ⋈ b`` for some ``p``;
* ``i5``  — symmetry;
* ``c0`` / ``c1`` — the designated zero links to the empty set / the empty
  set links to the designated one.

Every sweep over all ``4^n`` subset pairs, in this package, works on one
format, the *pair-index bitset*: a ``4^n``-bit int whose bit
``x = s << n | t`` is set iff ``(s, t)`` is in the relation, so its lowest
set bit is the first pair in ``(s, t)`` order.  It is built and read by
:attr:`BeaOracle.linkage`, :func:`transversal_bits` (``left[s] & right[t]``),
:func:`row_bits` and :func:`column_bits` (``s``, or ``t``, in a mask) and
:func:`pairs_of` (the pairs, in order); two relations compare by XOR.
:func:`up_closure` is the one transform on it: the OR-zeta transform over
the ``2n`` index bits, which adds every pair above a member; an oracle
keeps its own up-closure as :attr:`BeaOracle.above`, and its
:func:`singleton_links`, read off its linkage.  The package builds
these only within the ``pair-axiom-sweep`` cap.

Per-subset masks become selectors through
:func:`~twodual.core.point_columns`, the package's one transpose of a
mask list, which maps each bit to the indices whose mask has it and
decodes each distinct mask once; hull and link lists repeat a few masks
across all ``2^n`` subsets.  :func:`table_from_linkage` is the one way
to build a table from a bitset, and the table keeps that bitset as its
linkage.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .caps import get_cap, guard
from .core import SetFamily, bits, point_columns
from .errors import (
    AxiomsFail,
    DuplicateComplement,
    EmptyUniverse,
    InputError,
    MissingConstants,
    PaschFailure,
    PreconditionViolated,
    UniverseTooLarge,
)

AXIOM_NAMES = ("i0", "i1", "i2", "i3", "i4", "i5", "c0", "c1")


@dataclass(frozen=True)
class BeaOracle:
    """A linkage oracle over universe ``0 .. universe-1``.

    Exactly one of ``pairs`` (table realization) and ``halfspaces``
    (induced realization) is set.  ``zero_elem`` / ``one_elem`` designate
    optional constant elements; they are indices into the universe, not
    necessarily ``0`` and ``universe - 1``.
    """

    universe: int
    pairs: frozenset | None = None
    halfspaces: tuple[int, ...] | None = None
    zero_elem: int | None = None
    one_elem: int | None = None
    # linkage, above and the singleton links, once built.  Not
    # cached_property: on CPython 3.11 a key added to an instance __dict__
    # slows every later attribute read.
    _bitsets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.universe < 1:
            raise EmptyUniverse("oracles need a nonempty universe")
        if (self.pairs is None) == (self.halfspaces is None):
            raise InputError("exactly one realization must be given")
        full = self.full_mask
        if self.pairs is not None:
            norm = frozenset((s & full, t & full) for s, t in self.pairs)
            object.__setattr__(self, "pairs", norm)
        else:
            seen = []
            for h in self.halfspaces:
                h &= full
                if h not in seen:
                    seen.append(h)
            object.__setattr__(self, "halfspaces", tuple(seen))
        for c in (self.zero_elem, self.one_elem):
            if c is not None and not 0 <= c < self.universe:
                raise InputError(f"constant {c} out of range")

    @classmethod
    def from_table(cls, universe, pairs, *, zero=None, one=None) -> "BeaOracle":
        return cls(universe, pairs=frozenset(pairs), zero_elem=zero, one_elem=one)

    @classmethod
    def from_halfspaces(cls, universe, sets, *, zero=None, one=None) -> "BeaOracle":
        return cls(universe, halfspaces=tuple(sets), zero_elem=zero, one_elem=one)

    @property
    def realization(self) -> str:
        return "table" if self.pairs is not None else "induced"

    @property
    def full_mask(self) -> int:
        return (1 << self.universe) - 1

    def query(self, s: int, t: int) -> bool:
        """Whether ``s ⋈ t`` (arguments are subset masks)."""
        full = self.full_mask
        s &= full
        t &= full
        if self.pairs is not None:
            return (s, t) in self.pairs
        for h in self.halfspaces:
            if s & ~h == 0 and t & h == 0:
                return False
        return True

    @property
    def linkage(self) -> int:
        """The linkage as one ``4^n``-bit int: bit ``x = s << n | t`` is set
        iff ``s ⋈ t``.  A halfspace ``h`` unlinks the box of ``x`` with no
        ``s``-bit outside ``h`` and no ``t``-bit inside it."""
        if "linkage" in self._bitsets:
            return self._bitsets["linkage"]
        n = self.universe
        if self.pairs is not None:
            buf = bytearray(((1 << 2 * n) >> 3) + 1)
            for s, t in self.pairs:
                x = s << n | t
                buf[x >> 3] |= 1 << (x & 7)
            linked = int.from_bytes(buf, "little")
        else:
            with_bit, _ = _index_masks(n)
            ones = (1 << (1 << 2 * n)) - 1
            linked = ones
            for h in self.halfspaces:
                box = ones
                for i in range(n):
                    box &= ~with_bit[i] if h >> i & 1 else ~with_bit[n + i]
                linked &= ~box
        return self._bitsets.setdefault("linkage", linked)

    @property
    def above(self) -> int:
        """The up-closure of :attr:`linkage`, built on first use."""
        if "above" not in self._bitsets:
            self._bitsets["above"] = up_closure(self.linkage, self.universe)
        return self._bitsets["above"]


def family_bea(family: SetFamily) -> BeaOracle:
    """Linkage oracle of a set family.

    The universe is the family's member *indices*; ``S ⋈ T`` iff the
    intersection over ``S`` is covered by the union over ``T``.  The point
    rows of the family (:attr:`~twodual.core.SetFamily.point_rows`)
    realize this as an induced oracle: a row witnesses a non-linked pair
    exactly when some base point lies in every ``S``-member and no
    ``T``-member.  Membership of the empty / full set, when flagged as
    designated, carries over to the oracle constants.
    """
    if not family.sets:
        raise EmptyUniverse("a family with no members induces no oracle")
    zero = family.index[0] if family.has_empty_as_zero else None
    one = family.index[family.full_mask] if family.has_base_as_one else None
    return BeaOracle.from_halfspaces(
        len(family.sets), family.point_rows, zero=zero, one=one
    )


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    passed: bool
    witness: tuple | None = None
    note: str = ""

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "pass": self.passed,
            "witness": None
            if self.witness is None
            else [sorted(bits(m)) for m in self.witness],
            "note": self.note,
        }


def _report(axiom: str, witnesses, note: str = "") -> AxiomReport:
    """Report carrying the minimal witness by total popcount, then by the
    mask tuple itself: a running minimum over the iterable ``witnesses``."""
    witness = min(
        witnesses, key=lambda w: (sum(m.bit_count() for m in w), w), default=None
    )
    return AxiomReport(axiom, witness is None, witness, note)


def _check_i0(o: BeaOracle) -> AxiomReport:
    if o.pairs is not None:
        ok = (0, 0) not in o.pairs
    else:
        # With no halfspaces at all, every pair — the empty one included —
        # is vacuously linked.
        ok = len(o.halfspaces) > 0
    return AxiomReport("i0", ok, None if ok else (0, 0))


def _check_i1(o: BeaOracle) -> AxiomReport:
    if o.halfspaces is not None:
        return AxiomReport(
            "i1", True, note="monotone by construction for induced oracles"
        )
    # A table is monotone iff it is its own up-closure.
    if o.universe <= get_cap("pair-axiom-sweep") and o.above == o.linkage:
        return AxiomReport("i1", True)
    # Single-element extensions are complete: any monotonicity failure has
    # a one-step failure along a chain between the two pairs.
    return _report("i1", _i1_failures(o))


def _i1_failures(o: BeaOracle):
    for s, t in o.pairs:
        for p in range(o.universe):
            bit = 1 << p
            if not s & bit and (s | bit, t) not in o.pairs:
                yield (s, t, s | bit, t)
            if not t & bit and (s, t | bit) not in o.pairs:
                yield (s, t, s, t | bit)


def _check_i2(o: BeaOracle) -> AxiomReport:
    n = o.universe
    le = [[o.query(1 << p, 1 << q) for q in range(n)] for p in range(n)]
    unlinked = ((1 << p, 1 << p) for p in range(n) if not le[p][p])
    mutual = (
        (1 << p, 1 << q)
        for p in range(n)
        for q in range(p + 1, n)
        if le[p][q] and le[q][p]
    )
    return _report("i2", itertools.chain(unlinked, mutual))


def _check_i3(o: BeaOracle) -> AxiomReport:
    if o.halfspaces is not None:
        return AxiomReport(
            "i3",
            True,
            note="a halfspace separating the conclusion would separate a premise",
        )
    if o.universe > get_cap("pair-axiom-sweep"):
        # The bitset spans all 4^n pairs; past the cap, join the stored pairs.
        return _report("i3", _i3_failures(o))
    w = _i3_witness(o)
    return AxiomReport("i3", w is None, w)


@functools.cache
def _index_masks(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bitsets over the ``4^n`` pair indices ``x = s << n | t``: for each of
    the ``2n`` index bits ``j``, the indices with bit ``j`` set; and for
    each popcount ``c`` in ``0 .. 2n``, the indices of that popcount."""
    m = 2 * n
    with_bit = []
    for j in range(m):
        # 2^j zeros then 2^j ones, doubled out to 4^n bits: linear time,
        # where deriving it by big-int division is quadratic (1.5 s at n = 10).
        pattern = ((1 << (1 << j)) - 1) << (1 << j)
        width = 2 << j
        while width < 1 << m:
            pattern |= pattern << width
            width <<= 1
        with_bit.append(pattern)
    levels = [1]
    for j in range(m):
        levels = [a | b << (1 << j) for a, b in zip(levels + [0], [0] + levels)]
    return tuple(with_bit), tuple(levels)


def transversal_bits(n: int, left, right) -> int:
    """The pair-index bitset with bit ``x = s << n | t`` set iff
    ``left[s] & right[t]``, for masks ``left`` and ``right`` per subset.
    Each value bit gets the column of the ``t`` whose ``right[t]`` has it
    (:func:`~twodual.core.point_columns`); row ``s`` is the OR of the
    columns of ``left[s]``, built once per distinct value."""
    cols = point_columns(right)
    known = (1 << len(cols)) - 1
    row_of = {}
    for value in set(left):
        row = 0
        for v in bits(value & known):
            row |= cols[v]
        row_of[value] = row
    rows = [row_of[value] for value in left]
    width = 1 << n
    while len(rows) > 1:
        rows = [a | b << width for a, b in zip(rows[::2], rows[1::2])]
        width <<= 1
    return rows[0]


def row_bits(n: int, rows: int) -> int:
    """The pair-index bitset of the pairs ``(s, t)`` with bit ``s`` set in
    the ``2^n``-bit mask ``rows``: each bit ``s`` moves to ``s << n``, one
    index bit at a time from the top, and then fills its row by doubling."""
    with_bit, _ = _index_masks(n)
    for k in reversed(range(n)):
        hit = rows & with_bit[k]
        rows ^= hit ^ hit << ((1 << k) * ((1 << n) - 1))
    for k in range(n):
        rows |= rows << (1 << k)
    return rows


def column_bits(n: int, cols: int) -> int:
    """The pair-index bitset of the pairs ``(s, t)`` with bit ``t`` set in
    the ``2^n``-bit mask ``cols``: the mask repeated in every row, by
    doubling."""
    width = 1 << n
    while width < 1 << 2 * n:
        cols |= cols << width
        width <<= 1
    return cols


def up_closure(bitset: int, n: int) -> int:
    """The pair-index bitset of every ``(s, t)`` above some pair of
    ``bitset``: ``s' ⊆ s`` and ``t' ⊆ t``.  The OR-zeta transform over the
    ``2n`` index bits (Yates): each step ORs in the indices with bit ``j``
    clear, shifted up to set it."""
    with_bit, _ = _index_masks(n)
    for j, ones in enumerate(with_bit):
        bitset |= (bitset & ~ones) << (1 << j)
    return bitset


def _minimal(bitset: int, with_bit) -> int:
    """The minimal members of an up-closed pair-index bitset: those that
    leave it when any one of their bits is cleared."""
    covered = 0
    for j, ones in enumerate(with_bit):
        covered |= (bitset & ~ones) << (1 << j)
    return bitset & ~covered


def pairs_of(bitset: int, n: int):
    """The pairs ``(s, t)`` whose bit ``x = s << n | t`` is set, in
    increasing ``(s, t)`` order, found through one reversed ``bin``
    string, so in time linear in the size of the bitset.  Each distinct
    row of ``2^n`` digits is searched once: the rows of a transversal
    table repeat with its hulls."""
    digits = bin(bitset)[:1:-1]
    found: dict[str, list[int]] = {}
    for s in range(-(-len(digits) >> n)):
        row = digits[s << n:(s + 1) << n]
        ts = found.get(row)
        if ts is None:
            ts = found[row] = []
            t = row.find("1")
            while t >= 0:
                ts.append(t)
                t = row.find("1", t + 1)
        yield from zip(itertools.repeat(s), ts)


def _i3_witness(o: BeaOracle) -> tuple | None:
    """The i3 witness ``_report`` would pick from :func:`_i3_failures`,
    found on the table read as one bitset ``T`` over ``x = s << n | t``.

    A witness ``(a0, b0, a1, b1, {p})`` is a pair of indices
    ``x = a0 << n | b0`` and ``y = a1 << n | b1``: ``x`` lies in
    ``A_p = {x : x | bit(p + n) ∈ T}``, ``y`` in ``B_p = {y : y | bit(p) ∈ T}``
    and ``x | y ∉ T``, and the mask tuple orders like ``(x, y, p)``.  The
    ``y`` are walked depth-first, each adding a bit below the lowest one of
    its parent, and carry ``joins = {x : x | y ∈ T}``, which one shift and
    mask derive from the parent's; so only O(n) bitsets are live.  When
    ``joins`` is empty, no ``y`` below lies in any ``B_p``.

    On an up-closed table (``i1`` holds) only minimal premises matter: if
    ``y`` is not minimal in ``B_p``, some minimal ``y' ⊊ y`` is, and
    ``x | y' ⊆ x | y ∉ T`` puts ``x | y'`` outside ``T`` too, so
    ``(x, y', p)`` fails with a smaller total; likewise for ``x`` in
    ``A_p``.  So the reported witness has ``x`` minimal in ``A_p`` and
    ``y`` minimal in ``B_p``, and every ``y`` on its path from the root
    is a subset of it.  The walk keeps only the minimal elements of each
    ``A_p`` and ``B_p`` and descends only to children in ``reach``, the
    down-closure of the minimal ``y``; on any other table ``reach`` is
    every index and the walk is the full one.
    """
    n = o.universe
    with_bit, levels = _index_masks(n)
    table = o.linkage

    def joined(bitset: int, j: int) -> int:
        hit = bitset & with_bit[j]
        return hit | hit >> (1 << j)

    firsts = [joined(table, p + n) for p in range(n)]
    seconds = [joined(table, p) for p in range(n)]
    reach = -1
    if o.above == table:
        firsts = [_minimal(a, with_bit) for a in firsts]
        seconds = [_minimal(b, with_bit) for b in seconds]
        reach = functools.reduce(int.__or__, seconds)
        for j, ones in enumerate(with_bit):
            reach |= (reach & ones) >> (1 << j)
    best = None  # (total popcount, x, y, p)

    def visit(y: int, joins: int, below: int) -> None:
        nonlocal best
        size = y.bit_count()
        for p, second in enumerate(seconds):
            if not second >> y & 1:
                continue
            fails = firsts[p] & ~joins
            # Only popcounts of x that can still reach the best total.
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
            grown = y | 1 << j
            if reach >> grown & 1:
                child = joined(joins, j)
                if child:
                    visit(grown, child, j)

    if table:
        visit(0, table, 2 * n)
    if best is None:
        return None
    _, x, y, p = best
    full = o.full_mask
    return (x >> n, x & full, y >> n, y & full, 1 << p)


# Every i3 failure of a table oracle, by joining the stored pairs: the
# reference that _i3_witness is tested against, and the check for
# universes past the pair-axiom-sweep cap, where its O(n·|T|²) cost does
# not grow with 4^n.
def _i3_failures(o: BeaOracle):
    by_first: dict[int, list] = {}
    by_second: dict[int, list] = {}
    for s, t in o.pairs:
        for p in bits(s):
            by_first.setdefault(p, []).append((s, t))
        for p in bits(t):
            by_second.setdefault(p, []).append((s, t))
    for p in set(by_first) & set(by_second):
        bit = 1 << p
        for u, v in by_first[p]:
            for w, z in by_second[p]:
                for a0 in (u & ~bit, u):
                    for b1 in (z & ~bit, z):
                        if (a0 | w, v | b1) not in o.pairs:
                            yield (a0, v, w, b1, bit)


def _semilattice_closure(members, op, seed, limit) -> set | None:
    """Closure of ``members`` under an idempotent-commutative-associative
    binary op, with ``seed`` as the empty fold.  One left-to-right pass is
    complete for such ops.  Returns None when the cap is exceeded."""
    out = {seed}
    for h in members:
        out |= {op(h, e) for e in out}
        if len(out) > limit:
            return None
    return out


def _check_i4_induced(o: BeaOracle) -> AxiomReport:
    n = o.universe
    full = o.full_mask
    limit = get_cap("closure-size")
    inters = _semilattice_closure(o.halfspaces, int.__and__, full, limit)
    unions = _semilattice_closure(o.halfspaces, int.__or__, 0, limit)
    if inters is None or unions is None:
        guard("pair-axiom-sweep", n, "i4 fallback sweep after closure blow-up")
        return _check_i4_sweep(o)
    if len(inters) * len(unions) > 1 << 22:
        raise UniverseTooLarge(
            "closure-size", 1 << 22, len(inters) * len(unions), "i4 pair product"
        )
    # A hull pair is a witness, not the minimal one.  Within the sweep cap
    # the sweep finds that, so the witness does not depend on closure-size;
    # past it, the first hull pair is reported.
    sweepable = n <= get_cap("pair-axiom-sweep")
    # For induced oracles, a ⋈ b depends on a only through the intersection
    # of the halfspaces above a, and the witnessing points available for b
    # only through unions of halfspaces; so it suffices to test hull pairs.
    for a in inters:
        above = [h for h in o.halfspaces if a & ~h == 0]
        for bcomp in unions:
            if a & ~bcomp:
                continue
            if any(h & ~bcomp == 0 for h in above):
                continue
            if sweepable:
                return _check_i4_sweep(o)
            b = full & ~bcomp
            # Re-derive the witness honestly before reporting it.
            if not o.query(a, b):
                raise AssertionError("i4 closure reduction out of step")
            for p in range(n):
                if o.query(a, 1 << p) and o.query(1 << p, b):
                    raise AssertionError("i4 closure reduction out of step")
            return AxiomReport(
                "i4",
                False,
                (a, b),
                note="a hull pair past the pair-axiom-sweep cap: not "
                "popcount-minimal, and it depends on closure-size",
            )
    return AxiomReport("i4", True)


def _check_i4_sweep(o: BeaOracle) -> AxiomReport:
    to_points, from_points = singleton_links(o)
    n = o.universe
    through = transversal_bits(n, to_points, from_points)
    return _report("i4", pairs_of(o.linkage & ~through, n))


def _check_i4(o: BeaOracle) -> AxiomReport:
    if o.halfspaces is not None:
        return _check_i4_induced(o)
    if o.universe <= get_cap("pair-axiom-sweep"):
        return _check_i4_sweep(o)
    # Past the cap, only the stored pairs are visited: sparse tables stay cheap.
    pairs = o.pairs
    points = [1 << p for p in range(o.universe)]
    return _report(
        "i4",
        (
            (s, t)
            for s, t in pairs
            if not any((s, b) in pairs and (b, t) in pairs for b in points)
        ),
    )


def _check_i5(o: BeaOracle) -> AxiomReport:
    if o.pairs is not None:
        return _report("i5", ((s, t) for s, t in o.pairs if (t, s) not in o.pairs))
    full = o.full_mask
    members = set(o.halfspaces)
    # (complement(h), h) is linked one way only.
    return _report(
        "i5",
        ((full & ~h, h) for h in o.halfspaces if full & ~h not in members),
        note="symmetry for induced oracles is complement-closure of the halfspaces",
    )


def singleton_links(oracle: BeaOracle) -> tuple[list[int], list[int]]:
    """For every subset ``s`` (as the index): the mask of the points ``p``
    with ``s ⋈ {p}``, and the mask of those with ``{p} ⋈ s``.

    Both are read off :attr:`BeaOracle.linkage`, at bits
    ``s << n | 1 << p`` and ``1 << p << n | s``, and kept on the oracle.
    The callers must not change the lists."""
    if "links" not in oracle._bitsets:
        n = oracle.universe
        size = 1 << n
        # Digit x is bit x of the linkage; the sentinel bit keeps all 4^n.
        digits = bin(oracle.linkage | 1 << size * size)[:1:-1]
        points = [1 << p for p in reversed(range(n))]
        # Column 1 << p of every row, and row 1 << p, highest point first.
        to_cols = zip(*(digits[b::size] for b in points))
        from_rows = zip(*(digits[b * size:(b + 1) * size] for b in points))
        oracle._bitsets["links"] = (
            [int("".join(c), 2) for c in to_cols],
            [int("".join(c), 2) for c in from_rows],
        )
    return oracle._bitsets["links"]


def _check_c0(o: BeaOracle) -> AxiomReport:
    if o.zero_elem is None:
        raise MissingConstants("c0 needs a designated zero element")
    pair = (1 << o.zero_elem, 0)
    ok = o.query(*pair)
    return AxiomReport("c0", ok, None if ok else pair)


def _check_c1(o: BeaOracle) -> AxiomReport:
    if o.one_elem is None:
        raise MissingConstants("c1 needs a designated one element")
    pair = (0, 1 << o.one_elem)
    ok = o.query(*pair)
    return AxiomReport("c1", ok, None if ok else pair)


_CHECKERS = {
    "i0": _check_i0,
    "i1": _check_i1,
    "i2": _check_i2,
    "i3": _check_i3,
    "i4": _check_i4,
    "i5": _check_i5,
    "c0": _check_c0,
    "c1": _check_c1,
}


def check_axiom(oracle: BeaOracle, axiom: str) -> AxiomReport:
    """Check one axiom; reports carry a minimal counterexample on failure.

    Witnesses are mask tuples: ``i1`` reports
    ``(a, b, a', b')`` — a linked pair and its non-linked one-element
    extension; ``i2`` reports the offending singleton pair; ``i3`` reports
    ``(a0, b0, a1, b1, {p})``; ``i4``/``i5`` report the linked pair that
    lacks a through-point / a converse.  Minimality is by total popcount,
    then mask order, over the counterexamples the checker enumerates.
    """
    try:
        fn = _CHECKERS[axiom]
    except KeyError:
        raise InputError(f"unknown axiom {axiom!r}") from None
    return fn(oracle)


def check_axioms(oracle: BeaOracle, axioms=None) -> dict:
    """Check several axioms; default is the core set plus any constants."""
    if axioms is None:
        axioms = ["i0", "i1", "i2", "i3"]
        if oracle.zero_elem is not None:
            axioms.append("c0")
        if oracle.one_elem is not None:
            axioms.append("c1")
    return {a: check_axiom(oracle, a) for a in axioms}


def require_axioms(oracle: BeaOracle, axioms=None) -> None:
    """Raise :class:`AxiomsFail` unless :func:`check_axioms` all pass."""
    reports = check_axioms(oracle, axioms)
    failures = {a: r for a, r in reports.items() if not r.passed}
    if failures:
        raise AxiomsFail(failures)


def associated_order(oracle: BeaOracle) -> frozenset:
    """The order ``p ≤ q  iff  {p} ⋈ {q}`` (a poset once i0–i3 hold)."""
    require_axioms(oracle, ("i0", "i1", "i2", "i3"))
    n = oracle.universe
    return frozenset(
        (p, q) for p in range(n) for q in range(n) if oracle.query(1 << p, 1 << q)
    )


def complement(oracle: BeaOracle, a: int):
    """The complement of element ``a``: the unique ``b`` with
    ``{a,b} ⋈ {0}`` and ``{1} ⋈ {a,b}``.  Returns None when absent."""
    if oracle.zero_elem is None or oracle.one_elem is None:
        raise MissingConstants("complements need designated zero and one")
    z = 1 << oracle.zero_elem
    u = 1 << oracle.one_elem
    found = []
    for b in range(oracle.universe):
        both = (1 << a) | (1 << b)
        if oracle.query(both, z) and oracle.query(u, both):
            found.append(b)
    if not found:
        return None
    if len(found) > 1:
        raise DuplicateComplement(a, found)
    return found[0]


def is_halfspace(oracle: BeaOracle, u: int) -> bool:
    """Whether ``u`` is a halfspace: no subset of ``u`` links to any subset
    of its complement, and designated constants sit on the right sides."""
    full = oracle.full_mask
    u &= full
    if oracle.zero_elem is not None and u >> oracle.zero_elem & 1:
        return False
    if oracle.one_elem is not None and not u >> oracle.one_elem & 1:
        return False
    if oracle.pairs is not None:
        # The table stores every positive pair, so scan them all.
        return not any(s & ~u == 0 and t & u == 0 for s, t in oracle.pairs)
    # Induced oracles are monotone: a halfspace witnessing the maximal pair
    # (u, complement) witnesses every smaller pair.
    return not oracle.query(u, full & ~u)


def _cover_test(oracle: BeaOracle):
    """The function ``covered(s, t)``: whether some linked pair
    ``(s', t')`` has ``s' ⊆ s`` and ``t' ⊆ t``.  An induced oracle is
    monotone, so that is its query.  Within the ``pair-axiom-sweep`` cap a
    table answers with one bit test on :attr:`BeaOracle.above`, held as
    bytes since shifting the ``4^n``-bit int copies it; past it, the stored
    pairs are scanned."""
    if oracle.pairs is None:
        return oracle.query
    n = oracle.universe
    if n > get_cap("pair-axiom-sweep"):
        pairs = oracle.pairs
        return lambda s, t: any(a & ~s == 0 and b & ~t == 0 for a, b in pairs)
    above = oracle.above.to_bytes(((1 << 2 * n) + 7) >> 3, "little")

    def covered(s: int, t: int) -> bool:
        x = s << n | t
        return bool(above[x >> 3] >> (x & 7) & 1)

    return covered


def _halfspaces_backtrack(oracle: BeaOracle) -> list[int]:
    """Every halfspace, by deciding one element at a time which side it
    joins.  A partial split extends to a halfspace iff no linked pair lies
    at or below it, so each branch follows a cover test; the last one is on
    the complete split, and a leaf needs no further certificate."""
    n = oracle.universe
    if oracle.zero_elem is not None and oracle.zero_elem == oracle.one_elem:
        return []  # no side can both hold and miss the one constant
    covered = _cover_test(oracle)
    results = []

    def rec(x: int, inmask: int, outmask: int) -> None:
        if x == n:
            results.append(inmask)
            return
        bit = 1 << x
        if oracle.one_elem != x and not covered(inmask, outmask | bit):
            rec(x + 1, inmask, outmask | bit)
        if oracle.zero_elem != x and not covered(inmask | bit, outmask):
            rec(x + 1, inmask | bit, outmask)

    rec(0, 0, 0)
    return sorted(results)


def all_halfspaces(oracle: BeaOracle, *, method: str = "auto") -> SetFamily:
    """Every halfspace of the oracle, as a family in increasing mask order.

    ``method="auto"`` lists an induced oracle's stored halfspaces directly
    (they are exactly the halfspaces: a separator for ``(u, complement)``
    must equal ``u``) and backtracks over element splits for tables.
    ``"brute"`` sweeps all ``2^n`` subsets through :func:`is_halfspace` —
    the independent oracle the fast paths are tested against.
    """
    n = oracle.universe
    if method == "brute":
        guard("halfspace-brute", n, "brute-force halfspace sweep")
        sets = [u for u in range(1 << n) if is_halfspace(oracle, u)]
        return SetFamily(base=n, sets=tuple(sets))
    if method != "auto":
        raise InputError(f"unknown halfspace method {method!r}")
    if oracle.halfspaces is None:
        guard("halfspace-brute", n, "backtracking halfspace search")
        return SetFamily(base=n, sets=tuple(_halfspaces_backtrack(oracle)))
    out = []
    for h in oracle.halfspaces:
        if oracle.zero_elem is not None and h >> oracle.zero_elem & 1:
            continue
        if oracle.one_elem is not None and not h >> oracle.one_elem & 1:
            continue
        out.append(h)
    return SetFamily(base=n, sets=tuple(sorted(set(out))))


def separate(oracle: BeaOracle, a: int, b: int) -> int:
    """Grow a halfspace containing ``a`` and avoiding ``b``.

    Precondition: ``a`` is not linked to ``b`` (else
    :class:`PreconditionViolated`).  The first sweep grows the inside from
    ``a``, admitting a point when no subset of the grown side links to
    ``b``; the second grows the outside from ``b`` under the full
    no-linked-pair condition.  When the sweeps strand a point, or the grown
    side fails the halfspace certificate, the input violates the core
    axioms and a :class:`PaschFailure` is raised — the function never
    returns a bogus halfspace.
    """
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
    covered = _cover_test(oracle)
    if oracle.pairs is not None:
        # Tables need not be monotone: only the stored pairs whose right
        # side is exactly b block the inside.
        linked_to_b = [s for s, t in oracle.pairs if t == b]

        def blocked(grown: int) -> bool:
            return any(s & ~grown == 0 for s in linked_to_b)

    else:
        def blocked(grown: int) -> bool:
            return covered(grown, b)

    inside = a
    for p in range(n):
        bit = 1 << p
        if not (inside | b) & bit and not blocked(inside | bit):
            inside |= bit
    if oracle.pairs is not None:
        clash = next(
            (
                (s, t)
                for s, t in oracle.pairs
                if s & ~inside == 0 and t & ~b == 0
            ),
            None,
        )
        if clash is not None:
            raise PaschFailure(
                "a stored pair already links the grown sides", witness=clash
            )
    outside = b
    for p in range(n):
        bit = 1 << p
        if not (inside | outside) & bit and not covered(inside, outside | bit):
            outside |= bit

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


def table_from_linkage(n: int, bitset: int, *, zero, one) -> BeaOracle:
    """The table oracle of a pair-index bitset over ``n`` points, which it
    keeps as its :attr:`BeaOracle.linkage`."""
    table = BeaOracle.from_table(n, pairs_of(bitset, n), zero=zero, one=one)
    table._bitsets["linkage"] = bitset
    return table


def oracle_to_table(oracle: BeaOracle) -> BeaOracle:
    """Materialize any oracle as a table, read off its linkage."""
    n = oracle.universe
    guard("pair-axiom-sweep", n, "pair-table materialization")
    return table_from_linkage(
        n, oracle.linkage, zero=oracle.zero_elem, one=oracle.one_elem
    )
