"""Instance generators: posets, semilattices, down-set lattices, set
families, betweenness relations, bi-convexity corpora, and separated
instances sampled from template powers.

Random generators are deterministic functions of their seed (the PRNG is
a fixed 64-bit algorithm, see :mod:`twodual.rng`); exhaustive generators
enumerate labeled structures.  Brute-force counting twins
(``count_posets_brute``, ``count_semilattice_tables``) exist so tests can
cross-validate the fast enumerations against a definitionally obvious
filter.

Separated instances of a finite template are sets of vectors of ``2^k``.
Each vector is held as a ``k``-bit mask with coordinate 0 as the high
bit, so that sorted masks come in the order of sorted tuples; a mask is
also the vector's point row over the ``k`` coordinate projections.  The
closure applies each operation to masks with its compiled
:func:`twodual.core.op_kernel`, and
:func:`twodual.duality.power_substructure` builds the instance, as it
builds a dual from hom masks.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math

from ..bea import BeaOracle, family_bea
from ..convexity import BiConvexity, biconvexity_from_bea
from ..core import FiniteStructure, SetFamily, bits, op_kernel
from ..duality import power_substructure
from ..errors import EmptyUniverse, InputError, UniverseTooLarge
from ..rng import SplitMix64
from .catalog import ORACLE_TEMPLATES, oracle_template, template

_EXHAUSTIVE_POSET_LIMIT = 4


# ---------------------------------------------------------------- posets

def _order_structure(rows: tuple[int, ...]) -> FiniteStructure:
    n = len(rows)
    sig = template("order").signature
    leq = frozenset(
        (i, j) for i in range(n) for j in bits(rows[i])
    )
    return FiniteStructure(
        signature=sig, size=n, tuples={"leq": leq}, constants={}
    )


def leq_rows(structure: FiniteStructure) -> tuple[int, ...]:
    """Bit rows of a poset structure: bit ``j`` of ``rows[i]`` iff i ≤ j."""
    rows = [0] * structure.size
    for i, j in structure.rel("leq"):
        rows[i] |= 1 << j
    return tuple(rows)


def _is_transitive(rows, n) -> bool:
    for i in range(n):
        r = rows[i]
        m = r
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            if rows[j] & ~r:
                return False
    return True


def guard_exhaustive_posets(n: int) -> None:
    """Refuse an exhaustive labeled enumeration of posets on more than 4
    points, where it filters a million relations or more."""
    if n > _EXHAUSTIVE_POSET_LIMIT:
        raise UniverseTooLarge(
            "poset-exhaustive", _EXHAUSTIVE_POSET_LIMIT, n,
            "exhaustive labeled enumeration",
        )


@functools.cache
def _exhaustive_poset_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Every labeled poset on ``n`` points as bit rows, by filtering the
    ``2^(n(n-1))`` off-diagonal relations; see `guard_exhaustive_posets`.
    Cached, since one structures run asks for the same ``n`` up to four
    times; the guard keeps it to at most four entries."""
    if n < 1:
        raise EmptyUniverse("posets need at least one point")
    guard_exhaustive_posets(n)
    off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
    diag = [1 << i for i in range(n)]
    out = []
    for mask in range(1 << len(off_diag)):
        rows = list(diag)
        ok = True
        for k, (i, j) in enumerate(off_diag):
            if mask >> k & 1:
                if rows[j] >> i & 1:  # antisymmetry
                    ok = False
                    break
                rows[i] |= 1 << j
        if ok and _is_transitive(rows, n):
            out.append(tuple(rows))
    return tuple(out)


def _random_poset_rows(n: int, rng: SplitMix64) -> tuple[int, ...]:
    # A random linear extension plus random forward edges, closed
    # transitively — every labeled poset on n points arises this way.
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [1 << i for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.chance(1, 3):
                rows[perm[a]] |= 1 << perm[b]
    for k in range(n):  # Warshall on bit rows
        kk = 1 << k
        for i in range(n):
            if rows[i] & kk:
                rows[i] |= rows[k]
    return tuple(rows)


def _poset_rows(n: int, mode: str, seed: int | None, count: int):
    """The bit rows of the posets `gen_posets` builds."""
    if n < 1:
        raise EmptyUniverse("posets need at least one point")
    if mode == "exhaustive":
        return _exhaustive_poset_rows(n)
    if mode == "random":
        rng = SplitMix64(0 if seed is None else seed)
        return [_random_poset_rows(n, rng) for _ in range(count)]
    raise InputError(f"unknown poset mode {mode!r}")


def gen_posets(
    n: int, mode: str = "exhaustive", *, seed: int | None = None, count: int = 10
) -> list[FiniteStructure]:
    return [_order_structure(rows) for rows in _poset_rows(n, mode, seed, count)]


def count_posets_brute(n: int) -> int:
    """Filter all 2^(n·n) binary relations for the partial-order axioms.

    Deliberately naive — the independent twin of the exhaustive
    generator.  Bit ``n·i + j`` of a relation holds i ≤ j.
    """
    full = (1 << n) - 1
    diagonal = sum(1 << (n + 1) * i for i in range(n))
    total = 0
    for m in range(1 << (n * n)):
        if m & diagonal != diagonal:  # reflexivity
            continue
        rows = [(m >> (n * i)) & full for i in range(n)]
        if any(
            i != j and rows[i] >> j & 1 and rows[j] >> i & 1
            for i in range(n)
            for j in range(n)
        ):
            continue
        if _is_transitive(rows, n):
            total += 1
    return total


# ----------------------------------------------------------- semilattices

def _below_rows(rows) -> list[int]:
    """The transposed rows of a poset: bit ``i`` of ``below[j]`` iff
    i ≤ j, given ``rows[i]`` with bit j iff i ≤ j."""
    below = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in bits(row):
            below[j] |= 1 << i
    return below


def _closed_sets(rows) -> list[int]:
    """The masks ``m``, in increasing order, that hold ``rows[i]`` for
    every ``i`` in ``m``: the up-sets for the poset's ``leq_rows``, the
    down-sets for its ``_below_rows``."""
    return [
        m
        for m in range(1 << len(rows))
        if all(rows[i] & ~m == 0 for i in bits(m))
    ]


def _glb_table(rows: tuple[int, ...]) -> list[list[int]] | None:
    """Binary greatest lower bounds of a poset, or None if some pair
    lacks one.  ``rows[i]`` has bit j iff i ≤ j."""
    n = len(rows)
    below = _below_rows(rows)
    table: list[list[int]] = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            common = below[i] & below[j]
            g = -1
            for c in bits(common):
                if common & ~below[c] == 0:
                    g = c
                    break
            if g < 0:
                return None
            table[i][j] = g
    return table


def _meet_structure(table: list[list[int]]) -> FiniteStructure:
    n = len(table)
    sig = template("semilattice").signature
    graph = frozenset(
        (i, j, table[i][j]) for i in range(n) for j in range(n)
    )
    return FiniteStructure(
        signature=sig, size=n, tuples={"meet": graph}, constants={}
    )


def gen_semilattices(
    n: int,
    mode: str = "exhaustive",
    *,
    seed: int | None = None,
    count: int = 10,
) -> list[FiniteStructure]:
    """Meet-semilattices as structures with a functional ``meet``.

    Exhaustive mode filters the labeled posets for glb-existence (every
    finite meet-semilattice is its order's glb table).  Random mode
    intersects-closes a random family of sets and uses ∩ as the meet.
    """
    if n < 1:
        raise EmptyUniverse("semilattices need at least one point")
    if mode == "exhaustive":
        out = []
        for rows in _exhaustive_poset_rows(n):
            table = _glb_table(rows)
            if table is not None:
                out.append(_meet_structure(table))
        return out
    if mode == "random":
        rng = SplitMix64(0 if seed is None else seed)
        out = []
        while len(out) < count:
            base = rng.randint(2, 7)
            members = {rng.mask(base) for _ in range(rng.randint(1, n))}
            closed = set(members)
            frontier = list(members)
            while frontier:
                a = frontier.pop()
                for b in list(closed):
                    c = a & b
                    if c not in closed:
                        closed.add(c)
                        frontier.append(c)
            if len(closed) > n:
                continue
            elems = sorted(closed)
            index = {m: i for i, m in enumerate(elems)}
            table = [
                [index[a & b] for b in elems] for a in elems
            ]
            out.append(_meet_structure(table))
        return out
    raise InputError(f"unknown semilattice mode {mode!r}")


def count_semilattice_tables(n: int) -> int:
    """Filter all commutative binary tables on n points for the
    semilattice axioms (idempotent + associative).  Exponential twin of
    the poset-based enumeration; keep n ≤ 3."""
    if n > 3:
        raise UniverseTooLarge("semilattice-tables", 3, n, "table filter")
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = 0
    for values in itertools.product(range(n), repeat=len(cells)):
        table = [[i if i == j else -1 for j in range(n)] for i in range(n)]
        for (i, j), v in zip(cells, values):
            table[i][j] = table[j][i] = v
        if all(
            table[table[x][y]][z] == table[x][table[y][z]]
            for x in range(n)
            for y in range(n)
            for z in range(n)
        ):
            total += 1
    return total


# ----------------------------------------------------- down-set lattices

def _down_set_tables(rows) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The meet and join tables of the down-set lattice of a poset's
    ``leq_rows``, flat: entry ``a * size + b`` is ``a ∧ b`` (``a ∨ b``),
    the down-sets indexed in increasing mask order."""
    downs = _closed_sets(_below_rows(rows))
    index = {m: k for k, m in enumerate(downs)}
    meet = tuple(index[a & b] for a in downs for b in downs)
    join = tuple(index[a | b] for a in downs for b in downs)
    return meet, join


def _lattice_structure(meet, join) -> FiniteStructure:
    """A bounded lattice from flat tables over down-sets indexed in mask
    order: ∅ is element 0 and the whole set the last element."""
    size = math.isqrt(len(meet))

    def graph(table) -> frozenset:
        return frozenset(
            (a, b, table[a * size + b]) for a in range(size) for b in range(size)
        )

    return FiniteStructure(
        signature=template("bounded_lattice").signature,
        size=size,
        tuples={"meet": graph(meet), "join": graph(join)},
        constants={"zero": 0, "one": size - 1},
    )


def down_set_lattice(poset: FiniteStructure) -> FiniteStructure:
    """The bounded distributive lattice of down-sets of a poset, ordered
    by inclusion, with ∧ = ∩ and ∨ = ∪."""
    return _lattice_structure(*_down_set_tables(leq_rows(poset)))


def gen_distributive_lattices(
    n: int, mode: str = "exhaustive", *, seed: int | None = None, count: int = 10
) -> list[FiniteStructure]:
    """Down-set lattices of posets on n points, deduplicated by their
    operation tables (relabelings of the same lattice collapse) before
    any is built."""
    built: dict = {}
    for rows in _poset_rows(n, mode, seed, count):
        tables = _down_set_tables(rows)
        if tables not in built:
            built[tables] = _lattice_structure(*tables)
    return list(built.values())


# ---------------------------------------------------------- set families

def gen_families(
    base: int, size: int, seed: int, count: int = 1
) -> list[SetFamily]:
    """Seeded random families of ``size`` distinct subsets of ``base``
    points.  Roughly a third include ∅ designated as 0, a third the full
    set designated as 1 (independently)."""
    if base < 1:
        raise EmptyUniverse("families need a nonempty base")
    if size < 1 or size > 1 << base:
        raise InputError(f"cannot pick {size} distinct subsets of {base} points")
    rng = SplitMix64(seed)
    out = []
    full = (1 << base) - 1
    for _ in range(count):
        members: set[int] = set()
        zero = rng.chance(1, 3)
        one = rng.chance(1, 3)
        if zero:
            members.add(0)
        if one:
            members.add(full)
        while len(members) < size:
            members.add(rng.mask(base))
        out.append(
            SetFamily(
                base=base,
                sets=tuple(sorted(members)),
                has_empty_as_zero=zero,
                has_base_as_one=one,
            )
        )
    return out


# ----------------------------------------------------------- betweenness

def _betweenness_structure(n: int, triples) -> FiniteStructure:
    sig = template("betweenness_s0").signature
    return FiniteStructure(
        signature=sig, size=n, tuples={"between": frozenset(triples)}, constants={}
    )


def minimal_betweenness(n: int) -> FiniteStructure:
    """B(k,ℓ,m) iff (k = m ⟹ ℓ = k): the only convex sets are ∅, the
    whole set and the singletons."""
    if n < 1:
        raise EmptyUniverse("betweenness needs at least one point")
    triples = [
        (k, l, m)
        for k in range(n)
        for l in range(n)
        for m in range(n)
        if k != m or l == k
    ]
    return _betweenness_structure(n, triples)


def _close_betweenness(n: int, sets: list[list[int]]) -> None:
    """Fixpoint of the composition rule: x,y ∈ [u,v] and z ∈ [x,y] put
    z ∈ [u,v].  ``sets[u][v]`` is the interval bitmask."""
    changed = True
    while changed:
        changed = False
        for u in range(n):
            for v in range(n):
                cur = sets[u][v]
                acc = cur
                for x in bits(cur):
                    for y in bits(cur):
                        acc |= sets[x][y]
                if acc != cur:
                    sets[u][v] = acc
                    changed = True


def gen_betweenness(
    n: int, mode: str = "minimal", *, seed: int | None = None, count: int = 10
) -> list[FiniteStructure]:
    """Betweenness instances.

    ``minimal`` — the singleton-convex relation (one instance).
    ``random`` — random relations forced to satisfy the reflexivity
    axiom and closed under the composition rule; antisymmetry may fail,
    which is the interesting case for separation tests.
    ``raw`` — arbitrary random ternary relations, no axioms at all.
    """
    if n < 1:
        raise EmptyUniverse("betweenness needs at least one point")
    if mode == "minimal":
        return [minimal_betweenness(n)]
    rng = SplitMix64(0 if seed is None else seed)
    out = []
    if mode == "random":
        for _ in range(count):
            sets = [[0] * n for _ in range(n)]
            for u in range(n):
                for v in range(n):
                    sets[u][v] |= (1 << u) | (1 << v)
                    for z in range(n):
                        if rng.chance(1, 4):
                            sets[u][v] |= 1 << z
            _close_betweenness(n, sets)
            triples = [
                (u, z, v)
                for u in range(n)
                for v in range(n)
                for z in bits(sets[u][v])
            ]
            out.append(_betweenness_structure(n, triples))
        return out
    if mode == "raw":
        for _ in range(count):
            triples = [
                t
                for t in itertools.product(range(n), repeat=3)
                if rng.chance(1, 2)
            ]
            out.append(_betweenness_structure(n, triples))
        return out
    raise InputError(f"unknown betweenness mode {mode!r}")


# ---------------------------------------------------------- bi-convexity

def _poset_space(
    poset: FiniteStructure, *, with_constants: bool = False
) -> BiConvexity | None:
    """Down-sets as lower convexity, up-sets as upper.  With
    ``with_constants`` the empty set is dropped from both families and
    the (unique, if any) bottom/top points are designated — returns None
    when the poset is not bounded."""
    rows = leq_rows(poset)
    n = poset.size
    below = _below_rows(rows)
    downs = _closed_sets(below)
    ups = _closed_sets(rows)
    zero = one = None
    if with_constants:
        full = (1 << n) - 1
        bottoms = [i for i in range(n) if rows[i] == full]
        tops = [i for i in range(n) if below[i] == full]
        if not bottoms or not tops:
            return None
        zero, one = bottoms[0], tops[0]
        downs = [m for m in downs if m]
        ups = [m for m in ups if m]
    return BiConvexity(
        n,
        SetFamily(base=n, sets=tuple(downs)),
        SetFamily(base=n, sets=tuple(ups)),
        zero_elem=zero,
        one_elem=one,
    )


def chain_interval_space(n: int) -> BiConvexity:
    """Intervals of the n-chain (including ∅) on both sides — a
    symmetric space."""
    if n < 1:
        raise EmptyUniverse("chains need at least one point")
    intervals = {0}
    for lo in range(n):
        for hi in range(lo, n):
            intervals.add(((1 << (hi + 1)) - 1) & ~((1 << lo) - 1))
    fam = SetFamily(base=n, sets=tuple(sorted(intervals)))
    return BiConvexity(n, fam, fam)


def discrete_space(n: int) -> BiConvexity:
    """Every subset convex on both sides."""
    if n < 1:
        raise EmptyUniverse("spaces need at least one point")
    fam = SetFamily(base=n, sets=tuple(range(1 << n)))
    return BiConvexity(n, fam, fam)


def powerset_family_space(k: int) -> BiConvexity:
    """The space rebuilt from the linkage of the full powerset family on
    k points: universe 2^k, complemented with ¬ = set complement."""
    fam = SetFamily(
        base=k,
        sets=tuple(range(1 << k)),
        has_empty_as_zero=True,
        has_base_as_one=True,
    )
    return biconvexity_from_bea(family_bea(fam), skip_axioms=True)


def gen_biconvexity(max_n: int = 6, *, seed: int = 2026) -> dict:
    """The verification corpus: ``plain`` spaces (poset spaces with and
    without constants, a powerset-family space) and ``symmetric`` spaces
    (chain intervals, discrete spaces)."""
    if max_n < 1:
        raise EmptyUniverse("empty corpus bound")
    rng = SplitMix64(seed)
    plain: list[BiConvexity] = []
    for n in range(1, min(3, max_n) + 1):
        for poset in gen_posets(n):
            plain.append(_poset_space(poset))
    for n in range(4, max_n + 1):
        chain = _order_structure(
            tuple(((1 << n) - 1) & ~((1 << i) - 1) for i in range(n))
        )
        plain.append(_poset_space(chain))
        space = _poset_space(chain, with_constants=True)
        if space is not None:
            plain.append(space)
        for rows in (
            _random_poset_rows(n, rng),
            _random_poset_rows(n, rng),
        ):
            plain.append(_poset_space(_order_structure(rows)))
    plain.append(powerset_family_space(2))
    symmetric: list[BiConvexity] = [
        chain_interval_space(n) for n in range(1, min(max_n, 4) + 1)
    ]
    symmetric.extend(discrete_space(n) for n in range(1, min(max_n, 3) + 1))
    return {"plain": plain, "symmetric": symmetric}


# -------------------------------------------------------- planar witness

def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(q, a, b) -> bool:
    return (
        _cross(a, b, q) == 0
        and min(a[0], b[0]) <= q[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= q[1] <= max(a[1], b[1])
    )


def _in_hull(q, pts) -> bool:
    if q in pts:
        return True
    for a, b in itertools.combinations(pts, 2):
        if _on_segment(q, a, b):
            return True
    for a, b, c in itertools.combinations(pts, 3):
        if _cross(a, b, c) == 0:
            continue
        s1 = _cross(a, b, q)
        s2 = _cross(b, c, q)
        s3 = _cross(c, a, q)
        if (s1 >= 0 and s2 >= 0 and s3 >= 0) or (
            s1 <= 0 and s2 <= 0 and s3 <= 0
        ):
            return True
    return False


def planar_trace_space(points) -> BiConvexity:
    """The trace convexity of integer points in the plane: a point set
    is a member iff it equals its convex hull's intersection with the
    configuration.  Same family on both sides."""
    pts = [tuple(p) for p in points]
    if not pts:
        raise EmptyUniverse("planar spaces need points")
    if len(set(pts)) != len(pts):
        raise InputError("planar points must be distinct")
    n = len(pts)
    traces = []
    for m in range(1 << n):
        chosen = [pts[i] for i in bits(m)]
        trace = 0
        for i, p in enumerate(pts):
            if chosen and _in_hull(p, chosen):
                trace |= 1 << i
        if trace == m:
            traces.append(m)
    fam = SetFamily(base=n, sets=tuple(traces))
    return BiConvexity(n, fam, fam)


def nonnormal_planar() -> BiConvexity:
    """A five-point planar configuration whose trace convexity is not
    normal (the split condition fails); it also violates the hull-transit
    pattern.  Both defects are found by the checkers, not hard-coded."""
    return planar_trace_space(((0, 0), (6, 0), (3, 6), (2, 2), (3, 2)))


# ------------------------------------------------- separated instances

def _closure_under_ops(
    vectors: set[int], temp, k: int, max_size: int
) -> set[int] | None:
    """Close ``vectors``, masks of ``k`` coordinates, under the template
    operations coordinatewise; None once the closure outgrows
    ``max_size``.

    Semi-naive: each popped vector is combined only in argument tuples
    that contain it, since tuples of earlier vectors were taken when the
    last of them was popped.
    """
    full = (1 << k) - 1
    ops = [
        (op_kernel(temp.structure.rel(s.name)), s.arity - 1)
        for s in temp.signature.symbols
        if s.functional
    ]
    frontier = list(vectors)
    known = sorted(vectors)
    while frontier:
        if len(vectors) > max_size:
            return None
        v = frontier.pop()
        older = [w for w in known if w != v]
        for op, arity in ops:
            # Each tuple once: position i is the first to hold v.
            for i in range(arity):
                for args in itertools.product(
                    *[older] * i, (v,), *[known] * (arity - i - 1)
                ):
                    out = op(full, *args)
                    if out not in vectors:
                        vectors.add(out)
                        frontier.append(out)
                        bisect.insort(known, out)
    return vectors if len(vectors) <= max_size else None


def gen_separated_instances(
    name: str, count: int, seed: int, *, max_size: int = 5
):
    """Seeded separated instances for a catalog template.

    Finite-signature templates: random substructures of finite powers of
    the template (these are separated by construction — coordinate
    projections separate points and reflect relations); within one call,
    draws that give the same instance give the same object.  Oracle
    templates: linkages of random set families, with designated members
    matching the variant's constants; within one call, draws of the same
    family give the same object.
    """
    if name.lower() in ORACLE_TEMPLATES:
        temp = oracle_template(name)
        rng = SplitMix64(seed)
        out = []
        built: dict = {}
        while len(out) < count:
            base = rng.randint(2, 6)
            # A small base has only 2^base distinct masks to offer.
            size = min(rng.randint(2, max_size), 1 << base)
            members: set[int] = set()
            if temp.zero_elem is not None:
                members.add(0)
            if temp.one_elem is not None:
                members.add((1 << base) - 1)
            while len(members) < size:
                members.add(rng.mask(base))
            key = (base, tuple(sorted(members)))
            if key not in built:
                built[key] = family_bea(SetFamily(
                    base=base,
                    sets=key[1],
                    has_empty_as_zero=temp.zero_elem is not None,
                    has_base_as_one=temp.one_elem is not None,
                ))
            out.append(built[key])
        return out

    temp = template(name)
    rng = SplitMix64(seed)
    out = []
    # Draws repeat, so each drawn set is closed once and each instance is
    # built once: a repeat appends the same object.
    drawn_to: dict = {}
    built: dict = {}
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise InputError(
                f"could not sample {count} instances for {name!r} within "
                f"size {max_size}; loosen the bounds"
            )
        k = rng.randint(3, 5)
        m = rng.randint(2, max_size)
        # Coordinate 0 is drawn first and is the high bit.  A bit is the
        # low bit of one output, the same draw as `rng.randint(0, 1)`.
        vectors = set()
        for _ in range(m):
            v = 0
            for _ in range(k):
                v = v << 1 | rng.next_u64() & 1
            vectors.add(v)
        for cname in temp.signature.constants:
            vectors.add((1 << k) - 1 if temp.structure.constants[cname] else 0)
        drawn = (k, frozenset(vectors))
        if drawn not in drawn_to:
            drawn_to[drawn] = None
            closed = _closure_under_ops(vectors, temp, k, max_size)
            if closed is not None and 2 <= len(closed) <= max_size:
                points = sorted(closed)
                # The instance depends only on the set of coordinate
                # columns over the sorted points, so closed sets that
                # share it (in another k, or with a column repeated) make
                # one instance.
                columns = frozenset(
                    tuple((p >> c) & 1 for p in points) for c in range(k)
                )
                if columns not in built:
                    built[columns] = power_substructure(points, k, temp)
                drawn_to[drawn] = built[columns]
        if drawn_to[drawn] is not None:
            out.append(drawn_to[drawn])
    return out


def random_oracle_instances(
    count: int, seed: int, *, max_universe: int = 8
) -> list[BeaOracle]:
    """Random family-induced linkage oracles, for separation sweeps: each
    the linkage of a family of 2 .. ``max_universe`` subsets of 10 points."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        size = rng.randint(2, max_universe)
        fams = gen_families(10, size, rng.next_u64(), 1)
        out.append(family_bea(fams[0]))
    return out
