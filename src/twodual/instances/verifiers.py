"""Suite verifiers: each sweeps a corpus and returns a JSON-ready report
dict — {"suite": name, "pass": bool, ...} plus suite-specific entries.
Verifiers are deterministic given their parameters; the optional thread
pool only splits work across instances and never changes the report
(results are merged in input order).

A corpus may hold the same instance more than once.  ``ordered_map``
checks each distinct instance once and gives every later duplicate a
copy of the entry of its first occurrence, so a report still has one
entry per corpus position.  In the ultimate suite that copy may be a
"timeout" entry, or a checked one where the duplicate itself would have
been past the deadline.
"""

from __future__ import annotations

import copy
import functools
import time
from concurrent.futures import ThreadPoolExecutor

from ..bea import (
    BeaOracle,
    check_axiom,
    family_bea,
    is_halfspace,
    oracle_to_table,
    pairs_of,
    separate,
    transversal_bits,
)
from ..caps import guard
from ..core import (
    FiniteStructure,
    SetFamily,
    bits,
    mask_of,
    structure_key,
    subset_images,
)
from ..duality import (
    bidual_and_evaluate,
    dual,
    hom_equivalence,
    oracle_from_homs,
    ultimate_bidual_report,
    ultimate_dual,
)
from ..errors import (
    DualityError,
    InputError,
    PaschFailure,
    S1Violation,
)
from ..homs import enumerate_homs, is_separated, search_memo
from ..rng import SplitMix64
from .catalog import ORACLE_TEMPLATES, SUITES, template, template_names
from .generators import (
    count_posets_brute,
    gen_betweenness,
    gen_biconvexity,
    gen_distributive_lattices,
    gen_posets,
    gen_semilattices,
    gen_separated_instances,
    guard_exhaustive_posets,
    minimal_betweenness,
    nonnormal_planar,
    random_oracle_instances,
)


def _instance_key(item):
    """A hashable key equal for equal corpus instances: a structure's
    signature, size, relations and constants; any other item (an int, an
    oracle, a tuple of them) is its own key."""
    if isinstance(item, FiniteStructure):
        return structure_key(item)
    return item


def ordered_map(fn, items, threads: int = 1) -> list:
    """``fn`` of every item, in input order, calling ``fn`` once per
    distinct item (by ``_instance_key``); each position gets its own
    shallow copy of the entry."""
    first: dict = {}
    distinct = []
    slots = []
    for x in items:
        slot = first.setdefault(_instance_key(x), len(distinct))
        if slot == len(distinct):
            distinct.append(x)
        slots.append(slot)
    if threads <= 1 or len(distinct) <= 1:
        done = [fn(x) for x in distinct]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(fn, distinct))
    return [copy.copy(done[s]) for s in slots]


def _dedup_lattices(max_size: int):
    out: dict = {}
    for n in range(1, max_size + 1):
        for lat in gen_distributive_lattices(n):
            out.setdefault(_instance_key(lat), lat)
    return list(out.values())


# ------------------------------------------------------------- Priestley

def _op_table(x: FiniteStructure, name: str) -> list[list[int]]:
    """A binary operation's graph as a nested list: ``table[a][b]``."""
    table = [[0] * x.size for _ in range(x.size)]
    for a, b, c in x.rel(name):
        table[a][b] = c
    return table


def _is_distributive(lattice: FiniteStructure) -> bool:
    """Whether a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c) for every triple."""
    meet = _op_table(lattice, "meet")
    join = _op_table(lattice, "join")
    for meet_a in meet:
        for join_b, ab in zip(join, meet_a):
            join_ab = join[ab]
            for bc, ac in zip(join_b, meet_a):
                if meet_a[bc] != join_ab[ac]:
                    return False
    return True


def _filter_nesting(filters: SetFamily) -> tuple[bool, tuple | None]:
    """The dual linkage decided by filter nesting: s ⋈ t iff some p ∈ s
    and q ∈ t have the p-th filter contained in the q-th.  Sweeps every
    subset pair of the carrier; returns (holds, witness)."""
    oracle = family_bea(SetFamily(base=filters.base, sets=filters.sets))
    rows = filters.sets
    k = len(rows)
    guard("pair-axiom-sweep", k, "filter nesting sweep")
    # up[s]: the filters containing some filter of s.
    up = subset_images(
        k, [mask_of(q for q in range(k) if r & ~rows[q] == 0) for r in rows]
    )
    nested = transversal_bits(k, up, range(1 << k))
    witness = next(pairs_of(oracle.linkage ^ nested, k), None)
    return witness is None, witness


def verify_priestley(max_size: int = 4, *, threads: int = 1) -> dict:
    guard_exhaustive_posets(max_size)
    order_t = template("order")
    lat_t = template("bounded_lattice")
    counts = {}
    posets: list[FiniteStructure] = []
    for n in range(1, max_size + 1):
        batch = gen_posets(n)
        counts[n] = {"generated": len(batch), "brute": count_posets_brute(n)}
        counts[n]["agree"] = counts[n]["generated"] == counts[n]["brute"]
        posets.extend(batch)
    # Each poset's dual is one of the corpus lattices (242 duals, 71
    # lattices at size 4), so distributivity is checked once per distinct
    # dual.  Two pool threads may both check a new dual; they store the
    # same verdict.
    distributive_of: dict = {}

    def check_poset(x: FiniteStructure) -> dict:
        try:
            dual_x, _, ev = bidual_and_evaluate(x, order_t, lat_t)
        except S1Violation as exc:
            return {
                "n": x.size,
                "closed": False,
                "symbol": exc.symbol,
                "pass": False,
            }
        key = structure_key(dual_x.induced)
        distributive = distributive_of.get(key)
        if distributive is None:
            distributive = distributive_of[key] = _is_distributive(
                dual_x.induced
            )
        ok = distributive and ev.injective and ev.surjective
        return {
            "n": x.size,
            "closed": True,
            "dual_size": dual_x.size,
            "distributive": distributive,
            "injective": ev.injective,
            "surjective": ev.surjective,
            "pass": ok,
        }

    lattices = _dedup_lattices(max_size)

    def check_lattice(lat: FiniteStructure) -> dict:
        try:
            dual_l, _, ev = bidual_and_evaluate(
                lat, lat_t, order_t, max_source=64, max_carrier=64
            )
        except S1Violation as exc:
            return {
                "lattice_size": lat.size,
                "closed": False,
                "symbol": exc.symbol,
                "pass": False,
            }
        nesting, witness = _filter_nesting(dual_l.carrier.homs)
        ok = nesting and ev.injective and ev.surjective
        return {
            "lattice_size": lat.size,
            "closed": True,
            "dual_size": dual_l.size,
            "filter_nesting": nesting,
            "nesting_witness": None if witness is None else list(witness),
            "injective": ev.injective,
            "surjective": ev.surjective,
            "pass": ok,
        }

    # Lattices first: a poset's dual is one of these lattices, so its
    # searches hit the ones these keep, keyed by the corpus lattices.
    lattice_entries = ordered_map(check_lattice, lattices, threads)
    poset_entries = ordered_map(check_poset, posets, threads)
    ok = (
        all(c["agree"] for c in counts.values())
        and all(e["pass"] for e in poset_entries)
        and all(e["pass"] for e in lattice_entries)
    )
    return {
        "suite": "priestley",
        "pass": ok,
        "poset_counts": counts,
        "posets": poset_entries,
        "lattices": lattice_entries,
    }


# ----------------------------------------------------------------- Stone

def _antichain(n: int) -> FiniteStructure:
    sig = template("pure_set").signature
    return FiniteStructure(
        signature=sig,
        size=n,
        tuples={"eq": frozenset((i, i) for i in range(n))},
        constants={},
    )


def _is_boolean(lat: FiniteStructure) -> bool:
    meet = lat.op("meet")
    join = lat.op("join")
    zero = lat.constants["zero"]
    one = lat.constants["one"]
    return all(
        any(meet[a, b] == zero and join[a, b] == one for b in range(lat.size))
        for a in range(lat.size)
    )


def verify_stone(max_size: int = 4, *, threads: int = 1) -> dict:
    # Its lattices are the down-set lattices of every labeled poset.
    guard_exhaustive_posets(max_size)
    pure_t = template("pure_set")
    bool_t = template("boolean_algebra")
    order_t = template("order")
    lat_t = template("bounded_lattice")

    def check_antichain(n: int) -> dict:
        x = _antichain(n)
        dual_x, _, ev = bidual_and_evaluate(x, pure_t, bool_t)
        masks = dual_x.carrier.homs.sets
        index = {m: i for i, m in enumerate(masks)}
        full = (1 << n) - 1
        neg = dual_x.induced.op("neg")
        complement_ok = all(
            neg[(i,)] == index[full ^ m] for i, m in enumerate(masks)
        )
        ok = (
            dual_x.size == 1 << n
            and complement_ok
            and ev.injective
            and ev.surjective
        )
        return {
            "n": n,
            "dual_size": dual_x.size,
            "expected": 1 << n,
            "negation_is_complement": complement_ok,
            "injective": ev.injective,
            "surjective": ev.surjective,
            "pass": ok,
        }

    entries = ordered_map(check_antichain, range(1, max_size + 1), threads)

    # A bounded distributive lattice is Boolean exactly when its dual
    # order is discrete — checked in both directions over the corpus.
    lattices = _dedup_lattices(max_size)

    def check_boolean(lat: FiniteStructure) -> dict:
        boolean = _is_boolean(lat)
        dual_l = dual(lat, lat_t, order_t, max_source=64, max_carrier=64)
        leq = dual_l.induced.rel("leq")
        discrete = all(i == j for (i, j) in leq)
        return {
            "lattice_size": lat.size,
            "boolean": boolean,
            "dual_discrete": discrete,
            "pass": boolean == discrete,
        }

    bool_entries = ordered_map(check_boolean, lattices, threads)
    ok = all(e["pass"] for e in entries) and all(
        e["pass"] for e in bool_entries
    )
    return {
        "suite": "stone",
        "pass": ok,
        "antichains": entries,
        "boolean_vs_discrete": bool_entries,
    }


# ------------------------------------------------------------------- HMS

def _with_zero(x: FiniteStructure) -> FiniteStructure:
    meet = x.op("meet")
    bottom = 0
    for e in range(1, x.size):
        bottom = meet[bottom, e]
    sig = template("semilattice0").signature
    return FiniteStructure(
        signature=sig,
        size=x.size,
        tuples={"meet": x.rel("meet")},
        constants={"zero": bottom},
    )


def _principal_filters_ok(x: FiniteStructure, masks) -> bool:
    meet = x.op("meet")
    for m in masks:
        if m == 0:
            continue
        p = None
        for e in bits(m):
            p = e if p is None else meet[p, e]
        principal = mask_of(e for e in range(x.size) if meet[p, e] == p)
        if principal != m:
            return False
    return True


def _filter_form_agrees(x: FiniteStructure, masks) -> bool:
    """Rule (H) versus the order shorthand, on every pair with a nonempty
    left side: s ⋈ t iff t meets the principal filter of ⋀s.  (The empty
    left side is where the shorthand is ambiguous, so it is excluded.)"""
    meet = x.op("meet")
    n = x.size
    guard("pair-axiom-sweep", n, "filter form sweep")
    up = [
        mask_of(e for e in range(n) if meet[p, e] == p) for p in range(n)
    ]
    principal = [0] + [
        up[functools.reduce(lambda p, e: meet[p, e], bits(s))]
        for s in range(1, 1 << n)
    ]
    linked = BeaOracle.from_halfspaces(n, masks).linkage
    disagree = linked ^ transversal_bits(n, principal, range(1 << n))
    # Row s = 0, the indices below 2^n, is left out.
    return not disagree >> (1 << n)


def verify_hms(
    max_size: int = 4,
    samples: int = 200,
    *,
    seed: int = 11,
    rand_max: int = 6,
    threads: int = 1,
) -> dict:
    semi_t = template("semilattice")
    semi0_t = template("semilattice0")
    semi01_t = template("semilattice01")
    corpus: list[FiniteStructure] = []
    for n in range(1, max_size + 1):
        corpus.extend(gen_semilattices(n))
    corpus.extend(gen_semilattices(rand_max, "random", seed=seed, count=samples))

    def check(x: FiniteStructure) -> dict:
        try:
            dual_x, _, ev = bidual_and_evaluate(
                x, semi_t, semi01_t, max_source=8, max_carrier=64
            )
            x0 = _with_zero(x)
            _, _, ev0 = bidual_and_evaluate(
                x0, semi0_t, semi0_t, max_source=8, max_carrier=64
            )
        except S1Violation as exc:
            return {
                "n": x.size,
                "closed": False,
                "symbol": exc.symbol,
                "pass": False,
            }
        homs = dual_x.carrier.homs
        filters_ok = _principal_filters_ok(x, homs.sets)
        agrees = _filter_form_agrees(x, homs.sets)
        ok = (
            filters_ok
            and ev.injective
            and ev.surjective
            and ev0.injective
            and ev0.surjective
            and agrees
        )
        return {
            "n": x.size,
            "closed": True,
            "homs": len(homs),
            "principal_filters": filters_ok,
            "dual_size": dual_x.size,
            "bijective": ev.injective and ev.surjective,
            "with_zero_bijective": ev0.injective and ev0.surjective,
            "filter_form_agrees": agrees,
            "pass": ok,
        }

    entries = ordered_map(check, corpus, threads)
    ok = all(e["pass"] for e in entries)
    return {"suite": "hms", "pass": ok, "count": len(entries), "entries": entries}


# ----------------------------------------------------------- betweenness

def _interval_masks(x: FiniteStructure) -> list[list[int]]:
    n = x.size
    sets = [[0] * n for _ in range(n)]
    for (a, b, c) in x.rel("between"):
        sets[a][c] |= 1 << b
    return sets


def betweenness_axioms(x: FiniteStructure) -> dict:
    """The three separation axioms, each with a witness when violated."""
    n = x.size
    iv = _interval_masks(x)
    refl = next(
        (
            (a, b)
            for a in range(n)
            for b in range(n)
            if not (iv[a][b] >> a & 1 and iv[a][b] >> b & 1)
        ),
        None,
    )
    comp = None
    for u in range(n):
        for v in range(n):
            cur = iv[u][v]
            for a in bits(cur):
                for b in bits(cur):
                    if iv[a][b] & ~cur:
                        comp = (u, v, a, b)
                        break
                if comp:
                    break
            if comp:
                break
        if comp:
            break
    anti = next(
        (
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if iv[a][a] >> b & 1 and iv[b][b] >> a & 1
        ),
        None,
    )
    return {
        "reflexive": refl is None,
        "composition": comp is None,
        "antisymmetric": anti is None,
        "pass": refl is None and comp is None and anti is None,
        "witnesses": {
            "reflexive": refl,
            "composition": comp,
            "antisymmetric": anti,
        },
    }


def _convex_masks(x: FiniteStructure) -> set[int]:
    iv = _interval_masks(x)
    out = set()
    for g in range(1 << x.size):
        if all(iv[a][b] & ~g == 0 for a in bits(g) for b in bits(g)):
            out.add(g)
    return out


def verify_betweenness(
    minimal_sizes=(3, 4, 5),
    samples: int = 30,
    *,
    seed: int = 7,
    threads: int = 1,
) -> dict:
    s0_t = template("betweenness_s0")
    nat_t = template("natural_betweenness")

    minimal_entries = []
    for n in minimal_sizes:
        x = minimal_betweenness(n)
        homset = enumerate_homs(x, s0_t)
        convex = _convex_masks(x)
        sep = is_separated(x, s0_t, homset=homset)
        ok = (
            len(homset.homs) == n + 2
            and set(homset.homs.sets) == convex
            and sep.separated
        )
        minimal_entries.append(
            {
                "n": n,
                "halfspaces": len(homset.homs),
                "expected": n + 2,
                "homs_are_convex_sets": set(homset.homs.sets) == convex,
                "separated": sep.separated,
                "pass": ok,
            }
        )

    # Axioms ⟺ separation, in both directions, over a mixed corpus.
    corpus: list[FiniteStructure] = [minimal_betweenness(3)]
    rng = SplitMix64(seed)
    for n in (2, 3, 4, 5):
        corpus.extend(
            gen_betweenness(n, "random", seed=rng.next_u64(), count=samples // 4)
        )
    for n in (2, 3, 4):
        corpus.extend(
            gen_betweenness(n, "raw", seed=rng.next_u64(), count=samples // 6)
        )

    def check_equiv(x: FiniteStructure) -> dict:
        ax = betweenness_axioms(x)
        sep = is_separated(x, s0_t)
        entry = {
            "n": x.size,
            "axioms": ax["pass"],
            "separated": sep.separated,
            "pass": ax["pass"] == sep.separated,
        }
        if ax["pass"]:
            iv = _interval_masks(x)
            convex = _convex_masks(x)
            entry["intervals_convex"] = all(
                iv[a][b] in convex
                for a in range(x.size)
                for b in range(x.size)
            )
            entry["pass"] = entry["pass"] and entry["intervals_convex"]
        return entry

    equiv_entries = ordered_map(check_equiv, corpus, threads)

    # A forced antisymmetry violation must be flagged with the exact pair.
    base = minimal_betweenness(3)
    triples = set(base.rel("between")) | {(0, 1, 0), (1, 0, 1)}
    bad = FiniteStructure(
        signature=s0_t.signature,
        size=3,
        tuples={"between": frozenset(triples)},
        constants={},
    )
    bad_ax = betweenness_axioms(bad)
    bad_sep = is_separated(bad, s0_t)
    fixture_ok = (
        not bad_ax["antisymmetric"]
        and bad_ax["witnesses"]["antisymmetric"] == (0, 1)
        and not bad_sep.separated
        and (0, 1) in bad_sep.collisions
    )

    # Halfspace characterization for the natural betweenness template.
    # For relations satisfying reflexivity + composition, separation holds
    # exactly when every non-tuple (a,b,c) has a halfspace containing a, c
    # but not b, AND no pair is fused by a tuple (x,y,x) with x ≠ y — a
    # fused pair rides along in every halfspace, so its points can never
    # be told apart (the complete relation on ≥ 2 points is the smallest
    # example).
    nat_corpus = gen_separated_instances("natural_betweenness", 10, seed + 1)
    for n in (2, 3, 4):
        nat_corpus.extend(
            gen_betweenness(n, "random", seed=rng.next_u64(), count=4)
        )

    def check_natural(x: FiniteStructure) -> dict:
        ax = betweenness_axioms(x)
        if not (ax["reflexive"] and ax["composition"]):
            return {"n": x.size, "applicable": False, "pass": True}
        homset = enumerate_homs(x, nat_t)
        sep = is_separated(x, nat_t, homset=homset)
        masks = homset.homs.sets
        rel = x.rel("between")
        witnesses_ok = all(
            any(m >> a & 1 and m >> c & 1 and not m >> b & 1 for m in masks)
            for a in range(x.size)
            for b in range(x.size)
            for c in range(x.size)
            if (a, b, c) not in rel
        )
        fused = any(
            (p, q, p) in rel
            for p in range(x.size)
            for q in range(x.size)
            if p != q
        )
        expected = witnesses_ok and not fused
        return {
            "n": x.size,
            "applicable": True,
            "separated": sep.separated,
            "halfspace_witnesses": witnesses_ok,
            "fused_pair": fused,
            "pass": sep.separated == expected,
        }

    nat_entries = ordered_map(check_natural, nat_corpus, threads)

    ok = (
        all(e["pass"] for e in minimal_entries)
        and all(e["pass"] for e in equiv_entries)
        and fixture_ok
        and all(e["pass"] for e in nat_entries)
    )
    return {
        "suite": "betweenness",
        "pass": ok,
        "minimal": minimal_entries,
        "axioms_vs_separation": equiv_entries,
        "antisymmetry_fixture": {
            "pass": fixture_ok,
            "axiom_witness": bad_ax["witnesses"]["antisymmetric"],
            "collisions": list(bad_sep.collisions),
        },
        "natural_characterization": nat_entries,
    }


# ----------------------------------------------------------- Pasch suite

def make_transit_fixture(oracle: BeaOracle) -> tuple:
    """Materialize a linkage oracle as a table and delete one transit
    conclusion: a positive pair (a, b) with a ∩ b = ∅ and a ∪ b ≠ X.  Its
    one-point extensions stay positive, so the transit axiom now fails and
    separating (a, b) must end in PaschFailure.  Returns the broken oracle
    with the deleted sides."""
    table = oracle_to_table(oracle)
    full = table.full_mask
    for (a, b) in sorted(
        table.pairs, key=lambda p: (p[0].bit_count() + p[1].bit_count(), p)
    ):
        if a & b == 0 and a | b != full:
            pairs = set(table.pairs)
            pairs.discard((a, b))
            broken = BeaOracle.from_table(
                table.universe,
                pairs,
                zero=table.zero_elem,
                one=table.one_elem,
            )
            return broken, a, b
    raise ValueError("oracle has no removable transit conclusion")


def _sample_unlinked_pairs(
    oracle: BeaOracle, rng: SplitMix64, pairs_per: int
) -> list[tuple[int, int]]:
    """``(0, 0)`` and then the first distinct non-linked pairs ``(s, t)``
    drawn as ``rng.mask(n), rng.mask(n)``, up to ``pairs_per`` pairs or
    ``40 * pairs_per`` draws.  The pairs still to find are one ``4^n``-bit
    set over ``x = s << n | t``, held as bytes so that each draw is one
    bit test whatever ``n``; drawing stops once none is left."""
    n = oracle.universe
    guard("pair-axiom-sweep", n, "pasch pair sampling")
    unlinked = ~oracle.linkage & ((1 << (1 << 2 * n)) - 2)
    left = unlinked.bit_count()
    todo = bytearray(unlinked.to_bytes(((1 << 2 * n) + 7) >> 3, "little"))
    found = [(0, 0)]
    attempts = 0
    while left and len(found) < pairs_per and attempts < 40 * pairs_per:
        attempts += 1
        s, t = rng.mask(n), rng.mask(n)
        x = s << n | t
        if todo[x >> 3] >> (x & 7) & 1:
            found.append((s, t))
            todo[x >> 3] ^= 1 << (x & 7)
            left -= 1
    return found


def verify_pasch(
    samples: int = 500,
    *,
    seed: int = 5,
    max_universe: int = 8,
    pairs_per: int = 50,
    fixtures: int = 20,
    threads: int = 1,
) -> dict:
    oracles = random_oracle_instances(samples, seed, max_universe=max_universe)
    rng = SplitMix64(seed + 1)
    pair_seeds = [rng.next_u64() for _ in oracles]

    def check(args) -> dict:
        oracle, pseed = args
        n = oracle.universe
        found = _sample_unlinked_pairs(oracle, SplitMix64(pseed), pairs_per)
        bad = None
        for (s, t) in found:
            try:
                u = separate(oracle, s, t)
            except PaschFailure as exc:
                bad = {"pair": [s, t], "error": str(exc)}
                break
            if not (s & ~u == 0 and t & u == 0 and is_halfspace(oracle, u)):
                bad = {"pair": [s, t], "bogus": u}
                break
        return {
            "universe": n,
            "pairs": len(found),
            "failure": bad,
            "pass": bad is None,
        }

    entries = ordered_map(check, zip(oracles, pair_seeds), threads)

    fixture_entries = []
    fx_rng = SplitMix64(seed + 2)
    made = 0
    while made < fixtures:
        base = random_oracle_instances(
            1, fx_rng.next_u64(), max_universe=min(max_universe, 6)
        )[0]
        try:
            broken, a, b = make_transit_fixture(base)
        except ValueError:
            continue
        made += 1
        axiom_fails = not check_axiom(broken, "i3").passed
        try:
            u = separate(broken, a, b)
        except PaschFailure:
            outcome = "pasch_failure"
        else:
            verified = a & ~u == 0 and b & u == 0 and is_halfspace(broken, u)
            outcome = "halfspace" if verified else "bogus"
        ok = axiom_fails and outcome == "pasch_failure"
        fixture_entries.append(
            {
                "universe": broken.universe,
                "deleted": [sorted(bits(a)), sorted(bits(b))],
                "axiom_check_fails": axiom_fails,
                "separate_outcome": outcome,
                "pass": ok,
            }
        )

    ok = all(e["pass"] for e in entries) and all(
        e["pass"] for e in fixture_entries
    )
    return {
        "suite": "pasch",
        "pass": ok,
        "count": len(entries),
        "entries": entries,
        "fixtures": fixture_entries,
    }


# -------------------------------------------------------------- ultimate

def verify_ultimate(
    samples: int = 100,
    *,
    seed: int = 3,
    budget: float = 600.0,
    max_size: int = 5,
    threads: int = 1,
) -> dict:
    deadline = time.monotonic() + budget
    sections = []
    rng = SplitMix64(seed)
    for name in template_names():
        tseed = rng.next_u64()
        if time.monotonic() > deadline:
            sections.append({"template": name, "outcome": "timeout"})
            continue
        is_oracle = name.lower() in ORACLE_TEMPLATES
        instances = gen_separated_instances(
            name, samples, tseed, max_size=max_size
        )

        def check(inst, _name=name, _is_oracle=is_oracle) -> dict:
            if time.monotonic() > deadline:
                return {"outcome": "timeout", "pass": True}
            oracle = (
                inst if _is_oracle else oracle_from_homs(inst, template(_name))
            )
            if len(oracle.halfspaces) > 64:
                return {"outcome": "skipped_large", "pass": True}
            report = ultimate_bidual_report(oracle, ultimate_dual(oracle))
            return {
                "outcome": "checked",
                "n": oracle.universe,
                "sizes": report["sizes"],
                "counterexamples": report["counterexamples"],
                "pass": report["pass"],
            }

        entries = ordered_map(check, instances, threads)
        sections.append(
            {
                "template": name,
                "outcome": "checked",
                "checked": sum(e["outcome"] == "checked" for e in entries),
                "timeouts": sum(e["outcome"] == "timeout" for e in entries),
                "pass": all(e["pass"] for e in entries),
                "failures": [e for e in entries if not e["pass"]],
            }
        )
    ok = all(s.get("pass", True) for s in sections)
    return {"suite": "ultimate", "pass": ok, "templates": sections}


# -------------------------------------------------------------- biconvex

def verify_biconvex(max_size: int = 6, *, seed: int = 2026) -> dict:
    from ..convexity import (
        check_normal,
        check_pasch_convex,
        verify_convexity_duality,
    )

    corpus = gen_biconvexity(max_size, seed=seed)
    plain = verify_convexity_duality(corpus["plain"])
    symmetric = verify_convexity_duality(corpus["symmetric"], symmetric=True)

    witness = nonnormal_planar()
    normal_report = check_normal(witness)
    pasch_report = check_pasch_convex(witness)
    witness_ok = not normal_report.passed and not pasch_report.passed
    ok = plain["pass"] and symmetric["pass"] and witness_ok
    return {
        "suite": "biconvex",
        "pass": ok,
        "plain": plain,
        "symmetric": symmetric,
        "planar_witness": {
            "normal": normal_report.passed,
            "normal_report": normal_report.to_json(),
            "hull_transit": pasch_report.passed,
            "hull_transit_witness": pasch_report.to_json()["witness"],
            "pass": witness_ok,
        },
    }


# ------------------------------------------------------------ equivalence

def verify_hom_equivalence(
    max_size: int = 4, count: int = 10, *, seed: int = 17
) -> dict:
    """Hom-sets versus halfspaces of the hom-induced linkage, across every
    finite-signature template in the catalog."""
    names = [n for n in template_names() if n.lower() not in ORACLE_TEMPLATES]
    sections = []
    rng = SplitMix64(seed)
    for name in names:
        instances = gen_separated_instances(
            name, count, rng.next_u64(), max_size=max_size
        )

        def check(x, _name=name) -> dict:
            rep = hom_equivalence(x, template(_name))
            return {
                "n": x.size,
                "equal": rep.equal,
                "only_homs": [sorted(bits(m)) for m in rep.only_homs],
                "only_halfspaces": [
                    sorted(bits(m)) for m in rep.only_halfspaces
                ],
                "pass": rep.equal,
            }

        entries = ordered_map(check, instances)
        sections.append(
            {
                "template": name,
                "pass": all(e["pass"] for e in entries),
                "entries": entries,
            }
        )
    ok = all(s["pass"] for s in sections)
    return {"suite": "hom-equivalence", "pass": ok, "templates": sections}


# --------------------------------------------------------------- dispatch

def run_suite(
    name: str,
    *,
    max_size: int | None = None,
    samples: int | None = None,
    seed: int | None = None,
    threads: int = 1,
) -> dict:
    """Run one suite with the CLI values that were given (a ``0``
    included); the verifier's own defaults fill in the rest.  A value the
    suite does not read is refused rather than ignored."""
    try:
        verifier_name, reads = SUITES[name]
    except KeyError:
        raise DualityError(
            f"unknown suite {name!r}; choices: {', '.join(sorted(SUITES))}"
        ) from None
    given = {"max_size": max_size, "samples": samples, "seed": seed}
    for option, value in given.items():
        if value is not None and option not in reads:
            flag = "--" + option.replace("_", "-")
            raise InputError(f"suite {name!r} does not read {flag}")
    # Their generators draw universes of 2 .. max_size points.
    if name in ("pasch", "ultimate") and max_size is not None and max_size < 2:
        raise InputError(f"suite {name!r} needs --max-size of at least 2")
    given["threads"] = threads
    # One hom search per distinct (structure, template) within the run.
    # The verifier is looked up by name at call time, so a rebinding of
    # the module attribute (perfbench's tracer wraps each verifier this
    # way) is what runs.
    with search_memo():
        return globals()[verifier_name](**{
            reads[option]: value
            for option, value in given.items()
            if option in reads and value is not None
        })
