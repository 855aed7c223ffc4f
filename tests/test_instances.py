"""Catalog templates, instance generators, and their counting cross-checks."""

import hashlib
import itertools

import pytest

from twodual import BeaOracle, family_bea, is_halfspace, oracle_to_table, separate
from twodual.bea import check_axiom
from twodual.core import FiniteStructure, SetFamily, Symbol, validate
from twodual import duality, homs
from twodual.errors import (
    EmptyUniverse,
    InputError,
    PaschFailure,
    UniverseTooLarge,
)
from twodual.homs import enumerate_homs, is_separated
from twodual.instances import (
    betweenness_axioms,
    count_posets_brute,
    count_semilattice_tables,
    down_set_lattice,
    gen_betweenness,
    gen_biconvexity,
    gen_distributive_lattices,
    gen_families,
    gen_posets,
    gen_semilattices,
    gen_separated_instances,
    make_transit_fixture,
    minimal_betweenness,
    oracle_template,
    random_oracle_instances,
    template,
    template_names,
)
from twodual.instances.catalog import TEMPLATES
from twodual.instances import generators
from twodual.instances.generators import _closure_under_ops
from twodual.instances import verifiers
from twodual.instances.verifiers import (
    _filter_form_agrees,
    _filter_nesting,
    _instance_key,
    _is_distributive,
    _sample_unlinked_pairs,
    ordered_map,
    run_suite,
    verify_betweenness,
    verify_hms,
    verify_priestley,
    verify_stone,
    verify_ultimate,
)
from twodual.jsonio import dumps, structure_to_json
from twodual.rng import SplitMix64


def test_every_catalog_template_is_a_valid_two_element_structure():
    finite = [n for n in template_names() if not n.startswith("ultimate")]
    assert len(finite) == 9
    for name in finite:
        t = template(name)
        assert t.structure.size == 2
        validate(t.structure)


def test_oracle_templates_expose_the_one_halfspace():
    for name in ("ultimate", "ultimate0", "ultimate01"):
        o = oracle_template(name)
        assert o.universe == 2
        assert o.halfspaces == (0b10,)
        # min(s) ≤ max(t) over {0,1}: the only failures have s ⊆ {1}, t ⊆ {0}.
        assert not o.query(0b10, 0b01)
        assert o.query(0b01, 0b10)
        assert o.query(0b11, 0b10)
    assert oracle_template("ultimate01").one_elem == 1
    with pytest.raises(InputError):
        oracle_template("order")
    with pytest.raises(InputError):
        template("ultimate")


def test_labeled_poset_counts():
    counts = [len(gen_posets(n)) for n in (1, 2, 3, 4)]
    assert counts == [1, 3, 19, 219]  # OEIS A001035
    assert [count_posets_brute(n) for n in (1, 2, 3, 4)] == counts


def test_exhaustive_poset_rows_are_enumerated_once_per_size():
    rows = generators._exhaustive_poset_rows
    rows.cache_clear()
    for n in (1, 2, 3, 4):
        gen_posets(n)
        gen_semilattices(n)
        gen_distributive_lattices(n)
    assert rows.cache_info().misses == 4
    for n in (1, 2, 3, 4):
        assert type(rows(n)) is tuple
        assert rows(n) == rows.__wrapped__(n)
    # A refused size raises on every call and takes no entry.
    for n, error in ((0, EmptyUniverse), (-1, EmptyUniverse), (5, UniverseTooLarge)):
        for _ in range(2):
            with pytest.raises(error):
                rows(n)
    assert rows.cache_info().currsize == 4


def test_labeled_semilattice_counts():
    counts = [len(gen_semilattices(n)) for n in (1, 2, 3, 4)]
    assert counts == [1, 2, 9, 76]
    assert [count_semilattice_tables(n) for n in (1, 2, 3)] == [1, 2, 9]


def test_distributive_lattice_counts():
    counts = [len(gen_distributive_lattices(n)) for n in (1, 2, 3, 4)]
    assert counts == [1, 2, 8, 60]


def test_distributive_lattices_are_built_once_each(monkeypatch):
    cases = [(n, "exhaustive", None) for n in (1, 2, 3, 4)]
    cases += [(4, "random", 7), (5, "random", 2)]
    expected = {}
    for n, mode, seed in cases:
        # Every poset's lattice built, then the first of each kept.
        first = {}
        for p in gen_posets(n, mode, seed=seed, count=30):
            lat = down_set_lattice(p)
            first.setdefault((lat.size, lat.rel("meet"), lat.rel("join")), lat)
        expected[n, mode] = list(first.values())
    build = generators._lattice_structure
    built = []

    def counted(*tables):
        built.append(tables)
        return build(*tables)

    monkeypatch.setattr(generators, "_lattice_structure", counted)
    for n, mode, seed in cases:
        built.clear()
        lats = gen_distributive_lattices(n, mode, seed=seed, count=30)
        assert lats == expected[n, mode]
        assert len(built) == len(lats)
    assert len(expected[4, "exhaustive"]) == 60 < len(gen_posets(4))


def lattice_of_order(n, below):
    """The bounded lattice of an order on ``0 .. n-1`` given as its pairs
    ``(a, b)`` with a < b, 0 the bottom and n-1 the top."""
    leq = {(a, a) for a in range(n)} | set(below)
    meet, join = set(), set()
    for a in range(n):
        for b in range(n):
            lower = [c for c in range(n) if (c, a) in leq and (c, b) in leq]
            upper = [c for c in range(n) if (a, c) in leq and (b, c) in leq]
            meet.add((a, b, next(
                c for c in lower if all((d, c) in leq for d in lower)
            )))
            join.add((a, b, next(
                c for c in upper if all((c, d) in leq for d in upper)
            )))
    return FiniteStructure(
        template("bounded_lattice").signature,
        n,
        {"meet": meet, "join": join},
        {"zero": 0, "one": n - 1},
    )


def test_distributivity_verdicts():
    def reference(lat):
        meet, join = lat.op("meet"), lat.op("join")
        n = lat.size
        return all(
            meet[a, join[b, c]] == join[meet[a, b], meet[a, c]]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        )

    m3 = lattice_of_order(
        5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)]
    )
    n5 = lattice_of_order(
        5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)]
    )
    validate(m3)
    validate(n5)
    assert not _is_distributive(m3) and not reference(m3)
    assert not _is_distributive(n5) and not reference(n5)
    for n in (1, 2, 3, 4):
        for lat in gen_distributive_lattices(n):
            assert _is_distributive(lat) and reference(lat)


def test_priestley_checks_distributivity_once_per_distinct_dual(monkeypatch):
    checked = []

    def counted(lattice):
        checked.append(_instance_key(lattice))
        return _is_distributive(lattice)

    monkeypatch.setattr(verifiers, "_is_distributive", counted)
    report = dumps(verify_priestley())
    # The 242 poset duals are the 71 corpus lattices.
    assert len(checked) == len(set(checked)) == 71
    # The memo lives in one call: the next call checks them again.
    checked.clear()
    assert dumps(verify_priestley()) == report
    assert len(checked) == 71


def test_down_set_lattice_of_the_antichain_is_the_square():
    anti = gen_posets(2)[0]  # first labeled poset: the antichain
    assert sorted(anti.rel("leq")) == [(0, 0), (1, 1)]
    lat = down_set_lattice(anti)
    assert lat.size == 4
    validate(lat)
    # ∧ = ∩ and ∨ = ∪ on down-sets; zero is ∅ and one the whole poset.
    assert lat.constants["zero"] == 0
    assert lat.constants["one"] == lat.size - 1


def test_minimal_betweenness_has_only_trivial_convex_sets():
    x = minimal_betweenness(4)
    rep = betweenness_axioms(x)
    assert rep["pass"]
    # Convexity via the template's own linkage: the interval of any two
    # distinct points is everything, so no other set closes up.
    iv = {
        (a, b)
        for a in range(4)
        for b in range(4)
        for l in range(4)
        if (a, l, b) in x.rel("between") and l not in (a, b)
    }
    assert iv == {(a, b) for a in range(4) for b in range(4) if a != b}


def test_betweenness_axiom_witnesses():
    def base(n):
        triples = set()
        for a in range(n):
            for b in range(n):
                triples.add((a, a, b))
                triples.add((a, b, b))
        return triples

    sig = template("betweenness_s0").signature
    refl_broken = FiniteStructure(
        sig, 2, {"between": sorted(base(2) - {(0, 0, 1)})}, {}
    )
    rep = betweenness_axioms(refl_broken)
    assert not rep["reflexive"]
    assert rep["witnesses"]["reflexive"] == (0, 1)

    anti_broken = FiniteStructure(
        sig, 2, {"between": sorted(base(2) | {(0, 1, 0), (1, 0, 1)})}, {}
    )
    rep = betweenness_axioms(anti_broken)
    assert rep["reflexive"] and rep["composition"]
    assert not rep["antisymmetric"]
    assert rep["witnesses"]["antisymmetric"] == (0, 1)

    comp_broken = FiniteStructure(
        sig, 4, {"between": sorted(base(4) | {(0, 1, 3), (1, 2, 3)})}, {}
    )
    rep = betweenness_axioms(comp_broken)
    assert rep["reflexive"] and rep["antisymmetric"]
    assert not rep["composition"]
    u, v, a, b = rep["witnesses"]["composition"]
    assert (u, v) == (0, 3)


def test_generators_are_deterministic_in_the_seed():
    a = gen_posets(5, "random", seed=7, count=6)
    b = gen_posets(5, "random", seed=7, count=6)
    assert [sorted(x.rel("leq")) for x in a] == [sorted(x.rel("leq")) for x in b]
    assert sorted(a[0].rel("leq")) != sorted(
        gen_posets(5, "random", seed=8, count=6)[0].rel("leq")
    )

    f1 = gen_families(6, 8, 99, 4)
    f2 = gen_families(6, 8, 99, 4)
    assert [f.sets for f in f1] == [f.sets for f in f2]

    o1 = random_oracle_instances(5, 3)
    o2 = random_oracle_instances(5, 3)
    assert [o.halfspaces for o in o1] == [o.halfspaces for o in o2]


def test_random_semilattices_are_semilattices():
    for x in gen_semilattices(5, "random", seed=11, count=8):
        validate(x)
        graph = x.op("meet")
        n = x.size
        for a in range(n):
            assert graph[(a, a)] == a
            for b in range(n):
                assert graph[(a, b)] == graph[(b, a)]
                for c in range(n):
                    assert graph[(graph[(a, b)], c)] == graph[(a, graph[(b, c)])]


def test_betweenness_modes():
    assert len(gen_betweenness(3)) == 1
    randoms = gen_betweenness(4, "random", seed=5, count=8)
    assert len(randoms) == 8
    for x in randoms:
        rep = betweenness_axioms(x)
        assert rep["reflexive"] and rep["composition"]
    raws = gen_betweenness(3, "raw", seed=5, count=8)
    assert any(not betweenness_axioms(x)["pass"] for x in raws)


def test_separated_instances_are_separated():
    for name in ("order", "bounded_lattice", "semilattice"):
        t = template(name)
        for x in gen_separated_instances(name, 6, seed=13):
            assert is_separated(x, t).separated


# Sizes and the sha256 prefix of the canonical documents of
# gen_separated_instances(name, 8, seed, max_size=...), recorded before the
# closure became semi-naive.
SEPARATED_INSTANCE_PINS = {
    ("betweenness_s0", 13, 5): ((3, 4, 2, 3, 5, 3, 3, 3), "234c2b7ef3e017c6"),
    ("betweenness_s0", 2026, 8): ((4, 2, 3, 2, 5, 5, 6, 4), "2e701a0f261b7172"),
    ("boolean_algebra", 13, 5): ((4, 4, 4, 4, 4, 4, 4, 4), "8ddee880cc11939e"),
    ("boolean_algebra", 2026, 8): ((4, 8, 4, 8, 8, 8, 8, 4), "4634504d5e12b5fa"),
    ("bounded_lattice", 13, 5): ((3, 4, 5, 4, 5, 5, 3, 5), "0048b5f2b4830c36"),
    ("bounded_lattice", 2026, 8): ((3, 5, 4, 6, 7, 6, 8, 6), "3a8af05136c3d46a"),
    ("natural_betweenness", 13, 5): ((3, 4, 2, 3, 5, 3, 3, 3), "4fff3ad3956d0d25"),
    ("natural_betweenness", 2026, 8): ((4, 2, 3, 2, 5, 5, 6, 4), "2b29e341986796cf"),
    ("order", 13, 5): ((3, 4, 2, 3, 5, 3, 3, 3), "9978f90ea7b306bc"),
    ("order", 2026, 8): ((4, 2, 3, 2, 5, 5, 6, 4), "0ee730489689f0b1"),
    ("pure_set", 13, 5): ((3, 4, 2, 3, 5, 3, 3, 3), "8263b83396dc0395"),
    ("pure_set", 2026, 8): ((4, 2, 3, 2, 5, 5, 6, 4), "c0da9796e3c0639b"),
    ("semilattice", 13, 5): ((5, 5, 2, 4, 4, 3, 3, 5), "e9a0c785daecf072"),
    ("semilattice", 2026, 8): ((6, 2, 4, 3, 8, 5, 8, 7), "5bd351ab2dc318d7"),
    ("semilattice0", 13, 5): ((5, 5, 3, 4, 5, 3, 4, 5), "09014104dbc5ad4e"),
    ("semilattice0", 2026, 8): ((6, 2, 4, 3, 8, 5, 8, 7), "3468e81be24b5d12"),
    ("semilattice01", 13, 5): ((3, 4, 4, 5, 4, 5, 5, 3), "b58ca5a5fb0e04d0"),
    ("semilattice01", 2026, 8): ((6, 3, 5, 4, 5, 8, 7, 6), "3ef178edf7342396"),
}


def test_separated_instances_are_pinned_for_every_template():
    assert {name for name, _, _ in SEPARATED_INSTANCE_PINS} == set(TEMPLATES)
    for (name, seed, max_size), pin in SEPARATED_INSTANCE_PINS.items():
        xs = gen_separated_instances(name, 8, seed, max_size=max_size)
        text = "\n".join(dumps(structure_to_json(x)) for x in xs)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert (tuple(x.size for x in xs), digest) == pin, (name, seed)


def test_separated_instances_build_each_instance_once_per_call(monkeypatch):
    build = generators.power_substructure
    built = []

    def counted(masks, width, temp):
        built.append(masks)
        return build(masks, width, temp)

    monkeypatch.setattr(generators, "power_substructure", counted)
    for name in ("order", "semilattice01", "bounded_lattice"):
        built.clear()
        xs = gen_separated_instances(name, 60, seed=3)
        # Repeats append the object built for the first of them.
        assert len(built) == len({id(x) for x in xs}) < len(xs)


# sha256 of the repr of (universe, halfspaces, zero, one) per oracle of
# gen_separated_instances(name, 100, seed=3), recorded when each draw
# built its own oracle.
SEPARATED_ORACLE_PINS = {
    "ultimate": "eec9b6c01e1f9a81706837dbb82d0570820d47e299733999f841136647c662e5",
    "ultimate0": "4b6c907dd98e3d3fa3a91476bbcf32f1f680cca5db588a1323717019df54bfd5",
    "ultimate01": "bb0002f9300df0f0f6df5539c4daf1096cbd59c98b3b969d9792a494a1a9b0ca",
}


def test_separated_oracles_build_each_family_once_per_call(monkeypatch):
    build = generators.family_bea
    built = []

    def counted(fam):
        built.append((fam.base, fam.sets))
        return build(fam)

    monkeypatch.setattr(generators, "family_bea", counted)
    for name, pin in SEPARATED_ORACLE_PINS.items():
        built.clear()
        xs = gen_separated_instances(name, 100, seed=3)
        key = repr([(o.universe, o.halfspaces, o.zero_elem, o.one_elem) for o in xs])
        assert hashlib.sha256(key.encode()).hexdigest() == pin
        # Repeats append the object built for the first of them.
        assert len(built) == len(set(built)) == len({id(x) for x in xs}) < len(xs)


def test_separated_instances_carry_no_state_across_calls():
    for name in ("order", "semilattice01", "bounded_lattice", "ultimate01"):
        xs = gen_separated_instances(name, 30, seed=5)
        ys = gen_separated_instances(name, 30, seed=5)
        assert xs == ys
        assert not {id(x) for x in xs} & {id(y) for y in ys}


def reference_closure(vectors, temp, k, max_size):
    """Closure under the template operations by re-multiplying every
    vector on each pop (the loop the semi-naive closure replaced)."""
    ops = [s for s in temp.signature.symbols if s.functional]
    frontier = list(vectors)
    while frontier:
        if len(vectors) > max_size:
            return None
        frontier.pop()
        for s in ops:
            graph = temp.structure.op(s.name)
            for args in itertools.product(sorted(vectors), repeat=s.arity - 1):
                out = tuple(graph[tuple(v[c] for v in args)] for c in range(k))
                if out not in vectors:
                    vectors.add(out)
                    frontier.append(out)
    return vectors if len(vectors) <= max_size else None


def test_semi_naive_closure_matches_the_full_re_multiplication():
    rng = SplitMix64(31)
    outcomes = set()
    for name in sorted(TEMPLATES):
        temp = template(name)
        for _ in range(40):
            k = rng.randint(1, 5)
            vectors = {
                tuple(rng.below(2) for _ in range(k))
                for _ in range(rng.randint(1, 4))
            }
            max_size = rng.randint(1, 12)
            # The closure holds vectors as masks, coordinate 0 the high bit.
            masks = {int("".join(map(str, v)), 2) for v in vectors}
            got = _closure_under_ops(masks, temp, k, max_size)
            if got is not None:
                got = {
                    tuple(m >> (k - 1 - c) & 1 for c in range(k)) for m in got
                }
            assert got == reference_closure(set(vectors), temp, k, max_size)
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_separated_oracle_instances_satisfy_the_core_axioms():
    for o in gen_separated_instances("ultimate01", 4, seed=13):
        assert o.zero_elem is not None and o.one_elem is not None
        for name in ("i0", "i1", "i2", "i3", "c0", "c1"):
            assert check_axiom(o, name).passed


def test_oracle_instance_sampling_survives_tiny_bases():
    # A 2-point base only has four subsets; asking for five members used
    # to spin forever.  Two hundred draws make the tiny-base case certain.
    oracles = gen_separated_instances("ultimate", 200, seed=3)
    assert len(oracles) == 200
    assert all(2 <= o.universe <= 5 for o in oracles)


def test_biconvexity_corpus_shape_and_determinism():
    corpus = gen_biconvexity(max_n=4, seed=2026)
    assert set(corpus) == {"plain", "symmetric"}
    assert corpus["plain"] and corpus["symmetric"]
    again = gen_biconvexity(max_n=4, seed=2026)
    assert [s.lower.sets for s in corpus["plain"]] == [
        s.lower.sets for s in again["plain"]
    ]


def test_transit_fixture_breaks_the_transit_axiom():
    fam = gen_families(8, 4, seed=21, count=1)[0]
    broken, a, b = make_transit_fixture(family_bea(fam))
    assert broken.query(a, b) is False
    rep = check_axiom(broken, "i3")
    assert not rep.passed
    with pytest.raises(PaschFailure):
        separate(broken, a, b)


def test_transit_fixture_needs_a_removable_conclusion():
    from twodual.core import SetFamily

    single = family_bea(SetFamily(base=1, sets=(0b1,)))
    with pytest.raises(ValueError):
        make_transit_fixture(single)


def test_filter_nesting_sweep_reports_the_first_disagreement():
    # A chain of sets without the full base: linkage is nesting.
    assert _filter_nesting(SetFamily(base=3, sets=(0b001, 0b011))) == (True, None)
    # With the full base as a member, the empty left side links to it
    # although nothing on the left is nested in it.
    got = _filter_nesting(SetFamily(base=3, sets=(0b001, 0b011, 0b111, 0b110)))
    assert got == (False, (0b0000, 0b0100))
    # Without a covering member the empty side never links; these first
    # disagreements have a nonempty left side.
    got = _filter_nesting(SetFamily(base=5, sets=(2, 6, 10, 12)))
    assert got == (False, (0b0010, 0b1001))
    got = _filter_nesting(SetFamily(base=5, sets=(5, 9, 11, 13, 15)))
    assert got == (False, (0b00101, 0b00010))


def test_filter_form_sweep_on_semilattice_homs():
    semi_t = template("semilattice")
    for x in gen_semilattices(3):
        masks = enumerate_homs(x, semi_t).homs.sets
        assert _filter_form_agrees(x, masks)
        # With no halfspaces every pair links, so the shorthand disagrees.
        assert not _filter_form_agrees(x, ())
        # Without the empty halfspace the empty left side links to the
        # whole universe; only that row changes, and it is left out.
        assert 0 in masks
        assert _filter_form_agrees(x, [m for m in masks if m])


def reference_unlinked_pairs(oracle, rng, pairs_per):
    """The pasch pair sampling as it was before the bitset: a query per
    draw and a set of the pairs seen.  Also returns the draws made."""
    n = oracle.universe
    found = [(0, 0)]
    seen = set(found)
    attempts = 0
    while len(found) < pairs_per and attempts < 40 * pairs_per:
        attempts += 1
        pair = rng.mask(n), rng.mask(n)
        if pair not in seen and not oracle.query(*pair):
            found.append(pair)
            seen.add(pair)
    return found, attempts


def test_pair_sampler_matches_the_query_loop():
    oracles = random_oracle_instances(240, 41, max_universe=8)
    assert {o.universe for o in oracles} == set(range(2, 9))
    # Tables, and oracles with no unlinked pair besides (0, 0), or none.
    oracles += [oracle_to_table(o) for o in oracles[:40] if o.universe <= 5]
    oracles += [
        BeaOracle.from_halfspaces(3, ()),
        BeaOracle.from_halfspaces(4, (0,)),
        BeaOracle.from_halfspaces(2, (0b01, 0b10)),
    ]
    seeds = SplitMix64(42)
    ends = set()
    for oracle in oracles:
        pseed = seeds.next_u64()
        for pairs_per in (1, 2, 7, 50):
            want, attempts = reference_unlinked_pairs(
                oracle, SplitMix64(pseed), pairs_per
            )
            got = _sample_unlinked_pairs(oracle, SplitMix64(pseed), pairs_per)
            assert got == want, (oracle, pairs_per)
            if pairs_per < 50:
                continue
            full = (1 << oracle.universe) - 1
            if len(want) == 50:
                ends.add("filled")
            elif all(
                oracle.query(s, t) or (s, t) in want
                for s in range(full + 1)
                for t in range(full + 1)
            ):
                ends.add("ran out")
            else:
                assert attempts == 40 * pairs_per
                ends.add("draw limit")
    assert ends == {"filled", "draw limit", "ran out"}


# ------------------------------------------------- one check per instance

def duplicated_corpus():
    """Separately built but equal structures, ints, and (oracle, seed)
    pairs, each kind with duplicates; and the number of distinct items."""
    posets = gen_posets(2) + gen_posets(2) + gen_posets(1)
    semis = gen_semilattices(3, "random", seed=11, count=12)
    oracles = random_oracle_instances(3, 5) + random_oracle_instances(3, 5)
    pairs = list(zip(oracles, [1, 2, 3, 1, 2, 4]))
    ints = [3, 1, 3, 3, 2, 1]
    items = posets + semis + pairs + ints
    distinct = 4 + len({dumps(structure_to_json(x)) for x in semis}) + 4 + 3
    assert distinct < len(items)
    return items, distinct


@pytest.mark.parametrize("threads", [1, 2])
def test_ordered_map_checks_each_distinct_item_once(threads):
    items, distinct = duplicated_corpus()
    calls = []

    def fn(x):
        calls.append(x)
        return {"key": _instance_key(x), "calls": len(calls)}

    entries = ordered_map(fn, items, threads)
    assert len(calls) == distinct
    assert len({_instance_key(x) for x in calls}) == distinct
    # One entry per input position, in input order.
    assert [e["key"] for e in entries] == [_instance_key(x) for x in items]


def test_ordered_map_gives_each_duplicate_its_own_entry():
    items = [5, 7, 5, 5]
    entries = ordered_map(lambda x: {"x": x, "tags": []}, items)
    assert entries == [{"x": 5, "tags": []}, {"x": 7, "tags": []}] + [
        {"x": 5, "tags": []}
    ] * 2
    entries[2]["x"] = 0
    entries[3]["extra"] = True
    assert entries[0] == {"x": 5, "tags": []}
    assert entries[2] == {"x": 0, "tags": []}
    assert entries[3] == {"x": 5, "tags": [], "extra": True}


def test_instance_key_is_equality_of_structures():
    a = gen_posets(3)
    b = gen_posets(3)
    assert all(x is not y for x, y in zip(a, b))
    assert [_instance_key(x) for x in a] == [_instance_key(y) for y in b]
    assert len({_instance_key(x) for x in a}) == len(a)
    # Constants are part of the key.
    lat = gen_distributive_lattices(2)[0]
    swapped = FiniteStructure(
        lat.signature,
        lat.size,
        lat.tuples,
        {"zero": lat.constants["one"], "one": lat.constants["zero"]},
    )
    assert _instance_key(swapped) != _instance_key(lat)


@pytest.mark.parametrize(
    "verify, kwargs",
    [
        (verify_hms, {"max_size": 3, "samples": 60, "seed": 12}),
        (verify_hms, {"max_size": 2, "samples": 30, "seed": 4, "threads": 2}),
        (verify_ultimate, {"samples": 12, "seed": 5, "max_size": 4}),
        (
            verify_ultimate,
            {"samples": 6, "seed": 9, "max_size": 3, "threads": 2},
        ),
        (verify_betweenness, {"samples": 24, "seed": 9}),
    ],
)
def test_reports_match_a_plain_per_item_map(verify, kwargs, monkeypatch):
    seen = []

    def spy(fn, items, threads=1):
        items = list(items)
        seen.append(len(items) - len({_instance_key(x) for x in items}))
        return real(fn, items, threads)

    real = verifiers.ordered_map
    monkeypatch.setattr(verifiers, "ordered_map", spy)
    deduplicated = dumps(verify(**kwargs))
    # The corpus really holds duplicates, so deduplication was exercised.
    assert sum(seen) > 0
    def plain(fn, items, threads=1):
        return [fn(x) for x in items]

    monkeypatch.setattr(verifiers, "ordered_map", plain)
    assert dumps(verify(**kwargs)) == deduplicated


# ------------------------------------------------ one search per structure

@pytest.mark.parametrize(
    "suite, verify, calls, searches",
    [("priestley", verify_priestley, 626, 313), ("hms", verify_hms, 456, 273)],
)
def test_a_suite_run_searches_each_distinct_structure_once(
    suite, verify, calls, searches, monkeypatch
):
    # A poset's dual is a corpus lattice and a lattice's second dual a
    # corpus poset, so half of priestley's searches repeat.
    search = homs._backtrack
    made = []
    seen = []

    def counted_search(*args):
        made.append(args)
        return search(*args)

    enumerate = homs.enumerate_homs

    def counted_call(*args, **kwargs):
        seen.append(args)
        return enumerate(*args, **kwargs)

    monkeypatch.setattr(homs, "_backtrack", counted_search)
    for module in (homs, duality, verifiers):
        monkeypatch.setattr(module, "enumerate_homs", counted_call)
    report = dumps(run_suite(suite, threads=1))
    assert (len(seen), len(made)) == (calls, searches)
    # Called directly, the verifier opens no memo and searches every time.
    made.clear()
    seen.clear()
    assert dumps(verify()) == report
    assert len(seen) == len(made) == calls


def test_a_max_size_past_the_exhaustive_posets_is_refused_first(monkeypatch):
    work = []

    def spy(name):
        def record(*args, **kwargs):
            work.append(name)
            raise AssertionError(f"{name} ran before the refusal")

        return record

    for name in (
        "gen_posets",
        "count_posets_brute",
        "gen_distributive_lattices",
        "bidual_and_evaluate",
        "dual",
        "ordered_map",
    ):
        monkeypatch.setattr(verifiers, name, spy(name))
    for verify in (verify_priestley, verify_stone):
        with pytest.raises(UniverseTooLarge) as info:
            verify(max_size=5)
        assert (info.value.cap_name, info.value.requested) == ("poset-exhaustive", 5)
    assert work == []
