"""Catalog templates, instance generators, and their counting cross-checks."""

import pytest

from twodual import family_bea, is_halfspace, separate
from twodual.bea import check_axiom
from twodual.core import FiniteStructure, SetFamily, Symbol, validate
from twodual.errors import InputError, PaschFailure
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
from twodual.instances.verifiers import _filter_form_agrees, _filter_nesting


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
    assert counts == [1, 3, 19, 219]
    assert [count_posets_brute(n) for n in (1, 2, 3)] == [1, 3, 19]


def test_labeled_semilattice_counts():
    counts = [len(gen_semilattices(n)) for n in (1, 2, 3, 4)]
    assert counts == [1, 2, 9, 76]
    assert [count_semilattice_tables(n) for n in (1, 2, 3)] == [1, 2, 9]


def test_distributive_lattice_counts():
    counts = [len(gen_distributive_lattices(n)) for n in (1, 2, 3, 4)]
    assert counts == [1, 2, 8, 60]


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


def test_filter_form_sweep_on_semilattice_homs():
    semi_t = template("semilattice")
    for x in gen_semilattices(3):
        masks = enumerate_homs(x, semi_t).homs.sets
        assert _filter_form_agrees(x, masks)
        # With no halfspaces every pair links, so the shorthand disagrees.
        assert not _filter_form_agrees(x, ())
