"""Hom enumeration into two-element templates, backtrack vs brute force."""

import itertools

import pytest

from twodual import HomLimitExceeded, bits, enumerate_homs, is_separated
from twodual.caps import ACTIVE_CAPS, get_cap
from twodual.core import FiniteStructure, SetFamily, Signature, Symbol
from twodual import homs
from twodual.core import TwoTemplate
from twodual.homs import HomSet
from twodual.instances import (
    gen_posets,
    gen_separated_instances,
    minimal_betweenness,
    template,
)
from twodual.instances.catalog import TEMPLATES
from twodual.rng import SplitMix64


def reference_homs(structure, temp):
    """All maps X -> {0,1} preserving every symbol, by exhaustive scan."""
    t = temp.structure
    out = []
    n = structure.size
    for mask in range(1 << n):
        h = [(mask >> x) & 1 for x in range(n)]
        ok = all(
            t.constants[c] == h[structure.constants[c]]
            for c in t.constants
        )
        if ok:
            for sym in structure.signature.symbols:
                target = t.rel(sym.name)
                if any(
                    tuple(h[i] for i in tup) not in target
                    for tup in structure.rel(sym.name)
                ):
                    ok = False
                    break
        if ok:
            out.append(mask)
    return out


def reference_separation(structure, temp, masks):
    """Collisions and unreflected non-tuples, testing every hom against
    every non-tuple (the sweep `is_separated` ran before its bitset)."""
    n = structure.size
    rows = [tuple((m >> x) & 1 for m in masks) for x in range(n)]
    clashes = tuple(
        (rows.index(rows[x]), x) for x in range(n) if rows.index(rows[x]) != x
    )
    unreflected = []
    for sym in structure.signature.symbols:
        have = structure.rel(sym.name)
        allowed = temp.structure.rel(sym.name)
        for t in itertools.product(range(n), repeat=sym.arity):
            if t in have:
                continue
            if all(tuple((m >> e) & 1 for e in t) in allowed for m in masks):
                unreflected.append((sym.name, t))
    return clashes, tuple(unreflected)


def random_structure(rng, sig, n, model=None):
    """Random tuples for every symbol (functional ones need not be
    functions), often with a repeated element such as ``(x, x, y)``, and
    random constants.  Given a ``model`` of size ``n``, keep a random part
    of its tuples as well."""
    tuples = {}
    for sym in sig.symbols:
        rows = {
            tuple(rng.below(n) for _ in range(sym.arity))
            for _ in range(rng.randint(0, n))
        }
        if model is not None:
            rows |= {t for t in model.rel(sym.name) if rng.below(4)}
        if rng.below(2):
            t = [rng.below(n) for _ in range(sym.arity)]
            t[rng.below(sym.arity)] = t[rng.below(sym.arity)]
            rows.add(tuple(t))
        tuples[sym.name] = rows
    constants = dict(model.constants) if model is not None else {}
    if model is None or not rng.below(4):
        constants = {c: rng.below(n) for c in sig.constants}
    return FiniteStructure(sig, n, tuples, constants)


def test_two_chain_homs_into_the_order_template():
    chain = next(
        p for p in gen_posets(2) if (0, 1) in p.rel("leq") and (1, 0) not in p.rel("leq")
    )
    hs = enumerate_homs(chain, template("order"))
    assert hs.homs.sets == (0, 0b10, 0b11)


def test_backtracking_matches_reference_on_all_labeled_posets():
    order_t = template("order")
    for n in (1, 2, 3, 4):
        for p in gen_posets(n):
            fast = enumerate_homs(p, order_t).homs.sets
            slow = tuple(reference_homs(p, order_t))
            assert fast == slow, sorted(p.rel("leq"))


def test_backtracking_matches_reference_on_random_relational_instances():
    rng = SplitMix64(20260819)
    sig = Signature((Symbol("r", 3),))
    temp_rel = [(0, 0, 0), (0, 1, 1), (1, 1, 1), (1, 0, 1), (0, 0, 1)]
    temp = template("order")  # reuse nothing: build a fresh ternary template
    t = FiniteStructure(sig, 2, {"r": temp_rel})
    from twodual.core import TwoTemplate

    temp = TwoTemplate(t)
    for _ in range(200):
        n = rng.randint(1, 8)
        tuples = set()
        for _ in range(rng.randint(0, 2 * n)):
            tuples.add((rng.below(n), rng.below(n), rng.below(n)))
        x = FiniteStructure(sig, n, {"r": tuples})
        fast = enumerate_homs(x, temp).homs.sets
        slow = tuple(reference_homs(x, temp))
        assert fast == slow, (n, sorted(tuples))


def test_functional_symbols_and_constants_are_respected():
    semi = template("semilattice01")
    sig = semi.signature
    meet = [(a, b, min(a, b)) for a in range(3) for b in range(3)]
    x = FiniteStructure(sig, 3, {"meet": meet}, {"zero": 0, "one": 2})
    hs = enumerate_homs(x, semi)
    assert hs.homs.sets == tuple(reference_homs(x, semi))
    # Every hom fixes the constants: 0 ↦ 0 and 2 ↦ 1.
    for m in hs.homs.sets:
        assert not m & 1
        assert m & 0b100


def test_separation_report_collects_collisions_and_unreflected_pairs():
    anti = next(
        p
        for p in gen_posets(2)
        if (0, 1) not in p.rel("leq") and (1, 0) not in p.rel("leq")
    )
    rep = is_separated(anti, template("order"))
    assert rep.separated

    # A two-element "preorder cycle" 0 ≤ 1 ≤ 0 cannot be separated.
    sig = Signature((Symbol("leq", 2),))
    cyc = FiniteStructure(
        sig, 2, {"leq": [(0, 0), (1, 1), (0, 1), (1, 0)]}
    )
    rep = is_separated(cyc, template("order"))
    assert not rep.separated
    assert rep.collisions == ((0, 1),)


def test_minimal_betweenness_homs_are_the_convex_sets():
    bt = template("betweenness_s0")
    for n in (3, 4, 5):
        hs = enumerate_homs(minimal_betweenness(n), bt)
        assert len(hs.homs) == n + 2
        got = set(hs.homs.sets)
        assert 0 in got and (1 << n) - 1 in got
        singles = {1 << x for x in range(n)}
        assert singles <= got


def test_hom_limit_is_enforced():
    free = template("pure_set")
    diag = [(x, x) for x in range(12)]
    x = FiniteStructure(free.signature, 12, {"eq": diag})  # all 4096 maps
    old = ACTIVE_CAPS["hom-limit"]
    ACTIVE_CAPS["hom-limit"] = 100
    try:
        with pytest.raises(HomLimitExceeded):
            enumerate_homs(x, free)
    finally:
        ACTIVE_CAPS["hom-limit"] = old


def test_pure_set_template_accepts_every_map():
    free = template("pure_set")
    x = FiniteStructure(free.signature, 3, {"eq": [(i, i) for i in range(3)]})
    hs = enumerate_homs(x, free)
    assert len(hs.homs) == 8


def test_backtracking_matches_brute_force_on_every_template():
    rng = SplitMix64(20261018)
    cap = get_cap("hom-brute-universe")
    for name in sorted(TEMPLATES):
        temp = template(name)
        models = gen_separated_instances(name, 10, seed=9, max_size=10)
        cases = [random_structure(rng, temp.signature, m.size, m) for m in models]
        cases += [
            random_structure(rng, temp.signature, n)
            for n in list(range(1, 11)) * 2
        ]
        for x in cases:
            fast = enumerate_homs(x, temp).homs.sets
            slow = enumerate_homs(x, temp, method="brute").homs.sets
            assert fast == slow, (name, x.tuples, x.constants)
    # One structure at the brute-force cap itself.
    temp = template("semilattice01")
    x = random_structure(rng, temp.signature, cap)
    fast = enumerate_homs(x, temp).homs.sets
    assert fast == enumerate_homs(x, temp, method="brute").homs.sets


def test_repeated_elements_compile_to_their_diagonal():
    # meet(x, x, y) holds only when y is x: with x = 1 forced by the
    # constant, every hom sends y to 1 as well.
    temp = template("semilattice01")
    x = FiniteStructure(
        temp.signature, 3, {"meet": {(2, 2, 1)}}, {"zero": 0, "one": 2}
    )
    assert enumerate_homs(x, temp).homs.sets == (0b110,)
    # between(x, y, x) forces y to x in the natural betweenness.
    nat = template("natural_betweenness")
    y = FiniteStructure(nat.signature, 2, {"between": {(0, 1, 0)}})
    assert enumerate_homs(y, nat).homs.sets == (0b00, 0b11)


def test_is_separated_matches_the_per_hom_sweep():
    rng = SplitMix64(4)
    sig = Signature((Symbol("leq", 2),))
    cycle = FiniteStructure(sig, 2, {"leq": [(0, 0), (1, 1), (0, 1), (1, 0)]})
    cases = [(cycle, template("order"))]
    for name in sorted(TEMPLATES):
        temp = template(name)
        cases += [(x, temp) for x in gen_separated_instances(name, 4, seed=12)]
        cases += [
            (random_structure(rng, temp.signature, rng.randint(1, 6)), temp)
            for _ in range(12)
        ]
    unseparated = 0
    for x, temp in cases:
        homs = enumerate_homs(x, temp).homs
        # Every other hom as well, so that fewer homs leave more unreflected.
        fewer = SetFamily(base=homs.base, sets=homs.sets[::2])
        for fam in (homs, fewer):
            rep = is_separated(x, temp, homset=HomSet(x.size, temp, fam))
            clashes, unreflected = reference_separation(x, temp, fam.sets)
            assert rep.collisions == clashes
            assert rep.unreflected == unreflected
            assert rep.separated == (not clashes and not unreflected)
            unseparated += not rep.separated
    assert unseparated > len(cases) // 2


def _mixed_template():
    """A template with a binary and a ternary relation and two constants:
    ``le`` the order, ``meet`` the graph of AND, ``bot`` 0 and ``top`` 1."""
    sig = Signature((Symbol("le", 2), Symbol("meet", 3)), ("bot", "top"))
    return TwoTemplate(FiniteStructure(
        sig,
        2,
        {
            "le": {(0, 0), (0, 1), (1, 1)},
            "meet": {(a, b, a & b) for a in (0, 1) for b in (0, 1)},
        },
        {"bot": 0, "top": 1},
    ))


def test_backtracking_matches_brute_force_on_mixed_relations():
    temp = _mixed_template()
    sig = temp.signature
    rng = SplitMix64(20261019)
    cases = []
    for _ in range(150):
        n = rng.randint(1, 8)
        le = {(rng.below(n), rng.below(n)) for _ in range(rng.randint(0, n))}
        meet = set()
        for _ in range(rng.randint(0, n)):
            a, b, c = rng.below(n), rng.below(n), rng.below(n)
            # Each commuted duplicate is the same constraint.
            meet |= {(a, b, c), (b, a, c)}
        # Tautologies: every map sends these into the template.
        x = rng.below(n)
        le.add((x, x))
        meet.add((x, x, x))
        constants = {"bot": rng.below(n), "top": rng.below(n)}
        cases.append(FiniteStructure(sig, n, {"le": le, "meet": meet}, constants))
    # The constants clash outright (one point named 0 and 1), and through
    # a chain top <= x <= bot.
    cases.append(FiniteStructure(sig, 2, {"le": {(0, 1)}}, {"bot": 1, "top": 1}))
    cases.append(FiniteStructure(
        sig, 3, {"le": {(2, 1), (1, 0)}, "meet": {(1, 1, 1)}}, {"bot": 0, "top": 2}
    ))
    empty = 0
    for x in cases:
        fast = enumerate_homs(x, temp).homs.sets
        assert fast == enumerate_homs(x, temp, method="brute").homs.sets
        assert fast == tuple(reference_homs(x, temp)), (x.tuples, x.constants)
        empty += not fast
    assert empty > 2
    assert enumerate_homs(cases[-1], temp).homs.sets == ()
    assert enumerate_homs(cases[-2], temp).homs.sets == ()


def test_compile_keeps_each_distinct_non_trivial_constraint_once():
    # The two-element chain lattice 0 < 1: its two tautologies drop out,
    # and meet(0, 1, 0), meet(1, 0, 0), join(0, 1, 1) and join(1, 0, 1)
    # are all the one constraint h(0) <= h(1).
    lat = template("bounded_lattice")
    meet = {(a, b, min(a, b)) for a in (0, 1) for b in (0, 1)}
    join = {(a, b, max(a, b)) for a in (0, 1) for b in (0, 1)}
    chain = FiniteStructure(
        lat.signature, 2, {"meet": meet, "join": join}, {"zero": 0, "one": 1}
    )
    per_element = homs._compile(chain, lat)
    assert len(per_element[0]) == 1
    assert per_element[0] == per_element[1]
    elems, shape = per_element[0][0]
    assert elems == (0, 1)
    assert sorted(shape.patterns) == [0b00, 0b10, 0b11]
    # A leq pair of a poset compiles to the same constraint object.
    order = template("order")
    le = FiniteStructure(order.signature, 2, {"leq": {(0, 0), (0, 1), (1, 1)}})
    assert homs._compile(le, order)[0] == [(elems, shape)]
    assert enumerate_homs(chain, lat).homs.sets == (0b10,)


def test_the_constraint_memo_is_bounded_by_its_constant():
    info = homs._constraint.cache_info()
    assert info.maxsize == homs.CONSTRAINT_MEMO_SIZE
    assert info.currsize <= homs.CONSTRAINT_MEMO_SIZE


def count_searches(monkeypatch):
    """Record each backtrack search `enumerate_homs` runs."""
    run = homs._backtrack
    searches = []

    def counted(structure, *rest):
        searches.append(structure)
        return run(structure, *rest)

    monkeypatch.setattr(homs, "_backtrack", counted)
    return searches


def test_a_search_memo_runs_each_distinct_search_once(monkeypatch):
    searches = count_searches(monkeypatch)
    order = template("order")
    posets = gen_posets(3)
    again = gen_posets(3)
    with homs.search_memo():
        first = [enumerate_homs(p, order) for p in posets]
        second = [enumerate_homs(p, order) for p in again]
        # Equal structures built apart share one search and one hom-set.
        assert all(a is b for a, b in zip(first, second))
        assert len(searches) == len(posets)
        # The brute engine never reads the memo: it is the reference.
        brute = [enumerate_homs(p, order, method="brute") for p in posets]
        assert [b.homs.sets for b in brute] == [a.homs.sets for a in first]
        assert all(a is not b for a, b in zip(first, brute))
        # Another template is another search.
        enumerate_homs(posets[0], order)
        enumerate_homs(posets[0], TwoTemplate(order.structure))
        assert len(searches) == len(posets)
    # Outside the block every call searches.
    outside = [enumerate_homs(p, order) for p in posets]
    assert len(searches) == 2 * len(posets)
    assert [a.homs for a in outside] == [a.homs for a in first]


def test_a_search_memo_keeps_no_failed_search_and_no_other_thread(monkeypatch):
    import threading

    searches = count_searches(monkeypatch)
    free = template("pure_set")
    x = FiniteStructure(free.signature, 12, {"eq": [(i, i) for i in range(12)]})
    old = ACTIVE_CAPS["hom-limit"]
    with homs.search_memo():
        ACTIVE_CAPS["hom-limit"] = 100
        try:
            for _ in range(2):
                with pytest.raises(HomLimitExceeded):
                    enumerate_homs(x, free)
        finally:
            ACTIVE_CAPS["hom-limit"] = old
        assert len(searches) == 2
        # With the cap back, the search runs and is kept.
        assert len(enumerate_homs(x, free).homs) == 4096
        assert len(enumerate_homs(x, free).homs) == 4096
        assert len(searches) == 3
        # A new thread starts outside the block.
        t = threading.Thread(target=enumerate_homs, args=(x, free))
        t.start()
        t.join()
        assert len(searches) == 4
