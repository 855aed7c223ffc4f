"""Structures, signatures, set families, and the bit-mask helpers."""

import array
import itertools
import random
import sys

import pytest

from twodual.core import (
    FiniteStructure,
    SetFamily,
    Signature,
    Symbol,
    TwoTemplate,
    _preserved,
    bits,
    collisions,
    mask_of,
    op_kernel,
    preserved_tuples,
    structure_key,
    subset_images,
    substructure,
    transpose,
    validate,
)
from twodual.errors import (
    ConstantOutside,
    EmptyUniverse,
    FunctionNotClosed,
    UniverseTooLarge,
)
from twodual.rng import _BLOCK, _VALUE_WORDS, SplitMix64


def test_mask_helpers_round_trip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []
    assert mask_of([]) == 0


def _mask_by_words(rng, width):
    """``SplitMix64.mask`` as it was first written: 64-bit words, high
    word first."""
    out = 0
    remaining = width
    while remaining > 0:
        take = min(remaining, 64)
        out = (out << take) | (rng.next_u64() & ((1 << take) - 1))
        remaining -= take
    return out


def test_mask_keeps_the_word_loop_stream():
    for seed in (0, 1, 5, 2026, (1 << 64) - 1):
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        for width in range(-1, 131):
            assert fast.mask(width) == _mask_by_words(slow, width)
            # Both streams stay in step, so they drew as many words.
            assert fast.next_u64() == slow.next_u64()


class ScalarSplitMix64:
    """``SplitMix64`` as it was first written: each ``next_u64`` call steps
    the state once and mixes it.  The methods built on ``next_u64`` are
    borrowed unchanged, and every mask goes word by word."""

    def __init__(self, seed):
        self.state = seed & (1 << 64) - 1
        self.drawn = 0

    def next_u64(self):
        self.drawn += 1
        self.state = (self.state + 0x9E3779B97F4A7C15) & (1 << 64) - 1
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (1 << 64) - 1
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (1 << 64) - 1
        return z ^ (z >> 31)

    def mask(self, width):
        return _mask_by_words(self, width)

    below = SplitMix64.below
    randint = SplitMix64.randint
    chance = SplitMix64.chance
    shuffle = SplitMix64.shuffle


def test_stream_starts_with_the_published_splitmix64_vector():
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4


@pytest.mark.parametrize(
    "seed", [0, 5, (1 << 64) - 1, (1 << 64) - 7, -3, (1 << 70) + 1]
)
def test_stream_matches_the_scalar_recurrence(seed):
    # Seeds near 2^64 wrap inside the first block; -3 and 2^70 + 1 are
    # taken mod 2^64.
    rng, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    assert [rng.next_u64() for _ in range(5000)] == [
        ref.next_u64() for _ in range(5000)
    ]


def test_interleaved_calls_match_the_scalar_stream():
    plan = random.Random(11)
    for seed in (3, (1 << 64) - 2):
        rng, ref = SplitMix64(seed), ScalarSplitMix64(seed)
        for _ in range(3000):
            op = plan.randrange(7)
            if op == 0:
                got, want = rng.next_u64(), ref.next_u64()
            elif op == 1:
                width = plan.choice([0, *range(1, 65)])
                got, want = rng.mask(width), ref.mask(width)
            elif op == 2:
                width = plan.randint(65, 200)
                got, want = rng.mask(width), ref.mask(width)
            elif op == 3:
                n = plan.choice([1, 2, 3, 7, 1000, (1 << 63) + 1])
                got, want = rng.below(n), ref.below(n)
            elif op == 4:
                a = plan.randint(-50, 50)
                b = a + plan.randint(0, 100)
                got, want = rng.randint(a, b), ref.randint(a, b)
            elif op == 5:
                num, den = plan.randint(0, 5), plan.randint(1, 5)
                got, want = rng.chance(num, den), ref.chance(num, den)
            else:
                items = list(range(plan.randint(0, 12)))
                got, want = items[:], items[:]
                rng.shuffle(got)
                ref.shuffle(want)
            assert got == want
        # Past several refills.
        assert ref.drawn > 8 * _BLOCK
        assert rng.next_u64() == ref.next_u64()


def test_short_lived_instances_match_the_scalar_stream():
    seeds = ScalarSplitMix64(17)
    for i in range(3000):
        seed = seeds.next_u64() if i % 2 else i
        rng, ref = SplitMix64(seed), ScalarSplitMix64(seed)
        for draw in range(1 + i % 3):
            if (i + draw) % 2:
                width = 1 + (i + draw) % 64
                assert rng.mask(width) == ref.mask(width)
            else:
                assert rng.next_u64() == ref.next_u64()


@pytest.mark.parametrize("order", ["little", "big"])
def test_block_words_are_read_the_same_on_either_byte_order(order):
    # The block is decoded by native-order words, so check the slice each
    # byte order uses: native words of the bytes such a platform writes.
    lanes = [(0x0123456789ABCDEF * (i + 3)) & (1 << 64) - 1 for i in range(5)]
    junk = 0xFEDCBA9876543210  # in the padding half of each lane
    z = sum((value | junk << 64) << 128 * i for i, value in enumerate(lanes))
    words = array.array("Q", z.to_bytes(16 * len(lanes), order))
    assert words.itemsize == 8
    if order != sys.byteorder:
        words.byteswap()
    assert words[_VALUE_WORDS[order]].tolist() == lanes[::-1]


def test_subset_images_match_per_bit_mapping():
    rng = SplitMix64(41)
    for _ in range(200):
        n = rng.randint(0, 7)
        target = rng.randint(1, 12)
        point_masks = [rng.mask(target) for _ in range(n)]
        img = subset_images(n, point_masks)
        assert len(img) == 1 << n
        for s in range(1 << n):
            expected = 0
            for x in bits(s):
                expected |= point_masks[x]
            assert img[s] == expected


def test_collisions_pair_each_repeat_with_its_first_row():
    assert collisions([5, 3, 5, 5, 3, 7]) == ((0, 2), (0, 3), (1, 4))
    assert collisions(iter([1, 2, 4])) == ()


def reference_op(graph, masks, width):
    """An operation applied to masks one coordinate at a time: bit ``c``
    is set iff ``graph`` holds the row of the masks' bits at ``c`` valued
    1 (a row outside the graph counts as 0)."""
    table = {t[:-1]: t[-1] for t in graph if t[-1]}
    out = 0
    for c in range(width):
        row = tuple(m >> c & 1 for m in masks)
        if table.get(row):
            out |= 1 << c
    return out


def every_function_graph(k):
    """The graphs of all 2^(2^k) functions {0,1}^k -> {0,1}."""
    rows = list(itertools.product((0, 1), repeat=k))
    for values in itertools.product((0, 1), repeat=len(rows)):
        yield frozenset(r + (v,) for r, v in zip(rows, values))


def test_op_kernel_matches_the_per_coordinate_truth_table():
    rng = random.Random(19)
    graphs = [g for k in (0, 1, 2) for g in every_function_graph(k)]
    assert len(graphs) == 2 + 4 + 16
    rows3 = list(itertools.product((0, 1), repeat=3))
    graphs += [
        frozenset(r + (rng.randint(0, 1),) for r in rows3) for _ in range(40)
    ]
    # Not a total function: missing rows read 0, a doubled row reads 1.
    graphs += [
        frozenset({(0, 1, 1), (1, 1, 0)}),
        frozenset({(0, 0, 0), (0, 0, 1), (1, 1, 1)}),
    ]
    for graph in graphs:
        k = len(next(iter(graph))) - 1
        op = op_kernel(graph)
        assert op_kernel(graph) is op
        for width in (0, 1, 5, 9):
            full = (1 << width) - 1
            for _ in range(30):
                masks = [rng.getrandbits(width) if width else 0 for _ in range(k)]
                assert op(full, *masks) == reference_op(graph, masks, width)
    # The AND and OR of two masks, and the complement of one.
    assert op_kernel(frozenset({(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)}))(
        0b1111, 0b1100, 0b1010
    ) == 0b1000
    assert op_kernel(frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)}))(
        0b1111, 0b1100, 0b1010
    ) == 0b1110
    assert op_kernel(frozenset({(0, 1), (1, 0)}))(0b111, 0b010) == 0b101


def sweep_preserved(rows, width, arity, allowed):
    """The non-tuple sweep `preserved_tuples` runs on any relation."""
    full = (1 << width) - 1
    by_value = [(full & ~row, row) for row in rows]
    live = [
        (img, full)
        for img in itertools.product((0, 1), repeat=arity)
        if full and img not in allowed
    ]
    return list(_preserved(by_value, arity, (), live))


def test_function_graphs_are_reflected_like_any_relation():
    rng = random.Random(23)
    eq = frozenset({(0, 0), (1, 1)})
    graphs = [eq] + [g for k in (0, 1, 2) for g in every_function_graph(k)]
    # Relations that are no function graph take the sweep.
    graphs += [
        frozenset({(0, 0), (0, 1), (1, 1)}),
        frozenset({(0, 0, 0), (1, 1, 1)}),
        frozenset(),
    ]
    for allowed in graphs:
        arity = len(next(iter(allowed), (0, 0)))
        for width in (0, 1, 2, 4, 7):
            for n in (1, 3, 6):
                # Few distinct rows, so that points share rows.
                pool = [rng.getrandbits(width) if width else 0 for _ in range(3)]
                rows = [rng.choice(pool) for _ in range(n)]
                got = list(preserved_tuples(rows, width, arity, allowed))
                assert got == sweep_preserved(rows, width, arity, allowed)
    # No maps at all: every tuple is preserved.
    assert list(preserved_tuples([0, 0], 0, 2, eq)) == [
        (0, 0), (0, 1), (1, 0), (1, 1)
    ]
    # eq is the identity graph: points with equal rows.
    assert list(preserved_tuples([0b01, 0b10, 0b01], 2, 2, eq)) == [
        (0, 0), (0, 2), (1, 1), (2, 0), (2, 2)
    ]


def test_a_frozenset_relation_is_kept_as_given():
    sig = Signature((Symbol("leq", 2), Symbol("eq", 2)))
    leq = frozenset({(0, 0), (0, 1), (1, 1)})
    given = FiniteStructure(sig, 2, {"leq": leq, "eq": [(0, 0), (1, 1)]})
    rebuilt = FiniteStructure(
        sig, 2, {"leq": [[0, 0], (0, 1), (1, 1)], "eq": {(0, 0), (1, 1)}}
    )
    assert given.rel("leq") is leq
    assert isinstance(rebuilt.rel("leq"), frozenset)
    assert given == rebuilt and rebuilt == given
    assert structure_key(given) == structure_key(rebuilt)
    assert hash(structure_key(given)) == hash(structure_key(rebuilt))
    # As before, a structure itself is unhashable: its relations are a dict.
    for x in (given, rebuilt):
        with pytest.raises(TypeError):
            hash(x)
    other = FiniteStructure(sig, 2, {"leq": leq, "eq": [(0, 0)]})
    assert other != given and structure_key(other) != structure_key(given)


def test_every_exported_name_resolves():
    import twodual

    for name in twodual.__all__:
        assert hasattr(twodual, name), name


def test_signature_orders_symbols_and_constants():
    a = Signature(
        (Symbol("meet", 3, functional=True), Symbol("leq", 2)),
        constants=("one", "zero"),
    )
    b = Signature(
        (Symbol("leq", 2), Symbol("meet", 3, functional=True)),
        constants=("zero", "one"),
    )
    assert a == b
    assert [s.name for s in a.symbols] == ["leq", "meet"]
    assert a.constants == ("one", "zero")


def test_signature_rejects_duplicate_names():
    with pytest.raises(ValueError):
        Signature((Symbol("r", 1), Symbol("r", 2)))
    with pytest.raises(ValueError):
        Signature((Symbol("r", 1),), constants=("r",))


def test_symbol_rejects_nullary():
    with pytest.raises(ValueError):
        Symbol("bad", 0)


def test_structure_validate_catches_all_the_usual_problems():
    sig = Signature(
        (Symbol("leq", 2), Symbol("op", 2, functional=True)),
        constants=("zero",),
    )
    x = FiniteStructure(
        sig,
        2,
        {"leq": [(0, 5)], "op": [(0, 0), (0, 1)], "mystery": [(0,)]},
        {"zero": 7, "extra": 0},
    )
    problems = "\n".join(validate(x))
    assert "out of range" in problems
    assert "mystery" in problems
    assert "extra" in problems
    assert "maps to both" in problems


def test_validate_requires_total_operations():
    sig = Signature((Symbol("f", 3, functional=True),))
    x = FiniteStructure(sig, 2, {"f": [(0, 0, 1), (1, 1, 0)]})
    assert any("no value at" in p for p in validate(x))
    total = FiniteStructure(
        sig, 2, {"f": [(a, b, a ^ b) for a in range(2) for b in range(2)]}
    )
    assert validate(total) == []


def test_empty_universe_rejected():
    with pytest.raises(EmptyUniverse):
        FiniteStructure(Signature(()), 0, {})


def test_two_template_insists_on_two_elements():
    sig = Signature((Symbol("r", 1),))
    with pytest.raises(ValueError):
        TwoTemplate(FiniteStructure(sig, 3, {"r": []}))


def test_substructure_relabels_and_checks_closure():
    sig = Signature(
        (Symbol("leq", 2), Symbol("join", 3, functional=True)),
        constants=("zero",),
    )
    join = [(a, b, max(a, b)) for a in range(3) for b in range(3)]
    leq = [(a, b) for a in range(3) for b in range(3) if a <= b]
    x = FiniteStructure(sig, 3, {"leq": leq, "join": join}, {"zero": 0})

    sub = substructure(x, [0, 2])
    assert sub.size == 2
    assert sub.constants == {"zero": 0}
    assert (0, 1) in sub.rel("leq")  # was (0, 2)

    with pytest.raises(ConstantOutside):
        substructure(x, [1, 2])


def test_substructure_function_not_closed():
    # Two atoms joining to a top: {0, 1} misses join(0, 1) = 2.
    sig = Signature((Symbol("join", 3, functional=True),))
    vee = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 1, 2), (1, 0, 2),
           (0, 2, 2), (2, 0, 2), (1, 2, 2), (2, 1, 2)]
    y = FiniteStructure(sig, 3, {"join": vee})
    with pytest.raises(FunctionNotClosed) as err:
        substructure(y, [0, 1])
    assert (err.value.name, err.value.point, err.value.result) == ("join", (0, 1), 2)
    assert substructure(y, [0, 2]).size == 2


def test_set_family_flags_must_match_members():
    with pytest.raises(ValueError):
        SetFamily(base=2, sets=(1, 2), has_empty_as_zero=True)
    with pytest.raises(ValueError):
        SetFamily(base=2, sets=(0, 1), has_base_as_one=True)
    fam = SetFamily(base=2, sets=(0, 3), has_empty_as_zero=True, has_base_as_one=True)
    assert fam.full_mask == 3
    assert len(fam) == 2


def test_set_family_rejects_duplicates_and_overflow():
    with pytest.raises(ValueError):
        SetFamily(base=2, sets=(1, 1))
    with pytest.raises(ValueError):
        SetFamily(base=2, sets=(4,))
    with pytest.raises(UniverseTooLarge):
        SetFamily(base=100, sets=(0,))


def test_point_row_lists_members_containing_the_point():
    fam = SetFamily(base=3, sets=(0b001, 0b011, 0b110))
    assert fam.point_rows[0] == 0b011  # members 0 and 1 contain point 0
    assert fam.point_rows[1] == 0b110
    assert fam.point_rows[2] == 0b100


def reference_point_row(fam, x):
    """The members containing point ``x``, one member at a time."""
    return mask_of(i for i, m in enumerate(fam.sets) if m >> x & 1)


def test_point_rows_match_the_per_point_definition():
    rng = SplitMix64(29)
    families = [
        SetFamily(base=0, sets=()),
        SetFamily(base=4, sets=()),
        # No member reaches points 3 and 4: their rows are zero.
        SetFamily(base=5, sets=(0b000, 0b011, 0b101)),
    ]
    for _ in range(60):
        base = rng.randint(1, 9)
        members = {rng.mask(base) for _ in range(rng.randint(0, 12))}
        families.append(SetFamily(base=base, sets=tuple(members)))
    for fam in families:
        want = tuple(reference_point_row(fam, x) for x in range(fam.base))
        assert fam.point_rows == want
        assert fam.point_rows is fam.point_rows


def test_transpose_collapses_identical_rows():
    # Points 0 and 1 lie in exactly the same members.
    fam = SetFamily(base=3, sets=(0b011, 0b111))
    t = transpose(fam)
    assert t.family.base == 2
    assert t.family.sets == (0b11, 0b10)
    assert t.row_of_point == (0, 0, 1)
