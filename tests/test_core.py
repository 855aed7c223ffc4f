"""Structures, signatures, set families, and the bit-mask helpers."""

import pytest

from twodual.core import (
    FiniteStructure,
    SetFamily,
    Signature,
    Symbol,
    TwoTemplate,
    bits,
    collisions,
    mask_of,
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
from twodual.rng import SplitMix64


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
    assert fam.point_row(0) == 0b011  # members 0 and 1 contain point 0
    assert fam.point_row(1) == 0b110
    assert fam.point_row(2) == 0b100


def test_transpose_collapses_identical_rows():
    # Points 0 and 1 lie in exactly the same members.
    fam = SetFamily(base=3, sets=(0b011, 0b111))
    t = transpose(fam)
    assert t.family.base == 2
    assert t.family.sets == (0b11, 0b10)
    assert t.row_of_point == (0, 0, 1)
