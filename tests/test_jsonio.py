"""Wire format round trips and corpus files."""

import json

import pytest

from twodual import BeaOracle, BiConvexity, SetFamily, family_bea
from twodual.errors import InputError
from twodual.instances import chain_interval_space, gen_posets, template
from twodual.jsonio import (
    bea_from_json,
    bea_to_json,
    biconvexity_from_json,
    corpus_lines,
    dumps,
    family_from_json,
    family_to_json,
    from_json,
    load_path,
    loads,
    read_corpus,
    structure_from_json,
    structure_to_json,
    to_json,
    write_corpus,
)


def test_dumps_is_canonical():
    assert dumps({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


def test_structure_round_trip_preserves_everything():
    for p in gen_posets(3):
        doc = structure_to_json(p)
        assert doc["kind"] == "structure"
        back = structure_from_json(doc)
        assert back == p
        # Canonical text is stable across the round trip.
        assert dumps(structure_to_json(back)) == dumps(doc)


def test_structure_documents_interoperate_with_the_catalog():
    t = template("bounded_lattice").structure
    back = structure_from_json(json.loads(dumps(structure_to_json(t))))
    assert back.signature == t.signature
    assert back.constants == t.constants


def test_family_round_trip_keeps_flags():
    fam = SetFamily(
        base=4,
        sets=(0, 0b0011, 0b1111),
        has_empty_as_zero=True,
        has_base_as_one=True,
    )
    doc = family_to_json(fam)
    assert doc == {
        "base": 4,
        "kind": "family",
        "one": True,
        "sets": [[], [0, 1], [0, 1, 2, 3]],
        "zero": True,
    }
    assert family_from_json(doc) == fam


def test_bea_round_trip_both_realizations():
    fam = SetFamily(base=3, sets=(0b011, 0b110))
    induced = family_bea(fam)
    doc = bea_to_json(induced)
    assert doc["kind"] == "bea"
    back = bea_from_json(doc)
    assert back.universe == induced.universe
    for s in range(4):
        for t in range(4):
            assert back.query(s, t) == induced.query(s, t)

    table = BeaOracle.from_table(2, {(0b01, 0b01), (0b01, 0b11)}, one=0)
    doc = bea_to_json(table)
    assert doc["one"] == 0 and doc["zero"] is None
    back = bea_from_json(doc)
    assert back.one_elem == 0
    assert set(back.pairs) == set(table.pairs)


def test_biconvexity_round_trip():
    space = chain_interval_space(3)
    back = biconvexity_from_json(to_json(space))
    assert back.lower.sets == space.lower.sets
    assert back.upper.sets == space.upper.sets
    assert isinstance(back, BiConvexity)


def test_dispatch_by_kind():
    fam = SetFamily(base=2, sets=(0b01,))
    for obj in (fam, family_bea(SetFamily(base=2, sets=(0b01, 0b11)))):
        assert type(from_json(to_json(obj))) is type(obj)
    assert loads(dumps(to_json(fam))) == fam


def test_malformed_documents_are_refused():
    with pytest.raises(InputError):
        from_json({"kind": "mystery"})
    with pytest.raises(InputError):
        from_json({"no": "kind"})
    with pytest.raises(InputError):
        family_from_json({"kind": "family", "base": 2})  # sets missing
    with pytest.raises(InputError):
        family_from_json(
            {"kind": "family", "base": 2, "sets": [[0, 5]], "zero": False,
             "one": False}
        )
    with pytest.raises(InputError):
        bea_from_json({"kind": "bea", "universe": 2})
    # An index past the universe is refused, not masked away.
    with pytest.raises(InputError, match="indices below 2"):
        bea_from_json({"kind": "bea", "universe": 2, "pairs": [[[0], [5]]]})
    with pytest.raises(InputError):
        loads("{not json")


def test_corpus_files(tmp_path):
    objs = [
        SetFamily(base=3, sets=(0b001, 0b011)),
        SetFamily(base=2, sets=(0b10, 0b11)),
    ]
    lines = list(corpus_lines(objs, seed=42))
    header = json.loads(lines[0])
    assert header == {
        "generator": "splitmix64-v1",
        "kind": "corpus-meta",
        "seed": 42,
    }
    assert len(lines) == 3

    path = tmp_path / "fams.jsonl"
    write_corpus(str(path), objs, seed=42)
    meta, loaded = read_corpus(str(path))
    assert meta["seed"] == 42
    assert loaded == objs


def test_load_path_single_document(tmp_path):
    path = tmp_path / "one.json"
    fam = SetFamily(base=2, sets=(0b01, 0b11))
    path.write_text(dumps(to_json(fam)) + "\n")
    assert load_path(str(path)) == fam
