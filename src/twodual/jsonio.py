"""JSON documents for the four core object kinds, plus corpus files.

Document shapes (exact field names):

* structure — ``{"kind": "structure", "universe": n, "signature":
  [{"name": s, "arity": k, "functional": b}, ...], "relations":
  {name: [[i, ...], ...]}, "constants": {name: i}}``
* family — ``{"kind": "family", "base": m, "sets": [[sorted indices],
  ...], "zero": bool, "one": bool}``
* bea — ``{"kind": "bea", "universe": n, "pairs": [[[s indices],
  [t indices]], ...], "zero": idx|null, "one": idx|null}`` listing the
  positive pairs exhaustively
* biconvexity — ``{"kind": "biconvexity", "universe": n, "L": [[...],
  ...], "U": [[...], ...], "zero": idx|null, "one": idx|null}``

A corpus file is JSON-lines: a ``{"kind": "corpus-meta", "seed": ...,
"generator": ...}`` header followed by one document per line.  Dumps are
deterministic (sorted keys, no float content).
"""

from __future__ import annotations

import json

from .bea import BeaOracle, pairs_of
from .caps import guard
from .convexity import BiConvexity
from .core import FiniteStructure, SetFamily, Signature, Symbol, bits, mask_of, validate
from .errors import InputError
from .rng import GENERATOR_ID


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _indices(mask: int) -> list[int]:
    return list(bits(mask))


def _require(doc: dict, key: str, kinds, what: str):
    if key not in doc:
        raise InputError(f"{what} document lacks the {key!r} field")
    value = doc[key]
    if not isinstance(value, kinds):
        raise InputError(f"{what} field {key!r} has the wrong type")
    return value


def _mask_from_list(points, what: str, size: int) -> int:
    if not isinstance(points, list) or not all(
        isinstance(p, int) and not isinstance(p, bool) and 0 <= p < size for p in points
    ):
        raise InputError(f"{what} must be a list of indices below {size}")
    return mask_of(points)


# -------------------------------------------------------------- structure

def structure_to_json(x: FiniteStructure) -> dict:
    return {
        "kind": "structure",
        "universe": x.size,
        "signature": [
            {"name": s.name, "arity": s.arity, "functional": s.functional}
            for s in x.signature.symbols
        ],
        "relations": {
            s.name: sorted(list(t) for t in x.rel(s.name))
            for s in x.signature.symbols
        },
        "constants": dict(sorted(x.constants.items())),
    }


def structure_from_json(doc: dict) -> FiniteStructure:
    n = _require(doc, "universe", int, "structure")
    raw_sig = _require(doc, "signature", list, "structure")
    symbols = []
    for entry in raw_sig:
        if not isinstance(entry, dict):
            raise InputError("signature entries must be objects")
        try:
            symbols.append(
                Symbol(
                    name=str(entry["name"]),
                    arity=int(entry["arity"]),
                    functional=bool(entry.get("functional", False)),
                )
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise InputError(f"bad signature entry: {exc}") from None
    relations = _require(doc, "relations", dict, "structure")
    constants = _require(doc, "constants", dict, "structure")
    if not all(isinstance(v, int) for v in constants.values()):
        raise InputError("constants must map names to element indices")
    tuples = {}
    for name, tups in relations.items():
        if not isinstance(tups, list):
            raise InputError(f"relation {name!r} must be a list of tuples")
        rows = set()
        for t in tups:
            if not isinstance(t, list) or not all(isinstance(i, int) for i in t):
                raise InputError(f"relation {name!r} has a malformed tuple")
            rows.add(tuple(t))
        tuples[name] = frozenset(rows)
    try:
        sig = Signature(
            symbols=tuple(symbols), constants=tuple(constants.keys())
        )
        out = FiniteStructure(sig, n, tuples, dict(constants))
    except ValueError as exc:
        raise InputError(str(exc)) from None
    problems = validate(out)
    if problems:
        raise InputError("; ".join(problems))
    return out


# ----------------------------------------------------------------- family

def family_to_json(f: SetFamily) -> dict:
    return {
        "kind": "family",
        "base": f.base,
        "sets": [_indices(m) for m in f.sets],
        "zero": f.has_empty_as_zero,
        "one": f.has_base_as_one,
    }


def family_from_json(doc: dict) -> SetFamily:
    base = _require(doc, "base", int, "family")
    raw = _require(doc, "sets", list, "family")
    sets = tuple(_mask_from_list(s, "family member", base) for s in raw)
    try:
        return SetFamily(
            base=base,
            sets=sets,
            has_empty_as_zero=bool(doc.get("zero", False)),
            has_base_as_one=bool(doc.get("one", False)),
        )
    except ValueError as exc:
        raise InputError(str(exc)) from None


# -------------------------------------------------------------------- bea

def bea_to_json(oracle: BeaOracle) -> dict:
    n = oracle.universe
    pairs = oracle.pairs
    if pairs is None:
        guard("pair-axiom-sweep", n, "pair-table materialization")
        pairs = pairs_of(oracle.linkage, n)
    return {
        "kind": "bea",
        "universe": n,
        "pairs": sorted([_indices(s), _indices(t)] for s, t in pairs),
        "zero": oracle.zero_elem,
        "one": oracle.one_elem,
    }


def bea_from_json(doc: dict) -> BeaOracle:
    n = _require(doc, "universe", int, "bea")
    raw = _require(doc, "pairs", list, "bea")
    pairs = set()
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 2:
            raise InputError("bea pairs must be [s, t] index-list pairs")
        s, t = entry
        pairs.add((_mask_from_list(s, "bea side", n), _mask_from_list(t, "bea side", n)))
    zero = doc.get("zero")
    one = doc.get("one")
    for c in (zero, one):
        if c is not None and not isinstance(c, int):
            raise InputError("bea constants must be element indices or null")
    try:
        return BeaOracle.from_table(n, pairs, zero=zero, one=one)
    except (ValueError, InputError) as exc:
        raise InputError(str(exc)) from None


# ------------------------------------------------------------ biconvexity

def biconvexity_to_json(space: BiConvexity) -> dict:
    return {
        "kind": "biconvexity",
        "universe": space.universe,
        "L": [_indices(m) for m in space.lower.sets],
        "U": [_indices(m) for m in space.upper.sets],
        "zero": space.zero_elem,
        "one": space.one_elem,
    }


def biconvexity_from_json(doc: dict) -> BiConvexity:
    n = _require(doc, "universe", int, "biconvexity")
    raw_l = _require(doc, "L", list, "biconvexity")
    raw_u = _require(doc, "U", list, "biconvexity")
    zero = doc.get("zero")
    one = doc.get("one")
    for c in (zero, one):
        if c is not None and not isinstance(c, int):
            raise InputError("biconvexity constants must be indices or null")
    try:
        lower = SetFamily(
            base=n, sets=tuple(_mask_from_list(s, "L member", n) for s in raw_l)
        )
        upper = SetFamily(
            base=n, sets=tuple(_mask_from_list(s, "U member", n) for s in raw_u)
        )
        return BiConvexity(
            universe=n,
            lower=lower,
            upper=upper,
            zero_elem=zero,
            one_elem=one,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from None


# --------------------------------------------------------------- dispatch

_READERS = {
    "structure": structure_from_json,
    "family": family_from_json,
    "bea": bea_from_json,
    "biconvexity": biconvexity_from_json,
}


def from_json(doc: dict):
    if not isinstance(doc, dict):
        raise InputError("documents must be JSON objects")
    kind = doc.get("kind")
    try:
        reader = _READERS[kind]
    except KeyError:
        raise InputError(
            f"unknown document kind {kind!r}; expected one of "
            + ", ".join(sorted(_READERS))
        ) from None
    return reader(doc)


def to_json(obj) -> dict:
    if isinstance(obj, FiniteStructure):
        return structure_to_json(obj)
    if isinstance(obj, SetFamily):
        return family_to_json(obj)
    if isinstance(obj, BeaOracle):
        return bea_to_json(obj)
    if isinstance(obj, BiConvexity):
        return biconvexity_to_json(obj)
    raise InputError(f"cannot serialize {type(obj).__name__}")


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    return from_json(doc)


def load_path(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return loads(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


# ----------------------------------------------------------------- corpus

def corpus_lines(objects, *, seed: int):
    """The JSON-lines content of a corpus: meta header, one doc per line."""
    yield dumps({"kind": "corpus-meta", "seed": seed, "generator": GENERATOR_ID})
    for obj in objects:
        yield dumps(to_json(obj))


def write_corpus(path: str, objects, *, seed: int):
    with open(path, "w", encoding="utf-8") as fh:
        for line in corpus_lines(objects, seed=seed):
            fh.write(line + "\n")


def read_corpus(path: str):
    """Read a corpus file; returns (meta dict or None, list of objects)."""
    meta = None
    out = []
    try:
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    doc = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise InputError(f"invalid JSON line: {exc}") from None
                if isinstance(doc, dict) and doc.get("kind") == "corpus-meta":
                    meta = doc
                    continue
                out.append(from_json(doc))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return meta, out
