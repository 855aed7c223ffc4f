"""Finite relational structures, two-element templates, and set families.

Conventions used throughout the package:

* Universe elements are ``0 .. size-1``.
* Subsets of a universe are plain ``int`` bit masks (bit ``x`` set means
  element ``x`` is in the subset).
* Relations are sets of index tuples; operations are stored as their
  graphs, i.e. ``(arg_1, .., arg_k, result)`` tuples of a symbol flagged
  ``functional``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping

from .caps import guard
from .errors import ConstantOutside, EmptyUniverse, FunctionNotClosed


def mask_of(indices) -> int:
    """Bit mask of an iterable of element indices."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subset_images(n: int, point_masks) -> list[int]:
    """Image of every subset of ``0 .. n-1`` under a point map.

    ``img[s]`` is the union of ``point_masks[x]`` over the points ``x`` of
    ``s``, built incrementally from the subset without its lowest point.
    """
    img = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        img[s] = img[s ^ low] | point_masks[low.bit_length() - 1]
    return img


def collisions(rows) -> tuple[tuple[int, int], ...]:
    """Pairs ``(first, x)`` where ``rows[x]`` repeats the row first seen at
    index ``first``, in increasing ``x``."""
    first: dict = {}
    out = []
    for x, row in enumerate(rows):
        seen = first.setdefault(row, x)
        if seen != x:
            out.append((seen, x))
    return tuple(out)


def preserved_tuples(rows, width: int, arity: int, allowed):
    """The ``arity``-tuples of points that each of ``width`` maps into
    ``{0, 1}`` sends into ``allowed``, in ``itertools.product`` order.

    ``rows[x]`` masks the maps sending point ``x`` to 1.  A tuple is out as
    soon as some map matches a disallowed image along it, i.e. the AND of
    ``rows[x]`` (or its complement) over the tuple's positions is nonzero.
    """
    full = (1 << width) - 1
    by_value = [(full & ~row, row) for row in rows]
    live = [
        (img, full)
        for img in itertools.product((0, 1), repeat=arity)
        if full and img not in allowed
    ]
    return _preserved(by_value, arity, (), live)


def _preserved(by_value, arity: int, prefix: tuple, live: list):
    """Tuples extending ``prefix`` that no map sends to a disallowed image.

    ``live`` holds each disallowed image whose prefix some map still
    matches, with the nonzero mask of those maps.
    """
    j = len(prefix)
    if not live:
        for rest in itertools.product(range(len(by_value)), repeat=arity - j):
            yield prefix + rest
        return
    if j == arity - 1:
        last = [(maps, img[j]) for img, maps in live]
        for x, sides in enumerate(by_value):
            for maps, b in last:
                if maps & sides[b]:
                    break
            else:
                yield prefix + (x,)
        return
    for x, sides in enumerate(by_value):
        nxt = []
        for img, maps in live:
            maps &= sides[img[j]]
            if maps:
                nxt.append((img, maps))
        yield from _preserved(by_value, arity, prefix + (x,), nxt)


@dataclass(frozen=True)
class Symbol:
    """A relation symbol; ``functional`` marks it as an operation graph."""

    name: str
    arity: int
    functional: bool = False

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError(f"symbol {self.name!r} must have arity >= 1")


@dataclass(frozen=True)
class Signature:
    """Relational signature: symbols plus named constants.

    Symbols and constant names are stored sorted by name, so signatures
    compare equal regardless of declaration or document key order.
    """

    symbols: tuple[Symbol, ...]
    constants: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "symbols", tuple(sorted(self.symbols, key=lambda s: s.name))
        )
        object.__setattr__(self, "constants", tuple(sorted(self.constants)))
        names = [s.name for s in self.symbols] + list(self.constants)
        if len(names) != len(set(names)):
            raise ValueError("duplicate names in signature")

    def symbol(self, name: str) -> Symbol:
        for s in self.symbols:
            if s.name == name:
                return s
        raise KeyError(name)


def _freeze_tuples(raw) -> dict:
    return {name: frozenset(tuple(t) for t in tups) for name, tups in raw.items()}


@dataclass(frozen=True)
class FiniteStructure:
    """A finite structure for a signature.

    The constructor normalizes containers but performs no semantic
    validation beyond rejecting an empty universe — use :func:`validate`
    to obtain a list of violations.
    """

    signature: Signature
    size: int
    tuples: Mapping[str, frozenset]
    constants: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.size < 1:
            raise EmptyUniverse("structures must have at least one element")
        object.__setattr__(self, "tuples", _freeze_tuples(self.tuples))
        object.__setattr__(self, "constants", dict(self.constants))

    def rel(self, name: str) -> frozenset:
        return self.tuples.get(name, frozenset())

    def op(self, name: str) -> dict:
        """Graph of a functional symbol as an ``args -> result`` dict."""
        return {t[:-1]: t[-1] for t in self.rel(name)}


@dataclass(frozen=True)
class TwoTemplate:
    """A structure on universe ``{0, 1}`` used as a homomorphism target."""

    structure: FiniteStructure

    def __post_init__(self):
        if self.structure.size != 2:
            raise ValueError("templates live on a two-element universe")

    @property
    def signature(self) -> Signature:
        return self.structure.signature

    @property
    def has_zero(self) -> bool:
        return any(v == 0 for v in self.structure.constants.values())

    @property
    def has_one(self) -> bool:
        return any(v == 1 for v in self.structure.constants.values())


def validate(structure: FiniteStructure) -> list[str]:
    """Check well-formedness; returns a list of human-readable violations."""
    out = []
    sig = structure.signature
    n = structure.size
    names = {s.name for s in sig.symbols}
    for name in structure.tuples:
        if name not in names:
            out.append(f"tuples given for unknown symbol {name!r}")
    for name, value in structure.constants.items():
        if name not in sig.constants:
            out.append(f"value given for unknown constant {name!r}")
        if not 0 <= value < n:
            out.append(f"constant {name!r} = {value} out of range")
    for cname in sig.constants:
        if cname not in structure.constants:
            out.append(f"constant {cname!r} has no value")
    for sym in sig.symbols:
        tups = structure.rel(sym.name)
        for t in tups:
            if len(t) != sym.arity:
                out.append(
                    f"symbol {sym.name!r}: tuple {t} has length {len(t)}, "
                    f"expected {sym.arity}"
                )
            elif not all(0 <= i < n for i in t):
                out.append(f"symbol {sym.name!r}: tuple {t} out of range")
        if sym.functional:
            graph = {}
            for t in tups:
                if len(t) != sym.arity:
                    continue
                args, result = t[:-1], t[-1]
                if args in graph and graph[args] != result:
                    out.append(
                        f"symbol {sym.name!r}: {args} maps to both "
                        f"{graph[args]} and {result}"
                    )
                graph[args] = result
            for args in itertools.product(range(n), repeat=sym.arity - 1):
                if args not in graph:
                    out.append(f"symbol {sym.name!r}: no value at {args}")
    return out


def substructure(structure: FiniteStructure, subset) -> FiniteStructure:
    """Induced substructure on ``subset`` (an iterable of indices or a mask).

    Elements are relabelled ``0 .. k-1`` in ascending order of the original
    indices.  Raises :class:`ConstantOutside` / :class:`FunctionNotClosed`
    when the subset does not support the signature.
    """
    if isinstance(subset, int):
        keep = sorted(bits(subset))
    else:
        keep = sorted(set(subset))
    if not keep:
        raise EmptyUniverse("substructure on the empty set")
    if keep[0] < 0 or keep[-1] >= structure.size:
        raise ValueError("subset out of range")
    relabel = {old: new for new, old in enumerate(keep)}
    inside = set(keep)

    constants = {}
    for name, value in structure.constants.items():
        if value not in inside:
            raise ConstantOutside(name, value)
        constants[name] = relabel[value]

    tuples = {}
    for sym in structure.signature.symbols:
        kept = []
        for t in structure.rel(sym.name):
            if all(i in inside for i in t):
                kept.append(tuple(relabel[i] for i in t))
            elif sym.functional and all(i in inside for i in t[:-1]):
                raise FunctionNotClosed(sym.name, t[:-1], t[-1])
        tuples[sym.name] = frozenset(kept)
    return FiniteStructure(structure.signature, len(keep), tuples, constants)


@dataclass(frozen=True)
class SetFamily:
    """An ordered family of distinct subsets of ``{0, .., base-1}``.

    ``has_empty_as_zero`` / ``has_base_as_one`` flag that the empty set /
    full base set is a member *designated* as the constant 0 / 1.
    """

    base: int
    sets: tuple[int, ...]
    has_empty_as_zero: bool = False
    has_base_as_one: bool = False

    def __post_init__(self):
        guard("family-base", self.base, "set-family base")
        object.__setattr__(self, "sets", tuple(self.sets))
        if len(set(self.sets)) != len(self.sets):
            raise ValueError("family members must be distinct")
        full = self.full_mask
        for m in self.sets:
            if m < 0 or m & ~full:
                raise ValueError(f"member {m:#x} does not fit in base {self.base}")
        if self.has_empty_as_zero and 0 not in self.sets:
            raise ValueError("zero flag set but the empty set is not a member")
        if self.has_base_as_one and full not in self.sets:
            raise ValueError("one flag set but the full set is not a member")

    @property
    def full_mask(self) -> int:
        return (1 << self.base) - 1

    def __len__(self) -> int:
        return len(self.sets)

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.sets)

    @cached_property
    def index(self) -> dict:
        return {m: i for i, m in enumerate(self.sets)}

    def point_row(self, x: int) -> int:
        """Mask (over member indices) of the members containing point ``x``."""
        row = 0
        probe = 1 << x
        for i, m in enumerate(self.sets):
            if m & probe:
                row |= 1 << i
        return row


@dataclass(frozen=True)
class Transposed:
    """Result of :func:`transpose`: the row family plus the collapse map.

    ``row_of_point[x]`` gives, for every point of the original base, the
    index of its row inside ``family`` (points with identical rows collapse
    onto a single member).
    """

    family: SetFamily
    row_of_point: tuple[int, ...]


def transpose(family: SetFamily) -> Transposed:
    """Family of point rows over the member-index base.

    Rows appear in point order and are deduplicated keeping the first
    occurrence; the collapse map records where every point went.
    """
    rows = []
    seen = {}
    row_of_point = []
    for x in range(family.base):
        row = family.point_row(x)
        if row not in seen:
            seen[row] = len(rows)
            rows.append(row)
        row_of_point.append(seen[row])
    out = SetFamily(base=len(family.sets), sets=tuple(rows))
    return Transposed(family=out, row_of_point=tuple(row_of_point))
