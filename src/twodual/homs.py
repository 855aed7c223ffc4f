"""Enumeration of homomorphisms into two-element templates.

The backtracking engine propagates over compiled constraints.  Each
structure tuple is reduced to its distinct elements and a shape (which
positions repeat which element), and each (shape, template relation) pair
is compiled once per process into the allowed images over those elements.
A constraint visit packs the known values of the tuple's elements into one
state key and looks up either a contradiction or the values it forces.
States are solved on first use, never tabulated up front, so memory grows
with the template's own relations and with the states actually visited: at
most ``3^k`` per compiled shape of ``k`` distinct elements.

Separation reports sweep the point rows over the hom-set as bitsets: a
non-tuple is reflected iff some disallowed image has a nonzero AND of the
rows (or their complements) along it.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

from .caps import get_cap, guard
from .core import (
    FiniteStructure,
    SetFamily,
    TwoTemplate,
    collisions,
    preserved_tuples,
)
from .errors import (
    HomLimitExceeded,
    InputError,
    SignatureMismatch,
    TimeoutExceeded,
)


@dataclass(frozen=True)
class HomSet:
    """All homomorphisms from an n-element structure into a template.

    Each hom ``h`` is stored as the mask of ``h^{-1}(1)``; masks are listed
    in increasing numeric order.
    """

    domain_size: int
    template: TwoTemplate
    homs: SetFamily


@dataclass(frozen=True)
class SeparationReport:
    separated: bool
    collisions: tuple[tuple[int, int], ...]
    unreflected: tuple[tuple[str, tuple], ...]


def _constraints(structure: FiniteStructure, template: TwoTemplate):
    """Every (tuple, allowed-set) constraint, for the brute-force engine."""
    return [
        (t, template.structure.rel(sym.name))
        for sym in structure.signature.symbols
        for t in structure.rel(sym.name)
    ]


class _Shape(dict):
    """One template relation compiled against one tuple shape.

    The shape lists, per tuple position, the index of its element among
    the tuple's distinct elements (``(x, x, y)`` has shape ``(0, 0, 1)``).
    ``patterns`` are the allowed images as bit patterns over the distinct
    elements.  The dict maps a packed state of those elements, two bits
    each with the first element highest (``00`` free, ``01`` is 0, ``10``
    is 1), to ``None`` on a contradiction or else to the ``(element index,
    value)`` pairs it forces.  States are solved on first lookup, so at
    most ``3^k`` are ever stored for ``k`` distinct elements.
    """

    def __init__(self, shape: tuple[int, ...], allowed: frozenset):
        super().__init__()
        self.width = max(shape) + 1
        patterns = set()
        for img in allowed:
            if len(img) != len(shape) or not set(img) <= {0, 1}:
                continue
            p = 0
            for j, b in zip(shape, img):
                p |= b << j
            if all((p >> j) & 1 == b for j, b in zip(shape, img)):
                patterns.add(p)
        self.patterns = tuple(patterns)

    def __missing__(self, key: int):
        k = self.width
        known = vals = 0
        for i in range(k):
            code = (key >> 2 * (k - 1 - i)) & 3
            if code:
                known |= 1 << i
                if code == 2:
                    vals |= 1 << i
        ones = zeros = ((1 << k) - 1) & ~known
        viable = False
        for p in self.patterns:
            if p & known == vals:
                viable = True
                ones &= p
                zeros &= ~p
        forced = None
        if viable:
            forced = tuple(
                (i, (ones >> i) & 1)
                for i in range(k)
                if ((ones | zeros) >> i) & 1
            )
        self[key] = forced
        return forced


@functools.cache
def _compiled(shape: tuple[int, ...], allowed: frozenset) -> _Shape:
    """Kept for the life of the process, so the states solved for one
    structure serve every later one with the same template relation."""
    return _Shape(shape, allowed)


def _compile(structure: FiniteStructure, template: TwoTemplate):
    """(distinct elements, compiled shape) constraints, grouped per
    universe element."""
    per_element = [[] for _ in range(structure.size)]
    for sym in structure.signature.symbols:
        allowed = template.structure.rel(sym.name)
        for t in structure.rel(sym.name):
            elems = tuple(dict.fromkeys(t))
            entry = (elems, _compiled(tuple(map(elems.index, t)), allowed))
            for e in elems:
                per_element[e].append(entry)
    return per_element


def _seed_assignment(structure, template):
    """Partial assignment forced by the signature constants; None = clash."""
    h = [-1] * structure.size
    for cname in structure.signature.constants:
        if cname not in structure.constants:
            raise InputError(f"structure lacks a value for constant {cname!r}")
        if cname not in template.structure.constants:
            raise InputError(f"template lacks a value for constant {cname!r}")
        x = structure.constants[cname]
        v = template.structure.constants[cname]
        if h[x] >= 0 and h[x] != v:
            return None
        h[x] = v
    return h


def _check_full(mask: int, flat_constraints) -> bool:
    for t, allowed in flat_constraints:
        img = tuple((mask >> e) & 1 for e in t)
        if img not in allowed:
            return False
    return True


def enumerate_homs(
    structure: FiniteStructure,
    template: TwoTemplate,
    *,
    method: str = "backtrack",
    budget: float | None = None,
) -> HomSet:
    """All homomorphisms ``structure -> template``.

    ``method`` selects the engine: ``"backtrack"`` (default; constraint
    propagation over forced values, each constraint visit one lookup in
    its compiled shape, see the module notes for the memory it keeps) or
    ``"brute"`` (tries every one of the ``2^n`` maps; independent
    cross-check, capped).  The ``hom-limit`` cap bounds the number of
    homs; ``budget`` is a wall-clock allowance in seconds.
    """
    if structure.signature != template.signature:
        raise SignatureMismatch("structure and template signatures differ")
    limit = get_cap("hom-limit")
    seed = _seed_assignment(structure, template)

    n = structure.size
    masks: list[int] = []
    deadline = time.monotonic() + budget if budget is not None else None

    if method == "brute":
        guard("hom-brute-universe", n, "brute-force hom enumeration")
        flat = _constraints(structure, template)
        for mask in range(1 << n):
            if deadline is not None and mask % 1024 == 0:
                if time.monotonic() > deadline:
                    raise TimeoutExceeded("hom enumeration ran out of time")
            if seed is None:
                break
            if any(v >= 0 and ((mask >> x) & 1) != v for x, v in enumerate(seed)):
                continue
            if _check_full(mask, flat):
                masks.append(mask)
                if len(masks) > limit:
                    raise HomLimitExceeded(f"more than {limit} homomorphisms")
        return HomSet(n, template, SetFamily(base=n, sets=tuple(masks)))

    if method != "backtrack":
        raise InputError(f"unknown hom enumeration method {method!r}")
    if seed is None:
        return HomSet(n, template, SetFamily(base=n, sets=()))
    per_element = _compile(structure, template)

    # Static order: most-constrained element first.
    degree = [len(per_element[x]) for x in range(n)]
    order = sorted(range(n), key=lambda x: (-degree[x], x))

    h = seed
    nodes = 0

    def propagate(start: int, trail: list) -> bool:
        """Re-check constraints around newly assigned elements; force unique
        completions.  Returns False on contradiction (caller unwinds)."""
        queue = [start]
        while queue:
            y = queue.pop()
            for elems, shape in per_element[y]:
                state = 0
                for e in elems:
                    state = state << 2 | (h[e] + 1)
                forced = shape[state]
                if forced is None:
                    return False
                for i, v in forced:
                    e = elems[i]
                    h[e] = v
                    trail.append(e)
                    queue.append(e)
        return True

    # Constants may already clash with a constraint; validate the seed.
    seed_trail: list[int] = []
    seed_ok = True
    for x in range(n):
        if h[x] >= 0:
            if not propagate(x, seed_trail):
                seed_ok = False
                break

    def descend() -> None:
        nonlocal nodes
        nodes += 1
        if deadline is not None and nodes % 256 == 0:
            if time.monotonic() > deadline:
                raise TimeoutExceeded("hom enumeration ran out of time")
        x = next((e for e in order if h[e] < 0), None)
        if x is None:
            mask = 0
            for e in range(n):
                if h[e]:
                    mask |= 1 << e
            masks.append(mask)
            if len(masks) > limit:
                raise HomLimitExceeded(f"more than {limit} homomorphisms")
            return
        for v in (0, 1):
            trail = [x]
            h[x] = v
            if propagate(x, trail):
                descend()
            for e in trail:
                h[e] = -1

    if seed_ok:
        descend()
    return HomSet(n, template, SetFamily(base=n, sets=tuple(sorted(masks))))


def is_separated(
    structure: FiniteStructure,
    template: TwoTemplate,
    *,
    homset: HomSet | None = None,
) -> SeparationReport:
    """Check that the canonical map into the template power is an embedding.

    Separated means: (a) distinct elements are told apart by some hom, and
    (b) every non-tuple of every symbol is reflected — some hom maps it to
    a non-tuple of the template.
    """
    hs = homset or enumerate_homs(structure, template)
    fam = hs.homs
    n = structure.size
    rows = [fam.point_row(x) for x in range(n)]
    clashes = collisions(rows)
    unreflected = []
    guard("induced-product", max(n, 2) ** max(
        (s.arity for s in structure.signature.symbols), default=1
    ), "relation reflection sweep")
    for sym in structure.signature.symbols:
        have = structure.rel(sym.name)
        allowed = template.structure.rel(sym.name)
        unreflected += [
            (sym.name, t)
            for t in preserved_tuples(rows, len(fam.sets), sym.arity, allowed)
            if t not in have
        ]
    return SeparationReport(
        separated=not clashes and not unreflected,
        collisions=clashes,
        unreflected=tuple(unreflected),
    )
