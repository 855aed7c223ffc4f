"""Enumeration of homomorphisms into two-element templates.

The backtracking engine propagates over compiled constraints.  Each
structure tuple is reduced to its sorted distinct elements and the images
the template relation allows over them, as bit patterns.  A search keeps
one constraint per distinct (elements, patterns) pair, so a lattice's
``meet(a, b, c)`` and ``meet(b, a, c)`` are one constraint, and drops the
tautologies that allow every pattern, such as ``leq(x, x)``.  The
reduction of a tuple is kept in a memo of at most ``CONSTRAINT_MEMO_SIZE``
entries (least recently used first out), and each pattern set is compiled
once per process.  A constraint visit packs the known values of its
elements into one state key and looks up either a contradiction or the
values it forces.  States are solved on first use, never tabulated up
front, so memory grows with the template's own relations and with the
states actually visited: at most ``3^k`` per compiled pattern set of ``k``
elements.

Within a :func:`search_memo` block (``run_suite`` opens one per suite
run), each distinct (structure, template) backtrack search runs once,
keyed by content with :func:`twodual.core.structure_key`; a repeat gets
the same :class:`HomSet`.  The brute engine never reads the memo.

Separation reports sweep the point rows over the hom-set as bitsets: a
non-tuple is reflected iff some disallowed image has a nonzero AND of the
rows (or their complements) along it.  A relation whose allowed set is the
graph of a total function, such as ``meet`` or ``eq``, is instead
reflected by applying the function to the rows of each argument tuple.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import threading
from dataclasses import dataclass

from .caps import get_cap, guard
from .core import (
    FiniteStructure,
    SetFamily,
    TwoTemplate,
    collisions,
    preserved_tuples,
    structure_key,
)
from .errors import (
    HomLimitExceeded,
    InputError,
    SignatureMismatch,
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


# Tuple reductions kept by `_constraint`.  A default structures pass uses
# about 1,300; a full memo of 3-tuples holds about 6.5 MB.
CONSTRAINT_MEMO_SIZE = 1 << 14


class _Shape(dict):
    """The allowed images of one constraint over its ``width`` distinct
    elements, as bit patterns (bit ``j`` is the value of element ``j``).

    The dict maps a packed state of those elements, two bits each with
    the first element highest (``00`` free, ``01`` is 0, ``10`` is 1), to
    ``None`` on a contradiction or else to the ``(element index, value)``
    pairs it forces.  States are solved on first lookup, so at most
    ``3^width`` are ever stored.  `_compiled` makes one instance per
    pattern set, so a shape is equal only to itself (two threads missing
    at once can make a second one, which leaves a duplicate constraint,
    never a wrong one).
    """

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __init__(self, width: int, patterns: frozenset):
        super().__init__()
        self.width = width
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
def _compiled(width: int, patterns: frozenset) -> _Shape:
    """Kept for the life of the process, so the states solved for one
    structure serve every later one with the same pattern set."""
    return _Shape(width, patterns)


@functools.lru_cache(maxsize=CONSTRAINT_MEMO_SIZE)
def _constraint(t: tuple, allowed: frozenset):
    """``(sorted distinct elements of t, compiled shape)``, or None when
    ``allowed`` admits every image over those elements."""
    elems = tuple(sorted(set(t)))
    where = [elems.index(e) for e in t]
    patterns = set()
    for img in allowed:
        if len(img) != len(t) or not set(img) <= {0, 1}:
            continue
        p = 0
        for j, b in zip(where, img):
            p |= b << j
        # A repeated element must take one value at all its positions.
        if all((p >> j) & 1 == b for j, b in zip(where, img)):
            patterns.add(p)
    if len(patterns) == 1 << len(elems):
        return None
    return elems, _compiled(len(elems), frozenset(patterns))


def _compile(structure: FiniteStructure, template: TwoTemplate):
    """The distinct non-trivial (elements, compiled shape) constraints,
    grouped per universe element."""
    found = {}
    for sym in structure.signature.symbols:
        allowed = template.structure.rel(sym.name)
        for t in structure.rel(sym.name):
            found[_constraint(t, allowed)] = None
    found.pop(None, None)
    per_element = [[] for _ in range(structure.size)]
    for entry in found:
        for e in entry[0]:
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


# The backtrack searches of the current `search_memo` block, keyed by
# (hom limit, structure, template), and the lock its searches run under;
# None outside one.
_SEARCHES: contextvars.ContextVar = contextvars.ContextVar(
    "twodual_hom_searches", default=None
)


@contextlib.contextmanager
def search_memo():
    """Within the block, ``enumerate_homs(method="backtrack")`` searches
    each distinct (structure, template) pair once, by content, and gives
    every later call the same :class:`HomSet`.  A search that raised is
    not kept.  The memo lives in a context variable, so it is seen by the
    thread that opened it and by code run in a copy of its context (as
    ``ordered_map`` runs each pool item), and it is dropped when the block
    ends.  Searches run one at a time under the memo's lock, so threads
    sharing it never repeat a search."""
    token = _SEARCHES.set(({}, threading.Lock()))
    try:
        yield
    finally:
        _SEARCHES.reset(token)


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
) -> HomSet:
    """All homomorphisms ``structure -> template``.

    ``method`` selects the engine: ``"backtrack"`` (default; constraint
    propagation over forced values, each constraint visit one lookup in
    its compiled shape, see the module notes for the memory it keeps) or
    ``"brute"`` (tries every one of the ``2^n`` maps; independent
    cross-check, capped).  The ``hom-limit`` cap bounds the number of
    homs.  Inside a :func:`search_memo` block a backtrack search equal to
    an earlier one returns that search's hom-set.
    """
    if structure.signature != template.signature:
        raise SignatureMismatch("structure and template signatures differ")
    limit = get_cap("hom-limit")
    seed = _seed_assignment(structure, template)

    if method == "brute":
        n = structure.size
        masks: list[int] = []
        guard("hom-brute-universe", n, "brute-force hom enumeration")
        flat = _constraints(structure, template)
        for mask in range(1 << n):
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
    searches = _SEARCHES.get()
    if searches is None:
        return _backtrack(structure, template, seed, limit)
    memo, lock = searches
    key = (limit, structure_key(structure), structure_key(template.structure))
    with lock:
        found = memo.get(key)
        if found is None:
            found = memo[key] = _backtrack(structure, template, seed, limit)
    return found


def _backtrack(structure, template, seed, limit: int) -> HomSet:
    """The backtrack engine, from the assignment the constants force."""
    n = structure.size
    masks: list[int] = []
    if seed is None:
        return HomSet(n, template, SetFamily(base=n, sets=()))
    per_element = _compile(structure, template)

    # Static order: most-constrained element first.
    degree = [len(per_element[x]) for x in range(n)]
    order = sorted(range(n), key=lambda x: (-degree[x], x))

    h = seed

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
    rows = fam.point_rows
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
