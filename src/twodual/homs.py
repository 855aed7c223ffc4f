"""Enumeration of homomorphisms into two-element templates."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .caps import get_cap, guard
from .core import FiniteStructure, SetFamily, TwoTemplate, collisions
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
    """(tuple, allowed-set) constraints, grouped per universe element."""
    per_element = [[] for _ in range(structure.size)]
    flat = []
    for sym in structure.signature.symbols:
        allowed = template.structure.rel(sym.name)
        for t in structure.rel(sym.name):
            entry = (t, allowed)
            flat.append(entry)
            for e in set(t):
                per_element[e].append(entry)
    return flat, per_element


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
    limit: int | None = None,
    budget: float | None = None,
) -> HomSet:
    """All homomorphisms ``structure -> template``.

    ``method`` selects the engine: ``"backtrack"`` (default; constraint
    propagation over forced values) or ``"brute"`` (tries every one of the
    ``2^n`` maps; independent cross-check, capped).  ``limit`` bounds the
    number of homs (default: the ``hom-limit`` cap); ``budget`` is a
    wall-clock allowance in seconds.
    """
    if structure.signature != template.signature:
        raise SignatureMismatch("structure and template signatures differ")
    if limit is None:
        limit = get_cap("hom-limit")
    flat, per_element = _constraints(structure, template)
    seed = _seed_assignment(structure, template)

    n = structure.size
    masks: list[int] = []
    deadline = time.monotonic() + budget if budget is not None else None

    if method == "brute":
        guard("hom-brute-universe", n, "brute-force hom enumeration")
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
            for t, allowed in per_element[y]:
                free = sorted({e for e in t if h[e] < 0})
                if not free:
                    if tuple(h[e] for e in t) not in allowed:
                        return False
                    continue
                viable = []
                for combo in itertools.product((0, 1), repeat=len(free)):
                    fill = dict(zip(free, combo))
                    img = tuple(h[e] if h[e] >= 0 else fill[e] for e in t)
                    if img in allowed:
                        viable.append(combo)
                if not viable:
                    return False
                for pos, e in enumerate(free):
                    vals = {combo[pos] for combo in viable}
                    if len(vals) == 1:
                        h[e] = vals.pop()
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
    clashes = collisions(fam.point_row(x) for x in range(n))
    unreflected = []
    guard("induced-product", max(n, 2) ** max(
        (s.arity for s in structure.signature.symbols), default=1
    ), "relation reflection sweep")
    for sym in structure.signature.symbols:
        have = structure.rel(sym.name)
        allowed = template.structure.rel(sym.name)
        for t in itertools.product(range(n), repeat=sym.arity):
            if t in have:
                continue
            if all(
                tuple((m >> e) & 1 for e in t) in allowed for m in fam.sets
            ):
                unreflected.append((sym.name, t))
    return SeparationReport(
        separated=not clashes and not unreflected,
        collisions=clashes,
        unreflected=tuple(unreflected),
    )
