"""Duals, biduals, and evaluation maps for two-element templates.

The *dual* of a structure ``X`` under a template pair ``(D, E)`` is the set
``hom(X, D)`` equipped with the ``E``-structure it inherits from the power
``E^X`` (symbols act pointwise).  Evaluations ``x -> (f -> f(x))`` land in
the second dual; the reports below record whether that map is injective,
an embedding, and onto.

For the linkage view there is a parallel engine: :func:`oracle_from_homs`
turns a hom-set into an induced oracle (``s ⋈ t`` iff every hom that is 1
on all of ``s`` is 1 somewhere on ``t``), and :func:`ultimate_dual` sends a
linkage oracle to the oracle of its halfspace family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bea import BeaOracle, all_halfspaces, family_bea, pairs_of, require_axioms
from .caps import get_cap, guard
from .core import (
    FiniteStructure,
    SetFamily,
    TwoTemplate,
    bits,
    collisions,
    mask_of,
    op_kernel,
    preserved_tuples,
)
from .errors import (
    InputError,
    NotHomomorphism,
    NotSeparated,
    NotSurjective,
    S1Violation,
    UniverseTooLarge,
)
from .homs import HomSet, enumerate_homs, is_separated


@dataclass(frozen=True)
class DualStructure:
    """``hom(X, D)`` with its induced ``E``-structure."""

    carrier: HomSet
    induced: FiniteStructure
    template_d: TwoTemplate
    template_e: TwoTemplate

    @property
    def size(self) -> int:
        return self.induced.size


@dataclass(frozen=True)
class EvalReport:
    injective: bool
    embedding: bool
    surjective: bool
    collisions: tuple[tuple[int, int], ...]
    unreflected: tuple[tuple[str, tuple], ...]
    unrepresented: tuple[int, ...]
    sizes: tuple[int, int, int]

    @property
    def passed(self) -> bool:
        return self.injective and self.embedding and self.surjective

    def to_json(self) -> dict:
        ce = []
        for x, y in self.collisions:
            ce.append({"kind": "collision", "points": [x, y]})
        for sym, t in self.unreflected:
            ce.append({"kind": "unreflected", "symbol": sym, "tuple": list(t)})
        for mask in self.unrepresented:
            ce.append({"kind": "unrepresented", "hom": sorted(bits(mask))})
        n, m, k = self.sizes
        return {
            "pass": self.passed,
            "counterexamples": ce,
            "sizes": {"X": n, "Xstar": m, "Xbidual": k},
        }


def dual(
    structure: FiniteStructure,
    template_d: TwoTemplate,
    template_e: TwoTemplate,
    *,
    max_source: int | None = None,
) -> DualStructure:
    """The dual of ``structure`` under the pair ``(D, E)``.

    The carrier is ``hom(structure, D)``; the ``E``-structure is the one
    it inherits as a :func:`power_substructure` of ``E^structure``, so a
    carrier not closed under ``E`` raises :class:`S1Violation`.
    ``max_source`` overrides the ``dual-source`` cap for callers that
    knowingly dualize larger instances; the carrier is bounded by the
    ``dual-carrier`` cap.
    """
    n = structure.size
    src_cap = max_source if max_source is not None else get_cap("dual-source")
    if n > src_cap:
        raise UniverseTooLarge("dual-source", src_cap, n)
    carrier = enumerate_homs(structure, template_d)
    m = len(carrier.homs)
    car_cap = get_cap("dual-carrier")
    if m > car_cap:
        raise UniverseTooLarge("dual-carrier", car_cap, m)

    induced = power_substructure(carrier.homs.sets, n, template_e)
    return DualStructure(carrier, induced, template_d, template_e)


def power_substructure(
    masks, width: int, template: TwoTemplate
) -> FiniteStructure:
    """The substructure of the power ``template^width`` on ``masks``, each
    point given as the mask of the coordinates where it is 1.

    A relation holds on the tuples that every coordinate projection sends
    into the template's.  Operations are applied coordinatewise and
    constants are the constant masks; each must name a member (else
    :class:`S1Violation`, with the offending application as witness).
    """
    index = {mask: i for i, mask in enumerate(masks)}
    m = len(masks)
    full = (1 << width) - 1
    tuples: dict[str, frozenset] = {}
    for sym in template.signature.symbols:
        rel = template.structure.rel(sym.name)
        if sym.functional:
            op = op_kernel(rel)
            made = []
            arity = sym.arity - 1
            for args, arg_masks in zip(
                itertools.product(range(m), repeat=arity),
                itertools.product(masks, repeat=arity),
            ):
                out_mask = op(full, *arg_masks)
                if out_mask not in index:
                    raise S1Violation(sym.name, args, out_mask)
                made.append(args + (index[out_mask],))
            tuples[sym.name] = frozenset(made)
        else:
            guard(
                "induced-product",
                max(m, 2) ** sym.arity,
                f"induced relation {sym.name!r}",
            )
            made = preserved_tuples(masks, width, sym.arity, rel)
            tuples[sym.name] = frozenset(made)

    constants = {}
    for cname in template.signature.constants:
        cmask = full if template.structure.constants[cname] else 0
        if cmask not in index:
            raise S1Violation(cname, (), cmask)
        constants[cname] = index[cmask]
    return FiniteStructure(template.signature, m, tuples, constants)


def evaluation_rows(carrier: HomSet) -> list[int]:
    """``eva_x`` for every source point, as masks over carrier indices."""
    return list(carrier.homs.point_rows)


def bidual_and_evaluate(
    structure: FiniteStructure,
    template_d: TwoTemplate,
    template_e: TwoTemplate,
    *,
    max_source: int | None = None,
) -> tuple[DualStructure, HomSet, EvalReport]:
    """Dualize twice and audit the evaluation map ``x -> eva_x``.

    Returns the dual, the second-dual hom-set (each member a mask over
    carrier indices), and the report: injectivity, embedding (injective
    and every non-tuple of the source reflected by some hom), and
    surjectivity onto the second dual.
    """
    ds = dual(structure, template_d, template_e, max_source=max_source)
    bidual = enumerate_homs(ds.induced, template_e)
    rows = evaluation_rows(ds.carrier)
    members = bidual.homs.member_set
    for x, row in enumerate(rows):
        if row not in members:
            raise AssertionError(
                f"evaluation at {x} is not a second-dual member; "
                "the induced structure is out of step"
            )

    # The separation report reads the same point rows of the carrier.
    sep = is_separated(structure, template_d, homset=ds.carrier)

    row_set = set(rows)
    unrepresented = tuple(m for m in bidual.homs.sets if m not in row_set)

    report = EvalReport(
        injective=not sep.collisions,
        embedding=sep.separated,
        surjective=not unrepresented,
        collisions=sep.collisions,
        unreflected=sep.unreflected,
        unrepresented=unrepresented,
        sizes=(structure.size, ds.size, len(bidual.homs)),
    )
    return ds, bidual, report


@dataclass(frozen=True)
class PairReport:
    passed: bool
    entries: tuple[dict, ...]

    def to_json(self) -> dict:
        return {"pass": self.passed, "entries": list(self.entries)}


def check_semi_dual(
    template_d: TwoTemplate,
    template_e: TwoTemplate,
    instances,
) -> PairReport:
    """Audit the semi-duality conditions over a batch of instances.

    Every instance must be separated by ``D`` (else :class:`NotSeparated`).
    Per instance we record whether the dual carrier supports the full
    ``E``-structure and whether every second-dual member is an evaluation.
    """
    entries = []
    ok = True
    for i, inst in enumerate(instances):
        sep = is_separated(inst, template_d)
        if not sep.separated:
            raise NotSeparated(sep)
        entry: dict = {"instance": i, "size": inst.size}
        try:
            _, _, report = bidual_and_evaluate(inst, template_d, template_e)
        except S1Violation as exc:
            entry["closed"] = False
            entry["witness"] = {"symbol": exc.symbol, "args": list(exc.point)}
            entry["pass"] = False
            ok = False
            entries.append(entry)
            continue
        entry["closed"] = True
        entry["surjective"] = report.surjective
        entry["sizes"] = report.to_json()["sizes"]
        entry["pass"] = report.surjective
        if not report.surjective:
            entry["unrepresented"] = len(report.unrepresented)
            ok = False
        entries.append(entry)
    return PairReport(ok, tuple(entries))


def oracle_from_homs(
    structure: FiniteStructure, template: TwoTemplate
) -> BeaOracle:
    """The linkage oracle induced on a structure by its homs into ``D``:
    ``s ⋈ t`` iff no hom is 1 everywhere on ``s`` and 0 everywhere on ``t``.

    Constants of ``D`` valued 0 / 1 designate the matching source elements
    as the oracle's zero / one.
    """
    hs = enumerate_homs(structure, template)
    zero = one = None
    for cname, v in template.structure.constants.items():
        x = structure.constants.get(cname)
        if x is None:
            raise InputError(f"structure lacks a value for constant {cname!r}")
        if v == 0 and zero is None:
            zero = x
        if v == 1 and one is None:
            one = x
    return BeaOracle.from_halfspaces(
        structure.size, hs.homs.sets, zero=zero, one=one
    )


@dataclass(frozen=True)
class EquivalenceReport:
    equal: bool
    only_homs: tuple[int, ...]
    only_halfspaces: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "pass": self.equal,
            "only_homs": [sorted(bits(m)) for m in self.only_homs],
            "only_halfspaces": [sorted(bits(m)) for m in self.only_halfspaces],
        }


def hom_equivalence(
    structure: FiniteStructure, template: TwoTemplate
) -> EquivalenceReport:
    """Homs into the template versus halfspaces of the induced oracle.

    The halfspace side is computed by the brute 2^n sweep so the
    comparison does not reuse the hom family it is being checked against.
    """
    sep = is_separated(structure, template)
    if not sep.separated:
        raise NotSeparated(sep)
    oracle = oracle_from_homs(structure, template)
    homs = set(enumerate_homs(structure, template).homs.sets)
    halfs = set(all_halfspaces(oracle, method="brute").sets)
    return EquivalenceReport(
        equal=homs == halfs,
        only_homs=tuple(sorted(homs - halfs)),
        only_halfspaces=tuple(sorted(halfs - homs)),
    )


@dataclass(frozen=True)
class UltimateDual:
    """Halfspace family of an oracle plus the dual oracle living on it."""

    carrier: SetFamily
    oracle: BeaOracle


def ultimate_dual(oracle: BeaOracle, *, assume_axioms: bool = False) -> UltimateDual:
    """Dualize a linkage oracle: the new universe is its halfspace family,
    linked by the induced covering rule.

    Constants follow the self-strengthening pattern: the dual gets a zero
    exactly when the source has no one, and a one exactly when the source
    has no zero — designated on the empty / full member when present.
    ``assume_axioms=True`` skips the core-axiom precondition check for
    callers that have already established it.
    """
    if not assume_axioms:
        require_axioms(oracle)
    halfs = all_halfspaces(oracle)
    grant_zero = oracle.one_elem is None
    grant_one = oracle.zero_elem is None
    fam = SetFamily(
        base=oracle.universe,
        sets=halfs.sets,
        has_empty_as_zero=grant_zero and 0 in halfs.member_set,
        has_base_as_one=grant_one and oracle.full_mask in halfs.member_set,
    )
    return UltimateDual(fam, family_bea(fam))


def ultimate_bidual_report(oracle: BeaOracle, ud: UltimateDual) -> dict:
    """Dualize ``ud = ultimate_dual(oracle)`` once more and audit the
    evaluation for a linkage oracle.

    The evaluation sends a point to the set of halfspaces containing it;
    the report checks injectivity, surjectivity onto the second dual's
    universe, and that linkage is transported exactly (swept over all
    subset pairs, capped).  The second dual's halfspaces, pulled back
    along the evaluation, induce the transported linkage on the source.
    """
    n = oracle.universe
    second = all_halfspaces(ud.oracle)
    rows = ud.carrier.point_rows
    members = second.member_set
    for x, row in enumerate(rows):
        if row not in members:
            raise AssertionError("evaluation misses the second dual")

    row_set = set(rows)
    counterexamples = [
        {"kind": "collision", "points": [x, y]} for x, y in collisions(rows)
    ]
    counterexamples += [
        {"kind": "unrepresented", "halfspaces": sorted(bits(m))}
        for m in second.sets
        if m not in row_set
    ]

    guard("pair-axiom-sweep", n, "bidual linkage transport sweep")
    bifam = SetFamily(base=len(ud.carrier.sets), sets=second.sets)
    evaluated = [bifam.index[row] for row in rows]
    pulled = BeaOracle.from_halfspaces(
        n,
        [
            mask_of(x for x, i in enumerate(evaluated) if h >> i & 1)
            for h in family_bea(bifam).halfspaces
        ],
    )
    counterexamples += [
        {"kind": "linkage", "s": sorted(bits(s)), "t": sorted(bits(t))}
        for s, t in pairs_of(oracle.linkage ^ pulled.linkage, n)
    ]
    return {
        "pass": not counterexamples,
        "counterexamples": counterexamples,
        "sizes": {
            "X": n,
            "Xstar": len(ud.carrier.sets),
            "Xbidual": len(second.sets),
        },
    }


@dataclass(frozen=True)
class SurjectionReport:
    pullback: tuple[int, ...]
    injective: bool
    reflects: bool
    witnesses: tuple

    @property
    def embedding(self) -> bool:
        return self.injective and self.reflects


def dual_of_surjection(
    fmap,
    source: FiniteStructure,
    target: FiniteStructure,
    template: TwoTemplate,
) -> SurjectionReport:
    """Pull back homs along a surjective homomorphism and audit the result.

    ``fmap`` is the underlying map as a sequence (``fmap[x]`` in the
    target).  Composition lands in the source's hom-set; the report
    records injectivity of the pullback and reflection of linkage between
    the induced dual oracles, swept over side sets of at most two
    elements.
    """
    fmap = tuple(fmap)
    if len(fmap) != source.size:
        raise InputError("map length disagrees with the source size")
    if any(not 0 <= v < target.size for v in fmap):
        raise InputError("map value out of range")
    missing = sorted(set(range(target.size)) - set(fmap))
    if missing:
        raise NotSurjective(missing)
    if source.signature != target.signature:
        raise InputError("source and target signatures differ")
    for sym in source.signature.symbols:
        rel_t = target.rel(sym.name)
        for t in source.rel(sym.name):
            if tuple(fmap[i] for i in t) not in rel_t:
                raise NotHomomorphism(sym.name, t)
    for cname, x in source.constants.items():
        if fmap[x] != target.constants.get(cname):
            raise NotHomomorphism(cname, (x,))

    src_homs = enumerate_homs(source, template)
    tgt_homs = enumerate_homs(target, template)
    src_members = src_homs.homs.member_set

    pullback = []
    for ymask in tgt_homs.homs.sets:
        xmask = mask_of(x for x in range(source.size) if ymask >> fmap[x] & 1)
        if xmask not in src_members:
            raise AssertionError("pullback left the source hom-set")
        pullback.append(xmask)

    injective = len(set(pullback)) == len(pullback)

    src_index = src_homs.homs.index
    tgt_count = len(tgt_homs.homs)
    image_index = [src_index[m] for m in pullback]

    def side_masks():
        out = [0]
        for size in (1, 2):
            for combo in itertools.combinations(range(tgt_count), size):
                out.append(sum(1 << i for i in combo))
        return out

    # The dual linkage lives on hom indices; transport sides through the
    # pullback and compare.
    src_dual = family_bea(src_homs.homs)
    tgt_dual = family_bea(tgt_homs.homs)
    image = {s: mask_of(image_index[i] for i in bits(s)) for s in side_masks()}
    witnesses = tuple(
        (s, t)
        for s in image
        for t in image
        if tgt_dual.query(s, t) != src_dual.query(image[s], image[t])
    )
    return SurjectionReport(
        pullback=tuple(pullback),
        injective=injective,
        reflects=not witnesses,
        witnesses=witnesses,
    )
