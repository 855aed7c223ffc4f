"""Command-line front end.

Subcommands
-----------
``check-axioms``   check linkage axioms on a document, exit 1 on failure
``dual``           dualize a structure (against a template) or a linkage
``reflexivity``    evaluate the second dual against the original
``separate``       produce a halfspace splitting a non-linked pair
``verify``         run one of the bundled verification suites
``gen``            write a seeded corpus of instances as JSON lines

Exit codes: 0 success / property verified, 1 counterexample found (a
report is still emitted), 2 malformed input or usage, 3 a size cap or
the hom limit was exceeded.

All JSON output is deterministic: keys sorted, compact separators, no
machine-dependent content.  ``--threads`` only parallelizes independent
checks inside ``verify`` and never changes what is printed.  ``verify``
refuses (exit 2) a ``--max-size``, ``--samples`` or ``--seed`` that its
suite does not read.

The parser is built once per process and reused by every ``main`` call;
each call still parses into a fresh namespace.  The instance generators
and suite verifiers load on the first ``verify`` or ``gen``, so the
document subcommands never compile them.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import instances, jsonio
from .bea import BeaOracle, check_axioms, family_bea, separate
from .caps import check_environment
from .convexity import BiConvexity
from .core import FiniteStructure, SetFamily, TwoTemplate, bits
from .duality import bidual_and_evaluate, dual, ultimate_bidual_report, ultimate_dual
from .errors import (
    AxiomsFail,
    DualityError,
    DuplicateComplement,
    HomLimitExceeded,
    InputError,
    NotNormal,
    NotSeparated,
    PaschFailure,
    PreconditionViolated,
    RoundTripFailure,
    S1Violation,
    UniverseTooLarge,
)
from .instances import suite_names, template, template_names

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_CAP = 3

_CAP_ERRORS = (UniverseTooLarge, HomLimitExceeded)
_FINDING_ERRORS = (
    AxiomsFail,
    PaschFailure,
    PreconditionViolated,
    NotSeparated,
    S1Violation,
    NotNormal,
    RoundTripFailure,
    DuplicateComplement,
)

GEN_CLASSES = (
    "poset",
    "semilattice",
    "dlattice",
    "family",
    "betweenness",
    "biconvexity",
)


# ------------------------------------------------------------- helpers

def _emit(args, doc: dict, text: str) -> None:
    if getattr(args, "format", "text") == "json":
        print(jsonio.dumps(doc))
    else:
        print(text)


def _as_oracle(obj) -> BeaOracle:
    if isinstance(obj, BeaOracle):
        return obj
    if isinstance(obj, SetFamily):
        return family_bea(obj)
    raise InputError(
        f"expected a linkage or family document, got {type(obj).__name__}"
    )


def _finite_template(name: str) -> TwoTemplate:
    """A named catalog template, or a two-element structure document."""
    if os.path.exists(name):
        obj = jsonio.load_path(name)
        if not isinstance(obj, FiniteStructure):
            raise InputError(f"{name} is not a structure document")
        if obj.size != 2:
            raise InputError("template structures live on two elements")
        return TwoTemplate(obj)
    return template(name)


def _count(raw: str) -> int:
    """An argparse type for sizes and counts: a non-negative integer, so
    that a negative value exits 2 instead of checking nothing."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{raw!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _mask_arg(raw: str, universe: int, what: str) -> int:
    """Comma-separated element indices -> bit mask; empty string is ∅."""
    mask = 0
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            i = int(chunk)
        except ValueError:
            raise InputError(f"--{what}: {chunk!r} is not an index") from None
        if i < 0 or i >= universe:
            raise InputError(
                f"--{what}: index {i} outside universe of size {universe}"
            )
        mask |= 1 << i
    return mask


def _counterexample_lines(items) -> str:
    lines = []
    for ce in items:
        kind = ce.get("kind", "?")
        rest = ", ".join(
            f"{k}={v}" for k, v in sorted(ce.items()) if k != "kind"
        )
        lines.append(f"  {kind}: {rest}")
    return "\n".join(lines)


def _summary_lines(value, indent: str = "  ") -> list[str]:
    """Stable, shallow text rendering for verify reports."""
    lines = []
    if isinstance(value, dict):
        for key in sorted(value):
            if key in ("entries", "witnesses", "counterexamples"):
                items = value[key]
                if isinstance(items, list):
                    bad = sum(
                        1
                        for e in items
                        if isinstance(e, dict) and e.get("pass") is False
                    )
                    lines.append(f"{indent}{key}: {len(items)} ({bad} failing)")
                continue
            sub = value[key]
            if isinstance(sub, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.extend(_summary_lines(sub, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {sub}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            if isinstance(item, dict):
                tag = item.get("template") or item.get("n") or i
                status = item.get("pass")
                flag = "pass" if status else ("FAIL" if status is False else "-")
                lines.append(f"{indent}[{tag}] {flag}")
            else:
                lines.append(f"{indent}{item}")
    return lines


# ------------------------------------------------------------ commands

def cmd_check_axioms(args) -> int:
    oracle = _as_oracle(jsonio.load_path(args.infile))
    names = None
    if args.axioms:
        names = [a.strip() for a in args.axioms.split(",") if a.strip()]
        if not names:
            raise InputError("--axioms given but names are empty")
    reports = check_axioms(oracle, names)
    ok = all(r.passed for r in reports.values())
    doc = {
        "command": "check-axioms",
        "pass": ok,
        "axioms": {name: rep.to_json() for name, rep in reports.items()},
    }
    lines = []
    for name in sorted(reports):
        rep = reports[name]
        if rep.passed:
            lines.append(f"{name}: pass")
        else:
            wit = (
                "" if rep.witness is None
                else " witness=" + str([sorted(bits(m)) for m in rep.witness])
            )
            note = f" ({rep.note})" if rep.note else ""
            lines.append(f"{name}: FAIL{wit}{note}")
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


def cmd_dual(args) -> int:
    obj = jsonio.load_path(args.infile)
    if isinstance(obj, FiniteStructure):
        if not args.template:
            raise InputError("dualizing a structure needs --template")
        d = _finite_template(args.template)
        e = _finite_template(args.e_template) if args.e_template else d
        ds = dual(obj, d, e)
        document = jsonio.structure_to_json(ds.induced)
        carrier = [sorted(bits(m)) for m in ds.carrier.homs.sets]
        doc = {
            "command": "dual",
            "dual": document,
            "carrier": carrier,
            "sizes": {"X": obj.size, "Xstar": ds.size},
        }
        text = "\n".join(
            [f"dual has {ds.size} points (homs of a size-{obj.size} structure)"]
            + [f"  {i}: {mask}" for i, mask in enumerate(carrier)]
        )
    else:
        oracle = _as_oracle(obj)
        ud = ultimate_dual(oracle)
        document = jsonio.bea_to_json(ud.oracle)
        doc = {
            "command": "dual",
            "dual": document,
            "carrier": jsonio.family_to_json(ud.carrier),
            "sizes": {"X": oracle.universe, "Xstar": len(ud.carrier.sets)},
        }
        text = "\n".join(
            [
                f"dual linkage on {len(ud.carrier.sets)} halfspaces "
                f"(universe of size {oracle.universe})"
            ]
            + [
                f"  {i}: {sorted(bits(m))}"
                for i, m in enumerate(ud.carrier.sets)
            ]
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(jsonio.dumps(document) + "\n")
    _emit(args, doc, text)
    return EXIT_OK


def cmd_reflexivity(args) -> int:
    obj = jsonio.load_path(args.infile)
    if isinstance(obj, FiniteStructure):
        if not args.template:
            raise InputError("evaluating a structure needs --template")
        d = _finite_template(args.template)
        e = _finite_template(args.e_template) if args.e_template else d
        _, _, rep = bidual_and_evaluate(obj, d, e)
        doc = {"command": "reflexivity", **rep.to_json()}
        ok = rep.passed
        sizes = doc["sizes"]
        text = (
            f"evaluation {'is' if ok else 'is NOT'} an isomorphism: "
            f"|X|={sizes['X']} |X*|={sizes['Xstar']} |X**|={sizes['Xbidual']}"
        )
        if not ok:
            text += "\n" + _counterexample_lines(doc["counterexamples"])
    else:
        oracle = _as_oracle(obj)
        rep = ultimate_bidual_report(oracle, ultimate_dual(oracle))
        doc = {"command": "reflexivity", **rep}
        ok = bool(rep["pass"])
        text = (
            f"second dual {'matches' if ok else 'does NOT match'} the input "
            f"({rep['sizes']['Xstar']} halfspaces)"
        )
        if not ok:
            text += "\n" + _counterexample_lines(rep["counterexamples"])
    _emit(args, doc, text)
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


def cmd_separate(args) -> int:
    oracle = _as_oracle(jsonio.load_path(args.infile))
    a = _mask_arg(args.a, oracle.universe, "a")
    b = _mask_arg(args.b, oracle.universe, "b")
    try:
        u = separate(oracle, a, b)
    except PreconditionViolated as exc:
        doc = {
            "command": "separate",
            "separated": False,
            "reason": str(exc),
        }
        _emit(args, doc, f"cannot separate: {exc}")
        return EXIT_COUNTEREXAMPLE
    except PaschFailure as exc:
        doc = {
            "command": "separate",
            "separated": False,
            "pasch_failure": {
                "message": str(exc),
                "stuck_point": exc.stuck_point,
                "witness": None
                if exc.witness is None
                else [sorted(bits(m)) for m in exc.witness],
            },
        }
        _emit(args, doc, f"separation got stuck: {exc}")
        return EXIT_COUNTEREXAMPLE
    doc = {
        "command": "separate",
        "separated": True,
        "halfspace": sorted(bits(u)),
    }
    _emit(args, doc, f"U = {sorted(bits(u))}")
    return EXIT_OK


def cmd_verify(args) -> int:
    report = instances.run_suite(
        args.suite,
        max_size=args.max_size,
        samples=args.samples,
        seed=args.seed,
        threads=args.threads,
    )
    ok = bool(report.get("pass"))
    head = f"suite {args.suite}: {'pass' if ok else 'FAIL'}"
    text = "\n".join([head] + _summary_lines(report))
    _emit(args, report, text)
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


def cmd_gen(args) -> int:
    size, seed, count = args.size, args.seed, args.count
    cls = args.gen_class
    if cls == "poset":
        objs = instances.gen_posets(size, "random", seed=seed, count=count)
    elif cls == "semilattice":
        objs = instances.gen_semilattices(size, "random", seed=seed, count=count)
    elif cls == "dlattice":
        objs = instances.gen_distributive_lattices(
            size, "random", seed=seed, count=count
        )
    elif cls == "family":
        # Clamped so that gen_families, not the shift, refuses a size below 1.
        members = min(2 * size, 1 << min(max(size, 0), 16))
        objs = instances.gen_families(size, members, seed, count)
    elif cls == "betweenness":
        objs = instances.gen_betweenness(size, "random", seed=seed, count=count)
    elif cls == "biconvexity":
        groups = instances.gen_biconvexity(max_n=size, seed=seed)
        objs = groups["plain"] + groups["symmetric"]
    else:  # argparse choices make this unreachable
        raise InputError(f"unknown class {cls!r}")
    if args.out:
        jsonio.write_corpus(args.out, objs, seed=seed)
        _emit(
            args,
            {"command": "gen", "written": len(objs), "path": args.out},
            f"wrote {len(objs)} instances to {args.out}",
        )
    else:
        for line in jsonio.corpus_lines(objs, seed=seed):
            print(line)
    return EXIT_OK


# -------------------------------------------------------------- parser

@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared after it.  Every
    default is static, so parsing leaves no state behind; callers must not
    add to or change the returned parser."""
    parser = argparse.ArgumentParser(
        prog="twodual",
        description="Finite two-element dualities: duals, linkages, "
        "halfspace separation, verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--format",
            choices=("json", "text"),
            default="text",
            help="report format on stdout (default: text)",
        )

    p = sub.add_parser("check-axioms", help="check linkage axioms")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument(
        "--axioms",
        default="",
        help="comma-separated names (default: core set plus constants)",
    )
    common(p)
    p.set_defaults(func=cmd_check_axioms)

    p = sub.add_parser("dual", help="dualize a structure or linkage")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument(
        "--template",
        help="catalog name or two-element structure document "
        f"(catalog: {', '.join(template_names())})",
    )
    p.add_argument("--e-template", dest="e_template")
    p.add_argument("--out", metavar="FILE", help="write the dual document here")
    common(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser(
        "reflexivity", help="compare the second dual with the input"
    )
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--template")
    p.add_argument("--e-template", dest="e_template")
    common(p)
    p.set_defaults(func=cmd_reflexivity)

    p = sub.add_parser("separate", help="split a non-linked pair by a halfspace")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--a", required=True, help="comma-separated indices ('' = ∅)")
    p.add_argument("--b", required=True, help="comma-separated indices ('' = ∅)")
    common(p)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=suite_names())
    p.add_argument("--max-size", dest="max_size", type=_count)
    p.add_argument("--samples", type=_count)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="parallel workers (never affects the report)",
    )
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a seeded instance corpus")
    p.add_argument(
        "--class",
        dest="gen_class",
        required=True,
        choices=GEN_CLASSES,
    )
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_count, default=10)
    p.add_argument("--out", metavar="FILE", help="default: JSON lines on stdout")
    common(p)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        check_environment()
        return args.func(args)
    except _CAP_ERRORS as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except _FINDING_ERRORS as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except DualityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
