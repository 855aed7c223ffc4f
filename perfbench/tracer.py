"""Per-layer tracing of `twodual` from outside the package.

`Tracer.install()` wraps the package's public functions in every module
that binds them (callers import names directly, e.g. `from ..bea import
check_axiom`, so patching the defining module alone would miss them).
Each wrapped call records a span (id, parent, name, wall start and end,
CPU seconds, thread) in memory;
the hottest entry points (`BeaOracle.query`, `SplitMix64.next_u64` /
`.mask`, `core.bits`) only bump counters.  Spans opened inside
`ordered_map` worker threads are parented to the `ordered_map` span, and
each item's work is a span named after the verifier that called
`ordered_map` (`<verifier>.item`), on whichever thread runs it, so a
verifier's per-item closures count as verifier self time.

`Tracer.metrics(passes, pasch_pairs)` turns spans and counters into the
per-layer metrics, per pass.  A span's self time is its duration minus
that of its child spans, both on the CPU clock of the thread that ran
them: the `ordered_map` pool is GIL-bound, and on the wall clock a span in
one worker would also count the time it waited for the other.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

# Caps that the package passes to `caps.guard`.
GUARDED_CAPS = (
    "biconv-table",
    "family-base",
    "halfspace-brute",
    "halfspace-universe",
    "hom-brute-universe",
    "induced-product",
    "normal-universe",
    "oracle-table",
    "pair-axiom-sweep",
    "pasch-sweep",
)

# module -> public functions that get a span named "<layer>.<function>",
# the layer being the module path below the package
SPANNED = {
    "twodual.homs": ("enumerate_homs", "is_separated"),
    "twodual.bea": (
        "family_bea", "check_axiom", "check_axioms", "require_axioms",
        "associated_order", "complement", "is_halfspace", "all_halfspaces",
        "separate", "oracle_to_table",
    ),
    "twodual.duality": (
        "dual", "evaluation_rows", "bidual_and_evaluate", "check_semi_dual",
        "oracle_from_homs", "hom_equivalence", "ultimate_dual",
        "ultimate_bidual_report", "dual_of_surjection",
    ),
    "twodual.convexity": (
        "conv_hull", "check_normal", "bea_from_biconvexity",
        "check_pasch_convex", "biconvexity_from_bea", "check_complemented",
        "verify_convexity_duality",
    ),
    "twodual.instances.generators": (
        "gen_posets", "gen_semilattices", "gen_distributive_lattices",
        "gen_families", "gen_betweenness", "gen_biconvexity",
        "gen_separated_instances", "random_oracle_instances",
    ),
    "twodual.instances.verifiers": (
        "verify_priestley", "verify_stone", "verify_hms", "betweenness_axioms",
        "verify_betweenness", "make_transit_fixture", "verify_pasch",
        "verify_ultimate", "verify_biconvex", "verify_hom_equivalence",
        "run_suite",
    ),
    "twodual.jsonio": ("dumps", "load_path"),
    "twodual.cli": ("build_parser", "main"),
}

# Group spans reported as one layer total.
GENERATORS = "instances.generators"
VERIFIERS = "instances.verifiers"
PASCH_SPAN = "instances.verifiers.verify_pasch"
ORDERED_MAP = "instances.ordered_map"
# bea's backtracking halfspace search, the kernel behind
# `all_halfspaces(method="backtrack")` and, for tables, of "auto".
BACKTRACK = "bea.all_halfspaces.backtrack"


def _span_name(layer: str, fn_name: str):
    """Name of the span for one call; some encode their arguments."""
    if fn_name == "make_transit_fixture":
        return lambda a, k: GENERATORS + ".make_transit_fixture"
    base = f"{layer}.{fn_name}"
    if fn_name == "check_axiom":
        return lambda a, k: f"{base}.{k.get('axiom', a[1] if len(a) > 1 else '?')}.{a[0].realization}"
    if fn_name == "all_halfspaces":
        # The method as given; what "auto" resolves to shows as its child
        # span (`bea.all_halfspaces.backtrack`, see BACKTRACK).
        return lambda a, k: f"{base}.{k.get('method', 'auto')}"
    return lambda a, k: base


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, wall start, wall end, cpu, thread)
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._thread_counts = []  # one counter dict per thread
        self._lock = threading.Lock()
        self._undo = []
        self.threads_max = 0
        self.cap_max = dict.fromkeys(GUARDED_CAPS, 0)
        self.cap_hits = 0

    # ---------------------------------------------------- per-thread state

    def _state(self):
        tls = self._tls
        try:
            return tls.stack, tls.counts
        except AttributeError:
            tls.stack = []
            tls.counts = {}
            tls.pasch = False
            with self._lock:
                self._thread_counts.append(tls.counts)
            return tls.stack, tls.counts

    def _count(self, key: str, by: int = 1) -> None:
        counts = self._state()[1]
        counts[key] = counts.get(key, 0) + by

    # ------------------------------------------------------------ wrappers

    def _spanned(self, fn, name_of, after=None):
        spans, ids, state = self.spans, self._ids, self._state
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = state()[0]
            name = name_of(args, kwargs)
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            stack.append((sid, name))
            start = time.perf_counter()
            cpu = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = time.thread_time() - cpu
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, cpu, get_ident()))
            if after is not None:
                after(name, args, result)
            return result

        return wrapper

    def _counted(self, fn, key: str, also_pasch: str | None = None):
        tls, state = self._tls, self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = state()[1]
            counts[key] = counts.get(key, 0) + 1
            if also_pasch is not None and tls.pasch:
                counts[also_pasch] = counts.get(also_pasch, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _ordered_map(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(work, items, threads=1):
            stack = tracer._state()[0]
            caller = stack[-1][1] if stack else VERIFIERS + ".ordered_map"
            in_pasch = caller == PASCH_SPAN
            with tracer._lock:
                tracer.threads_max = max(tracer.threads_max, threads)
            owner = threading.get_ident()
            holder = {}
            item_span = tracer._spanned(work, lambda a, k: caller + ".item")

            def child(item):
                tracer._state()
                tls = tracer._tls
                saved = tls.stack, tls.pasch
                if threading.get_ident() != owner:
                    tls.stack = [holder["frame"]]
                tls.pasch = in_pasch
                try:
                    return item_span(item)
                finally:
                    tls.stack, tls.pasch = saved

            def run(_items, _threads):
                holder["frame"] = tracer._state()[0][-1]
                return fn(child, _items, _threads)

            spanned = tracer._spanned(run, lambda a, k: ORDERED_MAP)
            return spanned(items, threads)

        return wrapper

    def _guard(self, fn):
        from twodual.errors import UniverseTooLarge

        tracer = self

        @functools.wraps(fn)
        def wrapper(name, requested, detail=""):
            with tracer._lock:
                if requested > tracer.cap_max.get(name, 0):
                    tracer.cap_max[name] = requested
            try:
                return fn(name, requested, detail)
            except UniverseTooLarge:
                with tracer._lock:
                    tracer.cap_hits += 1
                raise

        return wrapper

    def _after(self, name: str, args, result) -> None:
        if name == "homs.enumerate_homs":
            self._count("homs", len(result.homs))
        elif name == "bea.check_axiom.i3.table":
            self._count("i3.table.pairs", len(args[0].pairs))
        elif name in ("duality.ultimate_bidual_report", "convexity.check_pasch_convex"):
            n = args[0].universe
            self._count(name + ".pairs_swept", 1 << (2 * n))
        elif name == "jsonio.dumps":
            self._count("jsonio.dumps.bytes", len(result))

    # ------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every traced function wherever the package binds it."""
        from twodual import bea, caps, core, rng
        from twodual.instances import verifiers

        replace = {}
        for modname, names in SPANNED.items():
            mod = sys.modules[modname]
            for fn_name in names:
                orig = getattr(mod, fn_name)
                after = self._after if fn_name in (
                    "enumerate_homs", "check_axiom", "ultimate_bidual_report",
                    "check_pasch_convex", "dumps",
                ) else None
                replace[id(orig)] = (orig, self._spanned(orig, _span_name(modname.removeprefix("twodual."), fn_name), after))
        for orig, wrapped in (
            (bea._halfspaces_backtrack, self._spanned(bea._halfspaces_backtrack, lambda a, k: BACKTRACK)),
            (verifiers.ordered_map, self._ordered_map(verifiers.ordered_map)),
            (caps.guard, self._guard(caps.guard)),
            (core.bits, self._counted(core.bits, "core.bits.calls")),
        ):
            replace[id(orig)] = (orig, wrapped)
        for name in [m for m in sys.modules if m == "twodual" or m.startswith("twodual.")]:
            mod = sys.modules[name]
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, value))
        for cls, attr, key, pasch in (
            (bea.BeaOracle, "query", "bea.query.calls", None),
            (rng.SplitMix64, "next_u64", "rng.next_u64.calls", None),
            (rng.SplitMix64, "mask", "rng.mask.calls", "pasch.mask.calls"),
        ):
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._counted(orig, key, pasch))
            self._undo.append((cls, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # ------------------------------------------------------------- metrics

    def counts(self) -> dict:
        total = {}
        for counts in self._thread_counts:
            for key, value in counts.items():
                total[key] = total.get(key, 0) + value
        return total

    def self_times(self) -> dict:
        """name -> [calls, self CPU seconds, wall seconds]."""
        child_cpu = {}
        for _sid, parent, _name, _start, _end, cpu, tid in self.spans:
            child_cpu[parent, tid] = child_cpu.get((parent, tid), 0.0) + cpu
        out = {}
        for sid, _parent, name, start, end, cpu, tid in self.spans:
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += cpu - child_cpu.get((sid, tid), 0.0)
            row[2] += end - start
        return out

    def metrics(self, passes: int, pasch_pairs: int) -> dict:
        """Per-layer metrics per pass: name -> (value, unit)."""
        st = self.self_times()
        counts = self.counts()

        def calls(name):
            return st.get(name, (0, 0.0, 0.0))[0] / passes

        def self_s(*names, prefix=None):
            total = sum(st.get(n, (0, 0.0))[1] for n in names)
            if prefix is not None:
                total += sum(row[1] for n, row in st.items() if n.startswith(prefix))
            return total / passes

        def count(key):
            return counts.get(key, 0) / passes

        homs = count("homs")
        hom_self = self_s("homs.enumerate_homs")
        mask_calls = counts.get("pasch.mask.calls", 0)
        m = {
            "homs.enumerate_homs.calls": (calls("homs.enumerate_homs"), "count"),
            "homs.enumerate_homs.self_s": (hom_self, "s"),
            "homs.enumerate_homs.homs": (homs, "count"),
            "homs.enumerate_homs.us_per_hom": (hom_self / homs * 1e6 if homs else 0.0, "us"),
            "homs.is_separated.self_s": (self_s("homs.is_separated"), "s"),
            "bea.query.calls": (count("bea.query.calls"), "count"),
            "bea.check_axiom.i3.table.calls": (calls("bea.check_axiom.i3.table"), "count"),
            "bea.check_axiom.i3.table.self_s": (self_s("bea.check_axiom.i3.table"), "s"),
            "bea.check_axiom.i3.table.pairs": (count("i3.table.pairs"), "count"),
            "bea.check_axiom.i1.table.self_s": (self_s("bea.check_axiom.i1.table"), "s"),
            "bea.check_axiom.i4.table.self_s": (self_s("bea.check_axiom.i4.table"), "s"),
            "bea.check_axiom.i4.induced.self_s": (self_s("bea.check_axiom.i4.induced"), "s"),
            "bea.check_axiom.self_s": (self_s(prefix="bea.check_axiom."), "s"),
            "bea.separate.calls": (calls("bea.separate"), "count"),
            "bea.separate.self_s": (self_s("bea.separate"), "s"),
            "bea.is_halfspace.self_s": (self_s("bea.is_halfspace"), "s"),
            "bea.all_halfspaces.backtrack.self_s": (self_s("bea.all_halfspaces.backtrack"), "s"),
            "bea.all_halfspaces.brute.self_s": (self_s("bea.all_halfspaces.brute"), "s"),
            "bea.oracle_to_table.self_s": (self_s("bea.oracle_to_table"), "s"),
            "duality.dual.self_s": (self_s("duality.dual"), "s"),
            "duality.bidual_and_evaluate.self_s": (self_s("duality.bidual_and_evaluate"), "s"),
            "duality.ultimate_dual.self_s": (self_s("duality.ultimate_dual"), "s"),
            "duality.ultimate_bidual_report.self_s": (self_s("duality.ultimate_bidual_report"), "s"),
            "duality.ultimate_bidual_report.pairs_swept": (
                count("duality.ultimate_bidual_report.pairs_swept"), "count"),
            "convexity.check_pasch_convex.self_s": (self_s("convexity.check_pasch_convex"), "s"),
            "convexity.check_pasch_convex.pairs_swept": (
                count("convexity.check_pasch_convex.pairs_swept"), "count"),
            "convexity.bea_from_biconvexity.self_s": (self_s("convexity.bea_from_biconvexity"), "s"),
            "convexity.biconvexity_from_bea.self_s": (self_s("convexity.biconvexity_from_bea"), "s"),
            "convexity.check_complemented.self_s": (self_s("convexity.check_complemented"), "s"),
            "convexity.check_normal.self_s": (self_s("convexity.check_normal"), "s"),
            "instances.generators.self_s": (self_s(prefix=GENERATORS + "."), "s"),
            "instances.verifiers.self_s": (self_s(prefix=VERIFIERS + "."), "s"),
            "instances.ordered_map.wall_s": (st.get(ORDERED_MAP, (0, 0.0, 0.0))[2] / passes, "s"),
            "instances.ordered_map.threads": (self.threads_max, "count"),
            "instances.pasch.pair_accept_ratio": (
                pasch_pairs / (mask_calls / 2) if mask_calls else 0.0, "ratio"),
            "rng.next_u64.calls": (count("rng.next_u64.calls"), "count"),
            "core.bits.calls": (count("core.bits.calls"), "count"),
        }
        for cap in GUARDED_CAPS:
            m[f"caps.{cap}.max_requested"] = (self.cap_max[cap], "count")
        m["caps.hits"] = (self.cap_hits / passes, "count")
        m["jsonio.dumps.self_s"] = (self_s("jsonio.dumps"), "s")
        m["jsonio.dumps.bytes"] = (count("jsonio.dumps.bytes"), "B")
        m["jsonio.load_path.self_s"] = (self_s("jsonio.load_path"), "s")
        m["cli.main.calls"] = (calls("cli.main"), "count")
        m["cli.build_parser.self_s"] = (self_s("cli.build_parser"), "s")
        return m

    def dump(self, path: str) -> None:
        """Write the spans once, as JSON lines: id, parent, name, wall
        start, wall end, CPU seconds, thread."""
        import json

        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
