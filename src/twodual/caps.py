"""Named size caps guarding the exponential code paths.

Every potentially exponential sweep in the library is guarded by a named
cap.  Defaults live in ``DEFAULT_CAPS``; the environment variable
``DUALITY_CAPS`` can override any of them with a comma-separated list of
``name=value`` entries, e.g.::

    DUALITY_CAPS="pair-axiom-sweep=8,hom-limit=4096"

Caps are read at call time through :func:`get_cap`, so tests may adjust
:data:`ACTIVE_CAPS` (or the environment, followed by :func:`reload_caps`).
"""

from __future__ import annotations

import os

from .errors import InputError, UniverseTooLarge

DEFAULT_CAPS = {
    # Largest base allowed for a bit-mask set family (storage-level cap).
    "family-base": 64,
    # Universe bound for sweeps quantifying over subset *pairs*, each on
    # 4^n-bit pair-index bitsets (see bea): the i4 fallback sweep, the
    # bidual transport sweep, the filter nesting / filter form sweeps of
    # the verifiers and the pasch pair sampling.  It also picks the path of
    # four checks, each on a bitset only within it: table i3; table i1 and
    # the table halfspace backtrack, through the table's up-closure; and a
    # failing induced i4, which takes its witness from the sweep.  Past it
    # they scan or join the stored pairs.
    "pair-axiom-sweep": 10,
    # Universe bound for listing halfspaces analytically.
    "halfspace-universe": 64,
    # Universe bound for the 2^n brute-force halfspace listing.
    "halfspace-brute": 20,
    # Universe bound for materializing an oracle as an explicit pair table.
    "oracle-table": 10,
    # Bound on the intersection/union closures used by the i4 check.
    "closure-size": 4096,
    # Maximum number of homomorphisms an enumeration may return.
    "hom-limit": 1 << 20,
    # Universe bound for brute-force (2^n maps) hom enumeration.
    "hom-brute-universe": 20,
    # Size bound on induced-relation sweeps in the dual engine (m^arity).
    "induced-product": 1 << 22,
    # Source-structure bound for the dual engine.
    "dual-source": 6,
    # Carrier bound for the dual engine.
    "dual-carrier": 64,
    # Universe bound for normality checking of bi-convexities.
    "normal-universe": 10,
    # Universe bound for the hull-transit sweep, n^2 bitsets of 4^n bits.
    "pasch-sweep": 8,
    # Universe bound for verify_convexity_duality's cross-check of the
    # hull-transit sweep against the transversal table's own i3.
    "pasch-crosscheck": 5,
    # Universe bound for building an oracle table from hulls.
    "biconv-table": 10,
}


def _parse_env(raw: str) -> dict:
    out = {}
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise InputError(f"DUALITY_CAPS entry {chunk!r} is not name=value")
        name, _, value = chunk.partition("=")
        name = name.strip()
        if name not in DEFAULT_CAPS:
            raise InputError(f"DUALITY_CAPS names unknown cap {name!r}")
        try:
            out[name] = int(value)
        except ValueError:
            raise InputError(f"DUALITY_CAPS value for {name!r} is not an integer")
    return out


def load_caps() -> dict:
    caps = dict(DEFAULT_CAPS)
    raw = os.environ.get("DUALITY_CAPS", "")
    if raw:
        caps.update(_parse_env(raw))
    return caps


ACTIVE_CAPS = load_caps()


def reload_caps() -> None:
    """Re-read ``DUALITY_CAPS`` from the environment; a refused value
    leaves the active caps as they were."""
    caps = load_caps()
    ACTIVE_CAPS.clear()
    ACTIVE_CAPS.update(caps)


def get_cap(name: str) -> int:
    try:
        return ACTIVE_CAPS[name]
    except KeyError:
        raise InputError(f"unknown cap {name!r}") from None


def guard(name: str, requested: int, detail: str = "") -> None:
    """Raise :class:`UniverseTooLarge` when ``requested`` exceeds the cap."""
    limit = get_cap(name)
    if requested > limit:
        raise UniverseTooLarge(name, limit, requested, detail)
