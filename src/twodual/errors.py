"""Structured errors shared across the library.

Every failure mode that callers are expected to branch on gets its own
exception class; diagnostic payloads (witnesses, stuck points, offending
symbols) ride on attributes rather than being baked into the message only.
"""

from __future__ import annotations


class DualityError(Exception):
    """Base class for all structured errors raised by this package."""


class InputError(DualityError):
    """Malformed document, unknown name, or unusable argument."""


class EmptyUniverse(DualityError):
    """A structure, family base check, or generator was asked for size 0."""


class UniverseTooLarge(DualityError):
    """An operation would exceed one of the named size caps.

    Attributes
    ----------
    cap_name : str
        Which cap (see :mod:`twodual.caps`) was exceeded.
    limit : int
        The configured limit.
    requested : int
        The size that was asked for.
    """

    def __init__(self, cap_name: str, limit: int, requested: int, detail: str = ""):
        self.cap_name = cap_name
        self.limit = limit
        self.requested = requested
        msg = f"size {requested} exceeds cap {cap_name!r} = {limit}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class HomLimitExceeded(DualityError):
    """More homomorphisms exist than the configured enumeration limit."""


class SignatureMismatch(DualityError):
    """Structure and template do not share the same signature."""


class ConstantOutside(DualityError):
    """A designated constant falls outside the requested subuniverse."""

    def __init__(self, name: str, value: int):
        self.name = name
        self.value = value
        super().__init__(f"constant {name!r} = {value} lies outside the subset")


class FunctionNotClosed(DualityError):
    """A subset is not closed under a functional symbol."""

    def __init__(self, name: str, point: tuple, result: int):
        self.name = name
        self.point = tuple(point)
        self.result = result
        super().__init__(
            f"subset not closed under {name!r}: {self.point} maps to {result}"
        )


class MissingConstants(DualityError):
    """An operation needs designated 0/1 elements that are not present."""


class AxiomsFail(DualityError):
    """A required axiom check failed.

    ``failures`` maps axiom name to the :class:`~twodual.bea.AxiomReport`
    that records the counterexample.
    """

    def __init__(self, failures):
        self.failures = dict(failures)
        names = ", ".join(sorted(self.failures))
        super().__init__(f"axioms failed: {names}")


class PreconditionViolated(DualityError):
    """The caller violated a documented precondition (e.g. a linked pair)."""


class PaschFailure(DualityError):
    """Halfspace separation got stuck; the input violates the core axioms.

    Attributes
    ----------
    stuck_point : int | None
        First universe element left in neither side, when that is the cause.
    witness : tuple | None
        A violating positive pair when the certificate check failed instead.
    """

    def __init__(self, message: str, stuck_point=None, witness=None):
        self.stuck_point = stuck_point
        self.witness = witness
        super().__init__(message)


class DuplicateComplement(DualityError):
    """More than one candidate complement exists for an element."""

    def __init__(self, element: int, candidates):
        self.element = element
        self.candidates = tuple(candidates)
        super().__init__(
            f"element {element} has several complements: {self.candidates}"
        )


class NotSeparated(DualityError):
    """An instance required to be template-separated is not.

    ``report`` carries the :class:`~twodual.homs.SeparationReport` witnesses.
    """

    def __init__(self, report):
        self.report = report
        super().__init__("instance is not separated by the template")


class S1Violation(DualityError):
    """The hom-set is not closed under the target signature.

    Either pointwise application of a functional symbol leaves the carrier,
    or a required constant function is not a member.  ``point`` holds the
    offending application's argument indices.
    """

    def __init__(self, symbol: str, point, missing_mask: int):
        self.symbol = symbol
        self.point = tuple(point)
        self.missing_mask = missing_mask
        super().__init__(
            f"carrier not closed under {symbol!r} at {self.point}; "
            f"missing function mask {missing_mask:#x}"
        )


class NotSurjective(DualityError):
    """A map claimed to be onto is not."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__(f"map misses elements {self.missing}")


class NotHomomorphism(DualityError):
    """A map claimed to be a homomorphism breaks some symbol."""

    def __init__(self, symbol: str, witness):
        self.symbol = symbol
        self.witness = tuple(witness)
        super().__init__(f"map breaks {symbol!r} on tuple {self.witness}")


class NotNormal(DualityError):
    """A bi-convexity fails the normality conditions.

    ``report`` carries the :class:`~twodual.convexity.NormalReport`.
    """

    def __init__(self, report):
        self.report = report
        super().__init__("bi-convexity is not normal")


class RoundTripFailure(DualityError):
    """Hulls rebuilt from an oracle disagree with the oracle (or are not
    idempotent), so no bi-convexity realizes the input."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)
