"""Exception hierarchy shared by every module.

``DomainError`` is the base for all mathematically meaningful failures; the
command line maps it to exit code 1 with a machine-readable payload.  Usage
errors (bad flags, malformed input syntax) are left to argparse (exit 2).
"""


class DomainError(Exception):
    """Base class for errors with mathematical meaning."""

    code = "domain-error"


class FieldMismatch(DomainError):
    code = "field-mismatch"


class DivisionByZero(DomainError):
    code = "division-by-zero"


class WindowTooSmall(DomainError):
    code = "window-too-small"


class NotAChainMap(DomainError):
    code = "not-a-chain-map"


class AlgebraMismatch(DomainError):
    code = "algebra-mismatch"


class SourceNotFree(DomainError):
    code = "source-not-free"


class EndTooLarge(DomainError):
    code = "end-too-large"


class NotSimplyConnected(DomainError):
    code = "not-simply-connected"


class OddGenerator(DomainError):
    code = "odd-generator"


class StrategyInapplicable(DomainError):
    code = "strategy-inapplicable"


class InvalidFiltration(DomainError):
    code = "invalid-filtration"


class NoValidMatching(DomainError):
    code = "no-valid-matching"


class VerificationFailed(DomainError):
    code = "verification-failed"


class BudgetExceeded(DomainError):
    """A search would pass its fixed work limit."""

    code = "budget-exceeded"


class Undecided(DomainError):
    """Neither a splitting idempotent nor a locality certificate was found."""

    code = "undecided"


class NotCompactlyDecomposable(DomainError):
    code = "not-compactly-decomposable"


class FormalizabilityNotDeclared(DomainError):
    code = "formalizability-not-declared"


class MTooSmall(DomainError):
    code = "m-too-small"


class NotExact(DomainError):
    code = "not-exact"


class WrongTargetCohomology(DomainError):
    code = "wrong-target-cohomology"


class OddDimensionNonzeroHopf(DomainError):
    code = "odd-dimension-nonzero-hopf"


class CannotCertifyCollapse(DomainError):
    code = "cannot-certify-collapse"


class PresentationError(DomainError):
    """Raised when a presentation violates its constructor invariants
    (d squared nonzero, Leibniz failure, inhomogeneous differential, ...)."""

    code = "invalid-presentation"
