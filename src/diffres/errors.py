"""Exception hierarchy shared across the package.

Everything derives from DiffresError so callers can catch library failures
with one clause; the CLI maps these to exit code 3 (internal invariant
violation) unless a command handles them specifically.
"""


class DiffresError(Exception):
    """Base class for all library errors."""


class DivisionByZero(DiffresError):
    """Division of a polynomial by the zero polynomial."""


class NotDivisible(DiffresError):
    """Exact polynomial division requested but no exact quotient exists."""


class UnassignedSymbol(DiffresError):
    """A specialization is missing a symbol required for evaluation."""


class ClosureViolation(DiffresError):
    """A row polynomial produced a monomial outside the column set."""


class CertificateFailure(DiffresError):
    """A certificate failed its exact check: an elimination step found a
    wrong symbol-occurrence pattern, or an LP basis or Farkas vector does not
    prove the verdict it came with.

    This falsifies the implementation (or the matrix handed in), never the
    underlying mathematics; it is fatal by design.
    """


class CapExceeded(DiffresError):
    """Symbolic determinant requested above the configured size cap."""


class InvalidPerturbation(DiffresError):
    """Perturbation vector components must lie strictly between 0 and 1."""


class Infeasible(DiffresError):
    """Linear program has no feasible point."""


class Unbounded(DiffresError):
    """Linear program is unbounded below (never expected on a polytope)."""


class NoVertexOptimum(DiffresError):
    """No optimal LP solution concentrates any block on a single vertex."""


class IllegalMove(DiffresError):
    """A partition move violates divisibility or column-set closure."""


class IntermediateZero(DiffresError):
    """An intermediate resultant collapsed to zero during elimination."""


class DegreeZero(DiffresError):
    """Resultant requested with respect to a variable of degree zero."""
