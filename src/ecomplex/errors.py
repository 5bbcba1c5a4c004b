"""Exception hierarchy shared across the package.

Every error carries a process exit code (used by the CLI) so that scripted
callers can tell failure classes apart without parsing messages.
"""

__all__ = [
    "EcomplexError",
    "ParseError",
    "NegativeValue",
    "ZeroMarginal",
    "EmptyMatrix",
    "DegenerateVector",
    "DisconnectedMatrix",
    "DegenerateSpectrum",
    "NonConvergence",
    "NumericalUnderflow",
    "InfeasibleEnumeration",
    "DegenerateInput",
    "Collinear",
    "JoinEmpty",
]


class EcomplexError(Exception):
    """Base class for all domain errors raised by this package."""

    exit_code = 1


class ParseError(EcomplexError):
    """An input file could not be parsed; carries the 1-based line number."""

    exit_code = 65

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NegativeValue(ParseError):
    """A trade value was negative; rejected at ingestion, never clamped."""

    exit_code = 66


class ZeroMarginal(EcomplexError):
    """A country row or product column sums to zero where RCA needs it."""

    exit_code = 67


class EmptyMatrix(EcomplexError):
    """No countries or products survive degenerate pruning."""

    exit_code = 68


class DegenerateVector(EcomplexError):
    """A vector has zero variance and cannot be standardized."""

    exit_code = 69


class DisconnectedMatrix(EcomplexError):
    """The bipartite matrix splits into several components, so the
    second eigenvector is not unique."""

    exit_code = 70


class DegenerateSpectrum(EcomplexError):
    """The second and third eigenvalue magnitudes tie; no principled way
    to pick a second eigenvector."""

    exit_code = 71


class NonConvergence(EcomplexError):
    """The fitness iteration hit max_iter with the change still >= tol.

    Attributes carry the last iterate so callers can inspect how far the
    run got: ``fitness``, ``q``, ``iterations``, ``last_change``.
    """

    exit_code = 72

    def __init__(self, message, fitness=None, q=None, iterations=None, last_change=None):
        super().__init__(message)
        self.fitness = fitness
        self.q = q
        self.iterations = iterations
        self.last_change = last_change


class NumericalUnderflow(EcomplexError):
    """An iterate fell below the positivity floor (1e-300)."""

    exit_code = 73


class InfeasibleEnumeration(EcomplexError):
    """Exact world simulation was requested with too many techs to
    enumerate all subsets."""

    exit_code = 74


class DegenerateInput(EcomplexError):
    """Statistical input is degenerate (constant vector, empty sample, ...)."""

    exit_code = 75


class Collinear(EcomplexError):
    """Regressors are numerically collinear (condition number > 1e10)."""

    exit_code = 76


class JoinEmpty(EcomplexError):
    """Joining trade and income data left no countries in common."""

    exit_code = 77
