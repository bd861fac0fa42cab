"""Exception hierarchy.

``ConfigError`` maps to CLI exit code 2 (bad arguments or config files),
as does a plain ``ValueError``: the library raises one to refuse an
argument.  ``ComputationError`` and its children, and numpy's
``LinAlgError``, map to exit code 3 (a numerical routine failed).
Checks on computed arrays raise ``DataError``, which is both.
"""


class RlabError(Exception):
    """Base class for package errors."""


class ConfigError(RlabError):
    """Malformed configuration values, curve strings, or CLI arguments."""


class ComputationError(RlabError):
    """A numerical routine could not produce a trustworthy result."""


class CapabilityError(ComputationError):
    """A derivative order beyond what the curve oracle supports."""


class SingularMatrixError(ComputationError):
    """A frame matrix was numerically singular."""


class NotFiniteTypeError(ComputationError):
    """No admissible derivative tuple found up to the search bound."""


class MonomialFormError(ComputationError):
    """Curve component lacks the required vanishing order at zero."""


class DataError(ComputationError, ValueError):
    """Nodes, weights or field values failed a sanity check.

    Also a ValueError, so callers that pass arrays of their own can
    catch it as one; the CLI reports it as a numerical failure.
    """


class DomainError(ComputationError):
    """Point outside the validity region of a chart or measure."""


class StationaryError(ComputationError):
    """No stationary point g(t): the phase is not a chart phase, or the
    first curve component has a vanishing derivative at t."""


class CalibrationError(ComputationError):
    """Box calibration failed down to the smallest admissible scale."""


class DegeneracyError(ComputationError):
    """A curvature determinant fell below the degeneracy threshold."""


class FrameError(ComputationError):
    """Orthonormal frame construction failed (rank deficiency)."""


class ResolutionError(ComputationError):
    """Quadrature resolution too coarse for the requested frequency."""
