"""Exception hierarchy shared by all diracflow modules.

Errors are split into three families: bad inputs (caller mistakes),
numerical preconditions that failed (the computation cannot proceed but
nothing is mathematically wrong), and genuine identity violations (an
integer identity that should hold did not -- these are never swallowed).
"""


class DiracflowError(Exception):
    """Base class for all diracflow errors."""


class InvalidInput(DiracflowError):
    """Malformed input: non-finite entries, shape mismatch, bad parameters."""


class ConfigError(InvalidInput):
    """Invalid scenario configuration (unknown field, type mismatch, ...)."""

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)


class NotInvertible(DiracflowError):
    """An operator required to have a spectral gap at 0 does not have one."""


class AmbiguousRank(DiracflowError):
    """No decisive singular-value gap; both candidate kernel dimensions kept."""

    def __init__(self, message, candidates=(), gap_ratio=float("nan")):
        super().__init__(message)
        self.candidates = tuple(candidates)
        self.gap_ratio = gap_ratio


class GeneratorError(DiracflowError):
    """A truncation-tower generator violated the nested-compression contract."""


class NonIntegerTrace(DiracflowError):
    """tr(P - Q) is too far from an integer; the projections are degraded."""


class PathTooCoarse(DiracflowError):
    """Consecutive projection samples jump by >= 1 in norm."""


class RefineGrid(DiracflowError):
    """Eigenvector-overlap branch matching stayed ambiguous at max refinement."""


class DegeneratePath(DiracflowError):
    """A zero crossing could not be resolved as transversal or absent."""


class NotDiagonalizable(DiracflowError):
    """Samples of a path do not commute, so no shared eigenbasis exists."""


class CollarMismatch(DiracflowError):
    """Two potentials disagree on the gluing collar."""

    def __init__(self, message, max_deviation=float("nan")):
        super().__init__(message)
        self.max_deviation = max_deviation


class TowerTooShallow(DiracflowError):
    """Tower integers did not stabilize at the top dimensions."""


class HypothesisUnmet(DiracflowError):
    """An inequality's hypothesis failed; this is a skip, not a violation."""


class NotRelativelyCompact(DiracflowError):
    """No resolvent scale makes the perturbation small; compactness proxy fails."""


class TheoremViolation(DiracflowError):
    """An exact integer identity failed.  Always a reportable failure."""
