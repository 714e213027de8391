"""Exception types shared across the package."""


class LabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(LabError):
    """Malformed experiment configuration. Message names the offending field."""


class OverlapError(LabError, ValueError):
    """Branch images of the root disc have intersecting closures."""


class EscapeError(LabError, ValueError):
    """A branch image is not strictly inside the root disc."""


class ResourceLimitError(LabError):
    """A requested computation exceeds a hard size cap."""


class ExcessiveDiscardError(LabError):
    """More than the allowed fraction of walks hit the step limit."""


class SingularityError(LabError):
    """Evaluation point coincides with an atom of the measure."""


class InsufficientMassError(LabError):
    """A ball holds too few atoms for a stable mass estimate."""


class DispersionError(LabError):
    """Near-boundary potential values spread too widely for a Robin estimate."""


class FitDegeneracyError(LabError):
    """Regression input spans too narrow a range to fit."""


class BootstrapError(LabError):
    """Too few samples to bootstrap a confidence interval."""


class QuadratureError(LabError):
    """Adaptive quadrature failed to converge within the refinement cap."""


class OutputCollisionError(LabError):
    """Output directory already holds report files and force is off."""
