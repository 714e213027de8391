"""Numerical laboratory for potential theory on self-similar Cantor sets.

Builds separated similarity IFS repellers, samples harmonic measure of their
complements by walk-on-spheres, reconstructs Green's functions and
capacities, measures Menger curvature energies and Cauchy transforms, and
estimates measure dimensions from cylinder entropies.
"""

__version__ = "0.1.0"

from .errors import (
    BootstrapError,
    ConfigError,
    DepthError,
    DispersionError,
    EscapeError,
    ExcessiveDiscardError,
    FitDegeneracyError,
    GeometryError,
    InsufficientMassError,
    LabError,
    LaunchDomainError,
    OutputCollisionError,
    OverlapError,
    QuadratureError,
    ResourceLimitError,
    SamplingError,
    SingularityError,
    VarianceError,
)
from .geometry import (
    CoveringReport,
    CylinderSet,
    Repeller,
    ShellSumReport,
    SimilarityMap,
    covering_counts,
    parse_repeller_spec,
    preset,
    shell_integral_sums,
    similarity_dimension,
)
from .shapes import Circle, Segment, Shape, SinglePoint
from .potential import (
    ComparabilityReport,
    EmpiricalMeasure,
    GreenModel,
    HolderFit,
    ScalingReport,
    WalkConfig,
    ball_mass_scaling,
    bhp_holder_fit,
    boundary_probes,
    comparability_fit,
    fit_holder_envelope,
    green_model,
    log_potential,
    natural_measure,
    robin_constant,
    sample_harmonic_measure,
)
from .curvature import (
    CurvatureEstimate,
    CurvatureProfile,
    cauchy_transform,
    cauchy_truncations,
    curvature_energy,
    curvature_profile,
    default_r_grid,
    maximal_cauchy,
    menger_curvature,
)
from .dynamics import (
    CylinderProfile,
    DimensionEstimate,
    manning_dimension,
)
from .lab import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    RunManifest,
    parse_experiment_config,
    resolve_shape,
    run_experiment,
)
