"""Numerical laboratory for potential theory on self-similar Cantor sets.

Builds separated similarity IFS repellers, samples harmonic measure of their
complements by walk-on-spheres or solves for it on one piece generation,
reconstructs Green's functions and capacities, measures Menger curvature
energies and Cauchy transforms, and estimates measure dimensions from
cylinder entropies.
"""

__version__ = "0.1.0"

from .errors import (
    BootstrapError,
    ConfigError,
    DispersionError,
    EscapeError,
    ExcessiveDiscardError,
    FitDegeneracyError,
    InsufficientMassError,
    LabError,
    OutputCollisionError,
    OverlapError,
    QuadratureError,
    ResourceLimitError,
    SingularityError,
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
    ScalingReport,
    WalkConfig,
    ball_mass_scaling,
    boundary_ladder,
    boundary_probes,
    comparability_fit,
    equilibrium_measure,
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
