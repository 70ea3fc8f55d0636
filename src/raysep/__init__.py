"""raysep: separation of closely spaced raypath arrivals on a vertical array.

The package covers the full chain: steering dictionaries, a shallow-water
multipath simulator, covariance estimation with frequency smoothing,
signal-subspace lifting, sparse-recovery solvers (including the lifted
nonnegative program that does the heavy separation work), classical
baselines, and a Monte-Carlo RMSE benchmark harness with a CLI.
"""

__version__ = "0.1.0"

from .arrays import (
    AngleGrid,
    ArrayGeometry,
    RaypathSet,
    SteeringDictionary,
    build_dictionary,
    steering_vector,
)
from .baselines import PseudoSpectrum, cbf_spectrum, music_spectrum
from .bench import (
    ALGORITHMS,
    EstimatorSettings,
    ExperimentPlan,
    PathScores,
    RmseReport,
    detect_peaks,
    estimate_spectra,
    rmse,
    run_experiment,
)
from .simulate import (
    NoiseSpec,
    SnapshotMatrix,
    WaveguideScenario,
    eigenray_angles,
    synthesize_broadband,
    synthesize_snapshots,
)
from .solvers import (
    SolverConfig,
    SolverInfeasibleError,
    SparseSpectrum,
    bpdn,
    choose_delta,
    reweighted_cs,
    subspace_cs,
)
from .spectral import (
    FocusingError,
    SpectralMatrix,
    estimate_spectral_matrix,
    focus_and_smooth,
    focusing_transform,
)
from .subspace import (
    LiftedSystem,
    SubspaceDecomposition,
    build_lifted_system,
    decompose,
    lift_dictionary,
    vectorize_signal_subspace,
)

__all__ = [
    "__version__",
    "ALGORITHMS",
    "AngleGrid",
    "ArrayGeometry",
    "EstimatorSettings",
    "ExperimentPlan",
    "FocusingError",
    "LiftedSystem",
    "NoiseSpec",
    "PathScores",
    "PseudoSpectrum",
    "RaypathSet",
    "RmseReport",
    "SnapshotMatrix",
    "SolverConfig",
    "SolverInfeasibleError",
    "SparseSpectrum",
    "SpectralMatrix",
    "SteeringDictionary",
    "SubspaceDecomposition",
    "WaveguideScenario",
    "bpdn",
    "build_dictionary",
    "build_lifted_system",
    "cbf_spectrum",
    "choose_delta",
    "decompose",
    "detect_peaks",
    "eigenray_angles",
    "estimate_spectra",
    "estimate_spectral_matrix",
    "focus_and_smooth",
    "focusing_transform",
    "lift_dictionary",
    "music_spectrum",
    "reweighted_cs",
    "rmse",
    "run_experiment",
    "steering_vector",
    "subspace_cs",
    "synthesize_broadband",
    "synthesize_snapshots",
    "vectorize_signal_subspace",
]
