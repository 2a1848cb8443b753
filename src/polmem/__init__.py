"""Polarization-qubit storage toolkit.

Simulation and analysis of dual-rail polarization-qubit memory runs:
Stokes polarimetry, a Poissonian click-detection model, Monte Carlo
arrival-time histograms, and the standard window/fit estimators.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DataError,
    DegenerateGeometryError,
    FitError,
    IllConditionedFitError,
    PolmemError,
    UndefinedRatioError,
)
from .data import ArrivalHistogram, FitResult, SweepSeries, Window
from .polarization import (
    CANONICAL_STATES,
    STATE_NAMES,
    QubitAngles,
    Rotation3,
    StokesVector,
    apply_rotation,
    fidelity,
    fit_rotation,
    fit_stokes,
    qwp_polarimeter_intensity,
    stokes_from_qubit,
)
from .noise_model import (
    DetectionProbs,
    NoiseModelParams,
    classical_fidelity_limit,
    detection_probs,
    fidelity_sbr_curve,
    mc_detection_oracle,
)
from .memory_sim import (
    MemoryConfig,
    retrieved_stokes,
    simulate_background_sweep,
    simulate_decay_series,
    simulate_histogram,
    simulate_polarimetry_sweep,
    simulate_reference,
)
from .histogram_analysis import (
    StorageReport,
    build_report,
    fit_exponential_decay,
    fit_sqrt_background,
    roi_counts,
    sbr,
    storage_efficiency,
)
