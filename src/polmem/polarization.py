"""Polarization-state algebra on the Poincare sphere.

Conventions used throughout the package:

* A pure qubit cos(theta)|H> + e^(i*phi)*sin(theta)|V> maps to the Stokes
  vector (1, cos 2theta, sin 2theta cos phi, sin 2theta sin phi), i.e. theta
  is the amplitude angle (half the Poincare polar angle).
* s3 = +1 is right-circular light (phi = +pi/2).
* The rotating quarter-wave-plate polarimeter has a fixed horizontal
  analyzer after the plate; its intensity for plate angle t is

      I(t) = 0.5 * [s0 + s1/2 + s3*sin(2t) + (s1/2)*cos(4t) + (s2/2)*sin(4t)]

  which is linear in the Stokes components and therefore invertible by
  linear least squares on the basis {1, sin 2t, cos 4t, sin 4t}.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import FitResult, SweepSeries
from .errors import DataError, DegenerateGeometryError, FitError, IllConditionedFitError

DOP_TOL = 1e-9
MIN_PLATE_ANGLES = 8  # a sweep's fewest plate angles, for fit_stokes and the simulator
STATE_NAMES = ("H", "V", "D", "A", "R", "L")


@dataclass(frozen=True)
class StokesVector:
    """4-component polarization state (s0, s1, s2, s3); s0 is total intensity."""

    s0: float
    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        if not self.s0 > 0:
            raise DataError(f"s0 must be > 0 for a physical state, got {self.s0}")

    @property
    def vec3(self) -> np.ndarray:
        return np.array([self.s1, self.s2, self.s3])

    @property
    def dop(self) -> float:
        """Degree of polarization, |(s1, s2, s3)| / s0."""
        return float(np.linalg.norm(self.vec3) / self.s0)

    def normalize(self) -> "StokesVector":
        """Rescale so that s0 == 1 exactly."""
        return StokesVector(1.0, self.s1 / self.s0, self.s2 / self.s0, self.s3 / self.s0)

    def is_physical(self) -> bool:
        return self.dop <= 1.0 + DOP_TOL

    def as_array(self) -> np.ndarray:
        return np.array([self.s0, self.s1, self.s2, self.s3])


@dataclass(frozen=True)
class QubitAngles:
    """Amplitude angle theta and relative phase phi of a pure polarization qubit."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 2:
            raise DataError(f"theta must lie in [0, pi/2], got {self.theta}")
        if not -math.pi <= self.phi < math.pi:
            raise DataError(f"phi must lie in [-pi, pi), got {self.phi}")


# The six canonical inputs: three mutually unbiased bases of the qubit space.
CANONICAL_STATES: dict[str, QubitAngles] = {
    "H": QubitAngles(0.0, 0.0),
    "V": QubitAngles(math.pi / 2, 0.0),
    "D": QubitAngles(math.pi / 4, 0.0),
    "A": QubitAngles(math.pi / 4, -math.pi),
    "R": QubitAngles(math.pi / 4, math.pi / 2),
    "L": QubitAngles(math.pi / 4, -math.pi / 2),
}


def stokes_from_qubit(angles: QubitAngles) -> StokesVector:
    """Stokes vector of the pure qubit with the given angles (unit s0 and DOP)."""
    two_t = 2.0 * angles.theta
    return StokesVector(
        1.0,
        math.cos(two_t),
        math.sin(two_t) * math.cos(angles.phi),
        math.sin(two_t) * math.sin(angles.phi),
    )


def qwp_polarimeter_intensity(s: StokesVector, qwp_angle: float) -> float:
    """Detected intensity behind the rotating quarter-wave plate and analyzer.

    Equals the transmission probability for a single photon when s is
    normalized.  Rejects a degree of polarization above 1 and a non-finite angle.
    """
    if not s.is_physical():
        raise DataError(f"degree of polarization {s.dop:.6g} exceeds 1")
    if not math.isfinite(t := qwp_angle):
        raise DataError(f"plate angle must be finite, got {t} rad")
    return 0.5 * (
        s.s0
        + 0.5 * s.s1
        + s.s3 * math.sin(2 * t)
        + 0.5 * s.s1 * math.cos(4 * t)
        + 0.5 * s.s2 * math.sin(4 * t)
    )


def _design_matrix(angles: np.ndarray) -> np.ndarray:
    return np.column_stack(
        [np.ones_like(angles), np.sin(2 * angles), np.cos(4 * angles), np.sin(4 * angles)]
    )


# The intensity law I(t) = 0.5*(A + B sin2t + C cos4t + D sin4t), with A = s0 + s1/2,
# B = s3, C = s1/2 and D = s2/2, makes the least-squares coef on _design_matrix equal
# (A, B, C, D) / 2.  With M this map, (s0..s3) = M @ coef, of covariance M @ cov(coef) @ M.T.
_COEF_TO_STOKES = np.array([[2, 0, -2, 0], [0, 0, 4, 0], [0, 0, 0, 4], [0, 2, 0, 0]], dtype=float)


def _check_intensities(intens: np.ndarray) -> None:
    if (negative := intens[intens < 0]).size:
        raise DataError(f"intensity must be >= 0, got {float(negative[0])}")


def fit_stokes(sweep: SweepSeries) -> tuple[StokesVector, FitResult]:
    """Recover a Stokes vector from a rotating-plate intensity sweep.

    Linear least squares on {1, sin 2t, cos 4t, sin 4t} inverts the
    coefficient map of qwp_polarimeter_intensity.  Needs MIN_PLATE_ANGLES or
    more plate angles (sweep.x, rad) spanning half a turn; sweep.y holds intensities.

    Returns the normalized Stokes vector together with a FitResult whose
    params hold the fitted per-pulse intensity s0 and the vector's s1..s3
    (s_k / s0); each stderr is its own value's error, by the delta method
    for the ratios.
    """
    if len(sweep) < MIN_PLATE_ANGLES:
        raise DataError(f"need at least {MIN_PLATE_ANGLES} samples, got {len(sweep)}")
    angles, intens = sweep.x, sweep.y
    _check_intensities(intens)
    if angles.max() - angles.min() < math.pi * (1 - 1e-9):
        raise DataError("samples must span at least 180 degrees of plate rotation")

    X = _design_matrix(angles)
    if np.linalg.cond(X) > 1e10:  # as is any rank < 4: cond >= 1/(N eps) > 1e10 for N < 4.5e5
        raise IllConditionedFitError("degenerate plate angles: design matrix is rank deficient")

    coef, _, _, _ = np.linalg.lstsq(X, intens, rcond=None)
    raw = _COEF_TO_STOKES @ coef
    if raw[0] <= 0:
        raise DataError(f"recovered s0 = {raw[0]:.6g} is not positive")

    residual_norm = float(np.linalg.norm(intens - X @ coef))
    sigma2 = residual_norm**2 / (len(sweep) - 4)
    cov = _COEF_TO_STOKES @ (sigma2 * np.linalg.inv(X.T @ X)) @ _COEF_TO_STOKES.T

    s0, r = raw[0], raw[1:]
    # delta method for r / s0; float_power squares by libm pow, as a float64 scalar's ** 2
    ratio_var = (np.diag(cov)[1:] / s0**2 + np.float_power(r, 2) * cov[0, 0] / s0**4
                 - 2 * r * cov[0, 1:] / s0**3)
    params = dict(zip(("s0", "s1", "s2", "s3"), [s0, *(r / s0)]))
    stderr = {k: math.sqrt(max(v, 0.0)) for k, v in zip(params, [cov[0, 0], *ratio_var])}

    result = FitResult(params, stderr, residual_norm, len(sweep))
    if not all(math.isfinite(v) for v in [*params.values(), *stderr.values(), residual_norm]):
        raise FitError("fit overflowed: a Stokes component, stderr or residual is not finite")
    return StokesVector(1.0, params["s1"], params["s2"], params["s3"]), result


def fidelity(s_in: StokesVector, s_out: StokesVector) -> float:
    """Overlap fidelity of two normalized Stokes vectors.

    0.5 * (1 + a.b + sqrt((1 - a.a)(1 - b.b))) on the 3-vector parts;
    identical to the density-matrix fidelity for qubit states.
    """
    for s in (s_in, s_out):
        if abs(s.s0 - 1.0) > DOP_TOL:
            raise DataError(f"fidelity needs normalized inputs (s0 = 1), got s0 = {s.s0}")
    a = s_in.vec3
    b = s_out.vec3
    radicand = (1.0 - a @ a) * (1.0 - b @ b)
    if radicand < -DOP_TOL:
        raise DataError(f"radicand {radicand:.3g} below tolerance; inputs are unphysical")
    return float(0.5 * (1.0 + a @ b + math.sqrt(max(radicand, 0.0))))


class Rotation3:
    """Proper rotation of the (s1, s2, s3) part of a Stokes vector."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (3, 3):
            raise DataError(f"rotation matrix must be 3x3, got {m.shape}")
        if not np.allclose(m.T @ m, np.eye(3), atol=1e-9):
            raise DataError("matrix is not orthogonal")
        if not math.isclose(np.linalg.det(m), 1.0, abs_tol=1e-9):
            raise DataError("matrix is not a proper rotation (det != +1)")
        self.matrix = m

    @classmethod
    def identity(cls) -> "Rotation3":
        return cls(np.eye(3))

    @classmethod
    def about_axis(cls, axis, angle: float) -> "Rotation3":
        """Rotation by `angle` around `axis` (Rodrigues formula)."""
        n = np.asarray(axis, dtype=float)
        n = n / np.linalg.norm(n)
        k = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
        return cls(np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k))


def apply_rotation(r: Rotation3, s: StokesVector) -> StokesVector:
    """Rotate the 3-vector part of s; s0 is untouched."""
    v = r.matrix @ s.vec3
    return StokesVector(s.s0, v[0], v[1], v[2])


def fit_rotation(inputs: list[StokesVector], targets: list[StokesVector]) -> Rotation3:
    """Best proper rotation mapping input 3-vectors onto target 3-vectors.

    Solves the orthogonal Procrustes problem restricted to rotations:
    cross-covariance, SVD, determinant correction.  Lengths are untouched,
    so shortened targets pull only on direction.
    """
    if len(inputs) != len(targets):
        raise DataError("inputs and targets must have equal length")
    if len(inputs) < 3:
        raise DataError(f"need at least 3 vector pairs, got {len(inputs)}")
    a = np.array([s.vec3 for s in inputs])
    b = np.array([s.vec3 for s in targets])

    m = b.T @ a
    u, sing, vt = np.linalg.svd(m)
    if sing[1] < 1e-12 * max(sing[0], 1e-300):
        raise DegenerateGeometryError("input directions are collinear; rotation is not unique")
    d = np.sign(np.linalg.det(u @ vt))
    r = u @ np.diag([1.0, 1.0, d]) @ vt
    return Rotation3(r)


def write_polarimetry_csv(path, sweep: SweepSeries) -> None:
    """Save a sweep as a sweep CSV `qwp_angle_deg,intensity,y_err` (angles in degrees)."""
    degrees = SweepSeries(np.degrees(sweep.x), sweep.y, sweep.y_err, "qwp_angle_deg", "intensity")
    degrees.save_csv(path)


def read_polarimetry_csv(path) -> SweepSeries:
    """Read a sweep written by write_polarimetry_csv, with angles in radians."""
    sweep = SweepSeries.load_csv(path)
    try:
        if (sweep.x_name, sweep.y_name) != ("qwp_angle_deg", "intensity"):
            raise DataError(f"expected header qwp_angle_deg,intensity,y_err, "
                            f"got {sweep.x_name},{sweep.y_name},y_err")
        _check_intensities(sweep.y)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    angles = np.radians(sweep.x)
    return SweepSeries(angles, sweep.y, sweep.y_err, "qwp_angle_rad", "counts_per_pulse")
