"""Closed-form detection model for a two-ensemble memory with Poissonian noise.

Signal photons are Poissonian with mean eta*p (storage efficiency times mean
input photon number); background photons are Poissonian with mean q.  A
click/no-click detector that sees n signal and m background photons reports
a signal photon with probability n/(n+m).  Truncating both photon numbers at
n_max gives closed-form detection probabilities, from which fidelity and
signal-to-background ratio follow.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UndefinedRatioError
from .streams import check_poisson_mean, map_chunks, usable_cpus

DEFAULT_N_MAX = 20


@dataclass(frozen=True)
class NoiseModelParams:
    """Model parameters: efficiency, mean signal/background photons, truncation."""

    eta: float
    p: float
    q: float
    n_max: int = DEFAULT_N_MAX

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise DataError(f"eta must lie in [0, 1], got {self.eta}")
        if not (0 <= self.p < math.inf and 0 <= self.q < math.inf):
            raise DataError(f"photon means must be finite and >= 0, got p={self.p}, q={self.q}")
        if self.n_max < 1:
            raise DataError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def signal_mean(self) -> float:
        return self.eta * self.p


@dataclass(frozen=True)
class DetectionProbs:
    """Per-pulse probabilities of detecting a signal or a background photon."""

    p_signal: float
    p_background: float

    def __post_init__(self):
        if self.p_signal < 0 or self.p_background < 0:
            raise DataError("detection probabilities must be >= 0")
        if self.p_signal + self.p_background > 1.0 + 1e-12:
            raise DataError("detection probabilities sum above 1")


# Cephes lgam: log sqrt(2 pi), and the Stirling-series coefficients for x < 1000
_LS2PI = 0.91893853320467274178
_A0, _A1, _A2, _A3, _A4 = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


def _log_factorial(k: int) -> float:
    """ln k! for an integer k >= 0, bit for bit what scipy.special.gammaln(k + 1.0)
    returns: the Stirling branches of Cephes lgam, with its own coefficients
    and operation order.  Scalar math.log, so no SIMD dispatch enters."""
    if k <= 11:  # lgam's x < 13 branch: the log of the exact product
        return math.log(math.factorial(k))
    x = k + 1.0
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + ((((_A0 * p + _A1) * p + _A2) * p + _A3) * p + _A4) / x


def _poisson_pmf(k, mean: float, log_fact) -> np.ndarray:
    """Poisson mass function evaluated in log space (stable for large k);
    log_fact holds ln k! for each k."""
    k = np.asarray(k)
    if mean == 0.0:
        return np.where(k == 0, 1.0, 0.0)
    return np.exp(k * np.log(mean) - mean - log_fact)


def detection_probs(params: NoiseModelParams) -> DetectionProbs:
    """Truncated double sum over (n, m) of P(n)P(m) * n/(n+m) and m/(n+m).

    The no-photon term (n=0, m=0) contributes to neither probability.
    """
    ks = np.arange(params.n_max + 1)
    log_fact = np.array([_log_factorial(k) for k in range(params.n_max + 1)])
    ps = _poisson_pmf(ks, params.signal_mean, log_fact)
    pb = _poisson_pmf(ks, params.q, log_fact)
    weight = np.outer(ps, pb)
    n_grid, m_grid = np.meshgrid(ks, ks, indexing="ij")
    tot = np.maximum(n_grid + m_grid, 1)  # (0,0) cell contributes 0 either way
    p_sig = float(np.sum(weight * n_grid / tot))
    p_bg = float(np.sum(weight * m_grid / tot))
    return DetectionProbs(p_sig, p_bg)


def model_fidelity(params: NoiseModelParams) -> float:
    """Fidelity conditioned on a detection: (P_s + P_bg/2) / (P_s + P_bg).

    A detected background photon is unpolarized and contributes 1/2.
    """
    probs = detection_probs(params)
    denom = probs.p_signal + probs.p_background
    if denom == 0.0:
        raise UndefinedRatioError("no detections possible: eta*p and q are both zero")
    return (probs.p_signal + 0.5 * probs.p_background) / denom


def model_sbr(params: NoiseModelParams) -> float:
    """Signal-to-background ratio P_s / P_bg of the detection model."""
    probs = detection_probs(params)
    if probs.p_background == 0.0:
        raise UndefinedRatioError("background mean q = 0 gives an infinite ratio")
    return probs.p_signal / probs.p_background


def fidelity_sbr_curve(
    eta: float, q: float, n_max: int, p_grid: list[float]
) -> list[tuple[float, float]]:
    """(sbr, fidelity) pairs for each input photon mean in p_grid, in SBR order."""
    p_arr = np.asarray(p_grid, dtype=float)
    if p_arr.size == 0:
        raise DataError("p_grid must not be empty")
    if np.any(p_arr <= 0):
        raise DataError("p_grid values must be positive")
    if np.any(np.diff(p_arr) <= 0):
        raise DataError("p_grid must be strictly ascending")
    points = []
    for p in p_arr:
        params = NoiseModelParams(eta=eta, p=float(p), q=q, n_max=n_max)
        points.append((model_sbr(params), model_fidelity(params)))
    points.sort(key=lambda t: t[0])
    return points


def mc_detection_oracle(
    params: NoiseModelParams, trials: int, seed: int, workers: int | None = None
) -> DetectionProbs:
    """Monte Carlo estimate of the detection probabilities.

    Per trial, draws the Poisson pair (n, m) and detects one photon: signal
    with probability n/(n+m), background otherwise; no photons, no
    detection.  Output is a pure function of (params, trials, seed): it is
    bit-identical for any `workers`, which defaults to the usable CPU count
    (`streams.usable_cpus`); `workers=1` runs serially.
    """
    if workers is None:
        workers = usable_cpus()
    sp, q = params.signal_mean, params.q
    check_poisson_mean("signal mean (eta * p)", sp, 1)
    check_poisson_mean("background mean (q)", q, 1)
    # the two-source branch adds the draws in int64
    check_poisson_mean("total mean (eta * p + q)", sp + q, 1)

    def run(rng, size):
        # the uniform pick is only needed when both sources can fire: with
        # m = 0 every click is signal, with n = 0 every click is background
        if sp > 0 and q > 0:
            # in place, so each worker holds three chunk-sized arrays
            n = rng.poisson(sp, size)
            tot = rng.poisson(q, size)
            tot += n
            u = rng.random(size)
            u *= tot
            n_det = int(np.count_nonzero(tot))
            n_sig = int(np.count_nonzero(u < n))
            return n_sig, n_det - n_sig
        if sp > 0:
            return int(np.count_nonzero(rng.poisson(sp, size))), 0
        if q > 0:
            return 0, int(np.count_nonzero(rng.poisson(q, size)))
        return 0, 0

    counts = map_chunks(run, trials, seed, workers)
    n_sig = sum(c[0] for c in counts)
    n_bg = sum(c[1] for c in counts)
    return DetectionProbs(n_sig / trials, n_bg / trials)
