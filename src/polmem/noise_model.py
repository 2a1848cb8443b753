"""Closed-form detection model for a two-ensemble memory with Poissonian noise.

Signal photons are Poissonian with mean eta*p (storage efficiency times mean
input photon number); background photons are Poissonian with mean q.  A
click/no-click detector that sees n signal and m background photons reports
a signal photon with probability n/(n+m).  Summed over every (n, m), this
gives the detection probabilities in closed form, from which fidelity and
signal-to-background ratio follow.  Beside the model sits the classical limit
that its fidelity is measured against: the best measure-and-prepare device
for Poissonian input pulses.
"""

import decimal
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UndefinedRatioError
from .streams import check_poisson_mean, map_chunks, usable_cpus


@dataclass(frozen=True)
class NoiseModelParams:
    """Model parameters: efficiency and mean signal/background photons."""

    eta: float
    p: float
    q: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise DataError(f"eta must lie in [0, 1], got {self.eta}")
        if not (0 <= self.p < math.inf and 0 <= self.q < math.inf):
            raise DataError(f"photon means must be finite and >= 0, got p={self.p}, q={self.q}")

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

    @property
    def sbr(self) -> float:
        """Signal-to-background ratio P_s / P_bg."""
        if self.p_background == 0.0:
            raise UndefinedRatioError("no background detections (p_background = 0): infinite ratio")
        return self.p_signal / self.p_background

    @property
    def fidelity(self) -> float:
        """Fidelity conditioned on a detection: (P_s + P_bg/2) / (P_s + P_bg).

        A detected background photon is unpolarized and contributes 1/2.
        """
        denom = self.p_signal + self.p_background
        if denom == 0.0:
            raise UndefinedRatioError("no detections (p_signal + p_background = 0): fidelity undefined")
        return (self.p_signal + 0.5 * self.p_background) / denom


def detection_probs(params: NoiseModelParams) -> DetectionProbs:
    """Exact sums over every (n, m) of P(n)P(m) * n/(n+m) and m/(n+m).

    n + m is Poisson of mean lam = eta*p + q, and each of its photons is
    signal with probability eta*p/lam, so P_s = (1 - exp(-lam)) eta*p/lam and
    P_bg = (1 - exp(-lam)) q/lam.  The no-photon term contributes to neither.
    """
    sp, q = params.signal_mean, params.q
    lam = sp + q
    if lam == 0.0:
        return DetectionProbs(0.0, 0.0)
    total = -math.expm1(-lam)
    if lam == math.inf:  # two finite means whose sum overflows: split at half scale
        sp, q = sp / 2, q / 2
        lam = sp + q
    return DetectionProbs(total * sp / lam, total * q / lam)


def fidelity_sbr_curve(
    eta: float, q: float, p_grid: list[float]
) -> list[tuple[float, float, float]]:
    """(p, sbr, fidelity) rows for each input photon mean in p_grid, in grid order."""
    p_arr = np.asarray(p_grid, dtype=float)
    if p_arr.size == 0:
        raise DataError("p_grid must not be empty")
    if np.any(p_arr <= 0):
        raise DataError("p_grid values must be positive")
    if np.any(np.diff(p_arr) <= 0):
        raise DataError("p_grid must be strictly ascending")
    rows = []
    for p in p_arr:
        probs = detection_probs(NoiseModelParams(eta=eta, p=float(p), q=q))
        rows.append((float(p), probs.sbr, probs.fidelity))
    return rows


def classical_fidelity_limit(mu: float, eta: float) -> float:
    """Best average fidelity of a measure-and-prepare device fed Poisson pulses of mean mu.

    A device that measures N >= 1 photons of a qubit can prepare it again with
    average fidelity (N+1)/(N+2); an empty pulse gives it nothing to answer on.
    To imitate a memory of efficiency eta it answers only on its highest-N
    pulses, every N > N_min and a share of N = N_min (the construction of
    Specht et al., Nature 473, 190 (2011), and Gundogan et al., PRL 108,
    190504 (2012)).  It answers on a fraction eta*mu of the pulses, one photon
    each, so that its mean output photon number over its mean input is eta:
    the ratio of photon numbers, retrieved over sent, that storage_efficiency
    estimates.  With eta*mu >= P(N >= 1), e.g. eta >= 1, it answers on every
    non-empty pulse, which gives the eta-free limit
    1 - (E[1/(N+2)] - e^-mu/2) / (1 - e^-mu), E[1/(N+2)] = (mu - 1 + e^-mu)/mu^2.

    Each sum over N > N_min is its closed-form total minus the head sum of
    the Poisson terms below, so no photon number is cut off.  The differences
    cancel up to three digits per decade that eta*mu lies below 1, so they
    are taken in decimal arithmetic with 25 digits more than that, and F is
    exact to the float it is returned as.  mu must lie in (0, 708), where
    P(N = 0) = e^-mu is a normal float.
    """
    if not 0 < mu < math.inf or math.exp(-mu) < sys.float_info.min:
        raise DataError(f"mu must lie in (0, 708), where exp(-mu) is a normal float, got {mu}")
    if not 0 < eta < math.inf:
        raise DataError(f"eta must be finite and > 0, got {eta}")
    m, d_eta = decimal.Decimal(mu), decimal.Decimal(eta)
    digits = 25 + 3 * max(0, -(d_eta * m).adjusted())
    with decimal.localcontext(decimal.Context(prec=digits)):
        e = (-m).exp()
        nonempty = 1 - e  # P(N >= 1)
        inv_n2 = (m - 1 + e) / (m * m) - e / 2  # sum over N >= 1 of P(N)/(N+2)
        answer = min(d_eta * m, nonempty)
        # P(N = n), and the mass and the (N+1)/(N+2)-weighted mass of N >= n
        n, p, tail, wtail = 1, m * e, nonempty, nonempty - inv_n2
        while tail - p >= answer:  # the device answers on every N > n
            tail, wtail = tail - p, wtail - p * (n + 1) / (n + 2)
            n += 1
            p *= m / n
        return float((wtail - (tail - answer) * (n + 1) / (n + 2)) / answer)


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
