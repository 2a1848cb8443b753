"""Closed-form detection model for a two-ensemble memory with Poissonian noise.

Signal photons are Poissonian with mean eta*p (storage efficiency times mean
input photon number); background photons are Poissonian with mean q.  A
click/no-click detector that sees n signal and m background photons reports
a signal photon with probability n/(n+m).  Summed over every (n, m), this
gives the detection probabilities in closed form, from which fidelity and
signal-to-background ratio follow.  Beside the model sits the classical limit
that its fidelity is measured against: the best measure-and-prepare device
for Poissonian input pulses.

The model's Monte Carlo oracle draws n and m literally, each by exact
inverse-CDF sampling from a Poisson table with a guide table, and makes the
n/(n+m) pick with a third uniform, so it checks the closed form without
resting on the thinning identity the closed form uses.
"""

import decimal
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, UndefinedRatioError
from .streams import check_trials, map_chunks, usable_cpus

# every Poisson mean here lies below this, so that exp(-mean) is a normal float
MEAN_LIMIT = 708.0
# buckets of the oracle's guide table over [0, 1)
_GUIDE_BUCKETS = 4096


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
    exact to the float it is returned as.  mu must lie in (0, MEAN_LIMIT),
    where P(N = 0) = e^-mu is a normal float.
    """
    if not 0 < mu < MEAN_LIMIT:
        raise DataError(f"mu must lie in (0, {MEAN_LIMIT:g}), where exp(-mu) is a normal float, got {mu}")
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


class _PoissonInverseCdf:
    """Exact Poisson draws of one mean from uniforms on [0, 1).

    cdf[k] = P(N <= k) is summed left to right from p_0 = e^-mean and
    p_{k+1} = p_k mean/(k+1), past the mean until a term drops below 1e-17,
    and its last entry is set to 1.  A uniform u draws N = #{k : cdf[k] <= u},
    which is np.searchsorted(cdf, u, side="right").  A guide table (Chen and
    Asau, AIIE Trans. 6, 163 (1974)) splits [0, 1) into equal buckets: one
    that holds no cdf entry gives the same N to every u in it, so only draws
    in the few buckets that hold one are searched.
    """

    def __init__(self, mean: float):
        p = total = math.exp(-mean)
        cdf, k = [total], 0
        while k <= mean or p >= 1e-17:
            k += 1
            p *= mean / k
            total += p
            cdf.append(total)
        cdf[-1] = 1.0
        # a sum that rounds above 1 before the end is never <= u: capping it keeps cdf sorted
        self.cdf = np.minimum(cdf, 1.0)
        edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
        first = np.searchsorted(self.cdf, edges[:-1], side="right")  # N at the bucket's left edge
        last = np.searchsorted(self.cdf, edges[1:], side="left")  # N just below its right edge
        self._guide = np.where(first == last, first, -1).astype(np.int32)
        # scaling by a power of two is exact: u * B in cdf * B ranks as u in cdf (B buckets)
        self._scaled = self.cdf * _GUIDE_BUCKETS

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """Counts (int32) for the uniforms u, which are scaled in place."""
        u *= _GUIDE_BUCKETS
        n = self._guide[u.astype(np.intp)]
        searched = np.flatnonzero(n < 0)
        n[searched] = np.searchsorted(self._scaled, u[searched], side="right")
        return n


def mc_detection_oracle(
    params: NoiseModelParams, trials: int, seed: int, workers: int | None = None
) -> DetectionProbs:
    """Monte Carlo estimate of the detection probabilities.

    Per trial, draws the Poisson pair (n, m) and detects one photon: signal
    with probability n/(n+m), background otherwise; no photons, no
    detection.  Each chunk draws three uniform vectors in order, for n, for m
    and for the pick: n and m by inverse CDF (see _PoissonInverseCdf), and a
    signal click where u * (n + m) < n.  Both means must lie below
    MEAN_LIMIT.  Output is a pure function of (params, trials, seed): it is
    bit-identical for any `workers`, which defaults to the usable CPU count
    (`streams.usable_cpus`); `workers=1` runs serially.
    """
    check_trials(trials)
    sp, q = params.signal_mean, params.q
    for what, mean in (("signal mean (eta * p)", sp), ("background mean (q)", q)):
        if not mean < MEAN_LIMIT:
            raise ConfigError(f"{what} {mean:.6g} is not below {MEAN_LIMIT:g}, "
                              "where exp(-mean) is a normal float")
    if sp == q == 0:
        return DetectionProbs(0.0, 0.0)
    if workers is None:
        workers = usable_cpus()
    signal, background = _PoissonInverseCdf(sp), _PoissonInverseCdf(q)

    def run(rng, size):
        u = rng.random(size)  # one buffer for all three uniform vectors
        n = signal(u)
        rng.random(out=u)
        tot = background(u)
        tot += n
        rng.random(out=u)
        u *= tot
        n_det = int(np.count_nonzero(tot))
        n_sig = int(np.count_nonzero(u < n))
        return n_sig, n_det - n_sig

    counts = map_chunks(run, trials, seed, workers)
    n_sig = sum(c[0] for c in counts)
    n_bg = sum(c[1] for c in counts)
    return DetectionProbs(n_sig / trials, n_bg / trials)
