"""Estimation procedures for arrival histograms and sweep series.

Window counting, background-subtracted storage efficiency, signal-to-
background ratio, the exponential coherence-time fit, the power-law fit of
the control-induced background, and the per-state summary report with the
classical limits its average fidelity is measured against.

All estimators work on per-pulse normalized counts, so they are invariant
under a joint rescaling of trials.  Background subtraction may go negative
on noisy data; values are reported as-is (with a warning) to keep the
estimators unbiased.
"""

import math
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import ArrivalHistogram, FitResult, SweepSeries, Window
from .errors import ConfigError, DataError, FitError, UndefinedRatioError, named
from .noise_model import MEAN_LIMIT, classical_fidelity_limit
from .polarization import (
    CANONICAL_STATES,
    STATE_NAMES,
    StokesVector,
    apply_rotation,
    fidelity,
    fit_rotation,
    stokes_from_qubit,
)

_ALIGN_TOL = 1e-6


def _bin_index(t: float, hist: ArrivalHistogram, what: str) -> int:
    x = (t - hist.t_start) / hist.bin_width
    if not -0.5 < x < len(hist.counts) + 0.5:  # also rejects an overflowed x = inf
        raise DataError(f"{what} {t} lies outside the histogram span")
    i = round(x)
    if abs(x - i) > _ALIGN_TOL:
        raise DataError(f"{what} {t} is not aligned to the histogram bins")
    return i


def roi_counts(hist: ArrivalHistogram, w: Window) -> int:
    """Total counts inside a bin-aligned window."""
    i0 = _bin_index(w.start, hist, "window start")
    i1 = _bin_index(w.end, hist, "window end")
    return int(hist.counts[i0:i1].sum())


def storage_efficiency(
    storage: ArrivalHistogram, reference: ArrivalHistogram, roi: Window, bg: Window
) -> float:
    """Background-subtracted ROI counts over total reference counts.

    Both histograms are normalized per pulse first, so differing trial
    counts are handled.  On noisy data the estimate may fall below 0 or, for
    a memory near 100%, rise above 1; either is returned unclamped (with a
    warning).
    """
    if abs(roi.duration - bg.duration) > 1e-9:
        raise ConfigError("ROI and background windows must have equal duration")
    ref_total = reference.total()
    if ref_total == 0:
        raise DataError("reference histogram is empty")
    net = roi_counts(storage, roi) - roi_counts(storage, bg)
    efficiency = net * (reference.n_trials / storage.n_trials) / ref_total
    if efficiency < 0:
        warnings.warn("negative background-subtracted counts; efficiency estimate is < 0")
    elif efficiency > 1:
        warnings.warn(f"efficiency estimate {efficiency} is above 1")
    return efficiency


def sbr(storage: ArrivalHistogram, roi: Window, bg: Window) -> float:
    """Signal-to-background ratio: (ROI − background-window)/(background-window)."""
    if abs(roi.duration - bg.duration) > 1e-9:
        raise ConfigError("ROI and background windows must have equal duration")
    n_bg = roi_counts(storage, bg)
    if n_bg == 0:
        raise UndefinedRatioError("background window holds zero counts; SBR undefined")
    return (roi_counts(storage, roi) - n_bg) / n_bg


def _fit_exp_model(g: np.ndarray, y: np.ndarray, sigma: np.ndarray):
    """Weighted least-squares fit of y = a exp(b g); returns (a, b, a_err, b_err, residual_norm).

    Fits y = c exp(b (g - gm)) about the 1/sigma^2-weighted mean abscissa gm,
    so how far g lies from 0 does not matter.  Starts from the weighted
    straight-line fit of ln y over the points with y > 0, then iterates
    Gauss-Newton with the analytic Jacobian, halving any step that raises the
    cost, until a step moves the fit by less than 1e-9 standard deviations.
    Sigmas are absolute (non-positive ones count as unit): cov is inv(J^T J)
    of the sigma-weighted Jacobian at the solution.  a = c exp(-b gm) and its
    stderr follow by the delta method; they must be finite floats.
    """
    if not all(np.all(np.isfinite(v)) for v in (g, y, sigma)):
        raise DataError("fit inputs must be finite")
    sigma = np.where(sigma > 0, sigma, 1.0)
    inv_var = (sigma.min() / sigma) ** 2  # 1/sigma^2, scaled so that it cannot overflow
    gm = float(inv_var @ g / inv_var.sum())
    g = g - gm
    pos = y > 0
    # ln y = ln c + b g, weighted by the propagated log-error y/sigma
    w = y[pos] / sigma[pos]
    (log_c, b), _, rank, _ = np.linalg.lstsq(
        np.column_stack([w, w * g[pos]]), w * np.log(y[pos]), rcond=None
    )
    if rank < 2:
        raise FitError("need positive values at 2 or more distinct abscissas")

    def residuals(theta):
        return (theta[0] * np.exp(theta[1] * g) - y) / sigma

    theta = np.array([np.exp(log_c), b])
    r = residuals(theta)
    if not np.all(np.isfinite(r)):
        raise FitError(f"the log-linear start (ln c={log_c}, b={b}) overflows the model")
    for _ in range(100):
        e = np.exp(theta[1] * g) / sigma
        jac = np.column_stack([e, theta[0] * g * e])
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        if np.linalg.norm(jac @ step) < 1e-9:
            break
        # Near the solution the cost change drops below its rounding error,
        # so a step is accepted unless it raises the cost beyond that.
        while not (r_step := residuals(theta + step)) @ r_step <= (r @ r) * (1 + 1e-12):
            step /= 2
        theta, r = theta + step, r_step
    else:
        raise FitError("weighted fit did not converge in 100 Gauss-Newton steps")
    c, b = theta
    cov = np.linalg.inv(jac.T @ jac)
    with np.errstate(all="ignore"):  # a value beyond the float range fails below
        grad = np.array([1.0 / c, -gm])  # of ln a = ln c - b gm
        a = c * np.exp(-b * gm)
        a_err, b_err = a * np.sqrt(grad @ cov @ grad), np.sqrt(cov[1, 1])
    if not (0 < a < np.inf and np.all(np.isfinite([a_err, b_err]))):
        raise FitError(f"amplitude {a} +- {a_err} at g = 0 is not a finite float > 0 (b={b})")
    return float(a), float(b), float(a_err), float(b_err), float(np.linalg.norm(r))


def fit_exponential_decay(series: SweepSeries) -> FitResult:
    """Weighted least-squares fit of y = A exp(-t/tau), converged, with absolute sigmas.

    The shared model y = a exp(b g) of `_fit_exp_model` with g = t, A = a and
    tau = -1/b; the stderr of tau follows by the delta method, exact for this
    reparametrization of the covariance inv(J^T J).
    """
    t, y = series.x, series.y
    if len(t) < 3:
        raise DataError(f"need at least 3 points, got {len(t)}")
    if np.any(y <= 0):
        raise DataError("decay fit needs strictly positive values")
    a, b, a_err, b_err, residual_norm = _fit_exp_model(t, y, series.y_err)
    if b >= -1e-12 * max(abs(math.log(a)), 1.0):
        raise FitError("no decay detected; 1/e time is unbounded")
    tau = -1.0 / b
    return FitResult(
        params={"amplitude": a, "tau": tau},
        stderr={"amplitude": a_err, "tau": tau**2 * b_err},
        residual_norm=residual_norm,
        n_points=len(t),
    )


def fit_sqrt_background(background: SweepSeries, technical: SweepSeries) -> FitResult:
    """Power-law fit of the technical-subtracted background vs. control power.

    Subtracts the technical series pointwise and fits y = a * P**c with the
    exponent free, so a square-root scaling is an outcome (c near 0.5), not
    an assumption: the shared model of `_fit_exp_model` with g = ln P and
    c = b, converged, with the errors of both series added in quadrature as
    absolute sigmas.  Zero-power points carry no information on c and are
    skipped.
    """
    p = np.asarray(background.x, dtype=float)
    if len(p) != len(technical.x) or not np.allclose(p, technical.x, rtol=0, atol=1e-12):
        raise DataError("background and technical sweeps must share abscissas")
    if np.any(p < 0):
        raise DataError("powers must be >= 0")
    use = p > 0
    if not np.any(use):
        raise DataError("no point at control power > 0 to fit")
    d = background.y - technical.y
    sigma = np.sqrt(background.y_err**2 + technical.y_err**2)
    if not np.any(d > 0):
        raise DataError("subtracted series has no positive values to fit")

    a, c, a_err, c_err, residual_norm = _fit_exp_model(np.log(p[use]), d[use], sigma[use])
    return FitResult(
        params={"a": a, "c": c},
        stderr={"a": a_err, "c": c_err},
        residual_norm=residual_norm,
        n_points=int(use.sum()),
    )


@dataclass(frozen=True)
class StateResult:
    sbr: float
    fidelity: float
    efficiency: float  # unclamped: below 0 or above 1 on noisy data (see storage_efficiency)


@dataclass(frozen=True)
class StorageReport:
    """Per-state SBR / fidelity / efficiency, their average and standard
    error, and the classical limits at the mean input photon number mu per
    pulse, as build_report works them out."""

    states: dict
    average: dict
    sem: dict
    classical: dict

    def to_json(self) -> dict:
        states = {name: asdict(r) for name, r in self.states.items()}
        return {"states": states, "average": self.average, "sem": self.sem,
                "classical_limit": self.classical}

    def to_text(self) -> str:
        rows = [(name, asdict(r)) for name, r in self.states.items()]
        rows += [("average", self.average), ("sem", self.sem)]
        lines = [f"{'state':<8}{'SBR':>8}{'fidelity':>10}{'efficiency':>12}"]
        lines += [f"{name:<8}{v['sbr']:>8.3f}{v['fidelity']:>10.4f}{v['efficiency']:>12.4f}"
                  for name, v in rows]
        c = self.classical
        limits = [("", c["f_classical"], c["f_avg_minus_f_classical"]),
                  (f", eta = {c['eta']:.4f}", c["f_classical_eta"], c["f_avg_minus_f_classical_eta"])]
        lines += [f"classical limit, mu = {c['mu']:g}{at}: {f:.4f}; "
                  f"average fidelity minus it: {d:+.4f}" for at, f, d in limits if f is not None]
        if c["f_classical"] is None:
            lines.append(f"classical limit, mu = {c['mu']:g}: none outside 0 < mu < {MEAN_LIMIT:g}")
        return "\n".join(lines)


def build_report(
    storage: dict,
    reference: ArrivalHistogram,
    roi: Window,
    bg: Window,
    measured_stokes: dict,
    mu: float,
    sources: dict | None = None,
) -> StorageReport:
    """Summary over the six canonical states, and the classical limits at mu.

    storage maps state name to its (analyzer-free) histogram; measured_stokes
    maps state name to the polarimetry-fitted Stokes vector of the retrieved
    light.  Fidelities follow the alignment procedure: fit the best rotation
    from ideal inputs to the measured directions, rotate the inputs, then
    compare each measured state against its rotated input.  The average and
    standard error of each column follow from the states.

    An efficiency outside [0, 1] or a fidelity above 1 is kept unclamped and
    warned of once.  Such a warning, and an error in a state's efficiency or
    SBR, names its state and, when sources maps the state to a description
    of its input files, those files.

    mu is the mean input photon number per pulse.  The classical limits are
    taken at mu, without eta and with the average efficiency as eta, and the
    average fidelity minus each is reported: plain differences, with no
    error.  At eta >= 1 the two limits are equal; at eta <= 0 the eta-aware
    limit is undefined, so it and its difference are None, with a warning.
    Outside classical_fidelity_limit's domain 0 < mu < MEAN_LIMIT, both
    limits and both differences are None, with a warning.
    """
    for name, mapping in (("storage histogram", storage), ("measured Stokes", measured_stokes)):
        missing = [s for s in STATE_NAMES if s not in mapping]
        if missing:
            raise DataError(f"{name} missing for states {missing}")

    ideals = [stokes_from_qubit(CANONICAL_STATES[s]) for s in STATE_NAMES]
    measured = [measured_stokes[s].normalize() for s in STATE_NAMES]
    directions = [
        StokesVector(1.0, *(m.vec3 / m.dop)) if m.dop > 0 else m for m in measured
    ]
    rot = fit_rotation(ideals, directions)
    fids = [fidelity(apply_rotation(rot, i), m) for i, m in zip(ideals, measured)]

    states = {}
    for name, f in zip(STATE_NAMES, fids):
        with named(f"state {name}" + (f" ({sources[name]})" if sources else "")):
            efficiency = storage_efficiency(storage[name], reference, roi, bg)
            if f > 1:
                warnings.warn(f"fidelity estimate {f} is above 1")
            states[name] = StateResult(sbr(storage[name], roi, bg), f, efficiency)

    columns = {f.name: np.array([getattr(r, f.name) for r in states.values()])
               for f in fields(StateResult)}
    average = {k: float(v.mean()) for k, v in columns.items()}
    sem = {k: float(v.std(ddof=1) / math.sqrt(len(v))) for k, v in columns.items()}

    fid, eta = average["fidelity"], average["efficiency"]
    f_cl = f_eta = None
    if not 0 < mu < MEAN_LIMIT:
        warnings.warn(f"mu = {mu} lies outside (0, {MEAN_LIMIT:g}), where the classical limits "
                      "are computed: no classical limit is reported")
    else:
        f_cl = classical_fidelity_limit(mu, 1.0)
        if eta > 0:
            f_eta = classical_fidelity_limit(mu, eta)
        else:
            warnings.warn(f"average efficiency {eta} <= 0: "
                          "only the eta-free classical limit is reported")
    classical = {
        "mu": mu,
        "eta": eta,
        "f_classical": f_cl,
        "f_classical_eta": f_eta,
        "f_avg_minus_f_classical": None if f_cl is None else fid - f_cl,
        "f_avg_minus_f_classical_eta": None if f_eta is None else fid - f_eta,
    }
    return StorageReport(states, average, sem, classical)
