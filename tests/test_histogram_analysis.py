"""Estimator tests: window arithmetic, the two fits, and the state report."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polmem.errors import ConfigError, DataError, FitError, UndefinedRatioError
from polmem.histogram_analysis import (
    StateResult,
    Window,
    build_report,
    fit_exponential_decay,
    fit_sqrt_background,
    roi_counts,
    sbr,
    storage_efficiency,
)
from polmem.memory_sim import (
    ArrivalHistogram,
    MemoryConfig,
    SweepSeries,
    simulate_background_sweep,
    simulate_decay_series,
    simulate_histogram,
    simulate_reference,
)
from polmem.polarization import CANONICAL_STATES, STATE_NAMES, StokesVector, stokes_from_qubit

ROI = Window(2.4, 3.4)
BG = Window(6.0, 7.0)
MU = 1.6  # mean input photons per pulse, for the report's classical limits


def make_hist(roi_total=0, bg_total=0, n_trials=1000, n_bins=160, bin_width=0.05):
    """Histogram with the requested totals parked inside the two windows."""
    counts = np.zeros(n_bins, dtype=np.int64)
    counts[50] = roi_total  # 2.50 us, inside ROI
    counts[125] = bg_total  # 6.25 us, inside background window
    return ArrivalHistogram(0.0, bin_width, counts, n_trials)


# ----------------------------------------------------------------- windows


def test_window_validation():
    assert Window(0.0, 1.0).duration == 1.0
    with pytest.raises(ConfigError):
        Window(2.0, 2.0)
    with pytest.raises(ConfigError):
        Window(-0.5, 1.0)


def test_roi_counts_arithmetic():
    assert roi_counts(make_hist(), ROI) == 0
    uniform = ArrivalHistogram(0.0, 0.05, np.full(160, 2, dtype=np.int64), 100)
    assert roi_counts(uniform, ROI) == 40  # 20 bins of 2
    assert roi_counts(uniform, Window(0.0, 8.0)) == 320


def test_roi_counts_window_checks():
    hist = make_hist()
    with pytest.raises(DataError):
        roi_counts(hist, Window(2.41, 3.41))  # not on the bin grid
    with pytest.raises(DataError):
        roi_counts(hist, Window(7.0, 9.0))  # beyond the span
    with pytest.raises(DataError):  # (t - t_start) / bin_width overflows to inf
        roi_counts(ArrivalHistogram(0.0, 1e-320, [1, 2], 1), Window(2.4, 3.4))


def test_roi_counts_golden_simulated_value():
    # frozen regression against the simulator at a fixed seed
    hist = simulate_histogram(
        MemoryConfig(), CANONICAL_STATES["R"], None, 250_000, 2024
    )
    assert roi_counts(hist, ROI) == 27723
    assert roi_counts(hist, BG) == 1235
    assert hist.total() == 33404


# -------------------------------------------------------------- efficiency


def test_storage_efficiency_arithmetic():
    storage = make_hist(850, 300, n_trials=1000)
    reference = ArrivalHistogram(0.0, 0.05, np.array([10_000] + [0] * 159), 1000)
    assert storage_efficiency(storage, reference, ROI, BG) == pytest.approx(0.055)
    flat = make_hist(300, 300, n_trials=1000)
    assert storage_efficiency(flat, reference, ROI, BG) == 0.0


def test_storage_efficiency_rescales_trial_ratio():
    reference = ArrivalHistogram(0.0, 0.05, np.array([10_000] + [0] * 159), 1000)
    doubled = make_hist(1700, 600, n_trials=2000)
    assert storage_efficiency(doubled, reference, ROI, BG) == pytest.approx(0.055)


def test_storage_efficiency_negative_flagged_not_clamped():
    storage = make_hist(100, 300, n_trials=1000)
    reference = ArrivalHistogram(0.0, 0.05, np.array([10_000] + [0] * 159), 1000)
    with pytest.warns(UserWarning, match="negative"):
        eff = storage_efficiency(storage, reference, ROI, BG)
    assert eff == pytest.approx(-0.02)


def test_storage_efficiency_errors():
    storage = make_hist(10, 5)
    empty_ref = make_hist(0, 0)
    with pytest.raises(DataError):
        storage_efficiency(storage, empty_ref, ROI, BG)
    ref = make_hist(100, 0)
    with pytest.raises(ConfigError):
        storage_efficiency(storage, ref, Window(2.4, 3.4), Window(6.0, 6.5))


# --------------------------------------------------------------------- sbr


def test_sbr_arithmetic():
    assert sbr(make_hist(268, 100), ROI, BG) == pytest.approx(1.68)
    assert sbr(make_hist(100, 100), ROI, BG) == 0.0
    assert sbr(make_hist(200, 100), ROI, BG) == pytest.approx(1.0)


def test_sbr_zero_background_undefined():
    with pytest.raises(UndefinedRatioError):
        sbr(make_hist(100, 0), ROI, BG)


def test_estimators_invariant_under_count_rescaling():
    base = make_hist(850, 300, n_trials=1000)
    scaled = make_hist(8500, 3000, n_trials=10_000)
    reference = ArrivalHistogram(0.0, 0.05, np.array([10_000] + [0] * 159), 1000)
    assert sbr(base, ROI, BG) == sbr(scaled, ROI, BG)
    assert storage_efficiency(base, reference, ROI, BG) == pytest.approx(
        storage_efficiency(scaled, reference, ROI, BG)
    )


# -------------------------------------------------------------- decay fit


def exact_decay(a=0.05, tau=19.3, n=8, tmax=35.0):
    t = np.linspace(0.0, tmax, n)
    return SweepSeries(t, a * np.exp(-t / tau), np.zeros(n), "storage_time_us", "efficiency")


def test_decay_fit_exact_round_trip():
    fit = fit_exponential_decay(exact_decay())
    assert math.isclose(fit.params["tau"], 19.3, rel_tol=1e-6)
    assert math.isclose(fit.params["amplitude"], 0.05, rel_tol=1e-6)
    assert fit.residual_norm < 1e-9
    assert fit.n_points == 8


def test_decay_fit_noisy_recovery_within_errors(base=7):
    rng = np.random.default_rng(base)
    t = np.linspace(0.0, 35.0, 8)
    trials = 1_000_000
    truth = 0.05 * np.exp(-t / 19.3)
    counts = rng.poisson(truth * trials)
    series = SweepSeries(t, counts / trials, np.sqrt(counts) / trials)
    fit = fit_exponential_decay(series)
    assert abs(fit.params["tau"] - 19.3) <= 3 * fit.stderr["tau"]
    assert fit.stderr["tau"] > 0


def test_decay_fit_degenerate_inputs():
    with pytest.raises(FitError):
        fit_exponential_decay(
            SweepSeries([0.0, 1.0, 2.0], [0.05, 0.05, 0.05], [0.0] * 3)
        )
    with pytest.raises(DataError):
        fit_exponential_decay(SweepSeries([0.0, 1.0, 2.0], [0.05, 0.0, 0.01], [0.0] * 3))
    with pytest.raises(DataError):
        fit_exponential_decay(SweepSeries([0.0, 1.0], [0.05, 0.04], [0.0] * 2))


def test_decay_fit_growing_series_rejected():
    t = np.linspace(0.0, 10.0, 5)
    with pytest.raises(FitError):
        fit_exponential_decay(SweepSeries(t, 0.01 * np.exp(t / 5.0), np.zeros(5)))


def shifted_decay(t0):
    """Eight noisy points of a 19.3-us decay starting at t0, 2% errors."""
    dt = np.linspace(0.0, 35.0, 8)
    y = 0.05 * np.exp(-dt / 19.3) * (1 + np.random.default_rng(1).normal(0.0, 0.02, 8))
    return SweepSeries(t0 + dt, y, 0.02 * y, "storage_time_us", "efficiency")


def test_decay_fit_independent_of_time_origin():
    taus = [fit_exponential_decay(shifted_decay(t0)).params["tau"]
            for t0 in (0.0, 200.0, 2000.0, 5000.0, 10000.0)]
    assert taus == pytest.approx([taus[0]] * len(taus), rel=1e-9)


# ---------------------------------------------------- both sweep fits


@pytest.fixture(scope="module")
def acceptance_sweeps():
    """The simulated sweeps of acceptance criteria 5 and 6 (same configs and seeds)."""
    decay = simulate_decay_series(MemoryConfig(), list(np.linspace(0.0, 35.0, 8)), 1_000_000, 500)
    cfg = MemoryConfig(eta_h=0.0, eta_v=0.0, bg_rate=0.004, tech_rate=0.002)
    background, technical = simulate_background_sweep(
        cfg, [0.5, 1.0, 2.0, 4.0, 8.0, 16.0], 2_000_000, 600
    )
    return decay, background, technical


def _weighted_jacobian_step(model, dmodel, y, sigma):
    """Gauss-Newton step and inv(J^T J) of the sigma-weighted model at a point."""
    sigma = np.where(sigma > 0, sigma, 1.0)
    jac = np.column_stack(dmodel) / sigma[:, None]
    step, *_ = np.linalg.lstsq(jac, (y - model) / sigma, rcond=None)
    return step, np.linalg.inv(jac.T @ jac)


def test_sweep_fits_converged_with_jacobian_stderr(acceptance_sweeps):
    decay, background, technical = acceptance_sweeps
    fit = fit_exponential_decay(decay)
    a, tau = fit.params["amplitude"], fit.params["tau"]
    t = decay.x
    model = a * np.exp(-t / tau)
    step, cov = _weighted_jacobian_step(
        model, (model / a, model * t / tau**2), decay.y, decay.y_err
    )
    checks = [(step, (a, tau), cov, (fit.stderr["amplitude"], fit.stderr["tau"]))]

    fit = fit_sqrt_background(background, technical)
    a, c = fit.params["a"], fit.params["c"]
    p = background.x
    model = a * p**c
    step, cov = _weighted_jacobian_step(
        model, (model / a, model * np.log(p)), background.y - technical.y,
        np.sqrt(background.y_err**2 + technical.y_err**2),
    )
    checks.append((step, (a, c), cov, (fit.stderr["a"], fit.stderr["c"])))

    for step, params, cov, stderr in checks:
        # one further Gauss-Newton step no longer moves the solution
        assert np.all(np.abs(step) < 1e-9 * np.abs(params)), (step, params)
        assert_allclose(stderr, np.sqrt(np.diag(cov)), rtol=1e-6)


# ---------------------------------------------------------- power-law fit


def power_series(powers, a=0.002, c=0.5, tech=0.001):
    p = np.asarray(powers, dtype=float)
    bg = SweepSeries(p, tech * p + a * p**c, np.zeros(len(p)), "control_power", "counts_per_pulse")
    te = SweepSeries(p, tech * p, np.zeros(len(p)), "control_power", "counts_per_pulse")
    return bg, te


def test_power_fit_exact_round_trip():
    bg, te = power_series([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    fit = fit_sqrt_background(bg, te)
    assert math.isclose(fit.params["a"], 0.002, rel_tol=1e-6)
    assert math.isclose(fit.params["c"], 0.5, rel_tol=1e-6)
    # the zero-power point is consistent with the model but carries no slope info
    assert fit.n_points == 6


def test_power_fit_monte_carlo_exponent(base=11):
    rng = np.random.default_rng(base)
    p = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    trials = 2_000_000
    estimates = []
    for _ in range(12):
        bg_mean = 0.001 * p + 0.002 * np.sqrt(p)
        te_mean = 0.001 * p
        cb = rng.poisson(bg_mean * trials)
        ct = rng.poisson(te_mean * trials)
        bg = SweepSeries(p, cb / trials, np.sqrt(cb) / trials)
        te = SweepSeries(p, ct / trials, np.sqrt(ct) / trials)
        estimates.append(fit_sqrt_background(bg, te).params["c"])
    mean_c = float(np.mean(estimates))
    assert abs(mean_c - 0.5) <= 0.02
    assert np.std(estimates) < 0.02


def test_power_fit_errors():
    bg, te = power_series([0.0, 1.0, 2.0])
    other = SweepSeries([0.0, 1.0, 3.0], te.y, te.y_err)
    with pytest.raises(DataError):
        fit_sqrt_background(bg, other)
    zero_bg, zero_te = power_series([0.0, 1.0, 2.0], a=0.0, tech=0.0)
    with pytest.raises(DataError):
        fit_sqrt_background(zero_bg, zero_te)


# ------------------------------------------------------------------ report


def ideal_stokes():
    return {n: stokes_from_qubit(CANONICAL_STATES[n]) for n in STATE_NAMES}


def test_report_identical_inputs_zero_sem():
    storage = {n: make_hist(268, 100, n_trials=1000) for n in STATE_NAMES}
    reference = ArrivalHistogram(0.0, 0.05, np.array([10_000] + [0] * 159), 1000)
    report = build_report(storage, reference, ROI, BG, ideal_stokes(), MU)
    for key in ("sbr", "fidelity", "efficiency"):
        assert report.sem[key] == pytest.approx(0.0, abs=1e-12)
    assert report.average["sbr"] == pytest.approx(1.68)
    assert report.average["fidelity"] == pytest.approx(1.0)
    assert report.average["efficiency"] == pytest.approx(0.0168)


def test_report_averages_are_means():
    rng = np.random.default_rng(13)
    storage = {
        n: make_hist(int(rng.integers(200, 400)), int(rng.integers(80, 120)), 1000)
        for n in STATE_NAMES
    }
    reference = ArrivalHistogram(0.0, 0.05, np.array([10_000] + [0] * 159), 1000)
    report = build_report(storage, reference, ROI, BG, ideal_stokes(), MU)
    for key in ("sbr", "fidelity", "efficiency"):
        vals = [getattr(report.states[n], key) for n in STATE_NAMES]
        assert report.average[key] == pytest.approx(np.mean(vals), abs=1e-12)
        assert report.sem[key] == pytest.approx(
            np.std(vals, ddof=1) / math.sqrt(6), abs=1e-12
        )


def test_report_fidelity_uses_best_rotation():
    # measured directions globally rotated: alignment must recover F ~ 1
    from polmem.polarization import Rotation3, apply_rotation

    rot = Rotation3.about_axis([0.3, 1.0, -0.2], 0.4)
    measured = {
        n: apply_rotation(rot, stokes_from_qubit(CANONICAL_STATES[n]))
        for n in STATE_NAMES
    }
    storage = {n: make_hist(268, 100, 1000) for n in STATE_NAMES}
    reference = ArrivalHistogram(0.0, 0.05, np.array([10_000] + [0] * 159), 1000)
    report = build_report(storage, reference, ROI, BG, measured, MU)
    for n in STATE_NAMES:
        assert report.states[n].fidelity == pytest.approx(1.0, abs=1e-9)


def test_report_diluted_states_give_half_one_plus_dop():
    dop = 0.57
    measured = {
        n: StokesVector(1.0, *(dop * stokes_from_qubit(CANONICAL_STATES[n]).vec3))
        for n in STATE_NAMES
    }
    storage = {n: make_hist(268, 100, 1000) for n in STATE_NAMES}
    reference = ArrivalHistogram(0.0, 0.05, np.array([10_000] + [0] * 159), 1000)
    report = build_report(storage, reference, ROI, BG, measured, MU)
    assert report.average["fidelity"] == pytest.approx(0.5 * (1 + dop), abs=1e-9)


def test_report_missing_state_rejected():
    storage = {n: make_hist(268, 100, 1000) for n in STATE_NAMES if n != "L"}
    reference = ArrivalHistogram(0.0, 0.05, np.array([10_000] + [0] * 159), 1000)
    with pytest.raises(DataError, match="L"):
        build_report(storage, reference, ROI, BG, ideal_stokes(), MU)


def test_report_serialization_shapes():
    storage = {n: make_hist(268, 100, 1000) for n in STATE_NAMES}
    reference = ArrivalHistogram(0.0, 0.05, np.array([10_000] + [0] * 159), 1000)
    report = build_report(storage, reference, ROI, BG, ideal_stokes(), MU)
    data = report.to_json()
    assert set(data) == {"states", "average", "sem", "classical_limit"}
    assert set(data["states"]) == set(STATE_NAMES)
    text = report.to_text()
    assert text.splitlines()[0].split() == ["state", "SBR", "fidelity", "efficiency"]
    assert any(line.startswith("average") for line in text.splitlines())
    limits = [line for line in text.splitlines() if line.startswith("classical limit")]
    assert limits == [
        "classical limit, mu = 1.6: 0.7340; average fidelity minus it: +0.2660",
        "classical limit, mu = 1.6, eta = 0.0168: 0.8591; average fidelity minus it: +0.1409",
    ]


def test_state_result_validates_efficiency_range():
    # the estimate is never clamped: on noisy data it may fall below 0 or rise above 1
    assert StateResult(sbr=1.0, fidelity=0.9, efficiency=1.2).efficiency == 1.2
    assert StateResult(sbr=1.0, fidelity=0.9, efficiency=-0.01).efficiency == -0.01


def test_report_ideal_memory_efficiency_above_1_reported_with_warning():
    # an ideal memory's signal and reference are both chain * p_in, so the
    # expected estimate is exactly 1 and noise lifts it above 1 half the time
    config = MemoryConfig(eta_h=1.0, eta_v=1.0)
    storage = {n: simulate_histogram(config, CANONICAL_STATES[n], None, 100_000, 2 + i)
               for i, n in enumerate(STATE_NAMES)}
    reference = simulate_reference(config, 100_000, 101)
    with pytest.warns(UserWarning, match="above 1") as caught:
        report = build_report(storage, reference, ROI, BG, ideal_stokes(), MU)
    above = [n for n in STATE_NAMES if report.states[n].efficiency > 1.0]
    assert above
    # once per state, naming it
    assert [str(w.message) for w in caught] == [
        f"state {n}: efficiency estimate {report.states[n].efficiency!r} is above 1" for n in above
    ]
    # an efficiency above 1 lets the device answer on every non-empty pulse
    limits = report.classical
    assert limits["eta"] > 1.0
    assert limits["f_classical_eta"] == limits["f_classical"]


def test_report_negative_efficiency_reported_with_warning():
    storage = {n: make_hist(100, 120, n_trials=1000) for n in STATE_NAMES}
    reference = ArrivalHistogram(0.0, 0.05, np.array([10_000] + [0] * 159), 1000)
    with pytest.warns(UserWarning) as caught:
        report = build_report(storage, reference, ROI, BG, ideal_stokes(), MU)
    assert report.average["efficiency"] == pytest.approx(-0.002)
    assert report.average["sbr"] == pytest.approx(-20 / 120)
    assert [str(w.message) for w in caught[:-1]] == [
        f"state {n}: negative background-subtracted counts; efficiency estimate is < 0"
        for n in STATE_NAMES
    ]
    # no eta-aware limit at an efficiency <= 0: the eta-free one stands alone
    assert str(caught[-1].message) == (
        f"average efficiency {report.average['efficiency']} <= 0: "
        "only the eta-free classical limit is reported"
    )
    limits = report.to_json()["classical_limit"]
    assert limits["f_classical_eta"] is None and limits["f_avg_minus_f_classical_eta"] is None
    assert limits["f_avg_minus_f_classical"] == 1.0 - limits["f_classical"]
    assert sum("classical limit" in line for line in report.to_text().splitlines()) == 1
