"""Simulator tests: closed-form means, determinism, serialization.

Aggregate counts are compared against analytic Poisson means (the noise
model's closed forms) at three standard errors with fixed seeds.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polmem.errors import ConfigError, DataError
from polmem.memory_sim import (
    DECAY_SCAN_STATE,
    INPUT_PULSE_US,
    MAX_BINS,
    ArrivalHistogram,
    MemoryConfig,
    SweepSeries,
    retrieved_stokes,
    simulate_background_sweep,
    simulate_decay_series,
    simulate_histogram,
    simulate_polarimetry_sweep,
    simulate_reference,
)
from polmem.polarization import (
    CANONICAL_STATES,
    QubitAngles,
    fit_stokes,
    qwp_polarimeter_intensity,
    stokes_from_qubit,
)
from polmem.histogram_analysis import Window, roi_counts
from polmem.streams import POISSON_MEAN_MAX, check_poisson_mean

H = CANONICAL_STATES["H"]
V = CANONICAL_STATES["V"]
D = CANONICAL_STATES["D"]


def windows(config):
    return (
        Window(config.roi_start, config.roi_end),
        Window(config.bg_window_start, config.bg_window_end),
    )


def amplitude_stokes_oracle(eta_h, eta_v, state):
    """Retrieved Stokes from the two-rail field amplitudes, via the density matrix."""
    psi = np.array(
        [
            math.sqrt(eta_h) * math.cos(state.theta),
            math.sqrt(eta_v) * np.exp(1j * state.phi) * math.sin(state.theta),
        ]
    )
    psi = psi / np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    s1 = (rho[0, 0] - rho[1, 1]).real
    s2 = 2 * rho[1, 0].real
    s3 = 2 * rho[1, 0].imag
    return np.array([1.0, s1, s2, s3])


# ---------------------------------------------------------------- config


def test_config_defaults_are_valid():
    cfg = MemoryConfig()
    assert cfg.roi_duration == pytest.approx(1.0)
    assert cfg.n_bins == 160
    assert cfg.signal_mean(H) == pytest.approx(0.079 * 1.6)
    assert cfg.signal_mean(V) == pytest.approx(0.053 * 1.6)
    assert cfg.background_mean() == pytest.approx(0.005)
    assert MemoryConfig(t_max=MAX_BINS * 0.05).n_bins == MAX_BINS  # the cap itself is allowed


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(eta_h=1.2),
        dict(eta_v=-0.1),
        dict(p_in=-1),
        dict(bg_rate=-0.001),
        dict(dephasing=1.5),
        dict(bin_width=0.0),
        dict(bin_width=0.07),  # does not divide t_max
        dict(roi_start=3.4, roi_end=2.4),
        dict(roi_end=9.0),  # beyond t_max
        dict(roi_start=2.41),  # not bin aligned
        dict(bg_window_end=6.5),  # unequal window durations
        dict(bg_window_start=3.0, bg_window_end=4.0),  # overlaps ROI
        dict(tau_coherence=0.0),
        dict(retrieval_shape="gaussian"),
        dict(t_max=50_000.05),  # one bin above MAX_BINS
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        MemoryConfig(**kwargs)


def test_config_json_round_trip(tmp_path):
    cfg = MemoryConfig(eta_h=0.06, tech_rate=0.001, retrieval_shape="flat")
    path = tmp_path / "cfg.json"
    cfg.save(path)
    assert MemoryConfig.load(path) == cfg
    data = json.loads(path.read_text())
    assert set(data) == set(MemoryConfig().to_json())


def test_config_rejects_unknown_keys(tmp_path):
    data = MemoryConfig().to_json()
    data["detector_jitter"] = 0.1
    with pytest.raises(ConfigError, match="unknown config keys"):
        MemoryConfig.from_json(data)
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(ConfigError):
        MemoryConfig.load(path)


# ---------------------------------------------------------- retrieved state


def test_retrieved_stokes_symmetric_rails_preserve_state():
    cfg = MemoryConfig(eta_h=0.055, eta_v=0.055)
    rng = np.random.default_rng(21)
    for _ in range(50):
        st = QubitAngles(rng.random() * math.pi / 2, rng.uniform(-math.pi, math.pi))
        assert_allclose(
            retrieved_stokes(cfg, st).as_array(),
            stokes_from_qubit(st).as_array(),
            atol=1e-12,
        )


def test_retrieved_stokes_matches_amplitude_oracle():
    cfg = MemoryConfig(eta_h=0.079, eta_v=0.053)
    rng = np.random.default_rng(22)
    for _ in range(50):
        st = QubitAngles(rng.random() * math.pi / 2, rng.uniform(-math.pi, math.pi))
        assert_allclose(
            retrieved_stokes(cfg, st).as_array(),
            amplitude_stokes_oracle(0.079, 0.053, st),
            atol=1e-12,
        )


def test_retrieved_stokes_dephasing_shrinks_coherences():
    cfg = MemoryConfig(eta_h=0.055, eta_v=0.055, dephasing=0.3)
    d = retrieved_stokes(cfg, D)
    assert_allclose(d.as_array(), [1.0, 0.0, 0.7, 0.0], atol=1e-12)
    # populations carry no coherence: H unaffected
    assert_allclose(retrieved_stokes(cfg, H).as_array(), [1, 1, 0, 0], atol=1e-12)


# ------------------------------------------------------------- histograms


def test_zero_config_gives_empty_histogram():
    cfg = MemoryConfig(eta_h=0.0, eta_v=0.0, bg_rate=0.0, tech_rate=0.0)
    hist = simulate_histogram(cfg, H, None, 10_000, 1)
    assert hist.total() == 0
    assert hist.n_trials == 10_000
    assert len(hist.counts) == cfg.n_bins


def test_histogram_means_match_closed_form():
    cfg = MemoryConfig()
    trials = 400_000
    hist = simulate_histogram(cfg, H, None, trials, 31)
    roi, bg = windows(cfg)
    mean_sig = cfg.signal_mean(H) * trials
    mean_bg_roi = cfg.background_mean() * trials
    # ROI holds all the signal plus one window's worth of background
    n_roi = roi_counts(hist, roi)
    assert abs(n_roi - (mean_sig + mean_bg_roi)) <= 3 * math.sqrt(mean_sig + mean_bg_roi)
    n_bg = roi_counts(hist, bg)
    assert abs(n_bg - mean_bg_roi) <= 3 * math.sqrt(mean_bg_roi)
    # nothing before the retrieval window
    assert roi_counts(hist, Window(0.0, cfg.roi_start)) == 0


def test_histogram_flat_shape_fills_roi_uniformly():
    cfg = MemoryConfig(retrieval_shape="flat", bg_rate=0.0)
    hist = simulate_histogram(cfg, H, None, 400_000, 32)
    roi, _ = windows(cfg)
    i0 = round((roi.start - hist.t_start) / hist.bin_width)
    i1 = round((roi.end - hist.t_start) / hist.bin_width)
    bins = hist.counts[i0:i1]
    expected = bins.sum() / len(bins)
    # each bin within 4 sigma of the uniform expectation
    assert np.all(np.abs(bins - expected) <= 4 * math.sqrt(expected))


def test_analyzer_thins_signal_and_halves_background():
    cfg = MemoryConfig(eta_h=0.055, eta_v=0.055, bg_rate=0.02)
    trials = 400_000
    roi, bg = windows(cfg)
    # analyzer at 0 passes H fully and blocks V
    h_pass = simulate_histogram(cfg, H, 0.0, trials, 33)
    v_block = simulate_histogram(cfg, V, 0.0, trials, 34)
    mean_sig = cfg.signal_mean(H) * trials
    mean_bg = 0.5 * cfg.background_mean() * trials
    n_h = roi_counts(h_pass, roi)
    assert abs(n_h - (mean_sig + mean_bg)) <= 3 * math.sqrt(mean_sig + mean_bg)
    n_v = roi_counts(v_block, roi)
    assert abs(n_v - mean_bg) <= 3 * math.sqrt(mean_bg)
    n_bgw = roi_counts(h_pass, bg)
    assert abs(n_bgw - mean_bg) <= 3 * math.sqrt(mean_bg)


def test_histogram_deterministic_across_workers_and_reruns():
    cfg = MemoryConfig()
    a = simulate_histogram(cfg, D, None, 600_000, 7, workers=1)
    b = simulate_histogram(cfg, D, None, 600_000, 7, workers=8)
    c = simulate_histogram(cfg, D, None, 600_000, 7, workers=3)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.counts, c.counts)
    other = simulate_histogram(cfg, D, None, 600_000, 8)
    assert not np.array_equal(a.counts, other.counts)


def test_background_split_between_rails_indistinguishable():
    # one source at q vs. the sum of two independent sources at q/2
    q = 0.02
    trials = 500_000
    single_cfg = MemoryConfig(eta_h=0.0, eta_v=0.0, bg_rate=q)
    half_cfg = MemoryConfig(eta_h=0.0, eta_v=0.0, bg_rate=q / 2)
    single = simulate_histogram(single_cfg, H, None, trials, 41)
    rail_a = simulate_histogram(half_cfg, H, None, trials, 42)
    rail_b = simulate_histogram(half_cfg, H, None, trials, 43)
    roi, _ = windows(single_cfg)
    n1 = roi_counts(single, roi)
    n2 = roi_counts(rail_a, roi) + roi_counts(rail_b, roi)
    z = (n1 - n2) / math.sqrt(n1 + n2)
    assert abs(z) <= 3


def test_simulate_histogram_rejects_bad_trials():
    with pytest.raises(ConfigError):
        simulate_histogram(MemoryConfig(), H, None, 0, 1)


def test_poisson_mean_limit_is_numpys():
    rng = np.random.default_rng(0)
    rng.poisson(POISSON_MEAN_MAX)
    check_poisson_mean("mean", POISSON_MEAN_MAX, 1)
    above = float(np.nextafter(POISSON_MEAN_MAX, math.inf))
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(above)
    for rate, pulses in ((above, 1), (float("nan"), 1), (0.5, 10**400)):
        with pytest.raises(ConfigError, match="mean of"):
            check_poisson_mean("mean", rate, pulses)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _hist_digest(hist):
    return _digest(hist.counts, np.array([hist.t_start, hist.bin_width, hist.n_trials]))


def _sweeps_digest(*sweeps):
    return _digest(*(a for s in sweeps for a in (s.x, s.y, s.y_err)))


_ANGLES = np.linspace(0, math.pi, 12)
_POWERS = [0.0, 0.5, 1.0, 4.0]
# each case maps workers to a digest of every array the simulator returns;
# the sweeps take no worker count and must give the same bytes regardless
_SIMULATOR_CASES = {
    "histogram_no_background": lambda w: _hist_digest(simulate_histogram(
        MemoryConfig(bg_rate=0.0, tech_rate=0.0), H, None, 600_000, 5, workers=w)),
    "histogram_no_signal": lambda w: _hist_digest(simulate_histogram(
        MemoryConfig(eta_h=0.0, eta_v=0.0, tech_rate=0.003), V, None, 600_000, 6, workers=w)),
    "histogram_flat": lambda w: _hist_digest(simulate_histogram(
        MemoryConfig(retrieval_shape="flat", tech_rate=0.002), D, None, 600_000, 7, workers=w)),
    "histogram_analyzer": lambda w: _hist_digest(simulate_histogram(
        MemoryConfig(dephasing=0.1), D, 0.7, 600_000, 8, workers=w, signal_scale=0.8)),
    # V at a vertical analyzer rounds to a transmission a hair below zero
    "histogram_analyzer_dark": lambda w: _hist_digest(simulate_histogram(
        MemoryConfig(), V, math.pi / 2, 600_000, 15, workers=w)),
    "reference": lambda w: _hist_digest(simulate_reference(MemoryConfig(), 600_000, 9, workers=w)),
    "decay_series": lambda w: _sweeps_digest(
        simulate_decay_series(MemoryConfig(), [0.0, 5.0, 20.0], 300_000, 10)),
    "background_sweep": lambda w: _sweeps_digest(
        *simulate_background_sweep(MemoryConfig(), _POWERS, 100_000, 11)),
    "background_sweep_technical": lambda w: _sweeps_digest(
        *simulate_background_sweep(MemoryConfig(tech_rate=0.01), _POWERS, 100_000, 12)),
    "background_sweep_no_powers": lambda w: _sweeps_digest(
        *simulate_background_sweep(MemoryConfig(), [], 100_000, 13)),
    "polarimetry_sweep": lambda w: _sweeps_digest(simulate_polarimetry_sweep(
        MemoryConfig(bg_rate=0.02, dephasing=0.2), D, _ANGLES, 100_000, 14)),
}
_SIMULATOR_DIGESTS = {
    "background_sweep": "91c8785333c6110a",
    "background_sweep_no_powers": "578f4ddfb8158283",
    "background_sweep_technical": "a4324623ca48109f",
    "decay_series": "ad394781287d7183",
    "histogram_analyzer": "88036944b91887b2",
    "histogram_analyzer_dark": "6de4e8c0b831ea74",
    "histogram_flat": "df3927c5b1501a57",
    "histogram_no_background": "eb7e7867dca33603",
    "histogram_no_signal": "6ce53740ac0d013e",
    "polarimetry_sweep": "ccaaa8bc42540b88",
    "reference": "3f327de0fe59158f",
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("case", sorted(_SIMULATOR_CASES))
def test_simulator_bytes_pinned(case, workers):
    """Every simulator's output bytes.  A new digest means new random
    streams, which the determinism contract forbids without notice."""
    assert _SIMULATOR_CASES[case](workers) == _SIMULATOR_DIGESTS[case]


# -------------------------------------------------------------- reference


def test_reference_total_and_support():
    cfg = MemoryConfig()
    trials = 300_000
    ref = simulate_reference(cfg, trials, 51)
    mean = cfg.chain * cfg.p_in * trials
    assert abs(ref.total() - mean) <= 3 * math.sqrt(mean)
    assert roi_counts(ref, Window(INPUT_PULSE_US, cfg.t_max)) == 0
    assert ref.label == "reference"
    again = simulate_reference(cfg, trials, 51, workers=4)
    assert np.array_equal(ref.counts, again.counts)


# ------------------------------------------------------ polarimetry sweep


def test_noiseless_sweep_reproduces_intensity_curve():
    cfg = MemoryConfig(eta_h=0.055, eta_v=0.055)
    angles = np.linspace(0, math.pi, 16)
    sweep = simulate_polarimetry_sweep(cfg, D, angles, 1000, 61, noiseless=True)
    sig = cfg.signal_mean(D)
    s_ret = retrieved_stokes(cfg, D)
    expected = [
        sig * qwp_polarimeter_intensity(s_ret, a) + 0.5 * cfg.background_mean()
        for a in angles
    ]
    assert_allclose(sweep.y, expected, rtol=1e-12)
    assert np.all(sweep.y_err == 0)


def test_unpolarized_sweep_is_flat():
    cfg = MemoryConfig(eta_h=0.0, eta_v=0.0, bg_rate=0.05)
    angles = np.linspace(0, math.pi, 12)
    sweep = simulate_polarimetry_sweep(cfg, D, angles, 200_000, 62)
    level = 0.5 * cfg.background_mean()
    sigma = math.sqrt(level / 200_000)
    assert np.all(np.abs(sweep.y - level) <= 4 * sigma)


def test_sweep_fit_recovers_diluted_d_state():
    cfg = MemoryConfig(eta_h=0.055, eta_v=0.055)
    trials = 300_000
    angles = np.linspace(0, math.pi, 16)
    sweep = simulate_polarimetry_sweep(cfg, D, angles, trials, 63)
    vec, fit = fit_stokes(sweep)
    p_sig = cfg.signal_mean(D)
    p_bg = cfg.background_mean()
    expected_dop = p_sig / (p_sig + p_bg)
    for key, truth in zip(("s1", "s2", "s3"), (0.0, expected_dop, 0.0)):
        assert abs(getattr(vec, key) - truth) <= 3 * fit.stderr[key]


def test_background_free_sweep_draws_nothing_at_dark_angle():
    # V's transmission at a vertical analyzer rounds a hair below zero
    cfg = MemoryConfig(bg_rate=0.0, tech_rate=0.0)
    sweep = simulate_polarimetry_sweep(cfg, V, np.linspace(0, math.pi, 9), 1000, 1)
    assert sweep.y[4] == 0.0
    assert np.all(sweep.y >= 0)


def test_sweep_validation():
    cfg = MemoryConfig()
    with pytest.raises(ConfigError):
        simulate_polarimetry_sweep(cfg, D, np.linspace(0, math.pi, 7), 100, 1)
    with pytest.raises(ConfigError):
        simulate_polarimetry_sweep(cfg, D, np.linspace(0, math.pi, 8), 0, 1)


# ------------------------------------------------------------ decay series


def test_decay_series_starts_at_configured_efficiency():
    cfg = MemoryConfig(eta_h=0.055, eta_v=0.055)
    series = simulate_decay_series(cfg, [0.0, 10.0, 20.0], 400_000, 71)
    assert series.x_name == "storage_time_us"
    assert abs(series.y[0] - 0.055) <= 3 * series.y_err[0]
    # configured decay: later points follow exp(-t/tau) within errors
    for t, y, e in zip(series.x, series.y, series.y_err):
        assert abs(y - 0.055 * math.exp(-t / cfg.tau_coherence)) <= 3 * max(e, 1e-6)


def test_decay_series_validation():
    cfg = MemoryConfig()
    with pytest.raises(ConfigError):
        simulate_decay_series(cfg, [0.0, 5.0, 5.0], 1000, 1)
    with pytest.raises(ConfigError):
        simulate_decay_series(cfg, [-1.0, 5.0], 1000, 1)


def test_decay_scan_state_balances_rails():
    assert DECAY_SCAN_STATE.theta == pytest.approx(math.pi / 4)


# -------------------------------------------------------- background sweep


def test_background_sweep_means_and_zero_power():
    cfg = MemoryConfig(eta_h=0.0, eta_v=0.0, bg_rate=0.004, tech_rate=0.002)
    powers = [0.0, 1.0, 4.0, 9.0]
    trials = 1_000_000
    bg, tech = simulate_background_sweep(cfg, powers, trials, 81)
    assert bg.y[0] == 0.0 and tech.y[0] == 0.0
    for p, y in zip(powers[1:], bg.y[1:]):
        mean = cfg.tech_rate * p + cfg.bg_rate * math.sqrt(p)
        assert abs(y - mean) <= 3 * math.sqrt(mean / trials)
    for p, y in zip(powers[1:], tech.y[1:]):
        mean = cfg.tech_rate * p
        assert abs(y - mean) <= 3 * math.sqrt(mean / trials)


def test_background_sweep_validation():
    cfg = MemoryConfig()
    with pytest.raises(ConfigError):
        simulate_background_sweep(cfg, [1.0, 0.5], 100, 1)
    with pytest.raises(ConfigError):
        simulate_background_sweep(cfg, [-1.0], 100, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sweeps_reject_non_finite_abscissas(bad):
    # a NaN or infinite time or power would be drawn at a NaN mean
    with pytest.raises(ConfigError, match="finite"):
        simulate_decay_series(MemoryConfig(), [0.0, bad], 1000, 1)
    with pytest.raises(ConfigError, match="finite"):
        simulate_background_sweep(MemoryConfig(), [0.0, bad], 1000, 1)


# ------------------------------------------------------------ serialization


def test_histogram_json_round_trip(tmp_path):
    cfg = MemoryConfig()
    hist = simulate_histogram(cfg, H, None, 50_000, 91, label="storage:H")
    path = tmp_path / "h.json"
    hist.save(path)
    back = ArrivalHistogram.load(path)
    assert np.array_equal(back.counts, hist.counts)
    assert back.label == "storage:H"
    assert back.n_trials == hist.n_trials
    assert back.t_max == pytest.approx(cfg.t_max)
    # a second save is byte-identical
    path2 = tmp_path / "h2.json"
    back.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_histogram_schema_enforced():
    good = {"t_start_us": 0.0, "bin_width_us": 0.05, "n_trials": 10, "counts": [0, 1], "label": ""}
    ArrivalHistogram.from_json(good)
    with pytest.raises(DataError):
        ArrivalHistogram.from_json({**good, "extra": 1})
    missing = dict(good)
    del missing["label"]
    with pytest.raises(DataError):
        ArrivalHistogram.from_json(missing)
    with pytest.raises(DataError):
        ArrivalHistogram(0.0, 0.05, [-1, 2], 10)
    with pytest.raises(DataError):
        ArrivalHistogram(0.0, 0.05, [1, 2], 0)


def test_sweep_csv_round_trip(tmp_path):
    series = SweepSeries(
        [0.0, 5.0, 10.0], [0.05, 0.04, 0.03], [0.001, 0.001, 0.001],
        "storage_time_us", "efficiency",
    )
    path = tmp_path / "s.csv"
    series.save_csv(path)
    back = SweepSeries.load_csv(path)
    assert back.x_name == "storage_time_us" and back.y_name == "efficiency"
    assert np.array_equal(back.x, series.x)
    assert np.array_equal(back.y, series.y)
    assert np.array_equal(back.y_err, series.y_err)
    with pytest.raises(DataError):
        SweepSeries([1.0], [1.0, 2.0], [0.0])


def test_sweep_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DataError):
        SweepSeries.load_csv(path)
    path.write_text("x,y,y_err\n1,two,0\n")
    with pytest.raises(DataError):
        SweepSeries.load_csv(path)
