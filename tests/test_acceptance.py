"""Acceptance suite: the nine headline checks, one test per criterion.

Each test finishes by printing a single `[criterion N] PASS` line with the
measured numbers (pytest is configured with -rP so these lines appear in
the recorded run log).  Tolerances are stated inline; statistical checks
run on fixed seeds and are therefore reproducible.  A statistical test takes
its seeds from its `base` argument, whose default gives the committed seeds;
tools/pass_rates.py reruns it at fresh bases to measure its failure rate.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import polmem as pm
from polmem.cli import main
from polmem.memory_sim import SweepSeries
from polmem.noise_model import NoiseModelParams, detection_probs, mc_detection_oracle
from polmem.polarization import (
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
from polmem.streams import usable_cpus


def _random_pure(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_criterion_1_model_vs_oracle(base=1000):
    """detection_probs vs. Monte Carlo at 3 binomial sigma, 5x5x5 grid, <60 s."""
    trials = 10_000_000
    etas = np.linspace(0.0, 1.0, 5)
    ps = np.linspace(0.0, 2.0, 5)      # eta*p spans [0, 2]
    qs = np.linspace(0.0, 2.0, 5)
    start = time.monotonic()
    worst = 0.0
    cell = 0
    for eta in etas:
        for p in ps:
            for q in qs:
                params = NoiseModelParams(eta=float(eta), p=float(p), q=float(q))
                model = detection_probs(params)
                est = mc_detection_oracle(params, trials, seed=base + cell)
                for truth, got in (
                    (model.p_signal, est.p_signal),
                    (model.p_background, est.p_background),
                ):
                    sigma = math.sqrt(truth * (1.0 - truth) / trials)
                    assert abs(got - truth) <= 3.0 * sigma, (
                        f"cell eta={eta} p={p} q={q}: model {truth} vs mc {got}"
                    )
                    if sigma > 0:
                        worst = max(worst, abs(got - truth) / sigma)
                cell += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"grid took {elapsed:.1f} s"
    print(
        f"[criterion 1] PASS — 125 cells x 2 probs within 3 binomial sigma "
        f"at 1e7 trials (worst z = {worst:.2f}, {elapsed:.1f} s "
        f"on {usable_cpus()} oracle workers)"
    )


def test_criterion_2_fidelity_unit_suite():
    """F = 1, 0.5, 0.715 exact to 1e-12; 0.715 clears the 0.66 classical bound."""
    h = stokes_from_qubit(CANONICAL_STATES["H"])
    unpolarized = StokesVector(1.0, 0.0, 0.0, 0.0)
    aligned_short = StokesVector(1.0, 0.43, 0.0, 0.0)
    cases = [
        (fidelity(h, h), 1.0),
        (fidelity(h, unpolarized), 0.5),
        (fidelity(h, aligned_short), 0.715),
    ]
    for got, want in cases:
        assert abs(got - want) <= 1e-12, f"{got} != {want}"
    assert cases[2][0] > 0.66
    print(
        "[criterion 2] PASS — fidelity fixed points 1 / 0.5 / 0.715 exact to "
        "1e-12; 0.715 > 0.66 classical bound"
    )


def test_criterion_3_six_state_benchmark(base=300):
    """Six-state run at 1e6 trials/state: SBR 1.35 +- 0.09, avg fidelity tracks (SBR+1/2)/(SBR+1).

    Also states the outcome against both classical limits at mu = p_in = 1.6:
    the average fidelity beats the eta-free limit and falls short of the
    limit of a device that answers as often as this memory does."""
    # detected means implied by the SBR definition: 0.0055 signal, 0.0041
    # background inside the retrieval window
    cfg = pm.MemoryConfig(
        eta_h=0.055, eta_v=0.055, p_in=1.6, chain=0.0625,
        bg_rate=0.0041, tech_rate=0.0,
    )
    assert cfg.signal_mean(CANONICAL_STATES["D"]) == pytest.approx(0.0055)
    trials = 1_000_000
    angles = np.linspace(0.0, math.pi, 16)
    start = time.monotonic()
    reference = pm.simulate_reference(cfg, trials, base)
    storage, measured = {}, {}
    for i, name in enumerate(STATE_NAMES):
        state = CANONICAL_STATES[name]
        storage[name] = pm.simulate_histogram(
            cfg, state, None, trials, base + 1 + i, label=f"storage:{name}"
        )
        sweep = pm.simulate_polarimetry_sweep(
            cfg, state, angles, trials // len(angles), base + 21 + i
        )
        measured[name], _ = fit_stokes(sweep)
    roi = pm.Window(cfg.roi_start, cfg.roi_end)
    bg = pm.Window(cfg.bg_window_start, cfg.bg_window_end)
    report = pm.build_report(storage, reference, roi, bg, measured, cfg.p_in)
    elapsed = time.monotonic() - start

    avg_sbr = report.average["sbr"]
    avg_fid = report.average["fidelity"]
    surrogate = (avg_sbr + 0.5) / (avg_sbr + 1.0)
    assert abs(avg_sbr - 1.35) <= 0.09, f"average SBR {avg_sbr}"
    assert abs(avg_fid - surrogate) <= 0.03, f"fidelity {avg_fid} vs {surrogate}"
    assert elapsed < 300.0
    limits = report.classical
    assert avg_fid > limits["f_classical"], "fidelity does not beat the eta-free classical limit"
    assert avg_fid < limits["f_classical_eta"], "fidelity beats the eta-aware classical limit"
    print(
        f"[criterion 3] PASS — SBR {avg_sbr:.3f} (|d|<=0.09), fidelity "
        f"{avg_fid:.4f} vs (SBR+1/2)/(SBR+1) = {surrogate:.4f} (|d|<=0.03), "
        f"efficiency {report.average['efficiency']:.4f}, {elapsed:.1f} s; classical limits "
        f"at mu = {cfg.p_in}: eta-free {limits['f_classical']:.4f} (beaten by "
        f"{limits['f_avg_minus_f_classical']:+.4f}), at eta = {limits['eta']:.4f} "
        f"{limits['f_classical_eta']:.4f} (not beaten: {limits['f_avg_minus_f_classical_eta']:+.4f})"
    )


def test_criterion_4_fidelity_sbr_curve():
    """Monotone, bounded in [0.5, 1], ->1 as q->0, equals (R+1/2)/(R+1) at small means."""
    grid = list(np.linspace(0.05, 20.0, 60))
    curve = pm.fidelity_sbr_curve(0.055, 0.005, grid)
    sbrs = np.array([c[1] for c in curve])
    fids = np.array([c[2] for c in curve])
    assert np.all(np.diff(sbrs) > 0)
    assert np.all(np.diff(fids) >= -1e-12), "curve must be monotone nondecreasing"
    assert np.all((fids >= 0.5) & (fids <= 1.0))
    ratio_form = (sbrs + 0.5) / (sbrs + 1.0)
    worst = float(np.max(np.abs(fids - ratio_form)))
    assert worst <= 1e-3, f"small-mean identity violated by {worst}"
    # q -> 0 limit: fidelities approach 1
    near_unit = pm.fidelity_sbr_curve(0.055, 1e-6, grid)
    assert min(f for _, _, f in near_unit) > 0.999
    print(
        f"[criterion 4] PASS — monotone in [0.5, 1], max |F - (R+1/2)/(R+1)| = "
        f"{worst:.2e} (<= 1e-3), min F at q=1e-6 is {min(f for _, _, f in near_unit):.6f}"
    )


def test_criterion_5_coherence_fit(base=500):
    """tau = 19.3 us recovered within 2% from 8 points at 1e6 trials/point, <2 min."""
    cfg = pm.MemoryConfig()  # tau_coherence = 19.3
    times = list(np.linspace(0.0, 35.0, 8))
    start = time.monotonic()
    series = pm.simulate_decay_series(cfg, times, 1_000_000, base)
    fit = pm.fit_exponential_decay(series)
    elapsed = time.monotonic() - start
    tau = fit.params["tau"]
    assert abs(tau - 19.3) / 19.3 <= 0.02, f"tau = {tau}"
    assert elapsed < 120.0
    print(
        f"[criterion 5] PASS — fitted tau = {tau:.3f} us "
        f"({100 * abs(tau - 19.3) / 19.3:.2f}% off 19.3, tol 2%), {elapsed:.1f} s"
    )


def test_criterion_6_fwm_exponent(base=600):
    """Subtracted background scales as power^c with c = 0.50 +- 0.02."""
    cfg = pm.MemoryConfig(eta_h=0.0, eta_v=0.0, bg_rate=0.004, tech_rate=0.002)
    powers = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    background, technical = pm.simulate_background_sweep(cfg, powers, 2_000_000, base)
    fit = pm.fit_sqrt_background(background, technical)
    c = fit.params["c"]
    assert abs(c - 0.5) <= 0.02, f"exponent {c}"
    print(
        f"[criterion 6] PASS — fitted exponent c = {c:.4f} +- "
        f"{fit.stderr['c']:.4f} (tol 0.50 +- 0.02)"
    )


def test_criterion_7_polarimetry_round_trip(base=700):
    """fit_stokes inverts the intensity law: 1e-9 noiseless, 3 sigma under Poisson."""
    rng = np.random.default_rng(base)
    angles = np.linspace(0.0, math.pi, 16)
    worst = 0.0
    for _ in range(100):
        vec3 = _random_pure(rng) * rng.random() ** (1 / 3)
        s = StokesVector(1.0, *vec3)
        intens = [qwp_polarimeter_intensity(s, a) for a in angles]
        got, _ = fit_stokes(SweepSeries(angles, intens, np.zeros(len(angles))))
        worst = max(worst, float(np.max(np.abs(got.as_array() - s.as_array()))))
    assert worst <= 1e-9, f"noiseless round-trip error {worst}"

    pulses = 10_000
    level = 0.1  # mean counts per pulse
    worst_z = 0.0
    for k in range(25):
        s = StokesVector(1.0, *_random_pure(rng))
        scaled = StokesVector(level, *(level * s.vec3))
        intens = [
            rng.poisson(pulses * qwp_polarimeter_intensity(scaled, a)) / pulses for a in angles
        ]
        got, fit = fit_stokes(SweepSeries(angles, intens, np.zeros(len(angles))))
        for key, truth in zip(("s1", "s2", "s3"), s.vec3):
            z = abs(getattr(got, key) - truth) / fit.stderr[key]
            worst_z = max(worst_z, z)
            assert z <= 3.0, f"state {k} component {key}: z = {z:.2f}"
    print(
        f"[criterion 7] PASS — 100 noiseless round trips within {worst:.1e} "
        f"(<= 1e-9); 25 Poisson-noise states within 3 sigma (worst z = {worst_z:.2f})"
    )


def test_criterion_8_rotation_alignment(base=800):
    """fit_rotation exact to 1e-9 noiseless; 1% perturbation keeps mean fidelity > 0.99."""
    rng = np.random.default_rng(base)
    basis = [stokes_from_qubit(CANONICAL_STATES[n]) for n in STATE_NAMES]
    worst = 0.0
    for _ in range(50):
        truth = Rotation3.about_axis(rng.normal(size=3), rng.uniform(0.0, math.pi))
        targets = [apply_rotation(truth, s) for s in basis]
        fitted = fit_rotation(basis, targets)
        worst = max(worst, float(np.max(np.abs(fitted.matrix - truth.matrix))))
    assert worst <= 1e-9, f"noiseless recovery error {worst}"

    fidelities = []
    for _ in range(40):
        truth = Rotation3.about_axis(rng.normal(size=3), rng.uniform(0.0, math.pi))
        targets = [
            StokesVector(1.0, *(apply_rotation(truth, s).vec3 + 0.01 * rng.normal(size=3)))
            for s in basis
        ]
        fitted = fit_rotation(basis, targets)
        fidelities += [
            fidelity(apply_rotation(fitted, s), t) for s, t in zip(basis, targets)
        ]
    mean_fid = float(np.mean(fidelities))
    assert mean_fid > 0.99, f"mean fidelity {mean_fid}"
    print(
        f"[criterion 8] PASS — 50 rotations recovered within {worst:.1e} "
        f"(<= 1e-9); mean fidelity under 1% perturbation = {mean_fid:.5f} (> 0.99)"
    )


def test_criterion_9_determinism(tmp_path):
    """Stochastic commands are byte-identical across reruns and worker counts."""
    cfg_path = tmp_path / "cfg.json"
    pm.MemoryConfig().save(cfg_path)

    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    checked = []
    # histogram: rerun, and the library's worker-count sweep
    outs = [tmp_path / f"h{i}.json" for i in range(2)]
    for out in outs:
        run("simulate", "--config", cfg_path, "--state", "R", "--trials", 400_000,
            "--seed", 42, "--out", out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    hists = [pm.simulate_histogram(pm.MemoryConfig(), pm.CANONICAL_STATES["R"], None, 400_000,
                                   42, workers=k) for k in (1, 7, 1)]
    assert hists[0].to_json() == hists[1].to_json() == hists[2].to_json()
    checked.append("histogram")

    # reference
    refs = [tmp_path / f"r{i}.json" for i in range(2)]
    for out in refs:
        run("simulate", "--config", cfg_path, "--kind", "reference", "--trials",
            200_000, "--seed", 43, "--out", out)
    assert refs[0].read_bytes() == refs[1].read_bytes()
    checked.append("reference")

    # sweep kinds: rerun equality
    for kind, extra in (
        ("polarimetry", ["--state", "D"]),
        ("decay", ["--times", "0,5,10,15,20,25,30,35"]),
        ("background", ["--powers", "0.5,1,2,4"]),
    ):
        a, b = tmp_path / f"{kind}_a.csv", tmp_path / f"{kind}_b.csv"
        for out in (a, b):
            run("simulate", "--config", cfg_path, "--kind", kind, "--trials",
                50_000, "--seed", 44, *extra, "--out", out)
        assert a.read_bytes() == b.read_bytes()
        checked.append(kind)

    # library-level oracle across worker counts
    params = NoiseModelParams(eta=0.5, p=1.0, q=0.5)
    serial = mc_detection_oracle(params, 700_000, 45, workers=1)
    assert serial == mc_detection_oracle(params, 700_000, 45, workers=6)
    # no `workers`: the usable-CPU default that criterion 1 runs at
    assert serial == mc_detection_oracle(params, 700_000, 45)
    checked.append("mc-oracle")
    print(
        f"[criterion 9] PASS — byte-identical reruns for {', '.join(checked)} "
        f"(fixed seeds, 1-7 workers)"
    )
