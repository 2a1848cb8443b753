"""Detection-model tests.

The truncated double sum is pinned against values computed with an
arbitrary-precision oracle (mpmath, 40 digits) and against the closed form
that the infinite sums collapse to:

    P_s + P_bg = 1 - exp(-(eta p + q)),   P_s / (P_s + P_bg) = eta p / (eta p + q)

so the model's conditional fidelity is exactly (R + 1/2)/(R + 1) with
R = eta p / q.  Monte Carlo agreement is tested separately.
"""

import hashlib
import itertools
import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from polmem.errors import ConfigError, DataError, UndefinedRatioError
from polmem.noise_model import (
    DEFAULT_N_MAX,
    MAX_N_MAX,
    DetectionProbs,
    NoiseModelParams,
    detection_probs,
    fidelity_sbr_curve,
    mc_detection_oracle,
)
from polmem.streams import chunk_layout

STANDARD_PARAMS = NoiseModelParams(eta=0.055, p=1.6, q=0.005)

# frozen from the mpmath oracle below at 40 digits (n_max = 20)
P_SIGNAL_STD = 0.08403195670902829
P_BACKGROUND_STD = 0.0047745429948311529
FIDELITY_STD = 0.97311827956989247


def oracle_probs(eta, p, q, n_max):
    """Arbitrary-precision double sum, fully independent implementation."""
    with mpmath.workdps(40):
        sp = mpmath.mpf(eta) * mpmath.mpf(p)
        qq = mpmath.mpf(q)
        ps = mpmath.mpf(0)
        pbg = mpmath.mpf(0)
        for n in range(n_max + 1):
            for m in range(n_max + 1):
                if n == 0 and m == 0:
                    continue
                w = (
                    mpmath.e ** (-sp) * sp**n / mpmath.factorial(n)
                    * mpmath.e ** (-qq) * qq**m / mpmath.factorial(m)
                )
                ps += w * n / (n + m)
                pbg += w * m / (n + m)
        return float(ps), float(pbg)


def test_params_validation():
    with pytest.raises(DataError):
        NoiseModelParams(eta=1.2, p=1.0, q=0.0)
    with pytest.raises(DataError):
        NoiseModelParams(eta=0.5, p=-1.0, q=0.0)
    with pytest.raises(DataError):
        NoiseModelParams(eta=0.5, p=1.0, q=0.0, n_max=0)
    with pytest.raises(DataError, match="n_max must lie in"):
        NoiseModelParams(eta=0.5, p=1.0, q=0.0, n_max=MAX_N_MAX + 1)
    assert NoiseModelParams(eta=0.5, p=1.0, q=0.0, n_max=MAX_N_MAX).n_max == MAX_N_MAX
    for p, q in ((math.inf, 0.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(DataError):
            NoiseModelParams(eta=0.5, p=p, q=q)
    assert NoiseModelParams(eta=0.5, p=2.0, q=0.1).signal_mean == 1.0


def test_detection_probs_validation():
    with pytest.raises(DataError):
        DetectionProbs(-0.1, 0.0)
    with pytest.raises(DataError):
        DetectionProbs(0.7, 0.7)


def test_detection_probs_frozen_oracle_values():
    probs = detection_probs(STANDARD_PARAMS)
    assert math.isclose(probs.p_signal, P_SIGNAL_STD, rel_tol=1e-12)
    assert math.isclose(probs.p_background, P_BACKGROUND_STD, rel_tol=1e-12)


def test_detection_probs_bits_pinned_on_criterion_1_grid():
    # the reprs of every (p_signal, p_background) on criterion 1's 5x5x5 grid
    # at the default n_max; a last-ulp move in any cell changes the digest
    grid = itertools.product(
        np.linspace(0.0, 1.0, 5), np.linspace(0.0, 2.0, 5), np.linspace(0.0, 2.0, 5)
    )
    rows = []
    for eta, p, q in grid:
        probs = detection_probs(NoiseModelParams(float(eta), float(p), float(q)))
        rows.append((probs.p_signal, probs.p_background))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "8acd90b6d275c52516c53de394e857b11e11914fd73b3d702d73cc765b6d18b7"
    )


def test_detection_probs_against_mpmath_oracle_grid():
    for eta, p, q in [(0.055, 1.6, 0.005), (0.3, 0.5, 0.2), (1.0, 2.0, 2.0), (0.0, 1.0, 0.7)]:
        params = NoiseModelParams(eta=eta, p=p, q=q, n_max=12)
        probs = detection_probs(params)
        ps, pbg = oracle_probs(eta, p, q, 12)
        assert math.isclose(probs.p_signal, ps, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(probs.p_background, pbg, rel_tol=1e-12, abs_tol=1e-15)


def test_detection_probs_closed_form_identities():
    # the untruncated sums collapse: total = 1 - exp(-(sp+q)), split sp : q;
    # means of several hundred put ln k! up to k = 1100 into every pmf
    for eta, p, q, n_max in [
        (0.055, 1.6, 0.005, 40), (0.4, 1.2, 0.3, 40), (0.9, 0.05, 0.8, 40),
        (1.0, 400.0, 300.0, 1100), (0.5, 900.0, 150.0, 1100), (0.2, 1000.0, 550.0, 1100),
    ]:
        params = NoiseModelParams(eta=eta, p=p, q=q, n_max=n_max)
        probs = detection_probs(params)
        total = 1.0 - math.exp(-(eta * p + q))
        assert math.isclose(probs.p_signal + probs.p_background, total, rel_tol=1e-12)
        assert math.isclose(
            probs.p_signal / total, eta * p / (eta * p + q), rel_tol=1e-12
        )


def test_truncation_converged_at_default():
    tight = detection_probs(NoiseModelParams(eta=1.0, p=2.0, q=2.0, n_max=DEFAULT_N_MAX))
    wide = detection_probs(NoiseModelParams(eta=1.0, p=2.0, q=2.0, n_max=40))
    assert math.isclose(tight.p_signal, wide.p_signal, abs_tol=1e-12)
    assert math.isclose(tight.p_background, wide.p_background, abs_tol=1e-12)


def test_truncation_dropping_mass_is_refused():
    # at n_max = 20 the sums would drop 44% of the Poisson mass at eta*p = 20
    with pytest.raises(DataError, match=r"eta\*p = 20 and q = 0.005.*raise n_max"):
        detection_probs(NoiseModelParams(1.0, 20.0, 0.005))


def test_degenerate_corners():
    nothing = detection_probs(NoiseModelParams(eta=0.0, p=1.0, q=0.0))
    assert nothing.p_signal == 0.0 and nothing.p_background == 0.0
    only_bg = detection_probs(NoiseModelParams(eta=0.0, p=5.0, q=0.7))
    assert only_bg.p_signal == 0.0
    assert math.isclose(only_bg.p_background, 1 - math.exp(-0.7), rel_tol=1e-12)
    only_sig = detection_probs(NoiseModelParams(eta=0.5, p=1.0, q=0.0))
    assert only_sig.p_background == 0.0
    assert math.isclose(only_sig.p_signal, 1 - math.exp(-0.5), rel_tol=1e-12)


def test_model_fidelity_and_sbr():
    probs = detection_probs(STANDARD_PARAMS)
    assert math.isclose(probs.fidelity, FIDELITY_STD, rel_tol=1e-12)
    # R = eta p / q is exact for the model, independent of truncation
    assert math.isclose(probs.sbr, 0.055 * 1.6 / 0.005, rel_tol=1e-12)
    r = probs.sbr
    assert math.isclose(probs.fidelity, (r + 0.5) / (r + 1.0), rel_tol=1e-12)
    with pytest.raises(UndefinedRatioError, match="infinite ratio"):
        detection_probs(NoiseModelParams(eta=0.5, p=1.0, q=0.0)).sbr
    # q > 0, but 100,000 oracle trials at q = 1e-7 detect no background photon
    oracle = mc_detection_oracle(NoiseModelParams(0.5, 1.0, 1e-7), 100_000, 3)
    assert oracle.p_background == 0.0
    with pytest.raises(UndefinedRatioError, match="no background detections") as exc:
        oracle.sbr
    assert "q = 0" not in str(exc.value)
    with pytest.raises(UndefinedRatioError, match="no detections"):
        detection_probs(NoiseModelParams(eta=0.0, p=1.0, q=0.0)).fidelity
    # both means > 0, but 10,000 oracle trials at 1e-7 detect nothing
    silent = mc_detection_oracle(NoiseModelParams(1.0, 1e-7, 1e-7), 10_000, 3, workers=1)
    assert silent == DetectionProbs(0.0, 0.0)
    with pytest.raises(UndefinedRatioError, match="no detections") as exc:
        silent.fidelity
    assert "zero" not in str(exc.value)
    # background only: every detection is a coin flip
    assert math.isclose(
        detection_probs(NoiseModelParams(eta=0.0, p=1.0, q=0.3)).fidelity, 0.5, rel_tol=1e-12
    )


def test_fidelity_sbr_curve_properties():
    grid = np.linspace(0.05, 20, 30)
    curve = fidelity_sbr_curve(0.055, 0.005, 20, list(grid))
    ps, sbrs, fids = (np.array(col) for col in zip(*curve))
    assert np.array_equal(ps, grid)  # rows in grid order
    assert np.all(np.diff(sbrs) > 0)
    assert np.all(np.diff(fids) >= -1e-12)
    assert np.all((fids >= 0.5) & (fids <= 1.0))
    # small-mean identity
    assert_allclose(fids, (sbrs + 0.5) / (sbrs + 1.0), atol=1e-3)


def test_fidelity_sbr_curve_validation():
    with pytest.raises(DataError):
        fidelity_sbr_curve(0.055, 0.005, 20, [])
    with pytest.raises(DataError):
        fidelity_sbr_curve(0.055, 0.005, 20, [0.0, 1.0])
    with pytest.raises(DataError):
        fidelity_sbr_curve(0.055, 0.005, 20, [1.0, 0.5])
    with pytest.raises(DataError):
        fidelity_sbr_curve(0.055, 0.005, 20, [1.0, 1.0])
    with pytest.raises(UndefinedRatioError):
        fidelity_sbr_curve(0.055, 0.0, 20, [1.0])


def test_mc_oracle_agrees_with_model(base=101):
    trials = 400_000
    other = NoiseModelParams(eta=0.6, p=1.0, q=0.4)
    for seed, params in [(base, STANDARD_PARAMS), (base + 1, other)]:
        probs = detection_probs(params)
        est = mc_detection_oracle(params, trials, seed)
        for model_v, est_v in [
            (probs.p_signal, est.p_signal),
            (probs.p_background, est.p_background),
        ]:
            sigma = math.sqrt(model_v * (1 - model_v) / trials)
            assert abs(model_v - est_v) <= 4 * sigma


def test_mc_oracle_deterministic_across_workers():
    est1 = mc_detection_oracle(STANDARD_PARAMS, 600_000, 7, workers=1)
    est4 = mc_detection_oracle(STANDARD_PARAMS, 600_000, 7, workers=4)
    assert est1 == est4
    assert est1 == mc_detection_oracle(STANDARD_PARAMS, 600_000, 7, workers=2)
    # the default runs on every usable CPU and must not change the result
    assert est1 == mc_detection_oracle(STANDARD_PARAMS, 600_000, 7)


@pytest.mark.parametrize(
    "params, what",
    [(NoiseModelParams(eta=1.0, p=1e300, q=0.0), "eta \\* p"),
     (NoiseModelParams(eta=0.5, p=1.0, q=1e19), "background mean \\(q\\)"),
     (NoiseModelParams(eta=1.0, p=5e18, q=5e18), "total mean")],
)
def test_mc_oracle_refuses_means_above_poisson_limit(params, what):
    with pytest.raises(ConfigError, match=what):
        mc_detection_oracle(params, 1000, 1)


def test_mc_oracle_and_chunk_layout_refuse_no_trials():
    with pytest.raises(ConfigError, match="trials must be >= 1"):
        mc_detection_oracle(STANDARD_PARAMS, 0, 1)
    with pytest.raises(ConfigError, match="trials must be >= 1"):
        chunk_layout(0)


def test_background_split_between_rails_is_equivalent():
    # two independent q/2 ensembles convolve to one Poisson(q) source, so the
    # model may treat the rails' backgrounds as a single stream
    from scipy.stats import poisson

    q = 0.4
    k = np.arange(0, 30)
    single = poisson.pmf(k, q)
    half = poisson.pmf(k, q / 2)
    convolved = np.convolve(half, half)[: len(k)]
    assert_allclose(convolved, single, atol=1e-12)
