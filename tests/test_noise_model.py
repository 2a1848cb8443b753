"""Detection-model and classical-limit tests.

The model's closed form, the double sum over (n, m) of P(n)P(m) n/(n+m)
and m/(n+m) taken over every photon number,

    P_s + P_bg = 1 - exp(-(eta p + q)),   P_s / (P_s + P_bg) = eta p / (eta p + q),

is pinned against an arbitrary-precision evaluation (mpmath, 40 digits) of
the same untruncated sums, so the model's conditional fidelity is exactly
(R + 1/2)/(R + 1) with R = eta p / q.  The classical measure-and-prepare limit
is pinned against its eta-free closed form and against mpmath series.  Monte
Carlo agreement is tested separately.
"""

import hashlib
import itertools
import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from polmem.errors import ConfigError, DataError, UndefinedRatioError
from polmem.noise_model import (
    MEAN_LIMIT,
    DetectionProbs,
    NoiseModelParams,
    _PoissonInverseCdf,
    classical_fidelity_limit,
    detection_probs,
    fidelity_sbr_curve,
    mc_detection_oracle,
)
from polmem.streams import CHUNK_TRIALS, chunk_layout, chunk_rng

STANDARD_PARAMS = NoiseModelParams(eta=0.055, p=1.6, q=0.005)

# frozen from a 40-digit mpmath double sum cut at 20 photons of each kind;
# the untruncated closed form at 40 digits rounds to the same floats
P_SIGNAL_STD = 0.08403195670902829
P_BACKGROUND_STD = 0.0047745429948311529
FIDELITY_STD = 0.97311827956989247


def oracle_probs(eta, p, q):
    """The untruncated sums in 40-digit arithmetic: n + m is Poisson of mean
    lam = eta p + q, and each photon is signal with probability eta p / lam."""
    with mpmath.workdps(40):
        sp = mpmath.mpf(eta) * mpmath.mpf(p)
        lam = sp + mpmath.mpf(q)
        if lam == 0:
            return 0.0, 0.0
        total = -mpmath.expm1(-lam)
        return float(total * sp / lam), float(total * mpmath.mpf(q) / lam)


def test_params_validation():
    with pytest.raises(DataError):
        NoiseModelParams(eta=1.2, p=1.0, q=0.0)
    with pytest.raises(DataError):
        NoiseModelParams(eta=0.5, p=-1.0, q=0.0)
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
    # the reprs of every (p_signal, p_background) on criterion 1's 5x5x5 grid;
    # a last-ulp move in any cell, e.g. from reordering the closed form's
    # operations, changes the digest
    grid = itertools.product(
        np.linspace(0.0, 1.0, 5), np.linspace(0.0, 2.0, 5), np.linspace(0.0, 2.0, 5)
    )
    rows = []
    for eta, p, q in grid:
        probs = detection_probs(NoiseModelParams(float(eta), float(p), float(q)))
        rows.append((probs.p_signal, probs.p_background))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "8938c009d7e7540cad35b8da0c0a498f9f1ceb191c923ca73cf35a64a17c514f"
    )


def test_detection_probs_against_mpmath_oracle_grid():
    for eta, p, q in [(0.055, 1.6, 0.005), (0.3, 0.5, 0.2), (1.0, 2.0, 2.0), (0.0, 1.0, 0.7),
                      (1.0, 20.0, 0.005)]:
        probs = detection_probs(NoiseModelParams(eta=eta, p=p, q=q))
        ps, pbg = oracle_probs(eta, p, q)
        assert math.isclose(probs.p_signal, ps, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(probs.p_background, pbg, rel_tol=1e-12, abs_tol=1e-15)


def test_detection_probs_closed_form_identities():
    # the untruncated sums collapse: total = 1 - exp(-(sp+q)), split sp : q
    for eta, p, q in [
        (0.055, 1.6, 0.005), (0.4, 1.2, 0.3), (0.9, 0.05, 0.8),
        (1.0, 400.0, 300.0), (0.5, 900.0, 150.0), (0.2, 1000.0, 550.0),
    ]:
        probs = detection_probs(NoiseModelParams(eta=eta, p=p, q=q))
        total = 1.0 - math.exp(-(eta * p + q))
        assert math.isclose(probs.p_signal + probs.p_background, total, rel_tol=1e-12)
        assert math.isclose(
            probs.p_signal / total, eta * p / (eta * p + q), rel_tol=1e-12
        )


def test_large_signal_mean_is_exact():
    # eta*p = 20 drops no Poisson mass: no photon number is cut off
    probs = detection_probs(NoiseModelParams(1.0, 20.0, 0.005))
    r = 20.0 / 0.005
    assert math.isclose(probs.sbr, r, rel_tol=1e-12)
    assert math.isclose(probs.fidelity, (r + 0.5) / (r + 1.0), rel_tol=1e-12)


def test_detection_probs_split_survives_mean_overflow():
    # eta*p + q overflows to inf: the split is still eta*p : q, never (0, 0)
    even = detection_probs(NoiseModelParams(1.0, 1e308, 1e308))
    assert even == DetectionProbs(0.5, 0.5)
    lopsided = detection_probs(NoiseModelParams(1.0, 1e308, 1e300))
    assert math.isclose(lopsided.sbr, 1e8, rel_tol=1e-12)
    assert math.isclose(lopsided.p_signal + lopsided.p_background, 1.0, rel_tol=1e-15)


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
    # R = eta p / q is exact for the model
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
    curve = fidelity_sbr_curve(0.055, 0.005, list(grid))
    ps, sbrs, fids = (np.array(col) for col in zip(*curve))
    assert np.array_equal(ps, grid)  # rows in grid order
    assert np.all(np.diff(sbrs) > 0)
    assert np.all(np.diff(fids) >= -1e-12)
    assert np.all((fids >= 0.5) & (fids <= 1.0))
    # small-mean identity
    assert_allclose(fids, (sbrs + 0.5) / (sbrs + 1.0), atol=1e-3)


def test_fidelity_sbr_curve_validation():
    with pytest.raises(DataError):
        fidelity_sbr_curve(0.055, 0.005, [])
    with pytest.raises(DataError):
        fidelity_sbr_curve(0.055, 0.005, [0.0, 1.0])
    with pytest.raises(DataError):
        fidelity_sbr_curve(0.055, 0.005, [1.0, 0.5])
    with pytest.raises(DataError):
        fidelity_sbr_curve(0.055, 0.005, [1.0, 1.0])
    with pytest.raises(UndefinedRatioError):
        fidelity_sbr_curve(0.055, 0.0, [1.0])



def oracle_classical_limit(mu, eta):
    """The measure-and-prepare limit in 40-digit arithmetic, its tails from the
    regularized incomplete gamma function and an infinite mpmath series."""
    with mpmath.workdps(40):
        mu = mpmath.mpf(mu)

        def tail(n):  # P(N >= n) for n >= 1
            return mpmath.gammainc(n, 0, mu, regularized=True)

        answer = min(mpmath.mpf(eta) * mu, tail(1))
        n = 1
        while tail(n + 1) >= answer:
            n += 1
        answered = mpmath.nsum(
            lambda k: mpmath.exp(-mu) * mu**k / mpmath.factorial(k) * (k + 1) / (k + 2),
            [n + 1, mpmath.inf],
        )
        return float((answered + (answer - tail(n + 1)) * mpmath.mpf(n + 1) / (n + 2)) / answer)


def test_classical_limit_eta_free():
    for mu, rounded in ((0.5, 0.6878), (1.0, 0.7090), (1.6, 0.7340), (3.0, 0.7865)):
        f = classical_fidelity_limit(mu, 1.0)
        e_inv = (mu - 1 + math.exp(-mu)) / mu**2  # E[1/(N+2)]
        closed = 1 - (e_inv - math.exp(-mu) / 2) / (1 - math.exp(-mu))
        assert math.isclose(f, closed, rel_tol=1e-12)
        with mpmath.workdps(40):
            m = mpmath.mpf(mu)
            series = mpmath.nsum(
                lambda n: mpmath.exp(-m) * m**n / mpmath.factorial(n) * (n + 1) / (n + 2),
                [1, mpmath.inf],
            ) / -mpmath.expm1(-m)
        assert math.isclose(f, float(series), rel_tol=1e-12)
        assert round(f, 4) == rounded
        # eta >= 1 answers on every non-empty pulse, and so does any eta*mu >= P(N >= 1)
        assert classical_fidelity_limit(mu, 7.5) == f
        assert classical_fidelity_limit(mu, (1 - math.exp(-mu)) / mu * 1.001) == f


def test_classical_limit_eta_aware_against_mpmath():
    # small eta*mu and small mu make the head sums cancel many digits, which
    # the decimal arithmetic must absorb
    for mu, eta in [(1.6, 0.055), (0.5, 0.055), (1.0, 0.3), (3.0, 0.01), (20.0, 0.5),
                    (0.1, 0.9), (7.0, 0.001), (1.6, 0.6), (1.6, 1e-17), (1e-8, 1.0),
                    (1e-6, 0.3), (300.0, 1e-4)]:
        got = classical_fidelity_limit(mu, eta)
        assert math.isclose(got, oracle_classical_limit(mu, eta), rel_tol=1e-12), (mu, eta)
    # eta normalized per photon, eta*mu answers per pulse; per pulse (eta) it
    # would be 0.846, per non-empty pulse (eta (1 - e^-mu)) 0.849
    assert round(classical_fidelity_limit(1.6, 0.055), 3) == 0.838
    assert round(classical_fidelity_limit(0.5, 0.055), 3) == 0.778
    # answering less often means answering on higher N only: F falls as eta rises
    fs = [classical_fidelity_limit(1.6, eta) for eta in np.linspace(0.001, 1.0, 200)]
    assert np.all(np.diff(fs) <= 0)
    assert fs[-1] == classical_fidelity_limit(1.6, 1.0) < fs[0] < 1.0


def test_classical_limit_domain():
    for mu in (0.0, -1.0, math.inf, math.nan, 709.0):
        with pytest.raises(DataError, match="mu must lie in"):
            classical_fidelity_limit(mu, 0.5)
    for eta in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(DataError, match="eta must be"):
            classical_fidelity_limit(1.6, eta)
    # the edges of the domain still give a fidelity in [(N+1)/(N+2) for N = 1, 1)
    for mu, eta in ((707.0, 0.5), (1e-300, 1.0), (1.6, 5e-324)):
        assert 2 / 3 <= classical_fidelity_limit(mu, eta) < 1.0

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


def test_mc_oracle_stream_pinned():
    """Criterion 1's 125 cells at 300,000 trials (one full chunk and one
    partial) and seeds 1000 + cell hash to one pinned digest, serially and
    on two threads: a kernel rewrite must not move the oracle's stream."""
    axes = (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 2.0, 5), np.linspace(0.0, 2.0, 5))
    cells = [NoiseModelParams(eta=float(e), p=float(p), q=float(q)) for e, p, q in itertools.product(*axes)]
    assert chunk_layout(300_000) == [1 << 18, 300_000 - (1 << 18)]
    for workers in (1, 2):
        est = [mc_detection_oracle(c, 300_000, 1000 + i, workers=workers) for i, c in enumerate(cells)]
        digest = hashlib.sha256(repr([(e.p_signal, e.p_background) for e in est]).encode()).hexdigest()
        assert digest == "ece591ec63ba1d38a9b2521cdf783d974bd141d80e9e7ece3ca68fe49504cfb7", workers


def literal_oracle(params, trials, seed):
    """The oracle's draws taken literally, chunk by chunk: three uniform
    vectors from the chunk's generator, for n, for m and for the pick, n and
    m searched in their tables' cdfs, and a signal click where u (n + m) < n."""
    cdfs = [_PoissonInverseCdf(mean).cdf for mean in (params.signal_mean, params.q)]
    n_sig = n_det = 0
    for i, size in enumerate(chunk_layout(trials)):
        rng = chunk_rng(seed, i)
        n, m = (np.searchsorted(cdf, rng.random(size), side="right") for cdf in cdfs)
        n_sig += int(np.count_nonzero(rng.random(size) * (n + m) < n))
        n_det += int(np.count_nonzero(n + m))
    return DetectionProbs(n_sig / trials, (n_det - n_sig) / trials)


@pytest.mark.parametrize("eta, p, q", [
    (0.0, 1.0, 0.5),  # eta p = 0: the signal vector is stepped over
    (0.6, 1.5, 0.0),  # q = 0: only the signal vector is drawn
    (0.5, 2.0, 1.0),  # both means > 0
    (1.0, 1e-300, 0.0), (0.0, 1.0, 1e-300), (1.0, 1e-300, 1e-300),  # exp(-mean) rounds to 1
    (1.0, 700.0, 0.0), (0.0, 1.0, 700.0), (1.0, 700.0, 0.5),  # just below MEAN_LIMIT
    (1e-200, 1e-200, 0.7),  # eta p underflows to 0
])
def test_mc_oracle_equals_literal_draws(eta, p, q):
    params = NoiseModelParams(eta=eta, p=p, q=q)
    for k, trials in enumerate((1, CHUNK_TRIALS - 1, CHUNK_TRIALS + 1, 2 * CHUNK_TRIALS + 3)):
        want = literal_oracle(params, trials, 50 + k)
        for workers in (1, 2):
            assert mc_detection_oracle(params, trials, 50 + k, workers=workers) == want, (trials, workers)
        if max(params.signal_mean, q) == 1e-300:
            assert want == DetectionProbs(0.0, 0.0)  # no pulse clicks


def test_mc_oracle_deterministic_across_workers():
    est1 = mc_detection_oracle(STANDARD_PARAMS, 600_000, 7, workers=1)
    est4 = mc_detection_oracle(STANDARD_PARAMS, 600_000, 7, workers=4)
    assert est1 == est4
    assert est1 == mc_detection_oracle(STANDARD_PARAMS, 600_000, 7, workers=2)
    # the default runs on every usable CPU and must not change the result
    assert est1 == mc_detection_oracle(STANDARD_PARAMS, 600_000, 7)


def test_mc_oracle_concurrent_callers_share_the_pool():
    """Callers on several threads share the kept pools, and each pool thread
    its scratch, with more threads than CPUs: every estimate is the serial one."""
    cells = [(NoiseModelParams(eta=0.6, p=1.0 + k / 4, q=0.4), 20 + k) for k in range(6)]
    serial = [mc_detection_oracle(c, 3 * (1 << 18) + 7, s, workers=1) for c, s in cells]
    got = [None] * len(cells)

    def call(k):
        got[k] = mc_detection_oracle(cells[k][0], 3 * (1 << 18) + 7, cells[k][1], workers=3)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(k,)) for k in range(len(cells))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == serial


@pytest.mark.parametrize(
    "params, what",
    [(NoiseModelParams(eta=1.0, p=1e300, q=0.0), "eta \\* p"),
     (NoiseModelParams(eta=0.5, p=1.0, q=1e19), "background mean \\(q\\)"),
     (NoiseModelParams(eta=1.0, p=5e18, q=5e18), "eta \\* p"),
     (NoiseModelParams(eta=1.0, p=MEAN_LIMIT, q=0.0), "eta \\* p"),
     (NoiseModelParams(eta=0.5, p=1.0, q=MEAN_LIMIT), "background mean \\(q\\)")],
)
def test_mc_oracle_refuses_means_above_poisson_limit(params, what):
    with pytest.raises(ConfigError, match=what):
        mc_detection_oracle(params, 1000, 1)


def test_mc_oracle_accepts_means_just_below_limit():
    # at means of 707.9 every trial holds hundreds of photons, so every trial clicks
    assert MEAN_LIMIT == 708.0
    for params in (NoiseModelParams(eta=1.0, p=707.9, q=0.0),
                   NoiseModelParams(eta=0.5, p=1.0, q=707.9),
                   NoiseModelParams(eta=1.0, p=707.9, q=707.9)):
        est = mc_detection_oracle(params, 1000, 1)
        assert est.p_signal + est.p_background == 1.0
    assert est.p_signal == pytest.approx(0.5, abs=0.1)


# criterion 1 draws means in [0, 2]; at 50 the running sum rounds above 1
# five entries before the table's end, so the table must cap it to stay sorted
SAMPLER_MEANS = [1e-7, 0.5, 1.0, 2.0, 30.0, 50.0, 707.0]


@pytest.mark.parametrize("mean", SAMPLER_MEANS)
def test_poisson_table_matches_scipy_cdf(mean):
    from scipy.stats import poisson

    cdf = _PoissonInverseCdf(mean).cdf
    k = np.arange(len(cdf))
    # the table runs past the mean until a term drops below 1e-17, and ends at 1
    assert k[-1] > mean and poisson.pmf(k[-1], mean) < 1e-17
    assert k[-2] <= mean or poisson.pmf(k[-2], mean) >= 1e-17
    assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0)
    # scipy's own cdf errs by up to 7e-13 at mean 707 (against 40-digit mpmath)
    assert_allclose(cdf, poisson.cdf(k, mean), rtol=1e-12, atol=0)


@pytest.mark.parametrize("mean", SAMPLER_MEANS)
def test_poisson_guide_lookup_is_exact_search(mean):
    sampler = _PoissonInverseCdf(mean)
    cdf = sampler.cdf
    edges = np.arange(4096) / 4096
    u = np.concatenate([
        cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0),
        np.linspace(0.0, 1.0, 1 << 20, endpoint=False), [np.nextafter(1.0, 0.0)],
    ])
    u = u[(u >= 0.0) & (u < 1.0)]
    got = sampler(u.copy())
    assert got.dtype == np.int32
    np.testing.assert_array_equal(got, np.searchsorted(cdf, u, side="right"))
    # the kernel's form, with caller-made scratch, returns the same counts in out
    idx, out = np.empty(u.shape, np.intp), np.empty(u.shape, np.int32)
    assert sampler(u.copy(), idx, out) is out
    np.testing.assert_array_equal(out, got)


def test_poisson_mean_zero_draws_only_zeros():
    u = np.concatenate([np.linspace(0.0, 1.0, 10_000, endpoint=False), [np.nextafter(1.0, 0.0)]])
    assert not np.any(_PoissonInverseCdf(0.0)(u))


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
