"""Pass rates of the fixed-seed statistical checks that the histogram sampler feeds.

    python3 tools/pass_rates.py --seeds 1000

Each check below repeats the assertions of one test in tests/ at that test's
sizes and bounds, with its seeds moved to a base: the committed base gives the
test's own seeds, and base 100000 + 100 j gives the j-th fresh set.  The
script prints, for each check, the verdict at the committed seeds and how many
fresh sets fail it.  It imports polmem from this checkout's src/ only.
"""

import argparse
import math
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import polmem as pm  # noqa: E402

H, V = pm.CANONICAL_STATES["H"], pm.CANONICAL_STATES["V"]


def _near(got, mean, k=3.0):
    return abs(got - mean) <= k * math.sqrt(mean)


def _windows(cfg):
    return pm.Window(cfg.roi_start, cfg.roi_end), pm.Window(cfg.bg_window_start, cfg.bg_window_end)


def criterion_3(base):
    """test_acceptance::test_criterion_3_six_state_benchmark"""
    cfg = pm.MemoryConfig(eta_h=0.055, eta_v=0.055, p_in=1.6, chain=0.0625,
                          bg_rate=0.0041, tech_rate=0.0)
    trials, angles = 1_000_000, np.linspace(0.0, math.pi, 16)
    reference = pm.simulate_reference(cfg, trials, base)
    storage, measured = {}, {}
    for i, name in enumerate(pm.STATE_NAMES):
        state = pm.CANONICAL_STATES[name]
        storage[name] = pm.simulate_histogram(cfg, state, None, trials, base + 1 + i)
        sweep = pm.simulate_polarimetry_sweep(cfg, state, angles, trials // 16, base + 21 + i)
        measured[name], _ = pm.fit_stokes(sweep)
    report = pm.build_report(storage, reference, *_windows(cfg), measured)
    avg_sbr, avg_fid = report.average["sbr"], report.average["fidelity"]
    return abs(avg_sbr - 1.35) <= 0.09 and abs(avg_fid - (avg_sbr + 0.5) / (avg_sbr + 1.0)) <= 0.03


def criterion_5(base):
    """test_acceptance::test_criterion_5_coherence_fit"""
    series = pm.simulate_decay_series(pm.MemoryConfig(), list(np.linspace(0.0, 35.0, 8)),
                                      1_000_000, base)
    return abs(pm.fit_exponential_decay(series).params["tau"] - 19.3) / 19.3 <= 0.02


def histogram_means(base):
    """test_memory_sim::test_histogram_means_match_closed_form"""
    cfg, trials = pm.MemoryConfig(), 400_000
    hist = pm.simulate_histogram(cfg, H, None, trials, base)
    roi, bg = _windows(cfg)
    sig, bgm = cfg.signal_mean(H) * trials, cfg.background_mean() * trials
    return (_near(pm.roi_counts(hist, roi), sig + bgm) and _near(pm.roi_counts(hist, bg), bgm)
            and pm.roi_counts(hist, pm.Window(0.0, cfg.roi_start)) == 0)


def flat_shape(base):
    """test_memory_sim::test_histogram_flat_shape_fills_roi_uniformly"""
    cfg = pm.MemoryConfig(retrieval_shape="flat", bg_rate=0.0)
    hist = pm.simulate_histogram(cfg, H, None, 400_000, base)
    i0, i1 = (round((t - hist.t_start) / hist.bin_width) for t in (cfg.roi_start, cfg.roi_end))
    bins = hist.counts[i0:i1]
    expected = bins.sum() / len(bins)
    return bool(np.all(np.abs(bins - expected) <= 4 * math.sqrt(expected)))


def analyzer(base):
    """test_memory_sim::test_analyzer_thins_signal_and_halves_background"""
    cfg, trials = pm.MemoryConfig(eta_h=0.055, eta_v=0.055, bg_rate=0.02), 400_000
    roi, bg = _windows(cfg)
    h_pass = pm.simulate_histogram(cfg, H, 0.0, trials, base)
    v_block = pm.simulate_histogram(cfg, V, 0.0, trials, base + 1)
    sig, bgm = cfg.signal_mean(H) * trials, 0.5 * cfg.background_mean() * trials
    return (_near(pm.roi_counts(h_pass, roi), sig + bgm) and _near(pm.roi_counts(v_block, roi), bgm)
            and _near(pm.roi_counts(h_pass, bg), bgm))


def split_rails(base):
    """test_memory_sim::test_background_split_between_rails_indistinguishable"""
    q, trials = 0.02, 500_000
    single_cfg = pm.MemoryConfig(eta_h=0.0, eta_v=0.0, bg_rate=q)
    half_cfg = pm.MemoryConfig(eta_h=0.0, eta_v=0.0, bg_rate=q / 2)
    roi, _ = _windows(single_cfg)
    n1 = pm.roi_counts(pm.simulate_histogram(single_cfg, H, None, trials, base), roi)
    n2 = sum(pm.roi_counts(pm.simulate_histogram(half_cfg, H, None, trials, base + k), roi)
             for k in (1, 2))
    return abs(n1 - n2) / math.sqrt(n1 + n2) <= 3


def reference_total(base):
    """test_memory_sim::test_reference_total_and_support"""
    cfg, trials = pm.MemoryConfig(), 300_000
    ref = pm.simulate_reference(cfg, trials, base)
    return (_near(ref.total(), cfg.chain * cfg.p_in * trials)
            and pm.roi_counts(ref, pm.Window(pm.memory_sim.INPUT_PULSE_US, cfg.t_max)) == 0)


def decay_start(base):
    """test_memory_sim::test_decay_series_starts_at_configured_efficiency"""
    cfg = pm.MemoryConfig(eta_h=0.055, eta_v=0.055)
    series = pm.simulate_decay_series(cfg, [0.0, 10.0, 20.0], 400_000, base)
    return abs(series.y[0] - 0.055) <= 3 * series.y_err[0] and all(
        abs(y - 0.055 * math.exp(-t / cfg.tau_coherence)) <= 3 * max(e, 1e-6)
        for t, y, e in zip(series.x, series.y, series.y_err))


# (check, the base of the test's own seeds)
CHECKS = [(criterion_3, 300), (criterion_5, 500), (histogram_means, 31), (flat_shape, 32),
          (analyzer, 33), (split_rails, 41), (reference_total, 51), (decay_start, 71)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=300, help="fresh seed sets per check")
    args = parser.parse_args()
    print(f"| check | committed seeds | fresh sets failing (of {args.seeds}) |")
    print("|---|---|---|")
    for check, committed in CHECKS:
        verdict = "pass" if check(committed) else "FAIL"
        failures = sum(not check(100_000 + 100 * j) for j in range(args.seeds))
        print(f"| `{check.__doc__}` | {verdict} | {failures} |", flush=True)


if __name__ == "__main__":
    main()
