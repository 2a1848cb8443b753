"""The benchmark's three closed-loop workloads.

A workload is built from the polmem package, the run seed and a scratch
directory.  `inputs(i)` makes op i's inputs from (seed, i) alone, `run`
performs the op (the only timed part) and `check` verifies its outputs and
returns a digest of them, so a traced replay can be compared byte for byte.

Every statistical check is a two-sided bound of Z standard deviations on one
statistic per op; with Z = 6 a normal statistic exceeds it with probability
2.0e-9.  The per-run false-failure rate is that times the checks in a run
(see README.md).
"""

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

Z = 6.0


def derive_seed(seed: int, *key: int) -> int:
    """A polmem seed that depends only on the run seed and the key."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


@dataclass
class Checked:
    problems: list
    digest: str
    stats: dict = field(default_factory=dict)  # the checked statistics, for calibrate.py
    files: int = 0
    bytes: int = 0


class OracleGrid:
    """One op is one cell of criterion 1's 5x5x5 (eta, p, q) grid: the
    detection model plus its Monte Carlo oracle.  A round is the whole grid,
    so every run weighs one-stream (eta*p = 0 or q = 0) and two-stream cells
    alike.  The 9 cells with eta*p = 0 and q = 0 draw nothing and are left
    out: as near-zero latencies they would put the median op exactly where
    the 52 one-stream cells meet the 64 two-stream ones, a cliff that small
    changes in their relative cost jump across.  Each round visits the cells
    in its own seeded random order, so a drift in machine speed slows both
    kinds alike."""

    name = "oracle_grid"

    def __init__(self, pm, seed, workdir, trials=1_000_000):
        self.nm = pm.noise_model
        self.seed, self.trials = seed, trials
        axes = (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 2.0, 5), np.linspace(0.0, 2.0, 5))
        self.cells = [
            self.nm.NoiseModelParams(eta=float(e), p=float(p), q=float(q))
            for e in axes[0] for p in axes[1] for q in axes[2]
            if e * p > 0 or q > 0
        ]
        self.round_ops = self.traced_ops = len(self.cells)
        self.sizes = {"trials_per_cell": trials, "cells": len(self.cells)}
        self._order = (-1, None)  # (round, its cell order)

    def inputs(self, i):
        r, j = divmod(i, len(self.cells))
        if self._order[0] != r:
            rng = np.random.default_rng(derive_seed(self.seed, r, 1 << 30))
            self._order = (r, rng.permutation(len(self.cells)))
        return self.cells[self._order[1][j]], derive_seed(self.seed, i)

    def trials_of(self, x):
        return self.trials

    def run(self, x):
        params, seed = x
        return self.nm.detection_probs(params), self.nm.mc_detection_oracle(params, self.trials, seed)

    def check(self, x, out):
        model, est = out
        problems, stats = [], {}
        for key in ("p_signal", "p_background"):
            truth, got = getattr(model, key), getattr(est, key)
            sigma = math.sqrt(truth * (1.0 - truth) / self.trials)
            if sigma == 0.0:
                if got != truth:
                    problems.append(f"{x[0]}: {key} {got} where the model gives exactly {truth}")
                continue
            stats[key] = z = (got - truth) / sigma
            if abs(z) > Z:
                problems.append(f"{x[0]}: {key} {got} vs model {truth} (z = {z:.2f})")
        return Checked(problems, repr((est.p_signal, est.p_background)), stats)


class SixStateCli:
    """One op is a paper-scale six-state pipeline through `polmem.cli.main`:
    reference, six storage histograms and six polarimetry sweeps at
    criterion 3's config, then `analyze`.  Files go to a per-op directory."""

    name = "six_state_cli"
    CONFIG = dict(eta_h=0.055, eta_v=0.055, p_in=1.6, chain=0.0625, bg_rate=0.0041, tech_rate=0.0)
    SIGNAL, BACKGROUND = 0.0055, 0.0041  # detected means per pulse in the retrieval window
    ANGLES = 16  # the CLI's default polarimetry grid
    # standard deviations of the checked statistics at 1e6 trials/state, from
    # calibrate.py (400 seeds; both means are within 1.5 standard errors of
    # 0); both scale as 1/sqrt(trials).  The SBR one matches the Poisson
    # propagation sqrt(R/B^2 + R^2/B^3)/sqrt(6) = 0.0178, R = 9600, B = 4100.
    SBR_SIGMA = 0.0179
    FID_GAP_SIGMA = 0.0077

    def __init__(self, pm, seed, workdir, trials=1_000_000):
        self.cli = pm.cli
        self.seed, self.trials, self.workdir = seed, trials, workdir
        self.states = pm.STATE_NAMES
        self.config = os.path.join(workdir, "config.json")
        pm.MemoryConfig(**self.CONFIG).save(self.config)
        self.round_ops, self.traced_ops = 1, 100
        self.scale = math.sqrt(1_000_000 / trials)
        self.sizes = {"trials_per_state": trials, "polarimetry_trials_per_angle": trials // self.ANGLES,
                      "cli_calls_per_op": 2 * len(self.states) + 2}

    def inputs(self, i):
        out = os.path.join(self.workdir, f"op{i}")
        shutil.rmtree(out, ignore_errors=True)  # left behind if op i raised
        os.makedirs(out)
        common = ["--config", self.config, "--trials"]
        argvs = [["simulate", "--kind", "reference", *common, str(self.trials),
                  "--seed", str(derive_seed(self.seed, i, 0)), "--out", f"{out}/reference.json"]]
        analyze = ["analyze", "--config", self.config, "--reference", f"{out}/reference.json",
                   "--out", f"{out}/report.json"]
        for k, name in enumerate(self.states):
            argvs.append(["simulate", "--kind", "histogram", "--state", name, *common, str(self.trials),
                          "--seed", str(derive_seed(self.seed, i, 1 + k)), "--out", f"{out}/storage_{name}.json"])
            argvs.append(["simulate", "--kind", "polarimetry", "--state", name, *common,
                          str(self.trials // self.ANGLES), "--seed", str(derive_seed(self.seed, i, 11 + k)),
                          "--out", f"{out}/stokes_{name}.csv"])
            analyze += ["--storage", f"{name}={out}/storage_{name}.json",
                        "--stokes", f"{name}={out}/stokes_{name}.csv"]
        return out, argvs + [analyze]

    def trials_of(self, x):
        return len(self.states) * (self.trials + (self.trials // self.ANGLES) * self.ANGLES) + self.trials

    def run(self, x):
        codes = []
        for argv in x[1]:
            try:
                codes.append(self.cli.main(argv))
            except SystemExit as exc:  # argparse rejects a command line this way
                codes.append(exc.code)
        return codes

    def check(self, x, codes):
        out = x[0]
        problems = [f"{' '.join(argv[:3])} exited {code}" for argv, code in zip(x[1], codes) if code != 0]
        digest, files, nbytes, stats = hashlib.sha256(), 0, 0, {}
        for fname in sorted(os.listdir(out)):
            path = os.path.join(out, fname)
            files += 1
            nbytes += os.path.getsize(path)
            if not fname.endswith(".manifest.json"):  # manifests carry a timestamp
                with open(path, "rb") as fh:
                    digest.update(fname.encode() + b"\0" + fh.read())
        if not problems:
            with open(os.path.join(out, "report.json")) as fh:
                average = json.load(fh)["average"]
            sbr, fid = average["sbr"], average["fidelity"]
            stats["sbr_gap"] = sbr - self.SIGNAL / self.BACKGROUND
            stats["fid_gap"] = fid - (sbr + 0.5) / (sbr + 1.0)
            if abs(stats["sbr_gap"]) > Z * self.SBR_SIGMA * self.scale:
                problems.append(f"average SBR {sbr} vs analytic {self.SIGNAL / self.BACKGROUND}")
            if abs(stats["fid_gap"]) > Z * self.FID_GAP_SIGMA * self.scale:
                problems.append(f"average fidelity {fid} vs (SBR+1/2)/(SBR+1) = {fid - stats['fid_gap']}")
        shutil.rmtree(out)
        return Checked(problems, digest.hexdigest(), stats, files, nbytes)


class CoherenceScan:
    """One op is a storage-time scan (criterion 5) and a control-power sweep
    (criterion 6), each followed by its fit; in memory, no files."""

    name = "coherence_scan"
    TIMES = tuple(np.linspace(0.0, 35.0, 8))
    POWERS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)

    def __init__(self, pm, seed, workdir, trials=4_000_000):
        self.ms, self.ha = pm.memory_sim, pm.histogram_analysis
        self.seed, self.trials = seed, trials
        self.decay_config = pm.MemoryConfig()
        self.background_config = pm.MemoryConfig(eta_h=0.0, eta_v=0.0, bg_rate=0.004, tech_rate=0.002)
        self.round_ops, self.traced_ops = 1, 50
        self.sizes = {"trials_per_point": trials, "storage_times": len(self.TIMES), "powers": len(self.POWERS)}

    def inputs(self, i):
        return derive_seed(self.seed, i, 0), derive_seed(self.seed, i, 1)

    def trials_of(self, x):
        # the decay scan also simulates one reference run
        return self.trials * (len(self.TIMES) + 1 + len(self.POWERS))

    def run(self, x):
        series = self.ms.simulate_decay_series(self.decay_config, self.TIMES, self.trials, x[0])
        decay = self.ha.fit_exponential_decay(series)
        background, technical = self.ms.simulate_background_sweep(
            self.background_config, self.POWERS, self.trials, x[1]
        )
        return series, decay, background, technical, self.ha.fit_sqrt_background(background, technical)

    def check(self, x, out):
        series, decay, background, technical, power = out
        # the fits' own standard errors are calibrated: calibrate.py finds
        # z-scores with unit spread (400 seeds)
        stats = {
            "tau_z": (decay.params["tau"] - self.decay_config.tau_coherence) / decay.stderr["tau"],
            "c_z": (power.params["c"] - 0.5) / power.stderr["c"],
        }
        problems = [f"{k} = {v:.2f}" for k, v in stats.items() if abs(v) > Z]
        digest = hashlib.sha256()
        for s in (series, background, technical):
            for arr in (s.x, s.y, s.y_err):
                digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update(repr((decay.to_dict(), power.to_dict())).encode())
        return Checked(problems, digest.hexdigest(), stats)


WORKLOADS = {w.name: w for w in (OracleGrid, SixStateCli, CoherenceScan)}
