"""Command-line round trips, exit codes, determinism, and golden regressions."""

import argparse
import hashlib
import importlib.util
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

import polmem as pm
from polmem import histogram_analysis, noise_model
from polmem.cli import build_parser, main
from polmem.memory_sim import DECAY_SCAN_STATE, SweepSeries
from polmem.polarization import read_polarimetry_csv, write_polarimetry_csv

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    pm.MemoryConfig().save(path)
    return str(path)


@pytest.fixture
def sym_cfg_path(tmp_path):
    path = tmp_path / "sym.json"
    pm.MemoryConfig(eta_h=0.055, eta_v=0.055).save(path)
    return str(path)


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------- simulate


def test_simulate_six_state_batch(tmp_path, cfg_path):
    for s in pm.STATE_NAMES:
        out = tmp_path / f"st_{s}.json"
        assert run("simulate", "--config", cfg_path, "--state", s,
                   "--trials", 20_000, "--seed", 5, "--out", out) == 0
    files = sorted(p.name for p in tmp_path.glob("st_*.json") if "manifest" not in p.name)
    assert files == sorted(f"st_{s}.json" for s in pm.STATE_NAMES)
    hist = pm.ArrivalHistogram.load(tmp_path / "st_H.json")
    assert hist.n_trials == 20_000
    assert hist.label == "storage:H"


def test_simulate_rerun_byte_identical(tmp_path, cfg_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run("simulate", "--config", cfg_path, "--state", "D",
                   "--trials", 300_000, "--seed", 77, "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_missing_config_exit_2(tmp_path):
    assert run("simulate", "--config", tmp_path / "nope.json", "--state", "H",
               "--trials", 10, "--seed", 1, "--out", tmp_path / "x.json") == 2


def test_simulate_bad_state_exit_2(tmp_path, cfg_path):
    assert run("simulate", "--config", cfg_path, "--state", "X",
               "--trials", 10, "--seed", 1, "--out", tmp_path / "x.json") == 2


@pytest.mark.parametrize("body", ['{"p_in": NaN}', '{"eta_h": "0.5"}'])
def test_simulate_non_finite_or_non_numeric_config_exit_2(tmp_path, body):
    cfg = tmp_path / "bad.json"
    cfg.write_text(body)
    assert run("simulate", "--config", cfg, "--state", "H", "--trials", 1000,
               "--seed", 1, "--out", tmp_path / "h.json") == 2
    assert not (tmp_path / "h.json").exists()


def test_simulate_manifest_records_run(tmp_path, cfg_path):
    out = tmp_path / "h.json"
    assert run("simulate", "--config", cfg_path, "--state", "H",
               "--trials", 1000, "--seed", 9, "--out", out) == 0
    manifest = json.loads((tmp_path / "h.json.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 9
    assert manifest["config"] == cfg_path
    assert manifest["version"] == pm.__version__
    assert "timestamp" in manifest
    for path in manifest["outputs"]:
        assert os.path.exists(path)


def test_simulate_reference_kind(tmp_path, cfg_path):
    out = tmp_path / "ref.json"
    assert run("simulate", "--config", cfg_path, "--kind", "reference",
               "--trials", 50_000, "--seed", 2, "--out", out) == 0
    assert pm.ArrivalHistogram.load(out).label == "reference"


def test_simulate_polarimetry_kind_round_trips(tmp_path, sym_cfg_path):
    out = tmp_path / "sweep.csv"
    assert run("simulate", "--config", sym_cfg_path, "--kind", "polarimetry",
               "--state", "D", "--trials", 10_000, "--seed", 3,
               "--noiseless", "--out", out) == 0
    sweep = read_polarimetry_csv(out)
    assert len(sweep) == 16


def test_simulate_polarimetry_keeps_poisson_errors(tmp_path, sym_cfg_path):
    out = tmp_path / "sweep.csv"
    assert run("simulate", "--config", sym_cfg_path, "--kind", "polarimetry",
               "--state", "D", "--trials", 10_000, "--seed", 3, "--out", out) == 0
    assert out.read_text().splitlines()[0] == "qwp_angle_deg,intensity,y_err"
    simulated = pm.simulate_polarimetry_sweep(pm.MemoryConfig.load(sym_cfg_path),
                                              pm.CANONICAL_STATES["D"],
                                              np.linspace(0.0, math.pi, 16), 10_000, 3)
    sweep = read_polarimetry_csv(out)
    assert np.all(sweep.y_err > 0)
    assert sweep.y_err.tobytes() == simulated.y_err.tobytes()
    assert sweep.y.tobytes() == simulated.y.tobytes()


def test_simulate_decay_and_background_kinds(tmp_path, cfg_path):
    decay = tmp_path / "decay.csv"
    assert run("simulate", "--config", cfg_path, "--kind", "decay",
               "--trials", 50_000, "--seed", 4,
               "--times", "0,5,10,15,20,25,30,35", "--out", decay) == 0
    series = SweepSeries.load_csv(decay)
    assert series.x_name == "storage_time_us" and len(series) == 8

    bg = tmp_path / "bg.csv"
    assert run("simulate", "--config", cfg_path, "--kind", "background",
               "--trials", 100_000, "--seed", 5,
               "--powers", "0.5,1,2,4,8", "--out", bg) == 0
    tech = tmp_path / "bg.technical.csv"
    assert tech.exists()
    assert len(SweepSeries.load_csv(tech)) == 5
    manifest = json.loads((tmp_path / "bg.csv.manifest.json").read_text())
    assert str(tech) in manifest["outputs"]


def test_simulate_sweep_kinds_require_grids(tmp_path, cfg_path):
    assert run("simulate", "--config", cfg_path, "--kind", "decay",
               "--trials", 100, "--seed", 1, "--out", tmp_path / "d.csv") == 2
    assert run("simulate", "--config", cfg_path, "--kind", "background",
               "--trials", 100, "--seed", 1, "--out", tmp_path / "b.csv") == 2
    assert run("simulate", "--config", cfg_path, "--kind", "decay", "--times", "0,x",
               "--trials", 100, "--seed", 1, "--out", tmp_path / "d.csv") == 2


# ----------------------------------------------------------------- analyze


def _write_analyze_inputs(tmp_path, cfg):
    """Deterministic six-state dataset matching the stored golden report.

    The reference and storage histograms are fixtures: 200,000 trials each at
    the default config, the reference from seed 900 and state i's storage
    histogram from seed 901 + i, drawn by the per-photon sampler that the
    per-bin one replaced.  So the golden checks `analyze`, not the sampler.
    """
    (tmp_path / "ref.json").write_bytes((DATA / "analyze_reference.json").read_bytes())
    args = []
    for i, s in enumerate(pm.STATE_NAMES):
        (tmp_path / f"st_{s}.json").write_bytes((DATA / f"analyze_storage_{s}.json").read_bytes())
        sweep = pm.simulate_polarimetry_sweep(
            cfg, pm.CANONICAL_STATES[s], np.linspace(0, math.pi, 16), 50_000, 921 + i
        )
        write_polarimetry_csv(tmp_path / f"sw_{s}.csv", sweep)
        args += ["--storage", f"{s}={tmp_path / f'st_{s}.json'}",
                 "--stokes", f"{s}={tmp_path / f'sw_{s}.csv'}"]
    return args


def test_analyze_matches_golden_report(tmp_path, cfg_path, capsys):
    args = _write_analyze_inputs(tmp_path, pm.MemoryConfig())
    out = tmp_path / "report.json"
    assert run("analyze", "--config", cfg_path, "--reference", tmp_path / "ref.json",
               *args, "--out", out) == 0
    assert out.read_bytes() == (DATA / "report_golden.json").read_bytes()
    table = capsys.readouterr().out
    assert table.splitlines()[0].split() == ["state", "SBR", "fidelity", "efficiency"]
    report = json.loads(out.read_text())
    for key in ("sbr", "fidelity", "efficiency"):
        vals = [report["states"][s][key] for s in pm.STATE_NAMES]
        assert report["average"][key] == pytest.approx(np.mean(vals), abs=1e-12)



def test_analyze_reports_classical_limits(tmp_path, cfg_path):
    args = _write_analyze_inputs(tmp_path, pm.MemoryConfig())
    out = tmp_path / "report.json"
    assert run("analyze", "--config", cfg_path, "--reference", tmp_path / "ref.json",
               *args, "--out", out) == 0
    report = json.loads(out.read_text())
    limits, average = report["classical_limit"], report["average"]
    assert set(average) == {"sbr", "fidelity", "efficiency"}
    assert limits["mu"] == pm.MemoryConfig().p_in
    assert limits["eta"] == average["efficiency"]
    assert limits["f_classical"] == pm.classical_fidelity_limit(limits["mu"], 1.0)
    assert limits["f_classical_eta"] == pm.classical_fidelity_limit(limits["mu"], limits["eta"])
    for key in ("f_classical", "f_classical_eta"):
        assert limits[f"f_avg_minus_{key}"] == average["fidelity"] - limits[key]



def test_analyze_takes_each_classical_limit_once(tmp_path, cfg_path, monkeypatch):
    # the report is worked out once: one eta-free limit and one eta-aware limit
    calls = []
    limit = histogram_analysis.classical_fidelity_limit
    monkeypatch.setattr(histogram_analysis, "classical_fidelity_limit",
                        lambda *a: calls.append(a) or limit(*a))
    args = _write_analyze_inputs(tmp_path, pm.MemoryConfig())
    assert run("analyze", "--config", cfg_path, "--reference", tmp_path / "ref.json",
               *args, "--out", tmp_path / "report.json") == 0
    assert len(calls) == 2


def test_analyze_reports_no_classical_limit_above_its_domain(tmp_path, capsys):
    # simulate accepts p_in = 800, but e^-800 is no normal float, so the
    # classical limits are not computed: null, with a warning naming mu
    cfg = tmp_path / "bright.json"
    pm.MemoryConfig(p_in=800.0).save(cfg)
    args = _write_analyze_inputs(tmp_path, pm.MemoryConfig(p_in=800.0))
    out = tmp_path / "report.json"
    with pytest.warns(UserWarning, match="mu = 800.0 lies outside \\(0, 708\\)"):
        assert run("analyze", "--config", cfg, "--reference", tmp_path / "ref.json",
                   *args, "--out", out) == 0
    limits = json.loads(out.read_text())["classical_limit"]
    assert limits["mu"] == 800.0
    for key in ("f_classical", "f_classical_eta", "f_avg_minus_f_classical",
                "f_avg_minus_f_classical_eta"):
        assert limits[key] is None
    assert "classical limit, mu = 800: none outside 0 < mu < 708" in capsys.readouterr().out

def test_analyze_warnings_name_state_and_files(tmp_path):
    # an ideal memory: signal and reference are both chain * p_in, so noise
    # lifts efficiencies, and at 10^4 pulses per angle fidelities, above 1
    cfg = tmp_path / "ideal.json"
    cfg.write_text('{"eta_h": 1, "eta_v": 1}')
    args = []
    for i, s in enumerate(pm.STATE_NAMES):
        st, sw = tmp_path / f"st_{s}.json", tmp_path / f"sw_{s}.csv"
        assert run("simulate", "--config", cfg, "--state", s, "--trials", 100_000,
                   "--seed", 2 + i, "--out", st) == 0
        assert run("simulate", "--config", cfg, "--kind", "polarimetry", "--state", s,
                   "--trials", 10_000, "--seed", 12 + i, "--out", sw) == 0
        args += ["--storage", f"{s}={st}", "--stokes", f"{s}={sw}"]
    assert run("simulate", "--config", cfg, "--kind", "reference", "--trials", 100_000,
               "--seed", 101, "--out", tmp_path / "ref.json") == 0
    out = tmp_path / "r.json"
    with pytest.warns(UserWarning) as caught:
        assert run("analyze", "--config", cfg, "--reference", tmp_path / "ref.json",
                   *args, "--out", out) == 0
    messages = [str(w.message) for w in caught]
    report = json.loads(out.read_text())
    for what, key in (("efficiency estimate", "efficiency"), ("fidelity estimate", "fidelity")):
        above = [s for s in pm.STATE_NAMES if report["states"][s][key] > 1]
        assert above, f"no {key} above 1 to warn of"
        named = [m for m in messages if f"{what} " in m and m.endswith("is above 1")]
        assert named == [
            f"state {s} (storage {tmp_path / f'st_{s}.json'}, sweep {tmp_path / f'sw_{s}.csv'}): "
            f"{what} {report['states'][s][key]!r} is above 1" for s in above
        ]
    assert report["classical_limit"]["f_classical_eta"] == report["classical_limit"]["f_classical"]

def test_analyze_missing_state_exit_2(tmp_path, cfg_path):
    args = _write_analyze_inputs(tmp_path, pm.MemoryConfig())
    # drop one --storage pair (keys sit at even offsets: flag, value, ...)
    idx = args.index(f"--storage")
    pruned = args[:idx] + args[idx + 2:]
    assert run("analyze", "--config", cfg_path, "--reference", tmp_path / "ref.json",
               *pruned, "--out", tmp_path / "r.json") == 2
    # a pair with no path, or with a name that is no state, is no state's file
    for pair in ("H", "Q=a.json"):
        assert run("analyze", "--config", cfg_path, "--reference", tmp_path / "ref.json",
                   *pruned, "--storage", pair, "--out", tmp_path / "r.json") == 2


SIX_PAIRS = [f"{s}={s}.file" for s in pm.STATE_NAMES]


@pytest.mark.parametrize("flag,pairs,message", [
    ("--storage", SIX_PAIRS[1:] + ["H"], "expects NAME=PATH"),
    ("--storage", SIX_PAIRS + ["Q=Q.file"], "expects NAME=PATH"),
    ("--stokes", SIX_PAIRS[1:], "missing for states ['H']"),
    ("--stokes", SIX_PAIRS + ["H=V.file"], "names state H twice"),
], ids=["no-equals", "unknown-state", "missing-state", "repeated-state"])
def test_analyze_bad_state_pairs_exit_2(tmp_path, cfg_path, capsys, flag, pairs, message):
    # the pairs are refused before any file is read, so the paths need not exist
    argv = [a for f in ("--storage", "--stokes")
            for pair in (pairs if f == flag else SIX_PAIRS) for a in (f, pair)]
    assert run("analyze", "--config", cfg_path, "--reference", tmp_path / "ref.json",
               *argv, "--out", tmp_path / "r.json") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and message in err


def test_analyze_schema_violation_exit_2(tmp_path, cfg_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"t_start_us": 0.0}\n')
    args = _write_analyze_inputs(tmp_path, pm.MemoryConfig())
    i = args.index(f"--storage")
    args[i + 1] = f"H={bad}"
    assert run("analyze", "--config", cfg_path, "--reference", tmp_path / "ref.json",
               *args, "--out", tmp_path / "r.json") == 2


# ------------------------------------------------------------- model-curve


def test_model_curve_matches_golden(tmp_path):
    out = tmp_path / "curve.csv"
    assert run("model-curve", "--out", out) == 0
    assert out.read_bytes() == (DATA / "model_curve_default.csv").read_bytes()
    lines = out.read_text().splitlines()
    assert lines[0] == "p,sbr,fidelity"
    assert len(lines) == 51


def test_model_curve_single_point(tmp_path):
    out = tmp_path / "one.csv"
    assert run("model-curve", "--p-min", 1.6, "--p-max", 1.6, "--p-points", 1,
               "--out", out) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    p, sbr_v, fid = (float(v) for v in lines[1].split(","))
    assert p == 1.6
    assert sbr_v == pytest.approx(0.055 * 1.6 / 0.005)
    assert fid == pytest.approx(0.97311827956989247)


def test_model_curve_q_zero_exit_2(tmp_path, capsys):
    assert run("model-curve", "--q", 0.0, "--out", tmp_path / "c.csv") == 2
    assert "infinite" in capsys.readouterr().err


def test_model_curve_large_mean_exit_0(tmp_path, capsys):
    # eta*p up to 40: every photon number counts, so each row is (R+1/2)/(R+1)
    out = tmp_path / "c.csv"
    assert run("model-curve", "--eta", 1, "--q", 0.005, "--p-min", 1, "--p-max", 40,
               "--p-points", 4, "--out", out) == 0
    rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
    assert [p for p, _, _ in rows] == [1.0, 14.0, 27.0, 40.0]
    for p, sbr_v, fid in rows:
        r = p / 0.005
        assert sbr_v == pytest.approx(r, rel=1e-12)
        assert fid == pytest.approx((r + 0.5) / (r + 1.0), rel=1e-12)


def test_model_curve_n_max_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("model-curve", "--n-max", 20, "--out", tmp_path / "c.csv")
    assert exc.value.code == 2
    assert "unrecognized arguments: --n-max" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("flag,value", [("--q", "inf"), ("--q", "nan"), ("--p-max", "inf")])
def test_model_curve_non_finite_mean_exit_2(tmp_path, flag, value):
    out = tmp_path / "c.json"
    assert run("model-curve", flag, value, "--format", "json", "--out", out) == 2
    assert not out.exists()


def test_model_curve_bad_range_exit_2(tmp_path):
    assert run("model-curve", "--p-min", 2.0, "--p-max", 1.0,
               "--out", tmp_path / "c.csv") == 2
    with pytest.raises(SystemExit) as exc:
        run("model-curve", "--p-points", 0, "--out", tmp_path / "c.csv")
    assert exc.value.code == 2


def test_failed_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    assert run("model-curve", "--out", target) == 2
    assert list(tmp_path.glob("*.tmp.*")) == []


def test_model_curve_json_format(tmp_path):
    out = tmp_path / "curve.json"
    assert run("model-curve", "--p-points", 3, "--format", "json", "--out", out) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 3
    assert set(rows[0]) == {"p", "sbr", "fidelity"}


def test_model_curve_is_fidelity_sbr_curve(tmp_path, monkeypatch):
    calls = []
    model = noise_model.detection_probs

    def counted(params):
        calls.append(params)
        return model(params)

    monkeypatch.setattr(noise_model, "detection_probs", counted)
    out = tmp_path / "curve.json"
    assert run("model-curve", "--format", "json", "--out", out) == 0
    assert len(calls) == 50  # one model evaluation per point
    rows = pm.fidelity_sbr_curve(0.055, 0.005, np.linspace(0.1, 20, 50))
    assert json.loads(out.read_text()) == [
        {"p": p, "sbr": s, "fidelity": f} for p, s, f in rows
    ]


def test_model_curve_repeated_point_exit_2(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert run("model-curve", "--p-min", 1.6, "--p-max", 1.6, "--p-points", 3,
               "--out", out) == 2
    assert "strictly ascending" in capsys.readouterr().err
    assert not out.exists()


# -------------------------------------------------------------------- fit


def _fit(tmp_path, *flags):
    """`polmem fit` written as JSON and as CSV: the JSON is the one fit record,
    and the CSV rows hold the same values and errors.  Returns the JSON."""
    out, csv_out = tmp_path / "fit.json", tmp_path / "fit.csv"
    assert run("fit", *flags, "--out", out) == 0
    assert run("fit", *flags, "--format", "csv", "--out", csv_out) == 0
    result = json.loads(out.read_text())
    assert set(result) == {"params", "stderr", "residual_norm", "n_points"}
    assert list(result["params"]) == list(result["stderr"])
    header, *lines = csv_out.read_text().splitlines()
    assert header == "param,value,stderr"
    assert [(name, float(v), float(e)) for name, v, e in (line.split(",") for line in lines)] == [
        (name, v, result["stderr"][name]) for name, v in result["params"].items()
    ]
    return result


def test_fit_decay_recovers_tau(tmp_path, cfg_path, capsys):
    decay = tmp_path / "decay.csv"
    assert run("simulate", "--config", cfg_path, "--kind", "decay",
               "--trials", 400_000, "--seed", 11,
               "--times", "0,5,10,15,20,25,30,35", "--out", decay) == 0
    result = _fit(tmp_path, "--kind", "decay", "--series", decay)
    assert result["params"]["tau"] == pytest.approx(19.3, rel=0.05)
    assert capsys.readouterr().out  # result echoed to stdout


def _shifted_decay_csv(path, t0):
    dt = np.linspace(0.0, 35.0, 8)
    y = 0.05 * np.exp(-dt / 19.3) * (1 + np.random.default_rng(1).normal(0.0, 0.02, 8))
    SweepSeries(t0 + dt, y, 0.02 * y, "storage_time_us", "efficiency").save_csv(path)
    return path


def test_fit_decay_far_from_time_zero(tmp_path):
    series = _shifted_decay_csv(tmp_path / "late.csv", 10_000.0)
    out = tmp_path / "fit.json"
    assert run("fit", "--kind", "decay", "--series", series, "--out", out) == 0
    assert json.loads(out.read_text())["params"]["tau"] == pytest.approx(19.3, rel=0.05)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_decay_unrepresentable_amplitude_exit_3(tmp_path, capsys):
    series = _shifted_decay_csv(tmp_path / "later.csv", 1e6)
    out = tmp_path / "fit.json"
    assert run("fit", "--kind", "decay", "--series", series, "--out", out) == 3
    assert "not a finite float" in capsys.readouterr().err
    assert not out.exists()


def test_fit_background_recovers_sqrt(tmp_path, tmp_path_factory):
    cfg = pm.MemoryConfig(eta_h=0.0, eta_v=0.0, bg_rate=0.004, tech_rate=0.002)
    cfg_file = tmp_path / "bgcfg.json"
    cfg.save(cfg_file)
    bg = tmp_path / "bg.csv"
    assert run("simulate", "--config", cfg_file, "--kind", "background",
               "--trials", 2_000_000, "--seed", 21,
               "--powers", "0.5,1,2,4,8,16", "--out", bg) == 0
    result = _fit(tmp_path, "--kind", "background", "--series", bg,
                  "--technical", tmp_path / "bg.technical.csv")
    assert list(result["params"]) == ["a", "c"]
    assert result["params"]["c"] == pytest.approx(0.5, abs=0.05)


def test_fit_stokes_identifies_d_state(tmp_path, sym_cfg_path):
    sweep = tmp_path / "sweep.csv"
    assert run("simulate", "--config", sym_cfg_path, "--kind", "polarimetry",
               "--state", "D", "--trials", 1000, "--seed", 31,
               "--noiseless", "--out", sweep) == 0
    out = tmp_path / "fit.json"
    assert run("fit", "--kind", "stokes", "--series", sweep, "--out", out) == 0
    result = json.loads(out.read_text())
    s0, s1, s2, s3 = (result["params"][k] for k in ("s0", "s1", "s2", "s3"))
    cfg = pm.MemoryConfig.load(sym_cfg_path)
    signal, background = cfg.signal_mean(pm.CANONICAL_STATES["D"]), cfg.background_mean()
    expected_dop = signal / (signal + background)
    assert s0 == pytest.approx(signal + background, rel=1e-9)  # per pulse, not normalized
    assert s1 == pytest.approx(0.0, abs=1e-9)
    assert s3 == pytest.approx(0.0, abs=1e-9)
    assert s2 == pytest.approx(expected_dop, abs=1e-9)


def test_fit_stokes_json_keys(tmp_path, sym_cfg_path):
    sweep = tmp_path / "sweep.csv"
    assert run("simulate", "--config", sym_cfg_path, "--kind", "polarimetry",
               "--state", "D", "--trials", 1000, "--seed", 31, "--out", sweep) == 0
    result = _fit(tmp_path, "--kind", "stokes", "--series", sweep)
    assert list(result["params"]) == ["s0", "s1", "s2", "s3"]
    # s1..s3 are the normalized vector that analyze uses
    vec, _ = pm.fit_stokes(read_polarimetry_csv(sweep))
    assert [result["params"][k] for k in ("s1", "s2", "s3")] == list(vec.vec3)


# sha256[:16] of `fit --kind stokes` output (JSON, CSV) for the six sweeps of
# _write_analyze_inputs: pins every bit of the values, stderrs and residual norm
_FIT_STOKES_DIGESTS = {
    "H": ("28917bd230ec4c6a", "35e6864907b2faee"),
    "V": ("4af6df83d4e4c544", "896a6c69364e4d43"),
    "D": ("9ea661cce373c3eb", "b20caf71499f07bc"),
    "A": ("a19c157c59a0a2a8", "3f91abeac276d04c"),
    "R": ("1fb1f7b630991b7f", "cbd2fef11e6332b0"),
    "L": ("adb280707a73e527", "521bd794e834acf5"),
}


@pytest.mark.parametrize("state", pm.STATE_NAMES)
def test_fit_stokes_output_bytes_pinned(tmp_path, state):
    _write_analyze_inputs(tmp_path, pm.MemoryConfig())
    digests = []
    for fmt in ("json", "csv"):
        out = tmp_path / f"fit.{fmt}"
        assert run("fit", "--kind", "stokes", "--series", tmp_path / f"sw_{state}.csv",
                   "--format", fmt, "--out", out) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest()[:16])
    assert tuple(digests) == _FIT_STOKES_DIGESTS[state]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's, on the way to the overflow
def test_fit_stokes_overflow_exit_3(tmp_path):
    angles = [180.0 * i / 15 for i in range(16)]
    rows = "".join(f"{a!r},{1e308 * (1 + 0.5 * math.sin(math.radians(a)))!r},0.0\n"
                   for a in angles)
    sweep = tmp_path / "huge.csv"
    sweep.write_text("qwp_angle_deg,intensity,y_err\n" + rows)
    out = tmp_path / "fit.json"
    assert run("fit", "--kind", "stokes", "--series", sweep, "--out", out) == 3
    assert not out.exists()


def test_fit_constant_series_exit_3(tmp_path):
    const = tmp_path / "const.csv"
    SweepSeries([0.0, 1.0, 2.0, 3.0], [0.05] * 4, [0.0] * 4,
                "storage_time_us", "efficiency").save_csv(const)
    assert run("fit", "--kind", "decay", "--series", const,
               "--out", tmp_path / "f.json") == 3


def _write_sweep(path, text):
    path.write_text("x,y,y_err\n" + text)
    return path


def test_fit_degenerate_sweeps_exit_3(tmp_path):
    one_time = _write_sweep(tmp_path / "d.csv", "5.0,0.05,0.001\n5.0,0.04,0.001\n5.0,0.03,0.001\n")
    assert run("fit", "--kind", "decay", "--series", one_time,
               "--out", tmp_path / "f.json") == 3
    bg = _write_sweep(tmp_path / "bg.csv", "2.0,0.05,0.001\n2.0,0.04,0.001\n2.0,0.03,0.001\n")
    tech = _write_sweep(tmp_path / "te.csv", "2.0,0.01,0.001\n2.0,0.01,0.001\n2.0,0.01,0.001\n")
    assert run("fit", "--kind", "background", "--series", bg, "--technical", tech,
               "--out", tmp_path / "f.json") == 3


def test_fit_non_finite_sweep_exit_2(tmp_path):
    nan_row = _write_sweep(tmp_path / "d.csv", "0.0,0.05,0.001\n5.0,nan,0.001\n10.0,0.03,0.001\n")
    assert run("fit", "--kind", "decay", "--series", nan_row,
               "--out", tmp_path / "f.json") == 2


def test_fit_missing_inputs_exit_2(tmp_path):
    assert run("fit", "--kind", "decay", "--out", tmp_path / "f.json") == 2
    assert run("fit", "--kind", "stokes", "--out", tmp_path / "f.json") == 2
    assert run("fit", "--kind", "background", "--series", tmp_path / "bg.csv",
               "--out", tmp_path / "f.json") == 2


@pytest.mark.parametrize("flag,value", [("--seed", -1)])
def test_simulate_out_of_range_integer_flags_exit_2(tmp_path, cfg_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        run("simulate", "--config", cfg_path, "--state", "H", "--trials", 100,
            "--out", tmp_path / "h.json", flag, value)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "h.json").exists()


@pytest.mark.parametrize("kind,config,flags", [
    ("histogram", {"bg_rate": 1e300}, ["--state", "H", "--trials", 1000]),
    ("reference", {"p_in": 1e300}, ["--trials", 1000]),
    ("polarimetry", {}, ["--state", "D", "--trials", 10**21]),
    ("background", {"bg_rate": 1e300}, ["--powers", "1,2", "--trials", 1000]),
    # 1.6e13 per pulse is below the limit in one 2**18-pulse chunk, not over 2**20
    ("reference", {"chain": 1e13}, ["--trials", 1_048_576]),
])
def test_simulate_above_poisson_limit_exit_2(tmp_path, capsys, kind, config, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run("simulate", "--config", cfg, "--kind", kind, "--seed", 1, *flags,
               "--out", out) == 2
    assert "above numpy's limit" in capsys.readouterr().err
    assert not out.exists()


_DECAY = ["--kind", "decay", "--times", "0,5"]


@pytest.mark.parametrize("config,flags,message", [
    ({"p_in": 0}, _DECAY, "reference histogram is empty"),
    ({"chain": 0}, _DECAY, "reference histogram is empty"),
], ids=["decay-p_in-0", "decay-chain-0"])
def test_simulate_impossible_run_exit_2(tmp_path, capsys, config, flags, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run("simulate", "--config", cfg, "--trials", 1000, "--seed", 1, *flags,
               "--out", tmp_path / "out") == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("flags", [["--kind", "reference"], ["--kind", "histogram", "--state", "H"],
                                   _DECAY], ids=["reference", "histogram", "decay"])
def test_simulate_huge_photon_count_exit_0(tmp_path, flags):
    # 1.6e17 photons over 1000 pulses: counts are drawn per bin, so this is an ordinary run
    cfg = pm.MemoryConfig(chain=1e14)
    cfg_path = tmp_path / "cfg.json"
    cfg.save(cfg_path)
    out = tmp_path / "out"
    assert run("simulate", "--config", cfg_path, "--trials", 1000, "--seed", 1, *flags,
               "--out", out) == 0
    if flags is _DECAY:  # efficiencies within 6 standard errors
        series = SweepSeries.load_csv(out)
        eta = cfg.signal_mean(DECAY_SCAN_STATE) / (cfg.chain * cfg.p_in)
        truth = eta * np.exp(-series.x / cfg.tau_coherence)
        assert np.all(np.abs(series.y - truth) <= 6 * series.y_err)
        return
    if flags[1] == "reference":
        mean = cfg.chain * cfg.p_in * 1000
    else:  # the signal and the background over [roi_start, t_max]
        span = (cfg.t_max - cfg.roi_start) / cfg.roi_duration
        mean = (cfg.signal_mean(pm.CANONICAL_STATES["H"]) + cfg.background_mean() * span) * 1000
    assert abs(pm.ArrivalHistogram.load(out).total() - mean) <= 6 * math.sqrt(mean)


def test_background_free_noiseless_sweep_reads_back(tmp_path):
    # V's transmission at 180 degrees rounds a hair below zero; the row must read 0.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bg_rate": 0, "tech_rate": 0}))
    sweep = tmp_path / "v.csv"
    assert run("simulate", "--config", cfg, "--kind", "polarimetry", "--state", "V",
               "--noiseless", "--trials", 10, "--seed", 1, "--out", sweep) == 0
    assert sweep.read_text().splitlines()[-1] == "180.0,0.0,0.0"
    assert run("fit", "--kind", "stokes", "--series", sweep, "--out", tmp_path / "f.json") == 0


@pytest.mark.parametrize("noiseless", [[], ["--noiseless"]], ids=["noisy", "noiseless"])
@pytest.mark.parametrize("flags", [
    ["--analyzer", "nan"],
    ["--analyzer", "inf"],
    ["--kind", "polarimetry", "--angles", "nan,0,20,30,40,50,60,180"],
    ["--kind", "polarimetry", "--angles", "0,nan,20,30,40,50,60,180"],
    ["--kind", "polarimetry", "--angles", "0,inf,20,30,40,50,60,180"],
], ids=["analyzer-nan", "analyzer-inf", "angles-nan-first", "angles-nan", "angles-inf"])
def test_simulate_non_finite_plate_angle_exit_2(tmp_path, cfg_path, capsys, flags, noiseless):
    out = tmp_path / "out"
    assert run("simulate", "--config", cfg_path, "--state", "D", "--trials", 100, "--seed", 1,
               *flags, *noiseless, "--out", out) == 2
    assert "plate angle must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_command_flags_exist():
    """Every --flag that the README's command-line block shows for
    `polmem <command>` is accepted by that command's parser."""
    block = README.read_text(encoding="utf-8").split("## Command line")[1].split("```")[1]
    commands = [re.sub(r"#.*", "", c) for c in re.split(r"^polmem ", block, flags=re.M)[1:]]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    shown = {}
    for command in commands:
        name = command.split()[0]
        shown.setdefault(name, set()).update(re.findall(r"(?<![\w-])--[a-z][\w-]*", command))
    assert set(shown) == set(sub.choices)
    for name, flags in shown.items():
        accepted = {s for action in sub.choices[name]._actions for s in action.option_strings}
        assert flags <= accepted, f"polmem {name}: {sorted(flags - accepted)}"


def test_readme_pass_rate_table_lists_every_statistical_test():
    """The README's pass-rate table has one row per test that
    tools/pass_rates.py runs, and no other row."""
    path = README.parent / "tools" / "pass_rates.py"
    spec = importlib.util.spec_from_file_location("pass_rates", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    discovered = sorted(name for name, _ in tool.discover())
    section = README.read_text(encoding="utf-8").split("## Acceptance checks")[1].split("\n## ")[0]
    rows = sorted(re.findall(r"^\| `(\w+::\w+)` \|", section, re.M))
    assert rows == discovered
    assert len(discovered) >= 18


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert pm.__version__ in capsys.readouterr().out
