"""Command-line round trips, exit codes, determinism, and golden regressions."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import polmem as pm
from polmem.cli import main
from polmem.memory_sim import SweepSeries
from polmem.polarization import read_polarimetry_csv, write_polarimetry_csv

DATA = Path(__file__).parent / "data"


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
    for out, workers in ((a, 1), (b, 6)):
        assert run("simulate", "--config", cfg_path, "--state", "D",
                   "--trials", 300_000, "--seed", 77, "--workers", workers,
                   "--out", out) == 0
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
    samples = read_polarimetry_csv(out)
    assert len(samples) == 16


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


# ----------------------------------------------------------------- analyze


def _write_analyze_inputs(tmp_path, cfg):
    """Deterministic six-state dataset matching the stored golden report."""
    ref = pm.simulate_reference(cfg, 200_000, 900)
    ref.save(tmp_path / "ref.json")
    args = []
    for i, s in enumerate(pm.STATE_NAMES):
        hist = pm.simulate_histogram(
            cfg, pm.CANONICAL_STATES[s], None, 200_000, 901 + i, label=f"storage:{s}"
        )
        hist.save(tmp_path / f"st_{s}.json")
        sweep = pm.simulate_polarimetry_sweep(
            cfg, pm.CANONICAL_STATES[s], np.linspace(0, math.pi, 16), 50_000, 921 + i
        )
        samples = [
            pm.PolarimetrySample(a, y) for a, y in zip(sweep.x, sweep.y)
        ]
        write_polarimetry_csv(tmp_path / f"sw_{s}.csv", samples)
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


def test_analyze_missing_state_exit_2(tmp_path, cfg_path):
    args = _write_analyze_inputs(tmp_path, pm.MemoryConfig())
    # drop one --storage pair (keys sit at even offsets: flag, value, ...)
    idx = args.index(f"--storage")
    pruned = args[:idx] + args[idx + 2:]
    assert run("analyze", "--config", cfg_path, "--reference", tmp_path / "ref.json",
               *pruned, "--out", tmp_path / "r.json") == 2


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


def test_model_curve_bad_range_exit_2(tmp_path):
    assert run("model-curve", "--p-min", 2.0, "--p-max", 1.0,
               "--out", tmp_path / "c.csv") == 2
    assert run("model-curve", "--p-points", 0, "--out", tmp_path / "c.csv") == 2


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


# -------------------------------------------------------------------- fit


def test_fit_decay_recovers_tau(tmp_path, cfg_path, capsys):
    decay = tmp_path / "decay.csv"
    assert run("simulate", "--config", cfg_path, "--kind", "decay",
               "--trials", 400_000, "--seed", 11,
               "--times", "0,5,10,15,20,25,30,35", "--out", decay) == 0
    out = tmp_path / "fit.json"
    assert run("fit", "--kind", "decay", "--series", decay, "--out", out) == 0
    result = json.loads(out.read_text())
    assert result["params"]["tau"] == pytest.approx(19.3, rel=0.05)
    assert capsys.readouterr().out  # result echoed to stdout


def test_fit_background_recovers_sqrt(tmp_path, tmp_path_factory):
    cfg = pm.MemoryConfig(eta_h=0.0, eta_v=0.0, bg_rate=0.004, tech_rate=0.002)
    cfg_file = tmp_path / "bgcfg.json"
    cfg.save(cfg_file)
    bg = tmp_path / "bg.csv"
    assert run("simulate", "--config", cfg_file, "--kind", "background",
               "--trials", 2_000_000, "--seed", 21,
               "--powers", "0.5,1,2,4,8,16", "--out", bg) == 0
    out = tmp_path / "fit.json"
    assert run("fit", "--kind", "background", "--series", bg,
               "--technical", tmp_path / "bg.technical.csv", "--out", out) == 0
    result = json.loads(out.read_text())
    assert result["params"]["c"] == pytest.approx(0.5, abs=0.05)
    csv_out = tmp_path / "fit.csv"
    assert run("fit", "--kind", "background", "--series", bg, "--technical",
               tmp_path / "bg.technical.csv", "--format", "csv", "--out", csv_out) == 0
    rows = [line.split(",") for line in csv_out.read_text().splitlines()[1:]]
    assert [(name, float(v), float(e)) for name, v, e in rows] == [
        (name, result["params"][name], result["stderr"][name]) for name in ("a", "c")
    ]


def test_fit_stokes_identifies_d_state(tmp_path, sym_cfg_path):
    sweep = tmp_path / "sweep.csv"
    assert run("simulate", "--config", sym_cfg_path, "--kind", "polarimetry",
               "--state", "D", "--trials", 1000, "--seed", 31,
               "--noiseless", "--out", sweep) == 0
    out = tmp_path / "fit.json"
    assert run("fit", "--kind", "stokes", "--samples", sweep, "--out", out) == 0
    result = json.loads(out.read_text())
    s0, s1, s2, s3 = result["stokes_normalized"]
    cfg = pm.MemoryConfig.load(sym_cfg_path)
    expected_dop = cfg.signal_mean(pm.CANONICAL_STATES["D"]) / (
        cfg.signal_mean(pm.CANONICAL_STATES["D"]) + cfg.background_mean()
    )
    assert s0 == 1.0
    assert s1 == pytest.approx(0.0, abs=1e-9)
    assert s3 == pytest.approx(0.0, abs=1e-9)
    assert s2 == pytest.approx(expected_dop, abs=1e-9)


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


@pytest.mark.parametrize("flag,value", [("--seed", -1), ("--workers", 0), ("--workers", -3)])
def test_simulate_out_of_range_integer_flags_exit_2(tmp_path, cfg_path, capsys, flag, value):
    ints = {"--seed": 1, "--workers": 1, flag: value}
    with pytest.raises(SystemExit) as exc:
        run("simulate", "--config", cfg_path, "--state", "H", "--trials", 100,
            "--out", tmp_path / "h.json", *(a for item in ints.items() for a in item))
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "h.json").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert pm.__version__ in capsys.readouterr().out
