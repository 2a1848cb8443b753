"""The file boundary: what polmem accepts from a config, histogram or sweep file.

Every malformed input file ends the CLI with exit 2 and a message naming the
file (for a CSV also the line, and the field when one field fails), never
with a traceback.  The same holds for any config values and plate angles
given to `simulate`, whose output then holds no NaN or infinity.  The
package's import graph has no cycle, importing it loads no scipy (nor
numpy's random module or a thread pool, which only a simulation needs), only
streams.py touches numpy's random module, only data.py touches files, and only
`errors.named` puts a name in front of an error or a warning.
"""

import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polmem as pm
from polmem import errors
from polmem.cli import main
from polmem.polarization import write_polarimetry_csv

SRC = Path(pm.__file__).parent


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A valid config, six-state analyze set, decay sweep and polarimetry sweep."""
    d = tmp_path_factory.mktemp("inputs")
    cfg = pm.MemoryConfig()
    cfg.save(d / "cfg.json")
    pm.simulate_reference(cfg, 20_000, 1).save(d / "ref.json")
    for i, s in enumerate(pm.STATE_NAMES):
        state = pm.CANONICAL_STATES[s]
        hist = pm.simulate_histogram(cfg, state, None, 20_000, 10 + i, label=f"storage:{s}")
        hist.save(d / f"st_{s}.json")
        angles = np.linspace(0, math.pi, 16)
        sweep = pm.simulate_polarimetry_sweep(cfg, state, angles, 5_000, 20 + i)
        write_polarimetry_csv(d / f"sw_{s}.csv", sweep)
    pm.SweepSeries([0.0, 5.0, 10.0], [0.05, 0.04, 0.03], [0.001] * 3).save_csv(d / "decay.csv")
    return d


def _analyze(d, reference=None, storage_h=None, stokes_h=None):
    """`polmem analyze` on the valid set, with the reference, or state H's
    storage histogram or polarimetry sweep, replaced."""
    argv = ["analyze", "--config", d / "cfg.json", "--reference", reference or d / "ref.json",
            "--out", d / "report.json"]
    for s in pm.STATE_NAMES:
        hist, sweep = d / f"st_{s}.json", d / f"sw_{s}.csv"
        if s == "H":
            hist, sweep = storage_h or hist, stokes_h or sweep
        argv += ["--storage", f"{s}={hist}", "--stokes", f"{s}={sweep}"]
    return main([str(a) for a in argv])


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    return path


def _replace(key, fn):
    return lambda d: {**d, key: fn(d[key])}


def test_valid_inputs_pass(inputs):
    assert _analyze(inputs) == 0
    assert main(["fit", "--kind", "decay", "--series", str(inputs / "decay.csv"),
                 "--out", str(inputs / "f.json")]) == 0


# ------------------------------------------------- regression: one case per row


HISTOGRAM_CASES = {  # which file of a valid analyze set, and how it is edited
    "count-not-a-number": ("storage_h", _replace("counts", lambda c: ["a"] + c[1:])),
    "count-1e30": ("storage_h", _replace("counts", lambda c: [1e30] + c[1:])),
    "counts-two-dimensional": ("storage_h", _replace("counts", lambda c: [c])),
    "top-level-array": ("storage_h", lambda d: [[1]]),
    "n_trials-string": ("storage_h", _replace("n_trials", lambda n: "x")),
    "t_start-nan": ("storage_h", _replace("t_start_us", lambda t: math.nan)),
    "fractional-count-and-n_trials": (
        "storage_h", lambda d: {**d, "counts": [1.7] + d["counts"][1:], "n_trials": 1.5}),
    "reference-zero-bin-nan-start": (
        "reference", lambda d: {**d, "bin_width_us": 0, "t_start_us": math.nan}),
    "fractional-n_trials": ("storage_h", _replace("n_trials", lambda n: 1.9)),
    "n_trials-beyond-float": ("storage_h", _replace("n_trials", lambda n: 10**400)),
    "not-utf8": ("storage_h", lambda d: b'{"label": "\xff"}'),
    "total-beyond-64-bits": ("reference", _replace("counts", lambda c: [2**62, 2**62] + c[2:])),
    "counts-ragged": ("storage_h", _replace("counts", lambda c: [c[:2], c[:1]])),
    "label-not-text": ("storage_h", _replace("label", lambda label: None)),
}


@pytest.mark.parametrize("case", HISTOGRAM_CASES)
def test_malformed_histogram_exit_2(inputs, tmp_path, capsys, case):
    role, edit = HISTOGRAM_CASES[case]
    source = inputs / ("ref.json" if role == "reference" else "st_H.json")
    bad = _write(tmp_path / "bad.json", edit(json.loads(source.read_text())))
    assert _analyze(inputs, **{role: bad}) == 2
    assert str(bad) in capsys.readouterr().err


ANALYSIS_CASES = {  # a valid file for state H edited so that analysing it fails
    "subnormal-bin-width": ("storage_h", _replace("bin_width_us", lambda w: 1e-320)),
    "empty-background-window": (  # bins 120-139 are the 6-7 us background window
        "storage_h", _replace("counts", lambda c: c[:120] + [0] * 20 + c[140:])),
    "seven-angle-sweep": ("stokes_h", lambda lines: lines[:8]),
    "empty-reference": ("reference", _replace("counts", lambda c: [0] * len(c))),
}


@pytest.mark.parametrize("case", ANALYSIS_CASES)
def test_analyze_error_names_state_and_file(inputs, tmp_path, capsys, case):
    role, edit = ANALYSIS_CASES[case]
    if role == "stokes_h":
        lines = (inputs / "sw_H.csv").read_text().splitlines(keepends=True)
        bad = _write(tmp_path / "bad.csv", "".join(edit(lines)))
        expected = "polarimetry sweep for H ({bad})"
    else:
        source, expected = {"storage_h": ("st_H.json", "state H (storage {bad}, sweep "),
                            "reference": ("ref.json", "reference histogram ({bad})")}[role]
        bad = _write(tmp_path / "bad.json", edit(json.loads((inputs / source).read_text())))
    assert _analyze(inputs, **{role: bad}) == 2
    assert expected.format(bad=bad) in capsys.readouterr().err


# ------------------------------------------- one way to name an input


def test_named_reissues_a_warning_made_before_the_error():
    with pytest.warns(UserWarning) as caught, pytest.raises(pm.DataError) as info:
        with errors.named("h.json"):
            warnings.warn("efficiency estimate 1.5 is above 1")
            raise pm.DataError("window start 6.0 lies outside the histogram span")
    assert str(info.value) == "h.json: window start 6.0 lies outside the histogram span"
    assert [str(w.message) for w in caught] == ["h.json: efficiency estimate 1.5 is above 1"]
    assert caught[0].filename == __file__  # the `with` statement, not errors.py


def test_named_keeps_the_error_subclass():
    with pytest.raises(pm.UndefinedRatioError) as info:
        with errors.named("state H"):
            raise pm.UndefinedRatioError("background window holds zero counts; SBR undefined")
    assert type(info.value) is pm.UndefinedRatioError
    assert str(info.value) == "state H: background window holds zero counts; SBR undefined"
    assert isinstance(info.value.__cause__, pm.UndefinedRatioError)


def test_named_passes_other_exceptions_through():
    original = ValueError("not a polmem error")
    with pytest.raises(ValueError) as info:
        with errors.named("h.json"):
            raise original
    assert info.value is original


def _catches_polmem_error(handler: ast.ExceptHandler) -> bool:
    """An except clause that can catch a PolmemError: bare, or naming one of
    its classes or their bases."""
    catching = {name for name, c in vars(errors).items()
                if isinstance(c, type) and issubclass(c, errors.PolmemError)}
    catching |= {c.__name__ for c in errors.PolmemError.__mro__}
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(t is None or getattr(t, "id", getattr(t, "attr", None)) in catching
               for t in types)


def test_only_errors_names_inputs():
    """`errors.named` is the one code that puts a name in front of a polmem
    error or a warning: no other module raises anew from an except clause
    that can catch a polmem error, or records warnings to re-issue them.  A
    bare `raise`, which re-raises unchanged, and a handler that prints and
    returns, as cli.main's do, pass."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and _catches_polmem_error(node):
                hit = any(isinstance(n, ast.Raise) and n.exc is not None for n in ast.walk(node))
            else:
                hit = isinstance(node, ast.Attribute) and node.attr == "catch_warnings"
            if hit:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_histogram_total_must_fit_64_bits():
    top = 2**63 - 1
    assert pm.ArrivalHistogram(0.0, 0.05, [2**62, 2**62 - 1] + [0] * 158, 10).total() == top
    with pytest.raises(pm.DataError, match="total at most 2\\*\\*63 - 1"):
        pm.ArrivalHistogram(0.0, 0.05, [2**62, 2**62, 1] + [0] * 157, 10)


FIT_CASES = {  # flags after `fit`, the files the message must name, and the exit code
    "seven-angle-sweep": (lambda d: ["--kind", "stokes", "--series", d / "sw7.csv"], 2),
    "two-point-decay": (lambda d: ["--kind", "decay", "--series", d / "d2.csv"], 2),
    "mismatched-technical": (lambda d: ["--kind", "background", "--series", d / "bg.csv",
                                        "--technical", d / "te.csv"], 2),
    "one-time-decay": (lambda d: ["--kind", "decay", "--series", d / "d1.csv"], 3),
    "zero-power-background": (lambda d: ["--kind", "background", "--series", d / "bg0.csv",
                                         "--technical", d / "te0.csv"], 2),
}


@pytest.mark.parametrize("case", FIT_CASES)
def test_fit_error_names_file(inputs, tmp_path, capsys, case):
    lines = (inputs / "sw_H.csv").read_text().splitlines(keepends=True)
    _write(tmp_path / "sw7.csv", "".join(lines[:8]))
    _write(tmp_path / "d2.csv", "t,y,y_err\n0.0,0.05,0.001\n5.0,0.04,0.001\n")
    _write(tmp_path / "d1.csv", "t,y,y_err\n5.0,0.05,0.001\n5.0,0.04,0.001\n5.0,0.03,0.001\n")
    _write(tmp_path / "bg.csv", "p,y,y_err\n1.0,0.05,0.001\n2.0,0.06,0.001\n4.0,0.07,0.001\n")
    _write(tmp_path / "te.csv", "p,y,y_err\n1.0,0.01,0.001\n2.0,0.01,0.001\n8.0,0.01,0.001\n")
    _write(tmp_path / "bg0.csv", "p,y,y_err\n0.0,0.5,0.1\n0.0,0.6,0.1\n")
    _write(tmp_path / "te0.csv", "p,y,y_err\n0.0,0.1,0.1\n0.0,0.1,0.1\n")
    flags, code = FIT_CASES[case]
    flags = flags(tmp_path)
    assert main(["fit", *map(str, flags), "--out", str(tmp_path / "f.json")]) == code
    err = capsys.readouterr().err
    for path in (f for f in flags if isinstance(f, Path)):
        assert f"({path})" in err


def _check_csv_rejected(tmp_path, capsys, kind, flag, body, line, field):
    """`fit --kind kind` exits 2 on the CSV body, naming the file, line and field."""
    bad = _write(tmp_path / "bad.csv", body)
    assert main(["fit", "--kind", kind, flag, str(bad), "--out", str(tmp_path / "f.json")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert line is None or f"line {line}" in err
    assert field is None or f"field {field!r}" in err


SWEEP_CASES = {  # body, line and field the message must name
    "short-rows": ("t,y,y_err\n0.0,0.05\n5.0,0.04\n", 2, None),
    "long-rows": ("t,y,y_err\n0.0,0.05,0.001,9\n", 2, None),
    "nan-field": ("t,y,y_err\n0.0,0.05,0.001\n5.0,nan,0.001\n", 3, "y"),
    "not-a-number": ("t,y,y_err\n0.0,0.05,0.001\n5.0,0.04,1e-3x\n", 3, "y_err"),
    "not-utf8": (b"t,y,y_err\n0.0,0.05,\xff\n", None, None),
    "negative-y_err": ("t,y,y_err\n0.0,0.05,0.001\n5.0,0.04,-0.00061\n", 3, "y_err"),
}


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_malformed_sweep_csv_exit_2(tmp_path, capsys, case):
    _check_csv_rejected(tmp_path, capsys, "decay", "--series", *SWEEP_CASES[case])


POLARIMETRY_CASES = {  # body, line and field the message must name
    "short-row": ("qwp_angle_deg,intensity,y_err\n0.0,1.0,0.1\n22.5,1.0\n", 3, None),
    "not-a-number": ("qwp_angle_deg,intensity,y_err\n0.0,1.0,0.1\n22.5,abc,0.1\n", 3,
                     "intensity"),
    "not-utf8": (b"qwp_angle_deg,intensity,y_err\n0.0,\xff,0.1\n", None, None),
    "negative-intensity": ("qwp_angle_deg,intensity,y_err\n0.0,1.0,0.1\n22.5,-1.0,0.1\n",
                           None, None),
    "legacy-two-column": ("qwp_angle_deg,intensity\n0.0,1.0\n22.5,1.0\n", None, None),
    "other-names": ("angle,counts,y_err\n0.0,1.0,0.1\n", None, None),
    "negative-y_err": ("qwp_angle_deg,intensity,y_err\n0.0,1.0,0.1\n22.5,1.0,-0.1\n", 3,
                       "y_err"),
}


@pytest.mark.parametrize("case", POLARIMETRY_CASES)
def test_malformed_polarimetry_csv_exit_2(tmp_path, capsys, case):
    _check_csv_rejected(tmp_path, capsys, "stokes", "--series", *POLARIMETRY_CASES[case])


CONFIG_CASES = {  # body, what the message must name (a command reads one config)
    "not-utf8": (b'{"p_in": "\xff"}', "cfg.json"),
    "int-beyond-float": ('{"p_in": 1' + "0" * 400 + "}", "p_in"),
    "t_max-over-bin_width-overflows": ('{"t_max": 1e308, "bin_width": 1e-10}', "t_max"),
    "bins-above-cap": ('{"t_max": 1e20}', "bins"),
    "no-bins": ('{"bin_width": 1e10}', "bins"),
}


@pytest.mark.parametrize("case", CONFIG_CASES)
def test_malformed_config_exit_2(tmp_path, capsys, case):
    body, named = CONFIG_CASES[case]
    bad = _write(tmp_path / "cfg.json", body)
    assert main(["simulate", "--config", str(bad), "--state", "H", "--trials", "10",
                 "--seed", "1", "--out", str(tmp_path / "h.json")]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("body,message", [
    ('{"eta_h": 2}', "eta_h must lie in [0, 1], got 2"),
    ('{"bogus": 1}', "unknown config keys: ['bogus']"),
    ('{"retrieval_shape": "exponential"}', "unknown config keys: ['retrieval_shape']"),
], ids=["eta_h-above-1", "unknown-key", "removed-retrieval-shape"])
def test_config_value_error_names_file(tmp_path, capsys, body, message):
    cfg = _write(tmp_path / "cfg.json", body)
    assert main(["simulate", "--config", str(cfg), "--state", "H", "--trials", "10",
                 "--seed", "1", "--out", str(tmp_path / "h.json")]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: {message}" in err
    assert err.count(str(cfg)) == 1


@pytest.mark.parametrize("stderr,n_points,message", [
    ({"a": -1e-3, "b": 0.0}, 0, "stderr\\['a'\\] must be >= 0"),
    ({"a": 0.1, "b": 0.2}, 1, "fewer points than parameters"),
])
def test_fit_result_rejects_negative_stderr_and_too_few_points(stderr, n_points, message):
    with pytest.raises(ValueError, match=message):
        pm.FitResult({"a": 1.0, "b": 2.0}, stderr, 0.0, n_points)


# --------------------------------------------- property: never a traceback

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=4)),
    max_leaves=8,
)
# Files of the right shape with arbitrary values, so that the checks past the
# parser and the analysis itself run too: histograms with the right keys...
HISTOGRAMS = st.fixed_dictionaries({
    "t_start_us": st.just(0.0) | st.floats() | JSON,
    "bin_width_us": st.just(0.05) | st.floats() | JSON,
    "n_trials": st.integers(min_value=1) | JSON,
    "counts": st.lists(st.integers(min_value=-1, max_value=2**64), min_size=160, max_size=160)
    | JSON,
    "label": JSON,
}).map(lambda v: json.dumps(v).encode())


def _csv(header):
    """...and CSVs with the right header and width, of any floats."""
    rows = st.lists(st.lists(st.floats().map(repr), min_size=len(header), max_size=len(header)),
                    max_size=20)
    return rows.map(lambda rows: "\n".join(",".join(r) for r in [header, *rows]).encode())


FILE = st.binary(max_size=64) | JSON.map(lambda v: json.dumps(v).encode())
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _exit_code(run, path, content):
    """Exit code of run() on a file holding content; its output is dropped."""
    path.write_bytes(content)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run()


@PROPERTY
@given(content=FILE)
def test_any_config_file_never_raises(inputs, content):
    path = inputs / "fuzz_cfg.json"
    argv = ["simulate", "--config", str(path), "--state", "H", "--trials", "10", "--seed", "1",
            "--out", str(inputs / "fuzz_h.json")]
    assert _exit_code(lambda: main(argv), path, content) in (0, 2, 3)


@PROPERTY
@given(content=FILE | HISTOGRAMS, role=st.sampled_from(["reference", "storage_h"]))
def test_any_histogram_file_never_raises(inputs, content, role):
    path = inputs / "fuzz_hist.json"
    assert _exit_code(lambda: _analyze(inputs, **{role: path}), path, content) in (0, 2, 3)


@PROPERTY
@given(content=FILE | _csv(["t", "y", "y_err"]))
def test_any_sweep_csv_never_raises(inputs, content):
    path = inputs / "fuzz_sweep.csv"
    argv = ["fit", "--kind", "decay", "--series", str(path), "--out", str(inputs / "fit.json")]
    assert _exit_code(lambda: main(argv), path, content) in (0, 2, 3)


@PROPERTY
@given(content=FILE | _csv(["qwp_angle_deg", "intensity", "y_err"]), analyze=st.booleans())
def test_any_polarimetry_csv_never_raises(inputs, content, analyze):
    path = inputs / "fuzz_pol.csv"
    argv = ["fit", "--kind", "stokes", "--series", str(path), "--out", str(inputs / "fit.json")]
    run = (lambda: _analyze(inputs, stokes_h=path)) if analyze else (lambda: main(argv))
    assert _exit_code(run, path, content) in (0, 2, 3)


# ...and configs keyed by MemoryConfig's own fields, so that every value
# reaches its check and, often enough when small and positive, the simulator
CONFIGS = st.dictionaries(st.sampled_from([f.name for f in dataclasses.fields(pm.MemoryConfig)]),
                          st.floats(0, 2) | JSON, max_size=4).map(lambda v: json.dumps(v).encode())
KIND_FLAGS = {  # every simulate kind with the flags it needs
    "histogram": ["--state", "H"],
    "reference": [],
    "polarimetry": ["--state", "D"],
    "decay": ["--times", "0,5"],
    "background": ["--powers", "0,1"],
}


def _check_simulate(inputs, flags):
    """`polmem simulate` with flags exits 0, 2 (argparse's usage exit
    included) or 3, and on 0 its data files hold no NaN or infinity."""
    for path in inputs.glob("fuzz_out*"):
        path.unlink()
    argv = ["simulate", "--trials", "10", "--seed", "1", *flags, "--out", str(inputs / "fuzz_out")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3)
    for path in inputs.glob("fuzz_out*"):
        if code == 0 and not path.name.endswith(".manifest.json"):
            assert not re.search("nan|inf", path.read_text(), re.IGNORECASE), path.read_text()


@PROPERTY
@given(content=CONFIGS)
def test_any_config_values_never_raise(inputs, content):
    path = inputs / "fuzz_cfg.json"
    path.write_bytes(content)
    for kind, flags in KIND_FLAGS.items():
        _check_simulate(inputs, ["--config", str(path), "--kind", kind, *flags])


@PROPERTY
@given(analyzer=st.floats(), angles=st.lists(st.floats(), max_size=16), noiseless=st.booleans())
def test_any_plate_angles_never_raise(inputs, analyzer, angles, noiseless):
    # `--flag=value`, so that argparse takes a negative value such as -1e-05 too
    cfg = ["--config", str(inputs / "cfg.json"), "--state", "D"]
    _check_simulate(inputs, [*cfg, f"--analyzer={analyzer!r}"])
    sweep = [*cfg, "--kind", "polarimetry", f"--angles={','.join(map(repr, angles))}"]
    _check_simulate(inputs, sweep + ["--noiseless"] if noiseless else sweep)


# ------------------------------------------------------------ import graph


def test_import_loads_no_scipy():
    """The runtime needs numpy only: scipy is a test-time oracle.  Nor does an
    import load numpy's random module or the thread pool (with its logging):
    only a simulation needs them."""
    heavy = ("scipy", "numpy.random", "concurrent.futures", "logging")
    code = (f"import sys, polmem, polmem.cli; print(sorted(m for m in sys.modules "
            f"if any(m == h or m.startswith(h + '.') for h in {heavy!r})))")
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_import_graph_is_acyclic():
    """Every relative import, function-local ones too, between polmem modules."""
    modules = {p.stem for p in SRC.glob("*.py")}
    graph = {}
    for name in modules:
        edges = graph.setdefault(name, set())
        for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    edges.add(node.module.split(".")[0])
                else:  # `from . import x`: a sibling module, or a name of __init__
                    edges |= {a.name if a.name in modules else "__init__" for a in node.names}

    done, path = set(), []

    def visit(m):
        assert m not in path, f"import cycle: {' -> '.join(path[path.index(m):] + [m])}"
        if m not in done:
            path.append(m)
            for n in sorted(graph[m]):
                visit(n)
            path.pop()
            done.add(m)

    for m in sorted(graph):
        visit(m)


def test_only_streams_uses_numpy_random():
    """Every random stream is laid out in streams.py; no other module may
    reach numpy's random module, by attribute or by import."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "streams.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                hit = node.attr == "random" and isinstance(node.value, ast.Name) \
                    and node.value.id in ("np", "numpy")
            elif isinstance(node, ast.Import):
                hit = any(a.name.startswith("numpy.random") for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = (node.module or "").startswith("numpy.random") or (
                    node.module == "numpy" and any(a.name == "random" for a in node.names))
            else:
                hit = False
            if hit:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _touches_file(call: ast.Call) -> bool:
    """A call of open (builtin or any `.open`), os.replace or os.remove."""
    f = call.func
    if isinstance(f, ast.Name):
        return f.id == "open"
    return isinstance(f, ast.Attribute) and (f.attr == "open" or (
        f.attr in ("replace", "remove") and isinstance(f.value, ast.Name) and f.value.id == "os"))


def test_only_data_touches_files():
    """Every file is read and written in data.py; no other module may open,
    replace or remove one."""
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(SRC.glob("*.py")) if path.name != "data.py"
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call) and _touches_file(node)]
    assert offenders == []
