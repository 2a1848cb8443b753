"""Command-line front end: simulate runs, analyze them, emit model curves.

Subcommands
-----------
simulate     generate a dataset (histogram, reference, polarimetry sweep,
             decay series, or background sweep) from a config JSON
analyze      build the six-state summary report from simulated files
model-curve  emit the detection-model (p, sbr, fidelity) curve as CSV
fit          run one of the estimation fits on a saved dataset

Structured objects are JSON, plot-ready series are CSV.  Every stochastic
command writes a `<out>.manifest.json` recording command, config, seed and
outputs, and all files are written atomically (temp + rename).  Exit codes:
0 success, 2 usage/config/data error or a run too large for memory, 3 fit
failure.
"""

import argparse
import datetime
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .data import ArrivalHistogram, SweepSeries, Window, write_text
from .errors import ConfigError, DataError, FitError, named
from .memory_sim import (
    MemoryConfig,
    simulate_background_sweep,
    simulate_decay_series,
    simulate_histogram,
    simulate_polarimetry_sweep,
    simulate_reference,
)
from .noise_model import fidelity_sbr_curve
from .polarization import (
    CANONICAL_STATES,
    STATE_NAMES,
    fit_stokes,
    read_polarimetry_csv,
    write_polarimetry_csv,
)
from .histogram_analysis import (
    build_report,
    fit_exponential_decay,
    fit_sqrt_background,
)

SIM_KINDS = ("histogram", "reference", "polarimetry", "decay", "background")


def _int_at_least(low: int):
    """argparse type for an integer >= low; argparse exits 2 on anything else."""
    def integer(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value
    return integer


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_manifest(args, outputs: list) -> None:
    manifest = {
        "command": args.cmd,
        "config": getattr(args, "config", None),
        "seed": getattr(args, "seed", None),
        "outputs": outputs,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    write_text(outputs[0] + ".manifest.json", _json_text(manifest))


def _float_list(text: str, flag: str) -> list:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated numbers: {exc}") from exc


def _state(name: str):
    if name not in CANONICAL_STATES:
        raise ConfigError(f"state must be one of {STATE_NAMES}, got {name!r}")
    return CANONICAL_STATES[name]


def _technical_path(out: str) -> str:
    root, ext = os.path.splitext(out)
    return f"{root}.technical{ext or '.csv'}"


def cmd_simulate(args) -> int:
    config = MemoryConfig.load(args.config)
    outputs = [args.out]
    if args.kind == "histogram":
        state = _state(args.state)
        analyzer = math.radians(args.analyzer) if args.analyzer is not None else None
        hist = simulate_histogram(
            config, state, analyzer, args.trials, args.seed, label=f"storage:{args.state}"
        )
        hist.save(args.out)
    elif args.kind == "reference":
        simulate_reference(config, args.trials, args.seed).save(args.out)
    elif args.kind == "polarimetry":
        if args.angles:
            angles = [math.radians(a) for a in _float_list(args.angles, "--angles")]
        else:
            angles = list(np.linspace(0.0, math.pi, 16))
        sweep = simulate_polarimetry_sweep(
            config, _state(args.state), angles, args.trials, args.seed,
            noiseless=args.noiseless,
        )
        write_polarimetry_csv(args.out, sweep)
    elif args.kind == "decay":
        if not args.times:
            raise ConfigError("--kind decay requires --times")
        series = simulate_decay_series(
            config, _float_list(args.times, "--times"), args.trials, args.seed
        )
        series.save_csv(args.out)
    elif args.kind == "background":
        if not args.powers:
            raise ConfigError("--kind background requires --powers")
        bg, tech = simulate_background_sweep(
            config, _float_list(args.powers, "--powers"), args.trials, args.seed
        )
        bg.save_csv(args.out)
        tech_path = _technical_path(args.out)
        tech.save_csv(tech_path)
        outputs.append(tech_path)
    _write_manifest(args, outputs)
    return 0


def _parse_state_paths(pairs: list, flag: str) -> dict:
    mapping = {}
    for item in pairs or []:
        name, sep, path = item.partition("=")
        if not sep or name not in STATE_NAMES:
            raise ConfigError(f"{flag} expects NAME=PATH with NAME in {STATE_NAMES}, got {item!r}")
        if name in mapping:
            raise ConfigError(f"{flag} names state {name} twice")
        mapping[name] = path
    missing = [s for s in STATE_NAMES if s not in mapping]
    if missing:
        raise ConfigError(f"{flag} missing for states {missing}")
    return mapping


def cmd_analyze(args) -> int:
    config = MemoryConfig.load(args.config)
    roi = Window(config.roi_start, config.roi_end)
    bg = Window(config.bg_window_start, config.bg_window_end)
    storage_paths = _parse_state_paths(args.storage, "--storage")
    stokes_paths = _parse_state_paths(args.stokes, "--stokes")
    storage = {name: ArrivalHistogram.load(path) for name, path in storage_paths.items()}
    reference = ArrivalHistogram.load(args.reference)
    if reference.total() == 0:  # storage_efficiency's check; build_report has no name for this file
        raise DataError(f"reference histogram ({args.reference}) is empty")
    measured = {}
    for name, path in stokes_paths.items():
        sweep = read_polarimetry_csv(path)
        with named(f"polarimetry sweep for {name} ({path})"):
            measured[name], _ = fit_stokes(sweep)
    sources = {s: f"storage {storage_paths[s]}, sweep {stokes_paths[s]}" for s in STATE_NAMES}
    report = build_report(storage, reference, roi, bg, measured, config.p_in, sources)
    write_text(args.out, _json_text(report.to_json()))
    print(report.to_text())
    return 0


def cmd_model_curve(args) -> int:
    if not 0 < args.p_min <= args.p_max < math.inf:
        raise ConfigError("need 0 < p-min <= p-max < inf")
    grid = np.linspace(args.p_min, args.p_max, args.p_points)
    rows = fidelity_sbr_curve(args.eta, args.q, grid)
    if args.format == "json":
        text = _json_text([{"p": p, "sbr": s, "fidelity": f} for p, s, f in rows])
    else:
        lines = ["p,sbr,fidelity"]
        lines += [f"{p!r},{s!r},{f!r}" for p, s, f in rows]
        text = "\n".join(lines) + "\n"
    write_text(args.out, text)
    return 0


def cmd_fit(args) -> int:
    if not args.series:
        raise ConfigError(f"--kind {args.kind} requires --series")
    # the readers name their file; `named` puts it in front of the fit's own errors
    if args.kind == "decay":
        series = SweepSeries.load_csv(args.series)
        with named(f"decay series ({args.series})"):
            result = fit_exponential_decay(series)
    elif args.kind == "background":
        if not args.technical:
            raise ConfigError("--kind background requires --technical")
        bg, tech = SweepSeries.load_csv(args.series), SweepSeries.load_csv(args.technical)
        with named(f"background sweep ({args.series}) with technical sweep ({args.technical})"):
            result = fit_sqrt_background(bg, tech)
    else:
        sweep = read_polarimetry_csv(args.series)
        with named(f"polarimetry sweep ({args.series})"):
            _, result = fit_stokes(sweep)
    if args.format == "csv":
        lines = ["param,value,stderr"]
        lines += [f"{k},{float(v)!r},{float(result.stderr[k])!r}" for k, v in result.params.items()]
        text = "\n".join(lines) + "\n"
    else:
        text = _json_text(result.to_dict())
    write_text(args.out, text)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polmem",
        description="simulate and analyze dual-rail polarization-memory runs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_sim = sub.add_parser("simulate", help="generate a dataset from a config")
    p_sim.add_argument("--config", required=True, help="MemoryConfig JSON path")
    p_sim.add_argument("--kind", choices=SIM_KINDS, default="histogram")
    p_sim.add_argument("--state", default=None, help="input state name (H V D A R L)")
    p_sim.add_argument("--analyzer", type=float, default=None,
                       help="polarimeter plate angle in degrees (histogram kind)")
    p_sim.add_argument("--trials", type=int, required=True,
                       help="pulses (per angle/point for sweep kinds)")
    p_sim.add_argument("--seed", type=_int_at_least(0), required=True)
    p_sim.add_argument("--angles", default=None,
                       help="comma-separated plate angles in degrees (polarimetry kind)")
    p_sim.add_argument("--times", default=None,
                       help="comma-separated storage times in us (decay kind)")
    p_sim.add_argument("--powers", default=None,
                       help="comma-separated control powers (background kind)")
    p_sim.add_argument("--noiseless", action="store_true",
                       help="polarimetry kind: exact expectations, no Poisson draws")
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="six-state summary report")
    p_an.add_argument("--config", required=True)
    p_an.add_argument("--storage", action="append", metavar="NAME=PATH",
                      help="storage histogram per state (repeat six times)")
    p_an.add_argument("--reference", required=True)
    p_an.add_argument("--stokes", action="append", metavar="NAME=PATH",
                      help="polarimetry sweep CSV per state (repeat six times)")
    p_an.add_argument("--out", required=True)
    p_an.set_defaults(func=cmd_analyze)

    p_mc = sub.add_parser("model-curve", help="detection-model fidelity/SBR curve")
    p_mc.add_argument("--eta", type=float, default=0.055,
                      help="storage efficiency: the signal mean per pulse is eta * p")
    p_mc.add_argument("--q", type=float, default=0.005,
                      help="background per pulse in units of eta * p: a config's background_mean() / chain")
    p_mc.add_argument("--p-min", type=float, default=0.1)
    p_mc.add_argument("--p-max", type=float, default=20.0)
    p_mc.add_argument("--p-points", type=_int_at_least(1), default=50)
    p_mc.add_argument("--format", choices=("csv", "json"), default="csv")
    p_mc.add_argument("--out", required=True)
    p_mc.set_defaults(func=cmd_model_curve)

    p_fit = sub.add_parser("fit", help="run an estimation fit on a saved dataset")
    p_fit.add_argument("--kind", choices=("decay", "background", "stokes"), required=True)
    p_fit.add_argument("--series", default=None,
                       help="sweep CSV: decay, background, or polarimetry (stokes)")
    p_fit.add_argument("--technical", default=None, help="technical sweep CSV (background)")
    p_fit.add_argument("--format", choices=("json", "csv"), default="json")
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FitError, np.linalg.LinAlgError) as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a run too large for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
