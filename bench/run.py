"""polmem benchmark: closed-loop workloads, end to end or traced per layer.

    python3 bench/run.py --workload oracle_grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a checkout; polmem is imported from its `src/`.  One
client in one process runs one op at a time.  The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
The line before it holds the machine facts, sizes and op counts.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np
import scipy

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(BENCH_DIR, "_work")

from tracing import PER_LAYER, Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, derive_seed  # noqa: E402

END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("op_p90_s", "s"), ("trials_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("ok_frac", "frac"))
SETUP_REPEATS = 5
PROBE_TRIALS = 1_000_000


def load_polmem():
    """Import polmem from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "polmem", "__init__.py")):
        raise SystemExit(f"error: no polmem sources under {src}")
    sys.path.insert(0, src)
    import polmem
    import polmem.cli  # noqa: F401  (not imported by the package itself)

    if os.path.dirname(os.path.dirname(os.path.abspath(polmem.__file__))) != src:
        raise SystemExit(f"error: imported polmem from {polmem.__file__}, not {src}")
    return polmem


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under bench/_work, removed with its contents on exit."""
    os.makedirs(WORK_DIR, exist_ok=True)
    path = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(WORK_DIR)


@dataclass
class Op:
    latency: float
    trials: int
    problems: list
    digest: str = ""
    files: int = 0
    bytes: int = 0


def do_op(w, i) -> Op:
    x = w.inputs(i)
    t0 = time.perf_counter()
    latency = None
    try:
        out = w.run(x)
        latency = time.perf_counter() - t0
        c = w.check(x, out)
    except Exception as exc:  # a failed op is counted and the run goes on
        latency = time.perf_counter() - t0 if latency is None else latency
        return Op(latency, w.trials_of(x), [f"{type(exc).__name__}: {exc}"])
    return Op(latency, w.trials_of(x), c.problems, c.digest, c.files, c.bytes)


def timed_loop(w, seconds):
    """Whole rounds of ops until the next round would end further past
    `seconds` than the last one ended before it.  Returns the rounds."""
    rounds, start = [], time.perf_counter()
    while True:
        first = sum(len(r) for r in rounds)
        rounds.append([do_op(w, first + j) for j in range(w.round_ops)])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) / 2 >= seconds:
            return rounds


def block_rates(rounds, min_block_s):
    """Trials per second of op time in consecutive blocks of whole rounds,
    each block at least `min_block_s` of op time (a short tail joins the last)."""
    blocks = [[0, 0.0]]
    for r in rounds:
        if blocks[-1][1] >= min_block_s:
            blocks.append([0, 0.0])
        blocks[-1][0] += sum(op.trials for op in r)
        blocks[-1][1] += sum(op.latency for op in r)
    if len(blocks) > 1 and blocks[-1][1] < min_block_s:
        trials, busy = blocks.pop()
        blocks[-1][0] += trials
        blocks[-1][1] += busy
    return [trials / busy for trials, busy in blocks]


def setup_seconds(workload, seed, repeats):
    """Median wall time of a fresh interpreter that imports polmem and makes
    the workload's inputs (`--setup-only`)."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    return statistics.median(times)


def determinism_probe(pm, seed, cpus, trials):
    """One oracle cell and one histogram at workers=1 and workers=cpus; the
    results must be bit-identical.  Returns (ops, failures, scaling_eff)."""
    try:
        return _probe(pm, seed, cpus, trials)
    except Exception as exc:  # counted as failed, like any op
        return 2, [f"determinism probe: {type(exc).__name__}: {exc}"], 0.0


def _probe(pm, seed, cpus, trials):
    params = pm.NoiseModelParams(eta=0.75, p=2.0, q=1.5)  # a costly criterion-1 cell
    config, state = pm.MemoryConfig(), pm.CANONICAL_STATES["D"]
    s_oracle, s_hist = derive_seed(seed, 1 << 30, 0), derive_seed(seed, 1 << 30, 1)
    best, results = {}, {}
    for workers in (1, cpus):
        for _ in range(3):
            t0 = time.perf_counter()
            results[workers] = pm.mc_detection_oracle(params, trials, s_oracle, workers=workers)
            best[workers] = min(best.get(workers, float("inf")), time.perf_counter() - t0)
    failures = []
    if results[1] != results[cpus]:
        failures.append(f"oracle differs at workers=1 and {cpus}: {results[1]} vs {results[cpus]}")
    h1, hn = (pm.simulate_histogram(config, state, None, trials, s_hist, workers=k) for k in (1, cpus))
    if not (np.array_equal(h1.counts, hn.counts) and h1.n_trials == hn.n_trials):
        failures.append(f"histogram differs at workers=1 and {cpus}")
    return 2, failures, best[1] / (best[cpus] * cpus)


def machine_facts():
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(f"{base}/{index}/level") as fl, open(f"{base}/{index}/type") as ft, \
                    open(f"{base}/{index}/size") as fs:
                caches[f"L{fl.read().strip()}_{ft.read().strip().lower()}"] = fs.read().strip()
        except OSError:
            continue
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "caches": caches,
    }


def e2e_metrics(rounds, seconds, setup_s, peak_rss, attempted, failed):
    lat = [op.latency for r in rounds for op in r]
    values = {
        "setup_s": setup_s,
        "op_p50_s": float(np.percentile(lat, 50)),
        "op_p90_s": float(np.percentile(lat, 90)),
        # the median block damps bursts of load from other tenants of the machine
        "trials_per_s": statistics.median(block_rates(rounds, seconds / 10)),
        "peak_rss_mb": peak_rss,
        "ok_frac": 1.0 - failed / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run(workload, seed, seconds, trace, sizes=None, setup_repeats=SETUP_REPEATS, probe_trials=PROBE_TRIALS):
    """One benchmark run; returns (result, detail)."""
    pm = load_polmem()
    setup_s = setup_seconds(workload, seed, setup_repeats)
    cpus = len(os.sched_getaffinity(0))
    with scratch_dir() as workdir:
        w = WORKLOADS[workload](pm, seed, workdir, **(sizes or {}))
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            if trace:
                ops = [do_op(w, i) for i in range(w.traced_ops)]
                tracer = Tracer()
                tracer.install()
                try:
                    traced = [do_op(w, i) for i in range(w.traced_ops)]
                finally:
                    tracer.uninstall()
            else:
                rounds, traced = timed_loop(w, seconds), []
                ops = [op for r in rounds for op in r]
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        n_probe, probe_failures, scaling_eff = determinism_probe(pm, seed, cpus, probe_trials)

    for a, b in zip(ops, traced):
        if not b.problems and a.digest != b.digest:
            b.problems.append("traced output differs from the untraced run")
    all_ops = ops + traced
    failed = sum(1 for op in all_ops if op.problems) + len(probe_failures)
    attempted = len(all_ops) + n_probe
    lat = [op.latency for op in ops]
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_facts(),
        "sizes": {**w.sizes, "probe_trials": probe_trials, "setup_repeats": setup_repeats},
        "ops": len(ops), "traced_ops": len(traced), "trials_per_op": ops[0].trials,
        "op_mean_s": float(np.mean(lat)),
        "peak_rss_mb": peak_rss,
        "fail_frac": failed / attempted,
        "problems": [p for op in all_ops for p in op.problems][:10] + probe_failures,
    }
    if trace:
        tlat = [op.latency for op in traced]
        detail["untraced_op_p50_s"] = float(np.percentile(lat, 50))
        detail["traced_op_p50_s"] = float(np.percentile(tlat, 50))
        extra = {
            "streams.scaling_eff": scaling_eff,
            "cli.files_written": float(sum(op.files for op in traced)),
            "cli.bytes_written": float(sum(op.bytes for op in traced)),
            "trace_overhead_s": detail["traced_op_p50_s"] - detail["untraced_op_p50_s"],
        }
        metrics = per_layer_metrics(tracer.aggregate(), extra)
        shares = {layer: t / sum(tlat) for layer, t in tracer.layer_self_s().items()}
        detail["layer_share"] = dict(sorted(shares.items(), key=lambda kv: -kv[1]))  # of traced op time
    else:
        metrics = e2e_metrics(rounds, seconds, setup_s, peak_rss, attempted, failed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail


def print_table(rows):
    """rows: (workload, result, detail)."""
    for workload, result, detail in rows:
        print(f"== {workload}: {detail['ops']} ops ({detail['traced_ops']} traced), "
              f"{result['failed']}/{result['attempted']} failed, seed {detail['seed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
        if detail["problems"]:
            print("  problems: " + "; ".join(detail["problems"]))


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    rows = []
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        rows.append((name, json.loads(lines[-1]), json.loads(lines[-2])))
    print_table(rows)
    for _, _, detail in rows:
        print(json.dumps(detail))
    print(json.dumps({name: result for name, result, _ in rows}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        pm = load_polmem()
        with scratch_dir() as workdir:
            WORKLOADS[args.workload](pm, args.seed, workdir)
        return 0
    result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    print_table([(args.workload, result, detail)])
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
