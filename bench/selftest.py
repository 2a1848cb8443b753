"""Fast self-test of the harness at tiny sizes.

    python3 bench/selftest.py

Runs every workload once untraced and once traced, in-process, and checks
that each run passes its output checks and emits every metric named in
BENCHMARK.json with its unit.  Exits 1 on the first failure.
"""

import json
import os
import sys

from run import END_TO_END, ROOT, run
from tracing import PER_LAYER
from workloads import WORKLOADS

TINY = {
    "oracle_grid": {"trials": 20_000},
    "six_state_cli": {"trials": 40_000},
    "coherence_scan": {"trials": 200_000},
}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {w["name"] for w in spec["workloads"]}
    errors = []
    if declared != set(WORKLOADS):
        errors.append(f"BENCHMARK.json workloads {sorted(declared)} != harness {sorted(WORKLOADS)}")
    expect = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if expect[0] != dict(END_TO_END) or expect[1] != dict(PER_LAYER):
        errors.append("BENCHMARK.json metrics differ from the harness's END_TO_END / PER_LAYER")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, detail = run(workload, seed=7, seconds=0.5, trace=trace, sizes=TINY[workload],
                                 setup_repeats=1, probe_trials=50_000)
            tag = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{tag}: result keys {sorted(result)}")
            if result["attempted"] < 1 or result["failed"] or not result["correct"]:
                errors.append(f"{tag}: {result['failed']}/{result['attempted']} failed: {detail['problems']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expect[trace]:
                errors.append(f"{tag}: metrics/units {got} != {expect[trace]}")
            bad = [n for n, m in result["metrics"].items() if not isinstance(m["value"], (int, float))]
            if bad:
                errors.append(f"{tag}: non-numeric values for {bad}")
            print(f"{tag}: {detail['ops']} ops, {detail['traced_ops']} traced, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
