"""Measure the spread of the benchmark's checked statistics over many seeds.

    python3 bench/calibrate.py --ops 400

Runs ops of six_state_cli and coherence_scan at their benchmark sizes and
prints the mean and standard deviation of each statistic their checks bound
(the oracle_grid check is exact binomial and needs no calibration).  The
constants in workloads.py come from this output.
"""

import argparse
import contextlib
import os

import numpy as np

from run import load_polmem, scratch_dir
from workloads import CoherenceScan, SixStateCli


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ops", type=int, default=400)
    parser.add_argument("--seed", type=int, default=12345)
    args = parser.parse_args()
    pm = load_polmem()
    with scratch_dir() as workdir:
        for cls in (SixStateCli, CoherenceScan):
            w = cls(pm, args.seed, workdir)
            stats = {}
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                for i in range(args.ops):
                    x = w.inputs(i)
                    for key, value in w.check(x, w.run(x)).stats.items():
                        stats.setdefault(key, []).append(value)
            for key, values in stats.items():
                v = np.asarray(values)
                print(f"{cls.name} {key}: n={len(v)} mean={v.mean():.6g} std={v.std(ddof=1):.6g} "
                      f"max|x|={np.abs(v).max():.6g}")


if __name__ == "__main__":
    main()
