"""Pass rates of the fixed-seed statistical tests in tests/.

    python3 tools/pass_rates.py --seeds 1000
    python3 tools/pass_rates.py --seeds 20 --only criterion_1

A statistical test takes its seeds from one argument, `base`, whose default
gives the test's committed seeds.  This script finds every `test_*` function
in tests/test_*.py whose only parameter is `base`, runs it at that default and
at base 100000 + 100 j for the j-th fresh set, and prints, for each test, the
verdict at the committed seeds and how many fresh sets fail it.  Any exception
counts as a failure.  --only keeps the tests whose module::name contains the
given text, so a slow check can be measured alone.  It needs the `test` extra
and imports polmem from this checkout's src/ only.
"""

import argparse
import contextlib
import glob
import importlib
import inspect
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = os.path.join(ROOT, "tests")


def discover():
    """(module::name, function) of every test whose only parameter is `base`."""
    for path in (os.path.join(ROOT, "src"), TESTS):
        if path not in sys.path:
            sys.path.insert(0, path)
    found = []
    for path in sorted(glob.glob(os.path.join(TESTS, "test_*.py"))):
        module = importlib.import_module(os.path.basename(path)[:-3])
        for name, test in vars(module).items():
            if (name.startswith("test_") and inspect.isfunction(test)
                    and list(inspect.signature(test).parameters) == ["base"]):
                found.append((f"{module.__name__}::{name}", test))
    return found


def passes(test, base):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            test(base)
    except Exception:
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=300, help="fresh seed sets per test")
    parser.add_argument("--only", default="", metavar="SUBSTRING",
                        help="run only the tests whose module::name contains SUBSTRING")
    args = parser.parse_args()
    print(f"| check | committed seeds | fresh sets failing (of {args.seeds}) |")
    print("|---|---|---|")
    for name, test in discover():
        if args.only not in name:
            continue
        committed = inspect.signature(test).parameters["base"].default
        verdict = "pass" if passes(test, committed) else "FAIL"
        failures = sum(not passes(test, 100_000 + 100 * j) for j in range(args.seeds))
        print(f"| `{name}` | {verdict} | {failures} |", flush=True)


if __name__ == "__main__":
    main()
