"""Smoke test of the benchmark harness: every workload of BENCHMARK.json runs
at tiny sizes with no failed op, so a library change that breaks `bench/`
fails here."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_runs_without_failures(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    # imported here, so importing this module imports no benchmark code
    from selftest import TINY, run

    result, detail = run(workload, seed=7, seconds=0.2, trace=0, sizes=TINY[workload],
                         setup_repeats=1, probe_trials=50_000)
    assert result["attempted"] >= 1
    assert result["failed"] == 0, detail["problems"]
