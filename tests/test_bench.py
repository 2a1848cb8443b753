"""Smoke test of the benchmark harness: every workload of BENCHMARK.json runs
at tiny sizes with no failed op, so a library change that breaks `bench/`
fails here."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _run_tiny(workload, trace, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    # imported here, so importing this module imports no benchmark code
    from selftest import TINY, run

    result, detail = run(workload, seed=7, seconds=0.2, trace=trace, sizes=TINY[workload],
                         setup_repeats=1, probe_trials=50_000)
    assert result["attempted"] >= 1
    assert result["failed"] == 0, detail["problems"]
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_runs_without_failures(workload, monkeypatch):
    _run_tiny(workload, 0, monkeypatch)


# six_state_cli is left out: traced at tiny sizes it takes about 13 s
@pytest.mark.parametrize("workload", ["oracle_grid", "coherence_scan"])
def test_bench_workload_traced(workload, monkeypatch):
    """The tracer's hooks still see every chunk: one generator per chunk run."""
    metrics = _run_tiny(workload, 1, monkeypatch)
    chunks = metrics["streams.map_chunks.chunks"]["value"]
    assert chunks > 0
    assert metrics["streams.chunk_rng.calls"]["value"] == chunks
