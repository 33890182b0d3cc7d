"""The benchmark's own tests: every workload in smoke size, both modes.

Run with `python3 -m pytest bench/smoke.py` (about a minute on two cores).
The file name keeps it out of the repository's default test collection.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
WORKLOADS = list(json.loads((BENCH / "spec.json").read_text())["workloads"])


def _run(*args, cwd=BENCH.parent):
    proc = subprocess.run([sys.executable, "bench/run.py", *args],
                          capture_output=True, text=True, timeout=170,
                          cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def _result(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_complete(workload, trace):
    rc, lines, err = _run("--workload", workload, "--seed", "33",
                          "--seconds", "1", "--trace", trace, "--smoke")
    assert rc == 0, "\n".join(lines) + err
    result = _result(lines)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_traced_counts_match_the_workload_shape():
    rc, lines, err = _run("--workload", "table", "--seed", "5",
                          "--seconds", "1", "--trace", "1", "--smoke")
    assert rc == 0, err
    m = {k: v["value"] for k, v in _result(lines)["metrics"].items()}
    # smoke table: 2 cells (two barrier modes) x 3 reps, n = 400, grid 60
    assert m["experiment.cells"] == 2 and m["experiment.reps"] == 6
    assert m["simulate.calls"] == 6 and m["simulate.steps"] == 6 * 400
    assert m["estimate.pairs"] == 6 * 400 * 60
    assert 0.0 < m["estimate.window_frac"] < 1.0
    assert m["density.drift_nodes"] == 0


def test_tracer_covers_the_continuous_estimator(tmp_path):
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "traced.py"), str(trace), "--",
         "experiment", "--case", "2", "--mode", "two-sided", "--type",
         "continuous", "--refine", "3", "--grid", "10", "--n-list", "400",
         "--beta-list", "0.2", "--threads", "1", "--reps", "2",
         "--seed", "0", "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(BENCH.parent / "src")})
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(trace.read_text())["spans"]
    sims = [s for s in spans if s["name"] == "simulate.simulate_fine"]
    ests = [s for s in spans if s["name"] == "estimate.nw_continuous"]
    assert [s["steps"] for s in sims] == [3 * 400] * 2
    assert [s["pairs"] for s in ests] == [10 * 3 * 400] * 2
    # Counting time is booked to the enclosing spans, never to a leaf.
    assert all(s["end"] - s["start"] >= s["overhead"] >= 0.0 for s in spans)
    assert all(s["overhead"] == 0.0 for s in sims + ests)
    assert any(s["overhead"] > 0.0 for s in spans
               if s["name"] == "experiment.run_cell")


def test_wrong_output_is_counted_and_fails(tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(BENCH.parent / "src", checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, checkout / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", checkout)
    ref_path = checkout / "bench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    rows = ref["smoke"]["table"]["7"][0]
    fields = rows[1].split(",")
    fields[6] = repr(float(fields[6]) * (1 + 1e-6))   # rase_mean
    rows[1] = ",".join(fields)
    ref_path.write_text(json.dumps(ref))
    rc, lines, _ = _run("--workload", "table", "--seed", "7", "--seconds", "1",
                        "--trace", "0", "--smoke", cwd=checkout)
    assert rc == 1
    result = _result(lines)
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    rc, lines, _ = _run("--workload", "table", "--seed", "1", "--seconds",
                        "1", "--trace", "0", cwd=tmp_path)
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)
