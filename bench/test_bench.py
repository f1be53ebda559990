"""Self-check of the benchmark: a shrunken run of every workload, in both
modes, must pass its gates and emit exactly the metrics BENCHMARK.json
declares, with their units."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=HERE.parent, run_py=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(run_py), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_gates_and_emits_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}


def test_fails_without_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", SPEC["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, run_py=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
