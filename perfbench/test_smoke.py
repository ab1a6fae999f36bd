"""Smoke test of the benchmark at reduced size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced with ``--size small``.  The
test checks the output contract, that every metric named in BENCHMARK.json is
emitted with its unit, that the correctness gates ran and passed, and that a
gate does flag a cell that disagrees with the reference.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.startswith("fail_frac 0 ratio") for line in lines)
    provenance = json.loads(next(l for l in lines if l.startswith("provenance "))[11:])
    for key in ("nproc", "python", "numpy", "scipy", "git_commit", "seed"):
        assert key in provenance
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_sweep_gate_flags_a_cell_that_disagrees(tmp_path):
    reference = workloads.load_reference()
    spec = {"k": 2, "lambda": [0.0], "a": [-3.0], "p": [2.0], "t_end": 0.75}
    cell = next(c for c in reference["sweep"]
                if (c["k"], c["t_end"], c["lambda"], c["a"], c["p"]) == (2, 0.75, 0.0, -3.0, 2.0))
    op = workloads.sweep_op("probe", spec, random.Random(0), tmp_path, reference)
    header = "lambda,a,p,k,status,blow_up_time,classifier_verdict,grid,dt_policy\n"

    def gate_with(status, time):
        (tmp_path / "phase-sweep.csv").write_text(
            "# {}\n" + header
            + f"0.0,-3.0,2.0,2,{status},{time},{cell['classifier_verdict']},g,d\n")
        return op.gate((0, ""))

    assert gate_with(cell["status"], cell["blow_up_time"]) == (1, [])
    assert gate_with("completed", "")[1]
    assert gate_with(cell["status"], 1.5 * cell["blow_up_time"])[1]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
