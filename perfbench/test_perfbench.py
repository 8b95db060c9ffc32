"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    counts = []
    for _ in range(2):
        metrics, _, attempted, failed, problems = run.traced_run(
            run.WORKLOADS[workload](7, tmp_path), 7)
        assert problems == [] and failed == 0 and attempted > 0
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
        counts.append({name: metrics[name] for name in COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["optim.nelder_mead.evals"] > 0


FLOOD_ROW = ("method,mu,sigma,xi,converged,objective_value,r50,r100,r200\n"
             "{method},129.89,120.7,{xi},True,0.0,1000.0,1824.0,2600.0\n")


def test_flood_reference_check_catches_a_miss():
    check = run._check_fit(run.FLOOD_REFERENCE[("lme",)])
    assert check(FLOOD_ROW.format(method="lme", xi=-0.377)) == []
    assert len(check(FLOOD_ROW.format(method="lme", xi=-0.39))) == 1


def test_simulate_check_catches_a_broken_identity():
    header = "scenario,xi,n,method,bias,se,rmse,n_failures,truth\n"
    good = header + "stationary,-0.45,30,lme,3.0,4.0,5.0,0,900.0\n"
    bad = header + "stationary,-0.45,30,lme,3.0,4.0,5.000001,0,900.0\n"
    assert run._check_simulate(1)(good) == []
    assert len(run._check_simulate(1)(bad)) == 1
    assert len(run._check_simulate(2)(good)) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
