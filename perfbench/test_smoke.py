"""Smoke test of the benchmark itself, at tiny input sizes.

Every metric named in BENCHMARK.json is emitted with its unit, every
output passes its check, traced counts repeat across two runs with the
same seed, and a tree without qflab's source is refused.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def result_of(proc: subprocess.CompletedProcess, spec_metrics) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec_metrics}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_emitted(workload):
    metrics = result_of(run(workload, 0), SPEC["end_to_end"])["metrics"]
    assert all(v["value"] > 0 for v in metrics.values())


def test_per_layer_counts_repeat():
    first = result_of(run("exact-counts", 1), SPEC["per_layer"])["metrics"]
    second = result_of(run("exact-counts", 1), SPEC["per_layer"])["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B")]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["latticesums.congruence_sum_exact.rows"]["value"] > 0
    assert first["sieve.sieve_upper_bound.moduli"]["value"] > 0


def test_table_rows_match_program():
    from qflab.verify import TABLE_ROWS

    assert tuple((A, tuple(c), lam, t) for A, c, lam, t in TABLE_ROWS) == workloads.TABLE_ROWS


def test_refuses_tree_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("exact-counts", 0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
