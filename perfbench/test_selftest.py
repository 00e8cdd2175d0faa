"""Fast self-test of the benchmark: every workload at a tiny size, traced and not.

    python3 -m pytest -q perfbench

Checks that the last output line is the result object, that every metric
named in BENCHMARK.json is printed by name with its unit, that the host
correction scales each pass by its own reference time, and that the
benchmark refuses to run without the package sources.
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
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    report = json.loads(lines[0].removeprefix("report "))
    assert report["seed"] == 3 and report["machine"]["cpus"] >= 1
    assert min(report["passes"]) >= 1
    if workload == "closed_form":
        assert report["census"]["draws"] >= 1
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{metric['name']} = ") and line.endswith(f" {metric['unit']}")
                   for line in lines), metric["name"]


def test_same_seed_same_inputs():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import spinsqueeze
    import spinsqueeze.cli
    import workloads

    def draws(seed):
        w = workloads.ClosedForm(spinsqueeze, spinsqueeze.cli, seed, smoke=True)
        return [(dec.twice_subspins, n, zeta) for dec, n, zeta in w.cli_limits]

    assert draws(5) == draws(5)
    assert draws(5) != draws(6)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_correction_scales_each_pass_by_its_reference_time():
    sys.path.insert(0, str(HERE))
    import run

    nominal = run.REF_NOMINAL_S
    res = run.Passes(latencies=[[0.010, None], [0.020, 0.030]], refs=[[nominal], [2 * nominal, 2 * nominal]])
    slow = 0.5
    assert res.per_op(corrected=False) == pytest.approx([0.015, 0.030])
    assert res.per_op(corrected=True) == pytest.approx([(0.010 + 0.020 * slow) / 2, 0.030 * slow])
