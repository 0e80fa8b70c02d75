"""Tests of the benchmark itself (not of qopt).

    python3 -m pytest -q perfbench

The end-to-end cases launch ``perfbench/run.py`` with ``--seconds 1``, which
sizes each pass to a single training, so the file runs in well under a minute.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from qopt.problems import gen_labs, gen_maxcut_r3r, gen_portfolio, gen_spin_glass  # noqa: E402
from qopt.solvers import brute_force, qaoa_solve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _launch(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize(
    "inst",
    [
        gen_maxcut_r3r(8, seed=4),
        gen_spin_glass("complete", 8, dist="gaussian", seed=4),
        gen_portfolio(8, 3, seed=4),
        gen_labs(8),
    ],
    ids=lambda inst: inst.family,
)
def test_reference_enumerator_agrees_with_brute_force(inst):
    ref = brute_force(inst)
    lo, hi = run.spectrum_edges(inst, chunk_bits=5)
    assert abs(lo - ref.c_min) <= run.PIN_TOL
    assert abs(hi - ref.c_max) <= run.PIN_TOL


def test_corrupted_best_energy_counts_as_failure():
    inst = gen_maxcut_r3r(8, seed=5)
    row = {
        "instance": inst,
        "ref": brute_force(inst),
        "result": qaoa_solve(inst, p=1, optimizer_budget=30, seed=0),
        "task_s": 0.1,
        "unit": 0,
    }
    bad = dict(row, result=dataclasses.replace(row["result"], best_energy=row["result"].best_energy + 1e-6))
    rows = [row, bad]
    run.check_rows("qaoa-cvar", rows)
    assert rows[0]["failures"] == []
    assert rows[1]["failures"] == ["best_energy differs from value(best_assignment)"]
    assert run.tally(rows) == (2, 1)
    metrics = run.end_to_end_metrics(1.0, [1.0], rows, 1.0, [2.0])
    assert metrics["ar_mean"]["value"] == rows[0]["ar"]
    assert [metrics[k]["value"] for k in ("setup_s", "wall_s", "task_s_p50")] == [0.5, 0.5, 0.05]


def test_bench_cell_with_wrong_reference_fails():
    record = {
        "ar_mean": 1.0,
        "ar_best": 1.0,
        "extras": {"c_min": -3.0, "c_max": 0.0, "best_energies": [-3.0, -3.0], "mean_energies": [-3.0, -3.0]},
    }
    row = {"record": record, "algorithm": "brute-force"}
    assert run.check_bench(row, (-3.0, 0.0)) == []
    assert run.check_bench(row, (-4.0, 0.0)) != []
    assert run.check_bench({"record": {**record, "extras": {"error": "boom"}}, "algorithm": "grover"},
                           (-3.0, 0.0)) == ["cell error: boom"]


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = _launch("--workload", "qaoa-cvar", "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert [name for name, *_ in run.LAYERS] == [m["name"] for m in SPEC["per_layer"]]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _launch("--workload", "qaoa-mean", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
