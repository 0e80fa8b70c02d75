#!/usr/bin/env python3
"""Performance benchmark for qopt: one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload qaoa-mean --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs the same kind of work twice in one process, first untraced and then
traced, and reports the per-layer metrics plus the tracing overhead (traced
minus untraced wall time). Each run is single-process and closed-loop: one
caller waits for every call before making the next, and bench runs use one
job. Inputs come only from ``--seed``; the program receives the generated
instances and configs. Every output is checked; a failed check counts as a
failed task, the result line says ``"correct": false`` and the exit code is 1.

Set-up, wall and task times are reported in seconds at reference host
speed: a fixed calibration slice that touches no qopt code is timed before
the first unit of work and after each one, and each unit's measured seconds
are divided by the ratio of the calibration around it to
``CALIBRATION_REF_S``. On a shared host the same code runs tens of percent
slower for minutes at a time; the raw seconds and the ratios are in the
report.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A readable report (machine, every
metric with its unit, the failure fraction, the tail's sample count and,
when traced, each layer's share) goes to standard error and, with the task
rows, to ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

#: Acceptance criterion 02's floor on the p=2 mean-energy ratio.
MEAN_FLOOR = 0.7559
#: Pinned spectrum edges must match the program's within this.
PIN_TOL = 1e-9
#: Fresh processes launched per run to time set-up; the median is reported.
SETUP_PROBES = 5
#: Median seconds ``calibrate()`` took on the reference machine (2-vCPU Intel
#: Xeon VM, Python 3.11, numpy 2.4). Reported set-up, wall and task times are
#: scaled by this over the run's own calibration: seconds at reference speed.
CALIBRATION_REF_S = 0.102

# ``unit_s`` is the seconds one unit of work (a training, or one bench
# matrix) took at the seed commit on the reference machine. A run does
# round(seconds / unit_s) units, so the work per run is fixed for a given
# ``--seconds`` and a faster program shows as less time, not more work.
WORKLOADS = {
    "qaoa-mean": {
        "unit_s": 4.8,
        "n": 14,
        "solve": {"p": 2, "objective_mode": "mean", "optimizer_budget": 1000, "seed": 0},
        "floor": MEAN_FLOOR,
        "dominant": "simulator.qaoa_state_s",
    },
    "qaoa-cvar": {
        "unit_s": 5.2,
        "n": 14,
        "solve": {"p": 1, "objective_mode": "cvar", "alpha": 0.25, "shots": 2048,
                  "optimizer_budget": 100, "seed": 0},
        "floor": None,
        "dominant": "simulator.sample_s",
    },
    "bench-matrix": {
        "unit_s": 16.5,
        "n": 18,
        "dominant": "model.energies_at_s",
    },
}
BENCH_FAMILIES = ("maxcut-r3r", "spin-glass", "portfolio", "labs")
BENCH_SOLVERS = ("brute-force", "annealing", "grover")
BENCH_REPETITIONS = 2
BENCH_MASTER_SEED = 0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("task_s_p50", "s"),
    ("task_s_tail", "s"),
    ("peak_rss_mb", "MiB"),
    ("ar_mean", "ratio"),
    ("ar_min", "ratio"),
)

# Per-layer metrics: (name, unit, end-to-end metric it should move, workload
# that exercises it, workload where it should not move). ``preprocess`` has
# no metric because no user path calls it yet.
LAYERS = (
    ("problems.generate_s", "s", "setup_s, wall_s", "bench-matrix", "qaoa-*"),
    ("model.energies_at_calls", "count", "wall_s, task_s_p50", "bench-matrix", "qaoa-*"),
    ("model.energies_at_states", "count", "wall_s, task_s_p50", "bench-matrix", "qaoa-*"),
    ("model.energies_at_s", "s", "wall_s, task_s_p50", "bench-matrix", "qaoa-*"),
    ("model.value_calls", "count", "wall_s, task_s_p50", "qaoa-cvar", "qaoa-mean"),
    ("model.value_s", "s", "wall_s, task_s_p50", "qaoa-cvar", "qaoa-mean"),
    ("simulator.energy_table_calls", "count", "wall_s", "bench-matrix", "qaoa-*"),
    ("simulator.energy_table_builds", "count", "wall_s", "bench-matrix", "qaoa-*"),
    ("simulator.qaoa_state_calls", "count", "wall_s, task_s_p50, peak_rss_mb", "qaoa-mean", "bench-matrix"),
    ("simulator.qaoa_state_s", "s", "wall_s, task_s_p50, peak_rss_mb", "qaoa-mean", "bench-matrix"),
    ("simulator.qaoa_state_ns_per_amp_layer", "ns", "wall_s, task_s_p50", "qaoa-mean", "bench-matrix"),
    ("simulator.expectation_s", "s", "task_s_p50", "qaoa-mean", "bench-matrix"),
    ("simulator.sample_calls", "count", "wall_s, task_s_p50", "qaoa-cvar", "qaoa-mean"),
    ("simulator.sample_s", "s", "wall_s, task_s_p50", "qaoa-cvar", "qaoa-mean"),
    ("simulator.sample_self_s", "s", "wall_s, task_s_p50", "qaoa-cvar", "qaoa-mean"),
    ("simulator.cvar_s", "s", "wall_s, task_s_p50", "qaoa-cvar", "qaoa-mean"),
    ("solvers.brute_force_s", "s", "wall_s, task_s_tail", "bench-matrix", "-"),
    ("solvers.brute_force_self_s", "s", "wall_s, task_s_tail", "bench-matrix", "-"),
    ("solvers.simulated_annealing_s", "s", "wall_s, task_s_tail", "bench-matrix", "qaoa-*"),
    ("solvers.simulated_annealing_self_s", "s", "wall_s, task_s_tail", "bench-matrix", "qaoa-*"),
    ("solvers.grover_adaptive_search_s", "s", "wall_s, task_s_tail", "bench-matrix", "qaoa-*"),
    ("solvers.grover_adaptive_search_self_s", "s", "wall_s, task_s_tail", "bench-matrix", "qaoa-*"),
    ("solvers.qaoa_solve_s", "s", "wall_s, task_s_tail", "qaoa-*", "bench-matrix"),
    ("solvers.qaoa_solve_self_s", "s", "wall_s, task_s_tail", "qaoa-*", "bench-matrix"),
    ("solvers.qaoa_evals", "count", "task_s_p50 (a change means another optimiser path)", "qaoa-*", "bench-matrix"),
    ("solvers.qaoa_eval_s", "s", "task_s_p50", "qaoa-*", "bench-matrix"),
    ("solvers.qaoa_improving_frac", "ratio", "task_s_p50 (optimiser path)", "qaoa-*", "bench-matrix"),
    ("bench.t_generate_s", "s", "wall_s", "bench-matrix", "qaoa-*"),
    ("bench.t_compile_s", "s", "wall_s", "bench-matrix", "qaoa-*"),
    ("bench.t_execute_s", "s", "wall_s", "bench-matrix", "qaoa-*"),
    ("bench.t_post_s", "s", "wall_s", "bench-matrix", "qaoa-*"),
    ("bench.reference_s", "s", "wall_s, peak_rss_mb", "bench-matrix", "qaoa-*"),
    ("bench.table_builds_per_instance", "ratio", "wall_s, peak_rss_mb", "bench-matrix", "qaoa-*"),
    ("bench.cells_failed", "count", "fail_frac", "bench-matrix", "qaoa-*"),
    ("cli.import_s", "s", "setup_s", "all", "-"),
    ("cli.self_s", "s", "wall_s", "bench-matrix", "qaoa-*"),
    ("trace.overhead_s", "s", "none (traced minus untraced wall_s)", "all", "-"),
)


def units_of_work(workload: str, seconds: int, trace: int) -> int:
    """Trainings or bench matrices per pass; a traced run makes two passes."""
    share = seconds / 2 if trace else seconds
    return max(1, round(share / WORKLOADS[workload]["unit_s"]))


def make_plan(workload: str, seed: int, units: int) -> list:
    """Instance seeds (QAOA) or bench configs, derived only from ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    seeds = [rng.randrange(1 << 31) for _ in range(units)]
    if workload != "bench-matrix":
        return seeds
    n = WORKLOADS[workload]["n"]
    params = {
        "maxcut-r3r": lambda s: {"n": n, "seed": s},
        "spin-glass": lambda s: {"topology": "complete", "n": n, "seed": s},
        "portfolio": lambda s: {"N": n, "B": n // 3, "seed": s},
        "labs": lambda s: {"k": n},
    }
    return [
        {
            "instances": [{"family": f, "params": params[f](s)} for f in BENCH_FAMILIES],
            "solvers": [{"algorithm": a} for a in BENCH_SOLVERS],
            "repetitions": BENCH_REPETITIONS,
            "master_seed": BENCH_MASTER_SEED,
        }
        for s in seeds
    ]


def generate(workload: str, plan: list, gen=None) -> list:
    """The QAOA workloads' instances; bench configs are generated by qopt itself."""
    if workload == "bench-matrix":
        return plan
    from qopt import problems

    gen = gen or problems.gen_maxcut_r3r
    return [gen(WORKLOADS[workload]["n"], seed=s) for s in plan]


# ---------------------------------------------------------------------------
# Set-up


def setup_probe(workload: str, seed: int, units: int) -> None:
    """Child side of a set-up measurement: import, generate inputs, report."""
    t0 = time.perf_counter()
    import qopt.cli  # noqa: F401 - the import is what is being timed

    import_s = time.perf_counter() - t0
    generate(workload, make_plan(workload, seed, units))
    print(json.dumps({"import_s": import_s}), flush=True)


def measure_setup(workload: str, seed: int, units: int) -> tuple[float, float]:
    """Median seconds from launching a fresh process until qopt is imported and
    the inputs exist, and the median import time of ``qopt.cli`` alone."""
    totals, imports = [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed), "--units", str(units)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            totals.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {code}")
        imports.append(json.loads(line)["import_s"])
    return statistics.median(totals), statistics.median(imports)


# ---------------------------------------------------------------------------
# Timed passes


def calibrate() -> float:
    """Seconds for a fixed slice of reference work shaped like the workloads'.

    On a shared host the speed of the same code drifts by tens of percent for
    minutes at a time. The slice (a phase-and-mixer sweep on a 2^14 state,
    single-element numpy calls, 2 MiB integer-array passes and an interpreter
    loop) touches only numpy and Python, never qopt, so timing it next to the
    program measures the host's speed at that moment.
    """
    import numpy as np

    t0 = time.perf_counter()
    amps = np.full(1 << 14, 2.0 ** -7, dtype=np.complex128)
    table = np.linspace(-1.0, 1.0, 1 << 14)
    for _ in range(50):
        amps = amps * np.exp(-0.3j * table)
        for i in range(14):
            view = amps.reshape(1 << (13 - i), 2, 1 << i)
            low = view[:, 0, :].copy()
            view[:, 0, :] = 0.6 * low + 0.8j * view[:, 1, :]
    state = np.zeros(1)
    for _ in range(4000):
        state = np.where(state < 0.5, state + 1e-4, state)
    idx = np.arange(1 << 18, dtype=np.int64)
    for bit in range(20):
        idx = idx ^ (((idx >> bit) & 1) << (bit + 1))
    total = 0
    for i in range(100000):
        total += i & 7
    return time.perf_counter() - t0


def run_pass(workload: str, inputs: list, tag: str, run_cli=None) -> tuple[list[float], list[dict], list[float]]:
    """Run every unit of work once, with a calibration slice before the first
    unit and after each one. Returns each unit's seconds (calibration
    excluded), the task rows tagged with their unit's index, and the
    calibration seconds."""
    if workload == "bench-matrix" and run_cli is None:
        from qopt.cli import run_cli
    walls, rows, calibration = [], [], [calibrate()]
    for k, unit in enumerate(inputs):
        if workload == "bench-matrix":
            seconds, unit_rows = _bench_unit(unit, OUT / f"bench-{tag}-{k}", run_cli)
        else:
            seconds, unit_rows = _qaoa_unit(workload, unit)
        walls.append(seconds)
        for row in unit_rows:
            row["unit"] = k
        rows.extend(unit_rows)
        calibration.append(calibrate())
    return walls, rows, calibration


def _qaoa_unit(workload: str, inst) -> tuple[float, list[dict]]:
    from qopt import solvers

    row = {"instance": inst}
    t_start = time.perf_counter()
    try:
        row["ref"] = solvers.brute_force(inst)
        t0 = time.perf_counter()
        row["result"] = solvers.qaoa_solve(inst, **WORKLOADS[workload]["solve"])
        row["task_s"] = time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - a failed task is counted, not fatal
        row["error"] = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t_start, [row]


def _bench_unit(cfg: dict, stem: Path, run_cli) -> tuple[float, list[dict]]:
    OUT.mkdir(exist_ok=True)
    Path(f"{stem}.config.json").write_text(json.dumps(cfg), encoding="utf-8")
    argv = ["bench", f"{stem}.config.json", "--jobs", "1",
            "--json", f"{stem}.report.json", "--csv", f"{stem}.report.csv"]
    t0 = time.perf_counter()
    code = run_cli(argv)
    seconds = time.perf_counter() - t0
    records = json.loads(Path(f"{stem}.report.json").read_text())["records"] if code == 0 else []
    # Records come back in config order: instance-major, then solver.
    cells = [(entry, solver["algorithm"]) for entry in cfg["instances"] for solver in cfg["solvers"]]
    rows = []
    for i, (entry, algorithm) in enumerate(cells):
        row = {"entry": entry, "algorithm": algorithm}
        if i < len(records):
            row["record"] = records[i]
            row["task_s"] = records[i]["t_total"]
        else:
            row["error"] = f"qopt bench exited with code {code}"
        rows.append(row)
    return seconds, rows


# ---------------------------------------------------------------------------
# Correctness


def spectrum_edges(inst, chunk_bits: int = 16) -> tuple[float, float]:
    """Lowest and highest energy by enumerating every assignment.

    Written independently of qopt's energy tables and solvers: QUBO and Ising
    sources are evaluated from their term lists as ``x^T U x`` (spins
    ``z = 1 - 2x``), and the sequence family from its autocorrelations.
    """
    import numpy as np

    n = inst.n
    src = inst.objective.source
    if inst.family == "labs":
        def energy(bits):
            s = 1.0 - 2.0 * bits
            return sum((s[:, : n - j] * s[:, j:]).sum(axis=1) ** 2 for j in range(1, n))
    elif hasattr(src, "terms"):
        upper = np.zeros((n, n))
        for (i, j), c in src.terms.items():
            upper[i, j] += c

        def energy(bits):
            return src.offset + ((bits @ upper) * bits).sum(axis=1)
    elif hasattr(src, "J"):
        upper = np.zeros((n, n))
        for (i, j), c in src.J.items():
            upper[i, j] += c
        h = np.asarray(src.h, dtype=np.float64)

        def energy(bits):
            z = 1.0 - 2.0 * bits
            return src.offset + z @ h + ((z @ upper) * z).sum(axis=1)
    else:
        raise TypeError(f"no reference enumerator for family {inst.family!r}")
    lo, hi = float("inf"), float("-inf")
    step = 1 << min(n, chunk_bits)
    shifts = np.arange(n, dtype=np.int64)
    for start in range(0, 1 << n, step):
        idx = np.arange(start, min(start + step, 1 << n), dtype=np.int64)
        e = energy(((idx[:, None] >> shifts) & 1).astype(np.float64))
        lo, hi = min(lo, float(e.min())), max(hi, float(e.max()))
    return lo, hi


def _ratio(value: float, c_min: float, c_max: float) -> float:
    return (c_max - value) / (c_max - c_min)


def check_qaoa(row: dict, pinned: tuple[float, float], floor: float | None) -> list[str]:
    """Failed checks of one training; also stores its ratio in ``row``."""
    from qopt.model import ENERGY_TOL

    if "error" in row:
        return [row["error"]]
    failures = []
    inst, ref, res = row["instance"], row["ref"], row["result"]
    c_min, c_max = pinned
    if abs(res.best_energy - inst.objective.value(res.best_assignment)) > ENERGY_TOL:
        failures.append("best_energy differs from value(best_assignment)")
    if abs(ref.c_min - c_min) > PIN_TOL or abs(ref.c_max - c_max) > PIN_TOL:
        failures.append(f"brute_force range {ref.c_min, ref.c_max} != pinned {pinned}")
    row["ar"] = _ratio(res.extras["mean_energy"], c_min, c_max)
    if not 0.0 <= row["ar"] <= 1.0:
        failures.append(f"ratio {row['ar']} outside [0, 1]")
    if floor is not None and row["ar"] < floor:
        failures.append(f"ratio {row['ar']:.4f} below the floor {floor}")
    return failures


def check_bench(row: dict, pinned: tuple[float, float]) -> list[str]:
    """Failed checks of one bench cell; also stores its ratio in ``row``."""
    from qopt.model import ENERGY_TOL

    if "error" in row:
        return [row["error"]]
    rec = row["record"]
    extras = rec["extras"]
    if extras.get("error"):
        return [f"cell error: {extras['error']}"]
    failures = []
    c_min, c_max = pinned
    if abs(extras["c_min"] - c_min) > PIN_TOL or abs(extras["c_max"] - c_max) > PIN_TOL:
        failures.append(f"reference range {extras['c_min'], extras['c_max']} != pinned {pinned}")
    best = extras["best_energies"]
    if any(not c_min - ENERGY_TOL <= e <= c_max + ENERGY_TOL for e in best):
        failures.append("a best energy lies outside the pinned range")
    if row["algorithm"] == "brute-force" and any(abs(e - c_min) > ENERGY_TOL for e in best):
        failures.append("brute force missed the pinned minimum")
    clamped = [[min(max(_ratio(e, c_min, c_max), 0.0), 1.0) for e in extras[key]]
               for key in ("mean_energies", "best_energies")]
    want_mean = sum(clamped[0]) / len(clamped[0])
    want_best = max(clamped[1])
    if rec["ar_mean"] is None or abs(rec["ar_mean"] - want_mean) > PIN_TOL:
        failures.append(f"ar_mean {rec['ar_mean']} != recomputed {want_mean}")
    if rec["ar_best"] is None or abs(rec["ar_best"] - want_best) > PIN_TOL:
        failures.append(f"ar_best {rec['ar_best']} != recomputed {want_best}")
    row["ar"] = rec["ar_mean"]
    return failures


def pin_references(workload: str, rows: list[dict]) -> list[tuple[float, float]]:
    """Spectrum edges for each row's instance, from the benchmark's enumerator."""
    if workload != "bench-matrix":
        return [spectrum_edges(row["instance"]) for row in rows]
    from qopt import problems

    gens = {"maxcut-r3r": problems.gen_maxcut_r3r, "spin-glass": problems.gen_spin_glass,
            "portfolio": problems.gen_portfolio, "labs": problems.gen_labs}
    cache: dict[str, tuple[float, float]] = {}
    pins = []
    for row in rows:
        key = json.dumps(row["entry"], sort_keys=True)
        if key not in cache:
            cache[key] = spectrum_edges(gens[row["entry"]["family"]](**row["entry"]["params"]))
        pins.append(cache[key])
    return pins


def check_rows(workload: str, rows: list[dict]) -> None:
    """Attach the list of failed checks to every row (empty when correct)."""
    for row, pinned in zip(rows, pin_references(workload, rows)):
        if workload == "bench-matrix":
            row["failures"] = check_bench(row, pinned)
        else:
            row["failures"] = check_qaoa(row, pinned, WORKLOADS[workload]["floor"])


def tally(rows: list[dict]) -> tuple[int, int]:
    """Tasks attempted and tasks with at least one failed check."""
    return len(rows), sum(1 for row in rows if row["failures"])


def outcome(row: dict) -> tuple:
    """The energies and ratios a traced run must reproduce exactly."""
    if "error" in row:
        return ("error", row["error"])
    if "record" in row:
        rec = row["record"]
        keys = ("best_energies", "mean_energies", "c_min", "c_max")
        return (rec["ar_mean"], rec["ar_best"], *(rec["extras"].get(k) for k in keys))
    res = row["result"]
    return (res.best_assignment, res.best_energy, res.extras["mean_energy"],
            res.extras["evaluations"], row["ref"].c_min, row["ref"].c_max)


# ---------------------------------------------------------------------------
# Metrics


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples above it.

    Returns (value, percentile, samples above). With ten samples or fewer no
    percentile qualifies and the maximum is returned with zero above it.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, 0
    return ordered[count - 11], 100.0 * (count - 10) / count, 10


def end_to_end_metrics(setup_s: float, walls: list[float], rows: list[dict], rss_mb: float,
                       speeds: list[float]) -> dict:
    """The trace-off metrics. Each unit's wall and task seconds are divided by
    that unit's ``speeds`` entry, the host's slowness relative to the
    reference (``calibrate()`` just before and after it); set-up seconds are
    divided by the median of those."""
    ok = [row for row in rows if not row["failures"]]
    task_s = [row["task_s"] / speeds[row["unit"]] for row in ok] or [0.0]
    ars = [row["ar"] for row in ok] or [0.0]
    values = {
        "setup_s": setup_s / statistics.median(speeds),
        "wall_s": sum(w / v for w, v in zip(walls, speeds)),
        "task_s_p50": statistics.median(task_s),
        "task_s_tail": tail(task_s)[0],
        "peak_rss_mb": rss_mb,
        "ar_mean": sum(ars) / len(ars),
        "ar_min": min(ars),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(tracer, rows: list[dict], import_s: float, overhead_s: float, n: int) -> dict:
    agg = tracer.aggregate()

    def get(span: str, key: str = "s") -> float:
        return agg.get(span, {}).get(key, 0)

    results = [row["result"] for row in rows if "result" in row]
    evals = sum(r.extras["evaluations"] for r in results)
    records = [row["record"] for row in rows if "record" in row]
    instances = sum(1 for row in rows if "entry" in row) // len(BENCH_SOLVERS)
    values = {
        "problems.generate_s": get("problems.generate"),
        "model.energies_at_calls": get("model.energies_at", "calls"),
        "model.energies_at_states": get("model.energies_at", "work"),
        "model.energies_at_s": get("model.energies_at"),
        "model.value_calls": get("model.value", "calls"),
        "model.value_s": get("model.value"),
        "simulator.energy_table_calls": get("simulator.energy_table", "calls"),
        "simulator.energy_table_builds": tracer.count_with_child("simulator.energy_table", "model.energies_at"),
        "simulator.qaoa_state_calls": get("simulator.qaoa_state", "calls"),
        "simulator.qaoa_state_s": get("simulator.qaoa_state"),
        "simulator.qaoa_state_ns_per_amp_layer": (
            1e9 * get("simulator.qaoa_state") / get("simulator.qaoa_state", "work")
            if get("simulator.qaoa_state", "work") else 0.0
        ),
        "simulator.expectation_s": get("simulator.expectation"),
        "simulator.sample_calls": get("simulator.sample", "calls"),
        "simulator.sample_s": get("simulator.sample"),
        "simulator.sample_self_s": get("simulator.sample", "self_s"),
        "simulator.cvar_s": get("simulator.cvar"),
        "solvers.qaoa_evals": evals,
        "solvers.qaoa_eval_s": sum(r.timings["optimize"] for r in results) / evals if evals else 0.0,
        "solvers.qaoa_improving_frac": sum(len(r.trace) for r in results) / evals if evals else 0.0,
        "bench.reference_s": get("bench.reference"),
        "bench.table_builds_per_instance": (
            get("model.energies_at", "work") / (instances << n) if instances else 0.0
        ),
        "bench.cells_failed": sum(1 for rec in records if rec["extras"].get("error")),
        "cli.import_s": import_s,
        "cli.self_s": get("cli.run_cli", "self_s"),
        "trace.overhead_s": overhead_s,
    }
    for fn in ("brute_force", "simulated_annealing", "grover_adaptive_search", "qaoa_solve"):
        values[f"solvers.{fn}_s"] = get(f"solvers.{fn}")
        values[f"solvers.{fn}_self_s"] = get(f"solvers.{fn}", "self_s")
    for col in ("t_generate", "t_compile", "t_execute", "t_post"):
        values[f"bench.{col}_s"] = sum(rec[col] for rec in records)
    return {name: {"value": values[name], "unit": unit} for name, unit, *_ in LAYERS}


def machine() -> dict:
    """The hardware and software the numbers were measured on."""
    import networkx
    import numpy
    import scipy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    qaoa_n = max(spec["n"] for spec in WORKLOADS.values() if "solve" in spec)
    bench_n = WORKLOADS["bench-matrix"]["n"]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}_per_core"] = (
                (index / "size").read_text().strip()
            )
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "working_set": (
            f"largest state vector {(16 << qaoa_n) >> 10} KiB (complex128, n={qaoa_n}); largest "
            f"energy table {(8 << bench_n) >> 10} KiB (float64, n={bench_n}); both fit in the "
            "caches above, so no workload here measures DRAM-bound kernels"
        ),
    }


# ---------------------------------------------------------------------------
# Driver


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=int, default=30, help="run length the work is sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--units", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def report(path: Path, summary: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(summary, indent=2, default=str) + "\n", encoding="utf-8")
    print(f"machine: {json.dumps(summary['machine'])}", file=sys.stderr)
    for name, metric in summary["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    for line in summary["notes"]:
        print(f"  {line}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = args.workload
    units = args.units or units_of_work(workload, args.seconds, args.trace)
    if args.setup_probe:
        setup_probe(workload, args.seed, units)
        return 0

    setup_s, import_s = measure_setup(workload, args.seed, units)
    plan = make_plan(workload, args.seed, units)
    notes = []
    if not args.trace:
        walls, rows, calibration = run_pass(workload, generate(workload, plan), "run")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_rows(workload, rows)
        speeds = [(a + b) / 2 / CALIBRATION_REF_S for a, b in zip(calibration, calibration[1:])]
        metrics = end_to_end_metrics(setup_s, walls, rows, rss_mb, speeds)
        notes.append(f"host speed per unit against {CALIBRATION_REF_S} s of calibration at reference: "
                     f"{', '.join(f'{v:.4f}' for v in speeds)}; raw setup_s {setup_s:.4f} s, "
                     f"raw wall_s {sum(walls):.3f} s")
        ok = [row["task_s"] for row in rows if not row["failures"]]
        if ok:
            _, level, above = tail(ok)
            notes.append(f"task_s_tail is the p{level:.1f} of {len(ok)} pooled tasks ({above} above it)")
    else:
        from tracing import Tracer, traced_program
        from qopt import cli, problems

        walls_u, rows_u, _ = run_pass(workload, generate(workload, plan), "untraced")
        tracer = Tracer()
        with traced_program(tracer):
            inputs = generate(workload, plan, tracer.wrap("problems.generate", problems.gen_maxcut_r3r))
            walls_t, rows, _ = run_pass(workload, inputs, "traced", tracer.wrap("cli.run_cli", cli.run_cli))
        wall_u, wall_t = sum(walls_u), sum(walls_t)
        check_rows(workload, rows_u)
        check_rows(workload, rows)
        for row_u, row in zip(rows_u, rows):
            if outcome(row_u) != outcome(row):
                row["failures"].append("traced and untraced runs differ")
        rows = rows_u + rows
        metrics = layer_metrics(tracer, rows[len(rows_u):], import_s, wall_t - wall_u, WORKLOADS[workload]["n"])
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{workload}.spans.jsonl")
        shares = {
            name: metrics[name]["value"] / wall_t
            for name in ("simulator.qaoa_state_s", "simulator.sample_s", "model.energies_at_s")
        }
        top = max(shares, key=shares.get)
        expected = WORKLOADS[workload]["dominant"]
        notes.append("shares of traced wall_s: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        notes.append(f"dominant layer {top} ({'agrees' if top == expected else 'DISAGREES'}; expected {expected})")
        notes.append(f"tracing overhead {wall_t - wall_u:.3f} s on untraced wall_s {wall_u:.3f} s")
        notes.extend(f"{name}: moves {moves} on {on}; no move on {off}" for name, _, moves, on, off in LAYERS)

    attempted, failed = tally(rows)
    notes.insert(0, f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} tasks failed)")
    notes.extend(f"task {k}: {'; '.join(row['failures'])}" for k, row in enumerate(rows) if row["failures"])
    report(
        OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json",
        {
            "workload": workload,
            "seed": args.seed,
            "units": units,
            "machine": machine(),
            "metrics": metrics,
            "notes": notes,
            "tasks": [
                {"task_s": row.get("task_s"), "ar": row.get("ar"), "failures": row["failures"],
                 "evaluations": row["result"].extras["evaluations"] if "result" in row else None}
                for row in rows
            ],
        },
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
