"""Benchmark harness tests.

The AR formula is recomputed by hand wherever a record or report claims a
value, and replay determinism is checked on rendered bytes, not just on
Python equality.
"""

import csv
import dataclasses
import importlib.util
import io
import itertools
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from qopt.bench import (
    CSV_HEADER,
    SOLVERS,
    BenchmarkConfig,
    BenchmarkRecord,
    approximation_ratio,
    emit_junit,
    emit_report,
    run_benchmark,
    success_metrics,
)
from qopt.model import QuboModel, _Program
from qopt.problems import gen_maxcut_r3r, gen_spin_glass
from qopt.solvers import SolveResult, brute_force, simulated_annealing

import qopt.bench as bench_module
import qopt.cli as cli_module
import qopt.model as model_module
import qopt.solvers as solvers_module


def make_record(**overrides):
    base = dict(
        problem="maxcut-r3r[n=8;seed=1]",
        algorithm="annealing",
        variables=8,
        density=0.4,
        ar_mean=0.9,
        ar_best=1.0,
        depth=None,
        shots=None,
        seed=7,
        t_generate=0.01,
        t_preprocess=0.0,
        t_compile=0.02,
        t_execute=0.5,
        t_post=0.03,
        t_total=0.57,
    )
    base.update(overrides)
    return BenchmarkRecord(**base)


class TestApproximationRatio:
    def test_endpoints(self):
        assert approximation_ratio(-10.0, -10.0, 0.0) == 1.0
        assert approximation_ratio(0.0, -10.0, 0.0) == 0.0

    def test_two_sample_mean(self):
        # Energies {0, 2} with equal weight: mean 1 on range [0, 2].
        assert approximation_ratio(1.0, 0.0, 2.0) == 0.5

    def test_clamping_flags(self):
        assert approximation_ratio(-12.0, -10.0, 0.0) == 1.0
        assert approximation_ratio(3.0, -10.0, 0.0) == 0.0
        assert math.isnan(approximation_ratio(math.nan, -10.0, 0.0))

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            approximation_ratio(1.0, 2.0, 2.0)

    def test_offset_and_positive_rescale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c_min, spread = rng.normal(), abs(rng.normal()) + 0.1
            c_max = c_min + spread
            v = rng.uniform(c_min, c_max)
            base = approximation_ratio(v, c_min, c_max)
            off = rng.normal() * 10
            scale = rng.uniform(0.1, 50)
            assert approximation_ratio(v + off, c_min + off, c_max + off) == pytest.approx(base, abs=1e-12)
            assert approximation_ratio(v * scale, c_min * scale, c_max * scale) == pytest.approx(base, abs=1e-12)


def timed_result(energy, seconds, certificate=False):
    return SolveResult(
        best_assignment=(0,),
        best_energy=energy,
        certificate=certificate,
        timings={"total": seconds},
    )


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_every_solver_reports_total_time(name):
    params = {"qaoa": {"optimizer_budget": 10}, "rqaoa": {"cutoff": 4}}.get(name, {})
    result = SOLVERS[name](gen_maxcut_r3r(6, seed=0), **params)
    assert result.timings["total"] >= 0.0


def test_annealing_without_variables_reports_total_time():
    assert simulated_annealing(QuboModel(n=0).as_objective()).timings == {"total": 0.0}


class TestSuccessMetrics:
    def test_all_certified_optimal(self):
        obj = QuboModel(n=3, terms={(0, 0): -1.0}).as_objective()
        results = [brute_force(obj) for _ in range(4)]
        out = success_metrics(results, "optimal", time_limit=60.0)
        assert out["success_rate"] == 1.0
        assert out["time_to_target"] is not None

    def test_zero_successes(self):
        results = [timed_result(5.0, 0.1) for _ in range(3)]
        out = success_metrics(results, "optimal", time_limit=60.0, c_min=0.0)
        assert out["success_rate"] == 0.0
        assert out["time_to_target"] is None

    def test_optimal_target_without_certificate_or_reference(self):
        results = [timed_result(0.0, 0.1) for _ in range(2)]
        out = success_metrics(results, "optimal", time_limit=60.0)
        assert out == {"success_rate": 0.0, "time_to_target": None}

    def test_sa_repetitions_match_hand_recount(self):
        inst = gen_spin_glass("complete", 16, dist="gaussian", seed=2)
        ref = brute_force(inst)
        results = [
            simulated_annealing(inst, sweeps=30, restarts=1, seed=s) for s in range(10)
        ]
        theta = 0.9
        out = success_metrics(results, ("ar", theta), 60.0, c_min=ref.c_min, c_max=ref.c_max)
        ars = [
            (ref.c_max - r.best_energy) / (ref.c_max - ref.c_min) for r in results
        ]
        hand_count = sum(1 for a in ars if a >= theta)
        assert out["success_rate"] == hand_count / 10

    def test_time_limit_excludes_slow_hits(self):
        results = [timed_result(0.0, 100.0), timed_result(0.0, 1.0)]
        out = success_metrics(results, "optimal", time_limit=60.0, c_min=0.0)
        assert out["success_rate"] == 0.5
        assert out["time_to_target"] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            success_metrics([], "optimal")
        res = [timed_result(0.0, 1.0)]
        with pytest.raises(ValueError):
            success_metrics(res, ("ar", 1.5), c_min=0.0, c_max=1.0)
        with pytest.raises(ValueError):
            success_metrics(res, ("ar", 0.5))
        with pytest.raises(ValueError):
            success_metrics(res, ("nonsense", 0.5), c_min=0.0, c_max=1.0)

    def test_time_limit_is_checked_as_the_config_checks_it(self):
        # True once judged against a 1 s limit, and "60" failed on an
        # unnamed comparison.
        res = [timed_result(0.0, 1.0)]
        for bad in (True, "60"):
            with pytest.raises(TypeError, match=f"^time_limit must be a positive finite real, got {bad!r}$"):
                success_metrics(res, "optimal", time_limit=bad, c_min=0.0)
        for bad in (0.0, -1, math.nan, math.inf):
            with pytest.raises(ValueError, match="^time_limit must be a positive finite real, got "):
                success_metrics(res, "optimal", time_limit=bad, c_min=0.0)


class TestRecordAndConfig:
    def test_ar_bounds_enforced(self):
        with pytest.raises(ValueError):
            make_record(ar_mean=1.2)
        with pytest.raises(ValueError):
            make_record(ar_best=-0.1)

    def test_transpile_and_embed_default_zero(self):
        rec = make_record()
        assert rec.t_transpile == 0.0
        assert rec.t_embed == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(repetitions=0)
        with pytest.raises(ValueError):
            BenchmarkConfig(time_limit=0.0)
        # NaN would pass a `<= 0` check and then miss every target.
        with pytest.raises(ValueError, match="^time_limit must be a positive finite real, got nan$"):
            BenchmarkConfig(time_limit=float("nan"))
        with pytest.raises(ValueError, match="^time_limit must be a positive finite real, got inf$"):
            BenchmarkConfig(time_limit=float("inf"))
        with pytest.raises(ValueError):
            BenchmarkConfig(jobs=0)

    def test_unknown_entry_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown instance key 'name'"):
            BenchmarkConfig(instances=({"family": "labs", "name": "x"},))
        with pytest.raises(ValueError, match="unknown solver key 'param'"):
            BenchmarkConfig(solvers=({"algorithm": "grover", "param": {}},))
        with pytest.raises(ValueError, match="instance entry must be an object, got 'labs'"):
            BenchmarkConfig(instances=("labs",))


SMALL_CONFIG = BenchmarkConfig(
    instances=(
        {"family": "maxcut-r3r", "params": {"n": 8, "seed": 1}},
        {"family": "spin-glass", "params": {"topology": "complete", "n": 6, "seed": 0}},
    ),
    solvers=(
        {"algorithm": "annealing", "params": {"sweeps": 50, "restarts": 2}},
        {"algorithm": "qaoa", "params": {"p": 1, "optimizer_budget": 70, "shots": 128}},
    ),
    repetitions=2,
    master_seed=11,
    target=("ar", 0.5),
)


# Two instance entries (one with a derived seed) against every solver that
# reads the shared table: brute force, annealing, Grover and QAOA.
SHARED_MATRIX = dict(
    instances=(
        {"family": "maxcut-r3r", "params": {"n": 8, "seed": 1}},
        {"family": "spin-glass", "params": {"topology": "complete", "n": 6}},
    ),
    solvers=(
        {"algorithm": "brute-force"},
        {"algorithm": "annealing", "params": {"sweeps": 30}},
        {"algorithm": "grover", "params": {"max_rounds": 4}},
        {"algorithm": "qaoa", "params": {"p": 1, "optimizer_budget": 20, "shots": 64}},
    ),
    repetitions=2,
    master_seed=4,
    target=("ar", 0.9),
)


def count_calls(monkeypatch, owner, key, counts):
    """Rebind ``owner[key]`` (or the attribute) to a wrapper that tallies
    each call under ``key`` in ``counts``."""
    original = owner[key] if isinstance(owner, dict) else getattr(owner, key)

    def counted(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return original(*args, **kwargs)

    if isinstance(owner, dict):
        monkeypatch.setitem(owner, key, counted)
    else:
        monkeypatch.setattr(owner, key, counted)


class TestSharedInstances:
    def test_sharing_changes_no_result(self):
        records = run_benchmark(BenchmarkConfig(**SHARED_MATRIX), clock=lambda: 0.0)
        cells = [(i, s) for i in SHARED_MATRIX["instances"] for s in SHARED_MATRIX["solvers"]]
        assert len(records) == len(cells)
        for record, (inst, solver) in zip(records, cells):
            alone = BenchmarkConfig(**{**SHARED_MATRIX, "instances": (inst,), "solvers": (solver,)})
            assert record == run_benchmark(alone, clock=lambda: 0.0)[0]
            assert "error" not in record.extras

    def test_one_generation_and_one_table_per_instance(self, monkeypatch):
        counts = {}
        for family in ("maxcut-r3r", "spin-glass"):
            count_calls(monkeypatch, bench_module.GENERATORS, family, counts)
        # Both families compile to the model program, whose table() is the build.
        count_calls(monkeypatch, _Program, "table", counts)
        run_benchmark(BenchmarkConfig(**SHARED_MATRIX), clock=lambda: 0.0)
        assert counts == {"maxcut-r3r": 1, "spin-glass": 1, "table": 2}

    def test_instance_dropped_before_the_next_is_generated(self, monkeypatch):
        alive = []

        def tracked(family):
            original = bench_module.GENERATORS[family]

            def generate(**params):
                assert [ref() for ref in alive] == [None] * len(alive)
                instance = original(**params)
                alive.append(weakref.ref(instance))
                return instance

            monkeypatch.setitem(bench_module.GENERATORS, family, generate)

        for family in ("maxcut-r3r", "spin-glass"):
            tracked(family)
        records = run_benchmark(BenchmarkConfig(**SHARED_MATRIX), clock=lambda: 0.0)
        assert len(alive) == 2
        assert [ref() for ref in alive] == [None, None]
        assert all("error" not in r.extras for r in records)

    def test_failed_build_fails_every_cell_of_its_entry(self, monkeypatch):
        counts = {}
        count_calls(monkeypatch, bench_module.GENERATORS, "labs", counts)
        cfg = BenchmarkConfig(
            instances=({"family": "labs", "params": {"k": 5, "sed": 1}}, SHARED_MATRIX["instances"][0]),
            solvers=SHARED_MATRIX["solvers"][:3],
        )
        records = run_benchmark(cfg, clock=lambda: 0.0)
        assert counts == {"labs": 1}
        errors = [r.extras.get("error") for r in records]
        assert len(set(errors[:3])) == 1
        assert errors[0].startswith("TypeError: ") and "unexpected keyword argument 'sed'" in errors[0]
        assert all(r.variables == 0 and r.t_generate == 0.0 for r in records[:3])
        assert errors[3:] == [None, None, None]


# Imports qopt, runs one annealing cell on a clock that records whether
# numpy.random is loaded at each reading, and prints what it saw.
RANDOM_LOAD_SCRIPT = """
import json, sys
import qopt.cli
from qopt.bench import BenchmarkConfig, run_benchmark
at_import = "numpy.random" in sys.modules
readings = []
def clock():
    readings.append("numpy.random" in sys.modules)
    return 0.0
config = BenchmarkConfig(
    instances=({"family": "maxcut-r3r", "params": {"n": 6, "seed": 1}},),
    solvers=({"algorithm": "annealing", "params": {"sweeps": 5}},),
)
assert "error" not in run_benchmark(config, clock=clock)[0].extras
print(json.dumps([at_import, readings]))
"""


class TestRunBenchmark:
    def test_empty_matrix(self):
        assert run_benchmark(BenchmarkConfig()) == []

    def test_single_cell_aggregates_repetitions(self):
        cfg = BenchmarkConfig(
            instances=({"family": "maxcut-r3r", "params": {"n": 8, "seed": 1}},),
            solvers=({"algorithm": "annealing", "params": {"sweeps": 40}},),
            repetitions=3,
            master_seed=0,
        )
        records = run_benchmark(cfg)
        assert len(records) == 1
        rec = records[0]
        assert rec.extras["repetitions"] == 3
        assert len(rec.extras["best_energies"]) == 3
        assert rec.variables == 8
        assert rec.depth is None and rec.shots is None

    def test_time_limit_judged_on_the_run_clock(self):
        # Under a constant clock every stage reads 0 s, yet the time limit was
        # once judged on each solver's own wall time, so host speed decided
        # success.
        cfg = BenchmarkConfig(
            instances=({"family": "maxcut-r3r", "params": {"n": 8, "seed": 1}},),
            solvers=({"algorithm": "brute-force"},),
            repetitions=2,
            target="optimal",
            time_limit=1e-9,
        )
        rec = run_benchmark(cfg, clock=lambda: 0.0)[0]
        assert rec.t_execute == 0.0 and rec.success is True
        # Each repetition is judged on the seconds the clock read around it:
        # one tick here, over a limit of half a tick.
        ticks = itertools.count()
        rec = run_benchmark(dataclasses.replace(cfg, time_limit=0.5), clock=lambda: float(next(ticks)))[0]
        assert rec.t_execute == 2.0 and rec.success is False

    def test_records_in_config_order(self):
        records = run_benchmark(SMALL_CONFIG, clock=lambda: 0.0)
        labels = [(r.problem, r.algorithm) for r in records]
        assert labels == [
            ("maxcut-r3r[n=8;seed=1]", "annealing[restarts=2;sweeps=50]"),
            ("maxcut-r3r[n=8;seed=1]", "qaoa[optimizer_budget=70;p=1;shots=128]"),
            ("spin-glass[n=6;seed=0;topology=complete]", "annealing[restarts=2;sweeps=50]"),
            ("spin-glass[n=6;seed=0;topology=complete]", "qaoa[optimizer_budget=70;p=1;shots=128]"),
        ]

    def test_replay_is_byte_identical(self):
        first = emit_report(run_benchmark(SMALL_CONFIG, clock=lambda: 0.0), "csv")
        second = emit_report(run_benchmark(SMALL_CONFIG, clock=lambda: 0.0), "csv")
        assert first == second

    def test_cell_failure_does_not_abort_matrix(self):
        cfg = BenchmarkConfig(
            instances=(
                {"family": "no-such-family", "params": {}},
                {"family": "maxcut-r3r", "params": {"n": 8, "seed": 1}},
            ),
            solvers=({"algorithm": "annealing", "params": {"sweeps": 20}},),
            master_seed=0,
        )
        records = run_benchmark(cfg)
        assert len(records) == 2
        assert "error" in records[0].extras
        assert records[0].ar_mean is None
        assert "error" not in records[1].extras

    def test_depth_and_shots_from_solver_defaults(self):
        cfg = BenchmarkConfig(
            instances=({"family": "maxcut-r3r", "params": {"n": 8, "seed": 1}},),
            solvers=({"algorithm": "qaoa", "params": {"optimizer_budget": 70}},),
            master_seed=0,
        )
        rec = run_benchmark(cfg, clock=lambda: 0.0)[0]
        assert rec.depth == 1
        assert rec.shots == 2048

    def test_ar_unavailable_beyond_enumeration_cap(self, monkeypatch):
        monkeypatch.setattr(bench_module, "statevector_cap", lambda: 6)
        cfg = BenchmarkConfig(
            instances=({"family": "maxcut-r3r", "params": {"n": 8, "seed": 1}},),
            solvers=({"algorithm": "annealing", "params": {"sweeps": 20}},),
            master_seed=0,
        )
        rec = run_benchmark(cfg)[0]
        assert rec.ar_mean is None and rec.ar_best is None
        row = emit_report([rec], "csv").splitlines()[1].split(",")
        assert row[4] == "n/a" and row[5] == "n/a"

    def test_total_time_covers_parts(self):
        # Every clock reading is one tick later than the last, so each stage
        # that ran reads at least 1. An instance's build is charged to the
        # one cell that made it, its first.
        ticks = itertools.count()
        records = run_benchmark(BenchmarkConfig(**SHARED_MATRIX), clock=lambda: float(next(ticks)))
        for rec in records:
            parts = rec.t_generate + rec.t_preprocess + rec.t_compile + rec.t_execute + rec.t_post
            assert rec.t_total >= parts
            assert rec.t_execute >= 1.0 and rec.t_post >= 1.0
        width = len(SHARED_MATRIX["solvers"])
        for k in range(len(SHARED_MATRIX["instances"])):
            cells = records[k * width : (k + 1) * width]
            assert [rec.t_generate for rec in cells] == [1.0, 0.0, 0.0, 0.0]
            assert [rec.t_compile for rec in cells] == [1.0, 0.0, 0.0, 0.0]

    def test_numpy_random_loaded_before_the_first_clock_reading(self):
        # numpy loads numpy.random on first use, in several milliseconds;
        # that must not be charged to the first cell that draws, and
        # importing qopt must not pay it either. Only a fresh process shows
        # what has been loaded.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", RANDOM_LOAD_SCRIPT], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        at_import, readings = json.loads(proc.stdout)
        assert at_import is False
        assert readings[0] is True

    def test_build_charged_to_first_cell_whose_names_resolve(self):
        # A cell with an unknown solver fails before it touches the build,
        # so the entry's next cell makes it and is charged for it.
        ticks = itertools.count()
        cfg = BenchmarkConfig(**{**SHARED_MATRIX, "solvers": ({"algorithm": "nope"}, *SHARED_MATRIX["solvers"])})
        records = run_benchmark(cfg, clock=lambda: float(next(ticks)))
        width = len(cfg.solvers)
        for k in range(len(cfg.instances)):
            cells = records[k * width : (k + 1) * width]
            assert cells[0].extras["error"] == "KeyError: 'nope'"
            assert [rec.t_generate for rec in cells] == [0.0, 1.0, 0.0, 0.0, 0.0]
            assert [rec.t_compile for rec in cells] == [0.0, 1.0, 0.0, 0.0, 0.0]
            assert all("error" not in rec.extras for rec in cells[1:])

    def test_instance_seed_derived_when_omitted(self):
        cfg = BenchmarkConfig(
            instances=({"family": "spin-glass", "params": {"topology": "complete", "n": 5}},),
            solvers=({"algorithm": "brute-force", "params": {}},),
            master_seed=3,
        )
        a = run_benchmark(cfg, clock=lambda: 0.0)
        b = run_benchmark(cfg, clock=lambda: 0.0)
        assert emit_report(a, "csv") == emit_report(b, "csv")


class TestEmitReport:
    def test_empty_records_header_only(self):
        text = emit_report([], "csv")
        assert text == CSV_HEADER + "\n"

    def test_header_exact(self):
        assert CSV_HEADER == (
            "problem,algorithm,variables,density,ar_mean,ar_best,depth,shots,seed,"
            "t_generate,t_preprocess,t_compile,t_execute,t_post,t_total"
        )

    def test_r3r_20_density_prints_16_percent(self):
        cfg = BenchmarkConfig(
            instances=({"family": "maxcut-r3r", "params": {"n": 20, "seed": 0}},),
            solvers=({"algorithm": "annealing", "params": {"sweeps": 10}},),
            master_seed=0,
        )
        text = emit_report(run_benchmark(cfg, clock=lambda: 0.0), "csv")
        assert text.splitlines()[1].split(",")[3] == "16%"

    def test_complete_graph_17_prints_100_percent(self):
        cfg = BenchmarkConfig(
            instances=({"family": "spin-glass", "params": {"topology": "complete", "n": 17, "seed": 0}},),
            solvers=({"algorithm": "annealing", "params": {"sweeps": 10}},),
            master_seed=0,
        )
        text = emit_report(run_benchmark(cfg, clock=lambda: 0.0), "csv")
        assert text.splitlines()[1].split(",")[3] == "100%"

    def test_emitted_ar_matches_recompute_from_stored_energies(self):
        records = run_benchmark(SMALL_CONFIG, clock=lambda: 0.0)
        for rec in records:
            c_min, c_max = rec.extras["c_min"], rec.extras["c_max"]
            recomputed = [
                approximation_ratio(e, c_min, c_max) for e in rec.extras["mean_energies"]
            ]
            assert rec.ar_mean == pytest.approx(sum(recomputed) / len(recomputed), abs=1e-12)
            emitted = float(emit_report([rec], "csv").splitlines()[1].split(",")[4])
            assert emitted == pytest.approx(rec.ar_mean, abs=1e-12)

    def test_ar_best_at_least_ar_mean(self):
        for rec in run_benchmark(SMALL_CONFIG, clock=lambda: 0.0):
            assert rec.ar_best >= rec.ar_mean - 1e-12

    def test_json_mirrors_fields_with_zero_hardware_times(self):
        records = run_benchmark(SMALL_CONFIG, clock=lambda: 0.0)
        payload = json.loads(emit_report(records, "json"))
        assert len(payload["records"]) == len(records)
        for rec, data in zip(records, payload["records"]):
            assert data["problem"] == rec.problem
            assert data["ar_mean"] == rec.ar_mean
            assert data["t_transpile"] == 0.0
            assert data["t_embed"] == 0.0
        assert "t_transpile" not in CSV_HEADER

    def test_labels_with_commas_quotes_and_newlines_read_back(self):
        # Labels keep whatever a parameter value holds: commas and brackets
        # from a list, quotes and line breaks (a carriage return too) from a
        # string.
        records = [
            make_record(problem='udmis[points=[[0, 1], [2, 3]];tag="a,b"]', algorithm="annealing"),
            make_record(algorithm="qaoa[note=two\nlines]"),
            make_record(algorithm="qaoa[note=a\rb]", problem="mis[tag=c\r\nd]"),
            make_record(),
        ]
        rows = list(csv.reader(io.StringIO(emit_report(records, "csv"))))
        assert rows[0] == CSV_HEADER.split(",")
        assert [row[:2] for row in rows[1:]] == [[r.problem, r.algorithm] for r in records]
        plain = emit_report([records[3]], "csv").splitlines()[1].split(",")
        assert rows[1][2:] == rows[2][2:] == rows[3][2:] == rows[4][2:] == plain[2:]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report([], "yaml")

    def test_write_failure_includes_path(self, tmp_path):
        bad = tmp_path / "missing-dir" / "out.csv"
        with pytest.raises(OSError, match="cannot write report"):
            emit_report([], "csv", bad)

    def test_writes_to_path(self, tmp_path):
        out = tmp_path / "report.csv"
        text = emit_report([make_record()], "csv", out)
        assert out.read_text(encoding="utf-8") == text


class TestEmitJunit:
    def test_cases_and_failures(self):
        good = make_record()
        bad = make_record(success=False, ar_best=0.2, ar_mean=0.1)
        errored = make_record(extras={"error": "ValueError: boom"})
        text = emit_junit([good, bad, errored])
        root = ElementTree.fromstring(text)
        assert root.get("tests") == "3"
        assert root.get("failures") == "2"
        cases = root.findall("testcase")
        assert len(cases) == 3
        assert cases[0].find("failure") is None
        assert cases[1].find("failure") is not None
        assert "boom" in cases[2].find("failure").get("message")

    def test_unjudged_record_fails_with_its_reason(self):
        reason = "cell p x a has 30 variables, above the statevector cap of 24, so its AR target cannot be judged"
        unjudged = make_record(variables=30, ar_mean=None, ar_best=None, extras={"unjudged": reason})
        root = ElementTree.fromstring(emit_junit([make_record(), unjudged]))
        assert root.get("failures") == "1"
        failure = root.findall("testcase")[1].find("failure")
        assert failure.get("message") == failure.text == reason

    def test_writes_to_path(self, tmp_path):
        out = tmp_path / "junit.xml"
        text = emit_junit([make_record()], out)
        assert out.read_text(encoding="utf-8") == text
        ElementTree.fromstring(text)


def test_traced_program_patches_and_restores_its_names():
    # perfbench/tracing.py rebinds these qopt names by getattr for a traced
    # run (`perfbench/run.py --trace 1`); renaming or dropping one would break
    # that run without failing any other test. Each is wrapped inside the
    # block and is the original object again after it.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    names = [(solvers_module, name) for name in (
        "qaoa_state", "energy_table", "expectation", "sample", "cvar",
        "brute_force", "simulated_annealing", "grover_adaptive_search", "qaoa_solve",
    )]
    names += [(bench_module, name) for name in ("energy_table", "brute_force")]
    names += [(cli_module, "run_benchmark")]
    names += [(model_module.DiagonalObjective, name) for name in ("energies_at", "value")]
    tables = [bench_module.SOLVERS, bench_module.GENERATORS]
    originals = [getattr(owner, name) for owner, name in names]
    entries = [dict(table) for table in tables]
    with tracing.traced_program(tracing.Tracer()):
        for (owner, name), original in zip(names, originals):
            assert getattr(owner, name) is not original and getattr(owner, name).__wrapped__ is original
        for table, before in zip(tables, entries):
            assert all(table[key].__wrapped__ is fn for key, fn in before.items())
    assert all(getattr(owner, name) is original for (owner, name), original in zip(names, originals))
    for table, before in zip(tables, entries):
        assert table.keys() == before.keys() and all(table[key] is fn for key, fn in before.items())
