"""Benchmark harness tests.

The AR formula is recomputed by hand wherever a record or report claims a
value, and replay determinism is checked on rendered bytes, not just on
Python equality.
"""

import csv
import io
import json
import math
from xml.etree import ElementTree

import numpy as np
import pytest

from qopt.bench import (
    CSV_HEADER,
    SOLVERS,
    TIME_LIMIT_LADDER,
    ApproximationRatio,
    BenchmarkConfig,
    BenchmarkRecord,
    approximation_ratio,
    emit_junit,
    emit_report,
    run_benchmark,
    success_metrics,
)
from qopt.model import QuboModel
from qopt.problems import gen_maxcut_r3r, gen_spin_glass
from qopt.solvers import SolveResult, brute_force, simulated_annealing

import qopt.bench as bench_module


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
        assert approximation_ratio(-10.0, -10.0, 0.0) == ApproximationRatio(1.0, False)
        assert approximation_ratio(0.0, -10.0, 0.0) == ApproximationRatio(0.0, False)

    def test_two_sample_mean(self):
        # Energies {0, 2} with equal weight: mean 1 on range [0, 2].
        assert approximation_ratio(1.0, 0.0, 2.0).ratio == 0.5

    def test_clamping_flags(self):
        assert approximation_ratio(-12.0, -10.0, 0.0) == ApproximationRatio(1.0, True)
        assert approximation_ratio(3.0, -10.0, 0.0) == ApproximationRatio(0.0, True)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            approximation_ratio(1.0, 2.0, 2.0)

    def test_offset_and_positive_rescale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c_min, spread = rng.normal(), abs(rng.normal()) + 0.1
            c_max = c_min + spread
            v = rng.uniform(c_min, c_max)
            base = approximation_ratio(v, c_min, c_max).ratio
            off = rng.normal() * 10
            scale = rng.uniform(0.1, 50)
            assert approximation_ratio(v + off, c_min + off, c_max + off).ratio == pytest.approx(
                base, abs=1e-12
            )
            assert approximation_ratio(v * scale, c_min * scale, c_max * scale).ratio == pytest.approx(
                base, abs=1e-12
            )


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
        with pytest.raises(ValueError, match="time limit must be positive, got nan"):
            BenchmarkConfig(time_limit=float("nan"))
        with pytest.raises(ValueError):
            BenchmarkConfig(jobs=0)

    def test_unknown_entry_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown instance key 'name'"):
            BenchmarkConfig(instances=({"family": "labs", "name": "x"},))
        with pytest.raises(ValueError, match="unknown solver key 'param'"):
            BenchmarkConfig(solvers=({"algorithm": "grover", "param": {}},))
        with pytest.raises(ValueError, match="instance entry must be an object, got 'labs'"):
            BenchmarkConfig(instances=("labs",))

    def test_ladder_values(self):
        assert TIME_LIMIT_LADDER == (1.0, 10.0, 60.0, 600.0, 3600.0, 10000.0)
        assert BenchmarkConfig().time_limit in TIME_LIMIT_LADDER


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

    def test_parallel_matches_serial(self):
        serial = run_benchmark(SMALL_CONFIG, clock=lambda: 0.0)
        cfg = BenchmarkConfig(
            instances=SMALL_CONFIG.instances,
            solvers=SMALL_CONFIG.solvers,
            repetitions=SMALL_CONFIG.repetitions,
            master_seed=SMALL_CONFIG.master_seed,
            target=SMALL_CONFIG.target,
            jobs=3,
        )
        parallel = run_benchmark(cfg, clock=lambda: 0.0)
        assert emit_report(serial, "csv") == emit_report(parallel, "csv")

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
        cfg = BenchmarkConfig(
            instances=({"family": "maxcut-r3r", "params": {"n": 8, "seed": 1}},),
            solvers=({"algorithm": "annealing", "params": {"sweeps": 20}},),
            master_seed=0,
        )
        rec = run_benchmark(cfg)[0]
        parts = rec.t_generate + rec.t_preprocess + rec.t_compile + rec.t_execute + rec.t_post
        assert rec.t_total >= parts - 1e-3

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
                approximation_ratio(e, c_min, c_max).ratio for e in rec.extras["mean_energies"]
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
