"""Command-line interface tests.

Most cases drive run_cli() in process and check exit codes, stdout, and
written files; one subprocess case proves the ``python -m qopt`` entry
point works outside the test harness.
"""

import ast
import hashlib
import importlib
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

from qopt.bench import CSV_HEADER, GENERATORS
from qopt.cli import build_parser, run_cli
from qopt.model import QuboModel
from qopt.problems import FAMILIES, ProblemInstance, instance_from_json
from qopt.simulator import statevector_cap


def generate(tmp_path, *args, name="instance.json"):
    path = tmp_path / name
    code = run_cli(["generate", *args, "--output", str(path)])
    assert code == 0
    return path


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


SMALL_BENCH = {
    "instances": [
        {"family": "maxcut-r3r", "params": {"n": 8, "seed": 1}},
        {"family": "spin-glass", "params": {"topology": "complete", "n": 6, "seed": 0}},
    ],
    "solvers": [{"algorithm": "annealing", "params": {"sweeps": 30, "restarts": 2}}],
    "repetitions": 2,
    "master_seed": 11,
    "target": ["ar", 0.5],
}


class TestGenerate:
    def test_labs_instance_solves_to_known_optimum(self, tmp_path):
        # k=13 is the classic case: minimal sidelobe energy is exactly 6.
        inst_path = generate(tmp_path, "labs", "--k", "13")
        out_path = tmp_path / "result.json"
        code = run_cli(
            ["solve", str(inst_path), "--solver", "brute-force", "--output", str(out_path)]
        )
        assert code == 0
        result = json.loads(out_path.read_text(encoding="utf-8"))
        assert result["c_min"] == 6.0
        assert result["best_energy"] == 6.0
        assert result["certificate"] is True

    def test_envelope_round_trips_through_instance_from_json(self, tmp_path, capsys):
        code = run_cli(
            ["generate", "spin-glass", "--topology", "grid", "--n", "9", "--seed", "3"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["family"] == "spin-glass"
        inst = instance_from_json(data)
        assert inst.objective.n == 9
        assert inst.meta["params"]["topology"] == "grid"

    def test_output_flag_may_follow_family_options(self, tmp_path):
        path = tmp_path / "mis.json"
        code = run_cli(["generate", "mis", "--n", "7", "--edge-prob", "0.4", "-o", str(path)])
        assert code == 0
        assert json.loads(path.read_text(encoding="utf-8"))["family"] == "mis"

    def test_heavy_hex_topology_flag(self, capsys):
        code = run_cli(["generate", "spin-glass", "--topology", "heavy-hex", "--n", "12"])
        assert code == 0
        inst = instance_from_json(json.loads(capsys.readouterr().out))
        assert inst.objective.n == 12
        assert inst.meta["params"]["topology"] == "heavy-hex-like"

    def test_same_seed_same_payload(self, capsys):
        # Everything except the creation timestamp must replay exactly.
        argv = ["generate", "portfolio", "--assets", "6", "--budget", "2", "--seed", "5"]
        assert run_cli(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert run_cli(argv) == 0
        second = json.loads(capsys.readouterr().out)
        first["meta"].pop("created")
        second["meta"].pop("created")
        assert first == second

    def test_missing_required_option_is_usage_error(self, capsys):
        assert run_cli(["generate", "maxcut-r3r"]) == 2
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_envelope_bytes_pinned(self, tmp_path, family):
        # Digests of the envelope minus ``meta.created``, recorded before the
        # families moved into one registry; any drift in a generator, a
        # build or a flag mapping changes them.
        argv, digest = PINNED_ENVELOPES[family]
        path = generate(tmp_path, family, *argv.split())
        data = json.loads(path.read_text(encoding="utf-8"))
        del data["meta"]["created"]
        assert hashlib.sha256(json.dumps(data, indent=2).encode()).hexdigest() == digest

    def test_registry_names_every_entry_point(self, capsys):
        assert tuple(FAMILIES) == FAMILY_NAMES
        assert tuple(GENERATORS) == FAMILY_NAMES
        assert run_cli(["generate", "--help"]) == 0
        assert "{" + ",".join(FAMILY_NAMES) + "}" in capsys.readouterr().out
        objective = QuboModel(n=1).as_objective()
        for name in FAMILY_NAMES:
            assert ProblemInstance(name, {}, objective).family == name
        with pytest.raises(ValueError):
            ProblemInstance("sudoku", {}, objective)

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        lines = [
            line
            for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
            for line in block.splitlines()
            if line.startswith("python -m qopt ")
        ]
        assert len(lines) >= 10
        parser = build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line)[3:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")


FAMILY_NAMES = (
    "maxcut-r3r",
    "mis",
    "udmis",
    "market-share",
    "labs",
    "qap",
    "spin-glass",
    "ev-parking",
    "portfolio",
)

PINNED_ENVELOPES = {
    "maxcut-r3r": (
        "--n 8 --seed 1",
        "9137f87cafc6a0b800f7c7eea6c2cea71f8e0c45a78fe48228b1a7ed220ac1b0",
    ),
    "mis": (
        "--n 6 --edge-prob 0.5 --seed 2",
        "e84ce7c89073ddc7983deb408fd2b6cced0eea9d8274bedb7f998b0c24a535d4",
    ),
    "udmis": (
        "--n 5 --side 1.5 --seed 3",
        "4ffdb3e02ef22b56e60cd50b3fc96c13eac97eb916fbc2f37078ce0ba9b02471",
    ),
    "market-share": (
        "--m 2 --seed 4",
        "f5f180ca9a755aa195215b115c91b4a7a5e4fa9b2e3eab6b4fd7bc8f2c46470b",
    ),
    "labs": (
        "--k 9",
        "1daeb58c72c0678fd47ce1326b9edc898e33f2dd9fa15fa926f39c5d8afc353c",
    ),
    "qap": (
        "--n 2 --penalty 40 --seed 5",
        "af282d41c232576f05cd31b065bbdab941d3304502c008a00bd4fbf25a64aa56",
    ),
    "spin-glass": (
        "--topology heavy-hex --n 12 --dist gaussian --cubic-terms 2 --seed 6",
        "ec71a629f2351c444f5d31568249fa9e5b510ca706be45f061ad0ceb518155cb",
    ),
    "ev-parking": (
        "--sessions 3 --intervals 2 --spaces 1 --energy 9 --seed 8",
        "51479b70b001867057f92d56431e5436c8b31b2ec63dc151b53cb2ef25e71337",
    ),
    "portfolio": (
        "--assets 5 --budget 2 --lam 0.5 --seed 9",
        "45161b73d117f7ae3acf7cdd0b3db4ddb64d480a5b92865c57939b1f4c6b82c7",
    ),
}


class TestSolve:
    def test_annealing_result_fields(self, tmp_path):
        inst_path = generate(tmp_path, "spin-glass", "--n", "6", "--dist", "gaussian")
        out_path = tmp_path / "anneal.json"
        code = run_cli(
            [
                "solve",
                str(inst_path),
                "--solver",
                "annealing",
                "--sweeps",
                "60",
                "--restarts",
                "3",
                "--seed",
                "2",
                "-o",
                str(out_path),
            ]
        )
        assert code == 0
        result = json.loads(out_path.read_text(encoding="utf-8"))
        assert set(result["best_assignment"]) <= {"0", "1"}
        assert len(result["best_assignment"]) == 6
        assert result["certificate"] is False
        assert result["extras"]["restarts"] == 3
        assert len(result["trace"]) == 3

    def test_annealing_default_schedule_at_64_variables(self, tmp_path, capsys):
        inst_path = generate(tmp_path, "maxcut-r3r", "--n", "64", "--seed", "1")
        assert run_cli(["solve", str(inst_path), "--solver", "annealing", "--sweeps", "3"]) == 0
        assert len(json.loads(capsys.readouterr().out)["best_assignment"]) == 64

    def test_qaoa_flags_reach_the_solver(self, tmp_path):
        inst_path = generate(tmp_path, "maxcut-r3r", "--n", "8", "--seed", "1")
        out_path = tmp_path / "qaoa.json"
        code = run_cli(
            [
                "solve",
                str(inst_path),
                "--solver",
                "qaoa",
                "--p",
                "1",
                "--budget",
                "80",
                "--shots",
                "256",
                "--seed",
                "0",
                "-o",
                str(out_path),
            ]
        )
        assert code == 0
        result = json.loads(out_path.read_text(encoding="utf-8"))
        assert result["params"]["p"] == 1
        assert result["samples"]["shots"] == 256

    def test_flag_unsupported_by_solver_exits_one(self, tmp_path, capsys):
        inst_path = generate(tmp_path, "labs", "--k", "6")
        code = run_cli(["solve", str(inst_path), "--solver", "brute-force", "--p", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "--p" in err

    def test_missing_instance_file_exits_one(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = run_cli(["solve", str(missing), "--solver", "brute-force"])
        assert code == 1
        assert str(missing) in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        inst_path = generate(tmp_path, "labs", "--k", "6")
        code = run_cli(["solve", str(inst_path), "--solver", "brute-force", "--frobnicate"])
        assert code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        capsys.readouterr()

    def test_cap_flag_bounds_exact_simulation(self, tmp_path, capsys, monkeypatch):
        # setenv first so the override run_cli writes is rolled back afterwards
        monkeypatch.setenv("QOPT_STATEVECTOR_CAP", "24")
        inst_path = generate(tmp_path, "maxcut-r3r", "--n", "8", "--seed", "1")
        code = run_cli(["--cap", "4", "solve", str(inst_path), "--solver", "qaoa"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "cap" in err

    @pytest.mark.parametrize("before", [None, "20"])
    def test_cap_flag_scoped_to_one_invocation(self, before, capsys, monkeypatch):
        if before is None:
            monkeypatch.delenv("QOPT_STATEVECTOR_CAP", raising=False)
        else:
            monkeypatch.setenv("QOPT_STATEVECTOR_CAP", before)
        assert run_cli(["--cap", "10", "generate", "labs", "--k", "4"]) == 0
        capsys.readouterr()
        assert os.environ.get("QOPT_STATEVECTOR_CAP") == before
        assert statevector_cap() == (24 if before is None else 20)


class TestBench:
    def test_empty_matrix_prints_header_only(self, tmp_path, capsys):
        config = write_config(tmp_path, {"instances": [], "solvers": []})
        assert run_cli(["bench", str(config)]) == 0
        assert capsys.readouterr().out == CSV_HEADER + "\n"

    def test_small_matrix_writes_all_report_formats(self, tmp_path):
        config = write_config(tmp_path, SMALL_BENCH)
        csv_path = tmp_path / "report.csv"
        json_path = tmp_path / "report.json"
        junit_path = tmp_path / "report.xml"
        code = run_cli(
            [
                "bench",
                str(config),
                "--csv",
                str(csv_path),
                "--json",
                str(json_path),
                "--junit",
                str(junit_path),
            ]
        )
        assert code == 0
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3  # 2 instances x 1 solver
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert len(payload["records"]) == 2
        suite = ElementTree.parse(junit_path).getroot()
        assert suite.tag == "testsuite"
        assert suite.get("tests") == "2"

    def test_deterministic_clock_replays_identical_bytes(self, tmp_path):
        config = write_config(tmp_path, SMALL_BENCH)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code = run_cli(["bench", str(config), "--deterministic-clock", "--csv", str(path)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_flag_overrides_config_master_seed(self, tmp_path):
        base = dict(SMALL_BENCH)
        overridden = write_config(tmp_path, base, name="a.json")
        rewritten = write_config(tmp_path, {**base, "master_seed": 23}, name="b.json")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run_cli(
            ["bench", str(overridden), "--seed", "23", "--deterministic-clock", "--csv", str(out_a)]
        ) == 0
        assert run_cli(
            ["bench", str(rewritten), "--deterministic-clock", "--csv", str(out_b)]
        ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"repetition": 5}, "unknown config key 'repetition'"),
            ({"solvers": [{"algorithm": "annealing", "param": {"sweeps": 5}}]}, "unknown solver key 'param'"),
            ({"instances": [{"family": "labs", "params": {"k": 5}, "seed": 3}]}, "unknown instance key 'seed'"),
        ],
    )
    def test_unknown_config_key_exits_one(self, tmp_path, capsys, change, message):
        config = write_config(tmp_path, {**SMALL_BENCH, **change})
        assert run_cli(["bench", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_config_that_is_not_an_object_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, [SMALL_BENCH])
        assert run_cli(["bench", str(config)]) == 1
        assert capsys.readouterr().err == "error: a bench config must be a JSON object\n"

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"target": ["ar", 1.5]}, "target AR must lie in (0, 1], got 1.5"),
            ({"target": ["ar", 0]}, "target AR must lie in (0, 1], got 0"),
            ({"target": 5}, 'target must be "optimal" or ["ar", theta], got 5'),
            ({"target": "best"}, 'target must be "optimal" or ["ar", theta], got \'best\''),
            ({"target": ["ar"]}, 'target must be "optimal" or ["ar", theta], got [\'ar\']'),
            ({"target": ["ar", "0.5"]}, 'target must be "optimal" or ["ar", theta], got [\'ar\', \'0.5\']'),
            ({"repetitions": 2.7}, "repetitions must be an integer, got 2.7"),
            ({"jobs": "2"}, "jobs must be an integer, got '2'"),
            ({"master_seed": 1.0}, "master_seed must be an integer, got 1.0"),
            ({"time_limit": "nan"}, "time limit must be positive, got nan"),
        ],
    )
    def test_invalid_config_value_exits_one_before_any_cell(self, tmp_path, capsys, change, message):
        # Each of these once ran every cell into an error record, failed on a
        # bare IndexError, or silently truncated to an integer.
        config = write_config(tmp_path, {**SMALL_BENCH, **change})
        out = tmp_path / "report.csv"
        assert run_cli(["bench", str(config), "--csv", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_ar_target_above_cap_keeps_results_and_exits_one(self, tmp_path, capsys, monkeypatch):
        # Above the cap there is no range to judge an AR target against: the
        # cell keeps its size and energies, and the command names it and fails.
        monkeypatch.delenv("QOPT_STATEVECTOR_CAP", raising=False)
        config = write_config(tmp_path, {
            "instances": [{"family": "maxcut-r3r", "params": {"n": 26}}],
            "solvers": [{"algorithm": "annealing", "params": {"sweeps": 5}}],
            "target": ["ar", 0.9],
        })
        json_path = tmp_path / "report.json"
        assert run_cli(["bench", str(config), "--json", str(json_path)]) == 1
        captured = capsys.readouterr()
        row = captured.out.splitlines()[1].split(",")
        assert row[:3] == ["maxcut-r3r[n=26]", "annealing[sweeps=5]", "26"]
        assert row[4:6] == ["n/a", "n/a"]
        assert captured.err == (
            "error: cell maxcut-r3r[n=26] x annealing[sweeps=5] has 26 variables, "
            "above the statevector cap of 24, so its AR target cannot be judged\n"
        )
        (record,) = json.loads(json_path.read_text(encoding="utf-8"))["records"]
        assert record["variables"] == 26 and record["success"] is None
        assert "error" not in record["extras"]
        assert len(record["extras"]["best_energies"]) == 1
        assert len(record["extras"]["mean_energies"]) == 1

    def test_ar_target_above_cap_fails_its_junit_case(self, tmp_path, capsys, monkeypatch):
        # The cell that makes the command exit 1 fails its JUnit case too,
        # with the message of the stderr line.
        monkeypatch.delenv("QOPT_STATEVECTOR_CAP", raising=False)
        config = write_config(tmp_path, {
            "instances": [{"family": "maxcut-r3r", "params": {"n": 26}}],
            "solvers": [{"algorithm": "annealing", "params": {"sweeps": 5}}],
            "target": ["ar", 0.9],
        })
        junit_path = tmp_path / "report.xml"
        assert run_cli(["bench", str(config), "--junit", str(junit_path)]) == 1
        message = capsys.readouterr().err.removeprefix("error: ").removesuffix("\n")
        suite = ElementTree.parse(junit_path).getroot()
        assert suite.get("tests") == "1" and suite.get("failures") == "1"
        failure = suite.find("testcase/failure")
        assert failure.get("message") == message and failure.text == message
        assert message.startswith("cell maxcut-r3r[n=26] x annealing[sweeps=5] has 26 variables")

    def test_unjudged_verdict_travels_with_the_record(self, tmp_path, capsys, monkeypatch):
        # ``report`` has no target to go by, yet fails the same JUnit case as
        # ``bench``: the reason is stored on the record when the cell runs.
        monkeypatch.delenv("QOPT_STATEVECTOR_CAP", raising=False)
        config = write_config(tmp_path, {
            "instances": [{"family": "maxcut-r3r", "params": {"n": 26}}],
            "solvers": [{"algorithm": "annealing", "params": {"sweeps": 5}}],
            "target": ["ar", 0.9],
        })
        json_path, bench_xml, report_xml = (tmp_path / name for name in ("r.json", "bench.xml", "report.xml"))
        assert run_cli(["bench", str(config), "--json", str(json_path), "--junit", str(bench_xml)]) == 1
        stderr = capsys.readouterr().err
        (record,) = json.loads(json_path.read_text(encoding="utf-8"))["records"]
        assert stderr == f"error: {record['extras']['unjudged']}\n"
        assert run_cli(["report", str(json_path), "--junit", str(report_xml)]) == 0
        capsys.readouterr()
        assert report_xml.read_bytes() == bench_xml.read_bytes()
        assert ElementTree.parse(report_xml).getroot().get("failures") == "1"

    def test_errored_cells_are_named_and_exit_one(self, tmp_path, capsys):
        # Misspelled names once reached only the JSON extras, with exit 0.
        config = write_config(tmp_path, {
            "instances": [{"family": "labs", "params": {"k": 5, "sed": 1}}],
            "solvers": [{"algorithm": "anneal"}, {"algorithm": "annealing", "params": {"sweep": 5}}],
        })
        json_path = tmp_path / "report.json"
        assert run_cli(["bench", str(config), "--json", str(json_path)]) == 1
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 3  # the report is still written
        records = json.loads(json_path.read_text(encoding="utf-8"))["records"]
        assert captured.err.splitlines() == [
            f"error: cell labs[k=5;sed=1] x {r['algorithm']}: {r['extras']['error']}" for r in records
        ]
        assert [r["algorithm"] for r in records] == ["anneal", "annealing[sweep=5]"]
        assert records[0]["extras"]["error"] == "KeyError: 'anneal'"
        assert "unexpected keyword argument 'sed'" in records[1]["extras"]["error"]

    def test_bad_config_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, {"instances": [], "solvers": [], "repetitions": 0})
        assert run_cli(["bench", str(config)]) == 1
        assert "error:" in capsys.readouterr().err


class TestReport:
    def run_small_bench(self, tmp_path):
        config = write_config(tmp_path, SMALL_BENCH)
        csv_path = tmp_path / "report.csv"
        json_path = tmp_path / "report.json"
        code = run_cli(
            [
                "bench",
                str(config),
                "--deterministic-clock",
                "--csv",
                str(csv_path),
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        return csv_path, json_path

    def test_rerender_matches_original_csv(self, tmp_path, capsys):
        csv_path, json_path = self.run_small_bench(tmp_path)
        assert run_cli(["report", str(json_path)]) == 0
        assert capsys.readouterr().out == csv_path.read_text(encoding="utf-8")

    def test_rerender_json_is_stable(self, tmp_path, capsys):
        _, json_path = self.run_small_bench(tmp_path)
        assert run_cli(["report", str(json_path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(
            json_path.read_text(encoding="utf-8")
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda record: record.pop("success"), "record 1 lacks key 'success'"),
            (lambda record: record.pop("variables"), "record 1 lacks key 'variables'"),
            (lambda record: record.update(colour="red"), "record 1 has unknown key 'colour'"),
        ],
        ids=["no-success", "no-variables", "extra-key"],
    )
    def test_record_keys_are_checked(self, tmp_path, capsys, edit, message):
        # A left-out key once read back silently as its default, or failed
        # on a raw TypeError.
        _, json_path = self.run_small_bench(tmp_path)
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        edit(payload["records"][1])
        json_path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert run_cli(["report", str(json_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_junit_flag_writes_xml(self, tmp_path, capsys):
        _, json_path = self.run_small_bench(tmp_path)
        junit_path = tmp_path / "summary.xml"
        assert run_cli(["report", str(json_path), "--junit", str(junit_path), "-o", str(tmp_path / "again.csv")]) == 0
        capsys.readouterr()
        suite = ElementTree.parse(junit_path).getroot()
        assert suite.get("tests") == "2"


class TestVerify:
    def test_all_checks_pass(self, tmp_path, capsys):
        junit_path = tmp_path / "verify.xml"
        assert run_cli(["verify", "--junit", str(junit_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        ok_lines = [line for line in out if line.startswith("ok   ")]
        assert len(ok_lines) == 13
        assert "ok   energy tables equal their per-index replay" in ok_lines
        assert "ok   p=1 closed form equals the statevector (maxcut, Ising with fields, 1e-12)" in ok_lines
        assert not any(line.startswith("FAIL") for line in out)
        assert out[-1] == "13/13 checks passed"
        suite = ElementTree.parse(junit_path).getroot()
        assert suite.get("tests") == "13"
        assert suite.get("failures") == "0"


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qopt", "generate", "labs", "--k", "5"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["family"] == "labs"


# Imports qopt, trains QAOA in both modes, builds a Gibbs table and runs one
# bench cell, then prints every scipy module that got loaded.
NO_SCIPY_SCRIPT = """
import json, sys, tempfile
from pathlib import Path
import qopt.cli
from qopt.problems import gen_maxcut_r3r
from qopt.simulator import gibbs_distribution
from qopt.solvers import qaoa_solve
inst = gen_maxcut_r3r(6, seed=0)
assert qaoa_solve(inst, p=2, optimizer_budget=300).extras["evaluations"] > 64
assert qaoa_solve(inst, p=1, objective_mode="cvar", shots=128, optimizer_budget=80).extras["evaluations"] > 64
gibbs_distribution(inst.objective, 1.5)
with tempfile.TemporaryDirectory() as tmp:
    config = Path(tmp, "config.json")
    config.write_text(json.dumps({
        "instances": [{"family": "maxcut-r3r", "params": {"n": 8}}],
        "solvers": [{"algorithm": "qaoa", "params": {"p": 1, "optimizer_budget": 80}}],
    }))
    assert qopt.cli.run_cli(["bench", str(config), "--csv", str(Path(tmp, "report.csv"))]) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


class TestImports:
    def test_qopt_runs_without_loading_scipy(self):
        # scipy is a test dependency only: no qopt code path may import it.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", NO_SCIPY_SCRIPT], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_every_exported_name_resolves(self):
        # A name deleted from a module must not stay in its __all__.
        import qopt

        names = pkgutil.iter_modules(qopt.__path__)
        modules = [qopt, *(importlib.import_module(f"qopt.{m.name}") for m in names if m.name != "__main__")]
        assert {"qopt.model", "qopt.simulator", "qopt.solvers"} <= {mod.__name__ for mod in modules}
        missing = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__ if not hasattr(mod, name)]
        assert missing == []

    def test_every_private_name_is_used(self):
        # A module-level private function, class or constant that no other
        # top-level statement of the package reads (as a name or an
        # attribute; an import alone does not count) is dead code. Names are
        # matched by spelling, across modules.
        paths = sorted((Path(__file__).resolve().parents[1] / "src" / "qopt").glob("*.py"))
        statements = [(path.stem, stmt) for path in paths for stmt in ast.parse(path.read_text()).body]
        reads = [
            {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            for _, stmt in statements
        ]
        unused = []
        for k, (module, stmt) in enumerate(statements):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
            else:
                names = []
            for name in names:
                private = name.startswith("_") and not name.startswith("__")
                if private and not any(name in read for j, read in enumerate(reads) if j != k):
                    unused.append(f"qopt.{module}.{name}")
        assert unused == []


# A matrix whose report exercises every column kind: a QAOA cell (depth and
# shots set), cells that miss or hit an AR target, and a cell whose solver
# raises, so that its record carries an error.
PINNED_BENCH = {
    "instances": [
        {"family": "maxcut-r3r", "params": {"n": 8, "seed": 1}},
        {"family": "spin-glass", "params": {"topology": "complete", "n": 6}},
    ],
    "solvers": [
        {"algorithm": "annealing", "params": {"sweeps": 20}},
        {"algorithm": "grover", "params": {"max_rounds": 1}},
        {"algorithm": "qaoa", "params": {"p": 1, "optimizer_budget": 12}},
        {"algorithm": "brute-force", "params": {"cutoff": 3}},
    ],
    "repetitions": 2,
    "master_seed": 5,
    "target": ["ar", 0.95],
}

# sha256 of every harness output, recorded before the report columns, the
# JUnit layout and the solve flags each came to be described once.
PINNED_HARNESS = {
    "report csv": "c8fcaf7edf8bfeb6863e7666453048a2e931bfc7814ee035c2b5a9de352ca9c3",
    "report json": "9e407df7df38b450d1164454bd706e9f70f49a5903abd006a9ec74885e09bd2c",
    "verify": "15866913abf785786171e04b1c5120dbf47cf5d497795c3310b23bec99d3d50f",
    "--help": "c3f778091c1baf251b39949b82ad1ca4a17d8f1c8fb8be8c3f176b60bd27046e",
    "solve --help": "92e0f7b22f4845e249fadd0bdb026f90703f284c26e64cc169b18db2f394c7b4",
    "bench --help": "183a8bbf3ac26f8f75325df6523edd8a88d4ef1c90d2498c117413c99fd687ff",
    "unsupported flag": "c8b0df5334b07c0a10e200ffa5b77b2753ed5e5f89d2789e32acceec1f006ff9",
    "verify fail": "20f33b892866ae43e451f975806bbf9185c1bb36ba550382f28faae98165be85",
    "bench.csv": "c8fcaf7edf8bfeb6863e7666453048a2e931bfc7814ee035c2b5a9de352ca9c3",
    "bench.json": "9e407df7df38b450d1164454bd706e9f70f49a5903abd006a9ec74885e09bd2c",
    "bench.xml": "1d57d6a3f52053f051fa8d4016012ab051e0f98ccd2daf42f7e0924fcdc638aa",
    "report.xml": "1d57d6a3f52053f051fa8d4016012ab051e0f98ccd2daf42f7e0924fcdc638aa",
    "verify.xml": "bbe864cf5f621840504e2afc256773b9025ec0c60ebbde47d903c5dd6c2556d6",
    "verify-fail.xml": "faf06f2d576f5ceaf8726e12e143899a6f8f21c0a8d7525dce904ed550e9e4a1",
}


def harness_outputs(tmp_path, capsys, monkeypatch) -> dict[str, str]:
    """Each output by name: what a command printed, or a file it wrote."""
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps --help to this width
    out = {}

    def path(name):
        return str(tmp_path / name)

    def run(name, argv, code=0, stream="out"):
        capsys.readouterr()
        assert run_cli(argv) == code
        if name is not None:
            out[name] = getattr(capsys.readouterr(), stream)

    config = str(write_config(tmp_path, PINNED_BENCH))
    # The raising brute-force cells fail the command; its reports are still written.
    run(None, ["bench", config, "--deterministic-clock", "--csv", path("bench.csv"),
               "--json", path("bench.json"), "--junit", path("bench.xml")], 1)
    run("report csv", ["report", path("bench.json"), "--junit", path("report.xml")])
    run("report json", ["report", path("bench.json"), "--format", "json"])
    run("verify", ["verify", "--junit", path("verify.xml")])
    for argv in (["--help"], ["solve", "--help"], ["bench", "--help"]):
        run(" ".join(argv), argv)
    inst = str(generate(tmp_path, "labs", "--k", "5"))
    run("unsupported flag", ["solve", inst, "--solver", "brute-force", "--budget", "5"], 1, "err")
    # A failing check, to pin how verify renders a failure.
    failing = [("passes", True, ""), ("fails", False, "AssertionError: drift at (0, 1)")]
    monkeypatch.setattr("qopt.cli.run_verify_checks", lambda seed=0: failing)
    run("verify fail", ["verify", "--junit", path("verify-fail.xml")], 1)
    for name in ("bench.csv", "bench.json", "bench.xml", "report.xml", "verify.xml", "verify-fail.xml"):
        out[name] = (tmp_path / name).read_text(encoding="utf-8")
    return out


class TestHarnessBytes:
    def test_outputs_pinned(self, tmp_path, capsys, monkeypatch):
        outputs = harness_outputs(tmp_path, capsys, monkeypatch)
        digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in outputs.items()}
        assert digests == PINNED_HARNESS
