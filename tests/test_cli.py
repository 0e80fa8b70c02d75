"""Command-line interface tests.

Most cases drive run_cli() in process and check exit codes, stdout, and
written files; one subprocess case proves the ``python -m qopt`` entry
point works outside the test harness.
"""

import hashlib
import json
import os
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
        assert len(ok_lines) == 12
        assert "ok   energy tables equal their per-index replay" in ok_lines
        assert not any(line.startswith("FAIL") for line in out)
        assert out[-1] == "12/12 checks passed"
        suite = ElementTree.parse(junit_path).getroot()
        assert suite.get("tests") == "12"
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
