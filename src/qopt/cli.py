"""Command-line entry point: generate, solve, bench, report, verify.

Every invocation either parses into a valid command or exits with a usage
error (status 2). Runtime failures print a diagnostic and exit 1; success
exits 0. All randomness flows from ``--seed`` (default 0), and
``--cap``/``QOPT_STATEVECTOR_CAP`` bound the exact-simulation size.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from qopt.bench import (
    SOLVERS,
    BenchmarkConfig,
    BenchmarkRecord,
    _junit,
    emit_junit,
    emit_report,
    run_benchmark,
    unjudged_reason,
)
from qopt.problems import FAMILIES, Flag, instance_from_json, instance_to_json
from qopt.solvers import solve_result_to_json

__all__ = ["build_parser", "run_cli", "main", "run_verify_checks"]

# ``qopt solve`` options; each is passed on only to a solver that takes it.
_SOLVE_FLAGS = (
    Flag("--p", "p", int, None, "ansatz layers (qaoa, rqaoa)"),
    Flag("--shots", "shots", int, None),
    Flag("--mode", "objective_mode", str, None, "training objective", {"mean": "mean", "cvar": "cvar"}),
    Flag("--alpha", "alpha", float, None, "CVaR tail fraction"),
    Flag("--budget", "optimizer_budget", int, None, "optimizer evaluation budget"),
    Flag("--sweeps", "sweeps", int, None, "annealing sweeps"),
    Flag("--restarts", "restarts", int, None, "annealing restarts"),
    Flag("--max-rounds", "max_rounds", int, None, "Grover round budget"),
    Flag("--cutoff", "cutoff", int, None, "rqaoa enumeration cutoff"),
)


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")


def _add_flag(parser: argparse.ArgumentParser, flag: Flag) -> None:
    spec = {"dest": flag.kwarg, "type": flag.type, "help": flag.help}
    if flag.choices:
        spec["choices"] = flag.choices
    else:
        # What argparse would print had ``dest`` been left to the option name.
        spec["metavar"] = flag.name.lstrip("-").replace("-", "_").upper()
    if flag.default is ...:
        spec["required"] = True
    else:
        spec["default"] = flag.default
    parser.add_argument(flag.name, **spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qopt",
        description="Benchmarking harness for quantum optimization heuristics.",
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=None,
        help="override the statevector qubit cap (QOPT_STATEVECTOR_CAP)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared by every generate leaf so the flag can follow the family name.
    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument("--output", "-o", default=None, help="write to file instead of stdout")

    gen = sub.add_parser("generate", help="generate a benchmark instance as JSON")
    fam = gen.add_subparsers(dest="family", required=True)

    for name, family in FAMILIES.items():
        p = fam.add_parser(name, parents=[out_parent], help=family.help)
        for flag in family.flags:
            _add_flag(p, flag)

    slv = sub.add_parser("solve", help="run one solver on an instance file")
    slv.add_argument("instance", help="instance JSON produced by generate")
    slv.add_argument("--solver", choices=sorted(SOLVERS), required=True)
    slv.add_argument("--output", "-o", default=None)
    _add_seed(slv)
    for flag in _SOLVE_FLAGS:
        _add_flag(slv, flag)

    ben = sub.add_parser("bench", help="run a benchmark matrix from a config file")
    ben.add_argument("config", help="declarative JSON config")
    ben.add_argument("--csv", default=None, help="CSV report path")
    ben.add_argument("--json", dest="json_out", default=None, help="JSON report path")
    ben.add_argument("--junit", default=None, help="JUnit XML summary path")
    ben.add_argument("--jobs", type=int, default=None, help="parallel worker count")
    ben.add_argument(
        "--deterministic-clock",
        action="store_true",
        help="zero all timing columns so replayed reports are byte-identical",
    )
    ben.add_argument("--seed", type=int, default=None, help="override the config master seed")

    rep = sub.add_parser("report", help="re-render records from a JSON report")
    rep.add_argument("records", help="JSON report produced by bench --json")
    rep.add_argument("--format", choices=("csv", "json"), default="csv")
    rep.add_argument("--output", "-o", default=None)
    rep.add_argument("--junit", default=None, help="also emit a JUnit XML summary")

    ver = sub.add_parser("verify", help="run the invariant checks")
    ver.add_argument("--junit", default=None, help="JUnit XML summary path")
    _add_seed(ver)

    return parser


def _write_or_print(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_generate(args: argparse.Namespace) -> int:
    family = FAMILIES[args.family]
    kwargs = {}
    for flag in family.flags:
        value = getattr(args, flag.kwarg)
        kwargs[flag.kwarg] = flag.choices[value] if flag.choices else value
    inst = family.generate(**kwargs)
    _write_or_print(json.dumps(instance_to_json(inst), indent=2), args.output)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    with open(args.instance, encoding="utf-8") as fh:
        inst = instance_from_json(json.load(fh))
    solver = SOLVERS[args.solver]
    accepted = inspect.signature(solver).parameters
    kwargs = {}
    for flag in _SOLVE_FLAGS:
        value = getattr(args, flag.kwarg)
        if value is None:
            continue
        if flag.kwarg not in accepted:
            raise ValueError(f"solver {args.solver!r} does not take {flag.name}")
        kwargs[flag.kwarg] = flag.choices[value] if flag.choices else value
    if "seed" in accepted:
        kwargs["seed"] = args.seed
    result = solver(inst, **kwargs)
    _write_or_print(json.dumps(solve_result_to_json(result), indent=2), args.output)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    with open(args.config, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("a bench config must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(BenchmarkConfig)})
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}")
    flags = {"master_seed": args.seed, "jobs": args.jobs, "csv_path": args.csv, "json_path": args.json_out}
    config = BenchmarkConfig(**{**raw, **{k: v for k, v in flags.items() if v is not None}})
    if args.deterministic_clock:
        records = run_benchmark(config, clock=lambda: 0.0)
    else:
        records = run_benchmark(config)
    csv_text = emit_report(records, "csv", config.csv_path)
    if config.json_path:
        emit_report(records, "json", config.json_path)
    if args.junit:
        emit_junit(records, args.junit, target=config.target)
    if config.csv_path is None:
        sys.stdout.write(csv_text)
    # A cell fails the command when it errored, or when a target is set and
    # left unjudged: only a cell above the cap under an AR target is.
    failures = []
    for record in records:
        if "error" in record.extras:
            failures.append(f"cell {record.problem} x {record.algorithm}: {record.extras['error']}")
        elif config.target is not None and record.success is None:
            failures.append(unjudged_reason(record))
    for message in failures:
        print(f"error: {message}", file=sys.stderr)
    return 1 if failures else 0


def _records_from_json(payload: dict) -> list:
    return [BenchmarkRecord(**data) for data in payload["records"]]


def _cmd_report(args: argparse.Namespace) -> int:
    with open(args.records, encoding="utf-8") as fh:
        records = _records_from_json(json.load(fh))
    text = emit_report(records, args.format, args.output)
    if args.junit:
        emit_junit(records, args.junit)
    if args.output is None:
        sys.stdout.write(text)
    return 0


def run_verify_checks(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Fast self-contained invariant checks; returns (name, ok, detail) rows.

    These re-derive expected values on the spot (closed forms, second
    formulas, replay comparisons) rather than trusting cached constants.
    """
    from qopt.model import (
        QuboModel,
        index_to_bits,
        ising_to_qubo,
        penalty_encode,
        qubo_to_ising,
    )
    from qopt.preprocess import decompose_components, fix_variables
    from qopt.problems import gen_labs, gen_maxcut_r3r, gen_spin_glass, labs_energy
    from qopt.simulator import (
        QaoaParams,
        anneal_trotter,
        cvar,
        energy_table,
        expectation,
        gibbs_distribution,
        ground_state_overlap,
        qaoa_p1_energy,
        qaoa_state,
        sample,
    )
    from qopt.solvers import brute_force, grover_adaptive_search
    from qopt.bench import approximation_ratio

    checks: list[tuple[str, bool, str]] = []

    def check(name: str, fn) -> None:
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    def random_qubo(n, rng):
        terms = {}
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.6:
                    terms[(i, j)] = float(rng.normal())
        return QuboModel(n=n, terms=terms)

    def conversions():
        rng = np.random.default_rng(seed)
        for _ in range(20):
            q = random_qubo(7, rng)
            back = ising_to_qubo(qubo_to_ising(q))
            for idx in range(1 << q.n):
                bits = tuple((idx >> i) & 1 for i in range(q.n))
                if abs(q.energy(bits) - back.energy(bits)) > 1e-9:
                    raise AssertionError(f"round trip drift at {bits}")

    check("qubo-ising round trip (20 models, 1e-9)", conversions)

    def replay_equals_table():
        from qopt.model import IsingModel

        rng = np.random.default_rng(seed + 7)
        n = 10
        pairs = {(i, j): float(rng.normal()) for i in range(n) for j in range(i + 1, n)}
        cubic = [
            (*sorted(int(v) for v in rng.choice(n, size=3, replace=False)), float(rng.normal()))
            for _ in range(5)
        ]
        fields = tuple(float(v) for v in rng.normal(size=n))
        objectives = (
            random_qubo(n, rng).as_objective(),
            IsingModel(n=n, h=fields, J=pairs, offset=0.5).as_objective(),
            IsingModel(n=n, J=pairs).as_objective(cubic),
        )
        for obj in objectives:
            table = energy_table(obj)
            idx = rng.integers(0, 1 << n, size=200)
            if not np.array_equal(obj.energies_at(idx), table[idx]):
                raise AssertionError(f"{obj.kind} replay differs from its table")
            if any(obj.value(index_to_bits(int(i), n)) != table[i] for i in idx):
                raise AssertionError(f"{obj.kind} value() differs from its table")

    check("energy tables equal their per-index replay", replay_equals_table)

    def penalty():
        from qopt.model import ConstrainedModel, LinearConstraint

        rng = np.random.default_rng(seed + 1)
        for _ in range(10):
            q = random_qubo(4, rng)
            cm = ConstrainedModel(
                objective=q,
                equalities=(LinearConstraint(coeffs=(1.0, 1.0, 0.0, 0.0), bound=1.0),),
                inequalities=(LinearConstraint(coeffs=(0.0, 0.0, 1.0, 1.0), bound=1.0),),
            )
            compiled = penalty_encode(cm)
            best = brute_force(compiled.as_objective()).c_min
            feasible = [
                q.energy(b)
                for b in (
                    (a, 1 - a, c, d)
                    for a in (0, 1)
                    for c in (0, 1)
                    for d in (0, 1)
                    if c + d <= 1
                )
            ]
            if abs(best - min(feasible)) > 1e-9:
                raise AssertionError("penalty optimum drifted from constrained optimum")

    check("penalty compilation vs constrained enumeration", penalty)

    def single_spin():
        from qopt.model import IsingModel

        obj = IsingModel(n=1, h=(1.0,)).as_objective()
        for g in np.linspace(0, math.pi, 5):
            for b in np.linspace(0, math.pi / 2, 5):
                got = expectation(qaoa_state(obj, QaoaParams(p=1, gammas=(g,), betas=(b,))), obj)
                closed = qaoa_p1_energy(obj, np.array([g]), np.array([b]))[0]
                want = -math.sin(2 * g) * math.sin(2 * b)
                if abs(got - want) > 1e-9 or abs(closed - want) > 1e-9:
                    raise AssertionError(f"landscape mismatch at {(g, b)}")
        at_quarter = expectation(
            qaoa_state(obj, QaoaParams(p=1, gammas=(math.pi / 4,), betas=(math.pi / 4,))), obj
        )
        if abs(at_quarter + 1.0) > 1e-9:
            raise AssertionError(f"expected -1 at (pi/4, pi/4), got {at_quarter}")

    check("single-qubit ansatz matches closed form", single_spin)

    def p1_closed_form():
        from qopt.model import IsingModel

        rng = np.random.default_rng(seed + 8)
        n = 10
        with_fields = IsingModel(
            n=n,
            h=tuple(float(v) for v in rng.normal(size=n)),
            J={(i, j): float(rng.normal()) for i in range(n) for j in range(i + 1, n)},
            offset=0.5,
        )
        for obj in (gen_maxcut_r3r(12, seed=seed).objective, with_fields.as_objective()):
            scale = max(1.0, float(np.abs(energy_table(obj)).max()))
            gammas, betas = rng.uniform(-math.pi, math.pi, (2, 5))
            closed = qaoa_p1_energy(obj, gammas, betas)
            for g, b, want in zip(gammas, betas, closed):
                got = expectation(qaoa_state(obj, QaoaParams(p=1, gammas=(g,), betas=(b,))), obj)
                if abs(got - want) > 1e-12 * scale:
                    raise AssertionError(f"{obj.kind} closed form {want!r} vs statevector {got!r} at {(g, b)}")

    check("p=1 closed form equals the statevector (maxcut, Ising with fields, 1e-12)", p1_closed_form)

    def gibbs():
        rng = np.random.default_rng(seed + 2)
        q = random_qubo(6, rng)
        obj = q.as_objective()
        table = np.array([obj.value(tuple((i >> k) & 1 for k in range(6))) for i in range(64)])
        for beta in (0.0, 2.0):
            dist = gibbs_distribution(obj, beta)
            weights = np.exp(-beta * (table - table.min()))
            direct = weights / weights.sum()
            if np.max(np.abs(dist.probabilities - direct)) > 1e-12:
                raise AssertionError(f"Gibbs drift at beta={beta}")

    check("Gibbs reweighting exact (beta 0 and 2, 1e-12)", gibbs)

    def cvar_contract():
        from qopt.simulator import Statevector

        rng = np.random.default_rng(seed + 3)
        q = random_qubo(5, rng)
        obj = q.as_objective()
        sv = Statevector.plus(5)
        shots = 300
        samples = sample(sv, shots=shots, seed=seed, obj=obj)
        mean = float(np.mean(samples.energy_values()))
        if abs(cvar(samples, 1.0) - mean) > 1e-12:
            raise AssertionError("cvar(1) differs from sample mean")
        last = np.inf
        for alpha in (1.0, 0.7, 0.4, 0.1, 1.0 / shots):
            value = cvar(samples, alpha)
            if value > last + 1e-12:
                raise AssertionError("cvar not monotone under shrinking alpha")
            last = value
        if cvar(samples, 1e-9) != samples.best()[1]:
            raise AssertionError("single-sample limit is not the best energy")

    check("CVaR mean/monotone/best-sample contract", cvar_contract)

    def grover():
        rng = np.random.default_rng(seed + 4)
        for trial in range(5):
            obj = random_qubo(6, rng).as_objective()
            ref = brute_force(obj)
            res = grover_adaptive_search(obj, seed=seed + trial)
            tr = res.trace
            if not all(tr[k + 1] < tr[k] for k in range(len(tr) - 1)):
                raise AssertionError("thresholds not strictly decreasing")
            if res.extras["marked_set_empty"] and res.best_energy != ref.c_min:
                raise AssertionError("certified-empty search missed the optimum")

    check("Grover threshold descent", grover)

    def anneal():
        inst = gen_spin_glass("complete", 6, dist="pm1", seed=seed)
        sv = anneal_trotter(inst.objective, T=50.0, steps=500)
        overlap = ground_state_overlap(sv, inst.objective)
        if overlap < 0.9:
            raise AssertionError(f"slow-anneal overlap {overlap:.4f} < 0.9")

    check("Trotterized anneal reaches the ground state", anneal)

    def labs():
        inst = gen_labs(10)
        res = brute_force(inst)
        best = math.inf
        for idx in range(1 << 10):
            s = [1 - 2 * ((idx >> i) & 1) for i in range(10)]
            corr = np.correlate(s, s, mode="full")[10:]
            best = min(best, float(np.sum(corr.astype(float) ** 2)))
        if res.c_min != best:
            raise AssertionError(f"sidelobe enumerators disagree: {res.c_min} vs {best}")
        if labs_energy([1] * 10) != float(sum(k * k for k in range(1, 10))):
            raise AssertionError("constant sequence energy wrong")

    check("LABS enumerator agreement (k=10)", labs)

    def preprocess():
        rng = np.random.default_rng(seed + 5)
        q = random_qubo(5, rng)
        shifted = QuboModel(
            n=10, terms={(i + 5, j + 5): c for (i, j), c in q.terms.items()}, offset=q.offset
        )
        joined = QuboModel(
            n=10, terms={**{k: v for k, v in random_qubo(5, rng).terms.items()}, **shifted.terms}
        )
        dec = decompose_components(joined)
        merged_best = 0.0
        assignment: dict[int, int] = {}
        for comp, index_map in dec.components:
            res = brute_force(comp.as_objective())
            merged_best += res.c_min
            assignment.update(dict(zip(index_map, res.best_assignment)))
        bits = tuple(assignment[i] for i in range(10))
        if abs(joined.energy(bits) - merged_best) > 1e-9:
            raise AssertionError("component optima do not concatenate")
        fixed = fix_variables(joined, {0: 1, 3: 0})
        for idx in range(1 << 8):
            free = [(idx >> k) & 1 for k in range(8)]
            full = [1, free[0], free[1], 0, *free[2:]]
            sub = free
            if abs(joined.energy(full) - fixed.energy(sub)) > 1e-9:
                raise AssertionError("fix_variables energy inconsistency")

    check("decomposition and variable fixing soundness", preprocess)

    def metrics():
        rng = np.random.default_rng(seed + 6)
        for _ in range(50):
            c_min = rng.normal()
            c_max = c_min + abs(rng.normal()) + 0.1
            v = rng.uniform(c_min, c_max)
            base = approximation_ratio(v, c_min, c_max).ratio
            off, scale = rng.normal(), rng.uniform(0.5, 3.0)
            if abs(approximation_ratio(v + off, c_min + off, c_max + off).ratio - base) > 1e-12:
                raise AssertionError("AR not offset invariant")
            if abs(approximation_ratio(v * scale, c_min * scale, c_max * scale).ratio - base) > 1e-12:
                raise AssertionError("AR not scale invariant")

    check("approximation ratio invariances", metrics)

    def replay():
        config = BenchmarkConfig(
            instances=({"family": "maxcut-r3r", "params": {"n": 8, "seed": 1}},),
            solvers=({"algorithm": "annealing", "params": {"sweeps": 30}},),
            repetitions=2,
            master_seed=seed,
        )
        first = emit_report(run_benchmark(config, clock=lambda: 0.0), "csv")
        second = emit_report(run_benchmark(config, clock=lambda: 0.0), "csv")
        if first != second:
            raise AssertionError("replayed report differs")

    check("benchmark replay is byte-identical", replay)

    return checks


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = run_verify_checks(seed=args.seed)
    failures = 0
    for name, ok, detail in checks:
        if ok:
            print(f"ok   {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    if args.junit:
        cases = [({"name": name}, None if ok else (detail, None)) for name, ok, detail in checks]
        _write_or_print(_junit("qopt-verify", cases), args.junit)
    return 0 if failures == 0 else 1


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; 2 for bad invocations, 0 for --help.
        return int(exc.code or 0)
    handlers = {
        "generate": _cmd_generate,
        "solve": _cmd_solve,
        "bench": _cmd_bench,
        "report": _cmd_report,
        "verify": _cmd_verify,
    }
    # The cap override holds for this invocation only; the previous value
    # (or its absence) comes back afterwards.
    previous_cap = os.environ.get("QOPT_STATEVECTOR_CAP")
    if args.cap is not None:
        os.environ["QOPT_STATEVECTOR_CAP"] = str(args.cap)
    try:
        return handlers[args.command](args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary turns failures into exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if previous_cap is None:
            os.environ.pop("QOPT_STATEVECTOR_CAP", None)
        else:
            os.environ["QOPT_STATEVECTOR_CAP"] = previous_cap


def main() -> None:
    sys.exit(run_cli())
