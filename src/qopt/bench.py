"""Metrics, experiment orchestration, and report emission.

A benchmark run is a matrix of (instance entry) x (solver entry) cells, each
aggregating a number of seeded repetitions into one record. Records carry a
fixed runtime breakdown and range-normalized approximation ratios; reports
render them as CSV (fixed column schema), JSON, or a JUnit-style XML
summary. All randomness derives from the master seed, and the clock is
injectable so replayed runs can produce byte-identical reports.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import statistics
import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from qopt._rng import derive_seed
from qopt.model import ENERGY_TOL, DiagonalObjective, _as_real, as_count, check_real, density
from qopt.problems import FAMILIES, ProblemInstance
from qopt.simulator import energy_table, statevector_cap
from qopt.solvers import (
    SolveResult,
    brute_force,
    grover_adaptive_search,
    qaoa_solve,
    recursive_qaoa,
    simulated_annealing,
)

__all__ = [
    "approximation_ratio",
    "success_metrics",
    "BenchmarkRecord",
    "BenchmarkConfig",
    "GENERATORS",
    "SOLVERS",
    "run_benchmark",
    "emit_report",
    "emit_junit",
    "CSV_HEADER",
]

CSV_HEADER = (
    "problem,algorithm,variables,density,ar_mean,ar_best,depth,shots,seed,"
    "t_generate,t_preprocess,t_compile,t_execute,t_post,t_total"
)

GENERATORS: dict[str, Callable[..., ProblemInstance]] = {
    name: family.generate for name, family in FAMILIES.items()
}

SOLVERS: dict[str, Callable[..., SolveResult]] = {
    "brute-force": brute_force,
    "annealing": simulated_annealing,
    "grover": grover_adaptive_search,
    "qaoa": qaoa_solve,
    "rqaoa": recursive_qaoa,
}


def approximation_ratio(value: float, c_min: float, c_max: float) -> float:
    """(c_max - value) / (c_max - c_min), clamped into [0, 1].

    The problem must already be oriented as minimization; the optimum maps
    to 1 and the worst state to 0. On a flat range (``c_max == c_min``,
    every state optimal) a value at or below it scores 1 and one above it
    0; a range whose ``c_max`` lies below ``c_min`` is an error.
    """
    if not c_max >= c_min:
        raise ValueError(f"inverted range: c_max={c_max} must not lie below c_min={c_min}")
    if c_max == c_min:
        return 1.0 if value <= c_min else 0.0
    return min(max(float((c_max - value) / (c_max - c_min)), 0.0), 1.0)


def _ar_theta(target) -> float | None:
    # None for the "optimal" target, theta for ("ar", theta); nothing else passes.
    if target == "optimal":
        return None
    kind, theta = target if isinstance(target, (list, tuple)) and len(target) == 2 else (None, None)
    if kind != "ar":
        raise ValueError(f'target must be "optimal" or ["ar", theta], got {target!r}')
    check_real("target AR", theta)
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"target AR must lie in (0, 1], got {theta}")
    return float(theta)


def success_metrics(
    results: Sequence[SolveResult],
    target="optimal",
    time_limit: float = 60.0,
    c_min: float | None = None,
    c_max: float | None = None,
) -> dict:
    """Success rate and median time-to-target over repeated runs.

    ``target`` is either ``"optimal"`` (hit the certified optimum; needs a
    certificate on the result or an explicit ``c_min``) or ``("ar", theta)``
    with theta in (0, 1], judged on the best-sample AR and requiring both
    range edges. A repetition succeeds when it hits the target within
    ``time_limit`` seconds of solver wall time, ``timings["total"]``.
    ``time_to_target`` is the median wall time among successes, None when
    there are none.
    """
    if not results:
        raise ValueError("need at least one repetition")
    time_limit = _as_real("time_limit", time_limit, positive=True)
    theta = _ar_theta(target)
    if theta is not None and (c_min is None or c_max is None):
        raise ValueError("AR targets need both c_min and c_max")

    hits = []
    for res in results:
        if theta is None:
            if res.certificate:
                hit = True
            elif c_min is not None:
                hit = abs(res.best_energy - c_min) <= ENERGY_TOL
            else:
                hit = False
        else:
            hit = approximation_ratio(res.best_energy, c_min, c_max) >= theta
        if hit and res.timings["total"] <= time_limit:
            hits.append(res.timings["total"])
    return {
        "success_rate": len(hits) / len(results),
        "time_to_target": statistics.median(hits) if hits else None,
    }


@dataclass(frozen=True, kw_only=True)
class BenchmarkRecord:
    """One benchmark cell: an instance/solver pair aggregated over reps.

    ``density`` is the fraction of present couplings; ``ar_mean`` judges
    each repetition's mean sampled energy and ``ar_best`` its best sample,
    both None when the instance is too large to enumerate. ``success`` is
    None without a target, and also for a target on such an instance, which
    has no range to judge against, unless the target is ``"optimal"`` and
    every repetition carries a certificate (streamed brute force); that
    cell's one-line reason is ``extras["unjudged"]``. A cell whose generator
    or solver raised keeps the message as ``extras["error"]``, and its measured fields keep their
    defaults (0 variables, no metrics, zero stage timings). An instance
    entry is built once for all of its cells, by the first of them whose
    family and solver names resolve; only that cell carries the build's
    ``t_generate``, ``t_compile`` and, within ``t_post``, its reference
    enumeration, and its other cells read 0.0 there. The transpile
    and embed fields exist for schema compatibility with hardware report
    rows and are always zero here; they appear in JSON but not CSV.
    """

    problem: str
    algorithm: str
    variables: int = 0
    density: float | None = None
    ar_mean: float | None = None
    ar_best: float | None = None
    depth: int | None = None
    shots: int | None = None
    seed: int
    t_generate: float = 0.0
    t_preprocess: float = 0.0
    t_compile: float = 0.0
    t_execute: float = 0.0
    t_post: float = 0.0
    t_total: float
    t_transpile: float = 0.0
    t_embed: float = 0.0
    success: bool | None = None
    extras: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("ar_mean", "ar_best"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class BenchmarkConfig:
    """Declarative run matrix.

    ``instances`` and ``solvers`` are lists of mappings like
    ``{"family": "maxcut-r3r", "params": {"n": 16}}`` and
    ``{"algorithm": "qaoa", "params": {"p": 1}}``; any other key and
    params that are not a mapping are errors, as is a ``time_limit`` that
    is not a positive finite real. ``jobs`` must be 1, since cells run one at a
    time; the key is kept so that configs and command lines that set it to
    1 still run.
    Instance seeds default to values derived from the master seed when the
    generator takes one and the params leave it out; solver seeds are
    always derived per repetition.
    """

    instances: tuple[Mapping, ...] = ()
    solvers: tuple[Mapping, ...] = ()
    repetitions: int = 1
    time_limit: float = 60.0
    target: object = None
    master_seed: int = 0
    jobs: int = 1

    def __post_init__(self) -> None:
        for name, least in (("repetitions", 1), ("jobs", None), ("master_seed", None)):
            object.__setattr__(self, name, as_count(name, getattr(self, name), least))
        if self.target is not None:
            theta = _ar_theta(self.target)
            object.__setattr__(self, "target", "optimal" if theta is None else ("ar", theta))
        object.__setattr__(self, "time_limit", _as_real("time_limit", self.time_limit, positive=True))
        if self.jobs != 1:
            raise ValueError(f"jobs must be 1, got {self.jobs}: qopt bench runs its cells one at a time")
        for kind, name, keys in (
            ("instance", "instances", {"family", "params"}),
            ("solver", "solvers", {"algorithm", "params"}),
        ):
            entries = getattr(self, name)
            if not isinstance(entries, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {entries!r}")
            object.__setattr__(self, name, tuple(entries))
            for entry in entries:
                if not isinstance(entry, Mapping):
                    raise ValueError(f"{kind} entry must be an object, got {entry!r}")
                unknown = sorted(set(entry) - keys)
                if unknown:
                    raise ValueError(f"unknown {kind} key {unknown[0]!r}")
                if not isinstance(entry.get("params", {}), Mapping):
                    raise ValueError(f"{kind} params must be an object, got {entry['params']!r}")


def _cell_label(kind: str, params: Mapping) -> str:
    # Semicolons separate parameters; a value with its own commas (a list)
    # leaves the CSV writer to quote the cell.
    if not params:
        return kind
    inner = ";".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{kind}[{inner}]"


def _density_of(obj: DiagonalObjective) -> float | None:
    spin = obj.spin_model()
    return density(spin) if spin is not None and spin.n >= 2 else None


class _EntryBuild(NamedTuple):
    """An instance entry's shared build: the instance, the range its cells
    are judged against or the reason it has none, and the seconds each
    part took."""

    instance: ProblemInstance
    c_min: float | None  # exact range; None when ``no_range`` says why
    c_max: float | None
    no_range: str | None  # "has N variables, above the statevector cap of C"
    t_generate: float
    t_compile: float
    t_reference: float


def _build(generator: Callable[..., ProblemInstance], params: dict, seed: int, clock) -> _EntryBuild:
    """Generate an instance entry (``seed`` fills in a seed its params leave
    out), compile its energy table and enumerate its exact range, both only
    up to the statevector cap; above it, say why there is no range."""
    if "seed" in inspect.signature(generator).parameters:
        params.setdefault("seed", seed)
    t0 = clock()
    instance = generator(**params)
    t_generate = clock() - t0
    obj = instance.objective
    cap = statevector_cap()
    no_range = f"has {obj.n} variables, above the statevector cap of {cap}" if obj.n > cap else None

    t0 = clock()
    if no_range is None:
        energy_table(obj)
    t_compile = clock() - t0

    t0 = clock()
    c_min = c_max = None
    if no_range is None:
        reference = brute_force(obj)
        c_min, c_max = reference.c_min, reference.c_max
    t_reference = clock() - t0
    return _EntryBuild(instance, c_min, c_max, no_range, t_generate, t_compile, t_reference)


def _run_cell(
    config: BenchmarkConfig, entry: Mapping, built: _EntryBuild | Exception | None, solver_entry: Mapping, clock
) -> tuple[BenchmarkRecord, _EntryBuild | Exception | None]:
    """Run one cell. ``built`` is its instance entry's build: None until the
    first cell whose family and solver names resolve makes it, then that
    build, which decides what every cell of the entry is judged against, or
    the exception it raised, which every cell of the entry raises again and
    reports as ``<Type>: <message>``. Returns the record and ``built``."""
    family = entry.get("family", "?")
    params = dict(entry.get("params", {}))
    algorithm = solver_entry.get("algorithm", "?")
    solver_params = dict(solver_entry.get("params", {}))
    problem_label = _cell_label(family, params)
    algorithm_label = _cell_label(algorithm, solver_params)
    cell_seed = derive_seed(config.master_seed, problem_label, algorithm_label)

    cell_start = clock()
    try:
        generator = GENERATORS[family]
        solver = SOLVERS[algorithm]
        charged = built is None
        if charged:
            try:
                built = _build(generator, params, derive_seed(config.master_seed, problem_label) % (1 << 32), clock)
            except Exception as exc:  # noqa: BLE001 - every cell of the entry raises it again
                built = exc
        if isinstance(built, Exception):
            # Dropping the old traceback keeps it from growing by a frame per cell.
            raise built.with_traceback(None)
        obj = built.instance.objective
        c_min, c_max = built.c_min, built.c_max
        accepted = inspect.signature(solver).parameters

        # Each result's "total" becomes the seconds ``clock`` read around it,
        # so success_metrics judges the time limit on the run's own clock.
        results, ticks = [], [clock()]
        for rep in range(config.repetitions):
            run_params = dict(solver_params)
            if "seed" in accepted:
                run_params.setdefault("seed", derive_seed(config.master_seed, problem_label, algorithm_label, rep))
            result = solver(built.instance, **run_params)
            ticks.append(clock())
            results.append(replace(result, timings={**result.timings, "total": ticks[-1] - ticks[-2]}))
        t_execute = ticks[-1] - ticks[0]

        t0 = clock()
        ar_mean = ar_best = success = None
        mean_energies = [float(r.extras.get("mean_energy", r.best_energy)) for r in results]
        if built.no_range is None:
            mean_ars = [approximation_ratio(e, c_min, c_max) for e in mean_energies]
            best_ars = [approximation_ratio(r.best_energy, c_min, c_max) for r in results]
            ar_mean = sum(mean_ars) / len(mean_ars)
            ar_best = max(best_ars)
        extras = {
            "repetitions": config.repetitions,
            "best_energies": [r.best_energy for r in results],
            "mean_energies": mean_energies,
            "c_min": c_min,
            "c_max": c_max,
        }
        # A target is judged against the build's range, or an optimal one
        # against every repetition's own certificate; a cell with neither
        # keeps its results, leaves ``success`` unset and says why.
        optimal = config.target == "optimal"
        certified = optimal and all(r.certificate for r in results)
        if config.target is not None and (built.no_range is None or certified):
            metrics = success_metrics(results, config.target, config.time_limit, c_min, c_max)
            success = metrics["success_rate"] == 1.0
        elif config.target is not None:
            extras["unjudged"] = (
                f"cell {problem_label} x {algorithm_label} {built.no_range}, "
                f"so its {'optimal' if optimal else 'AR'} target cannot be judged"
            )
        t_post = clock() - t0

        # The solver ran, so a parameter it takes without a default was given.
        depth, shots = (
            solver_params.get(name, accepted[name].default) if name in accepted else None for name in ("p", "shots")
        )
        # The build's seconds go to the one cell that made it; the reference
        # enumeration belongs to post-processing.
        measured = dict(
            variables=obj.n,
            density=_density_of(obj),
            ar_mean=ar_mean,
            ar_best=ar_best,
            depth=depth,
            shots=shots,
            t_generate=built.t_generate if charged else 0.0,
            t_compile=built.t_compile if charged else 0.0,
            t_execute=t_execute,
            t_post=(t_post + built.t_reference) if charged else t_post,
        )
    except Exception as exc:  # noqa: BLE001 - cell failures must not abort the matrix
        measured, extras = {}, {"error": f"{type(exc).__name__}: {exc}"}
        success = False if config.target is not None else None
    record = BenchmarkRecord(
        problem=problem_label,
        algorithm=algorithm_label,
        seed=cell_seed,
        t_total=clock() - cell_start,
        success=success,
        extras=extras,
        **measured,
    )
    return record, built


def run_benchmark(config: BenchmarkConfig, clock: Callable[[], float] = time.perf_counter) -> list[BenchmarkRecord]:
    """Execute the full matrix; one record per (instance, solver) cell.

    Cells run one at a time, instance-major, so records come in config
    order. Each instance entry is generated, its energy table compiled and
    its exact range enumerated once, by the first of its cells whose family
    and solver names resolve, which is charged those seconds
    (``t_generate``, ``t_compile``, and the reference within ``t_post``);
    its other cells reuse that instance and report 0.0 for the shared work.
    The instance is dropped before the next entry is generated.

    Failures are captured inside their cell's record; a failed build fails
    every cell of its entry with the same message. Deterministic given the
    master seed, and byte-identical in reports under an injected constant
    clock, which also times each repetition against ``time_limit``.

    ``numpy.random``, which numpy loads on first use in several
    milliseconds, is loaded before the first cell's clock starts, so no
    cell is charged for it; ``import qopt`` still does not load it.
    """
    import numpy.random  # noqa: F401

    records = []
    for entry in config.instances:
        # Rebinding ``built`` drops the previous entry's build.
        built = None
        for solver in config.solvers:
            record, built = _run_cell(config, entry, built, solver, clock)
            records.append(record)
    return records


def _format_percent(value: float) -> str:
    # Two significant digits, positional (never scientific), no trailing dot.
    return np.format_float_positional(value * 100.0, precision=2, fractional=False, trim="-") + "%"


def _record_row(record: BenchmarkRecord) -> list[str]:
    row = []
    for column in CSV_HEADER.split(","):
        value = getattr(record, column)
        if value is None:
            row.append("n/a")
        elif column == "density":
            row.append(_format_percent(value))
        else:
            row.append(str(value))
    return row


def record_to_json(record: BenchmarkRecord) -> dict:
    data = {f.name: getattr(record, f.name) for f in fields(record)}
    data["extras"] = dict(record.extras)
    return data


def _write(text: str, path) -> str:
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write report to {path}: {exc}") from exc
    return text


def _junit(suite: str, cases: Sequence[tuple[Mapping, tuple[str, str | None] | None]]) -> str:
    """One ``testsuite`` document; each case is its ``testcase`` attributes
    and, when it failed, the failure's message and text (None for none)."""
    from xml.etree import ElementTree

    failures = sum(failure is not None for _, failure in cases)
    root = ElementTree.Element("testsuite", name=suite, tests=str(len(cases)), failures=str(failures))
    for attributes, failure in cases:
        case = ElementTree.SubElement(root, "testcase", attributes)
        if failure is not None:
            message, text = failure
            ElementTree.SubElement(case, "failure", message=message).text = text
    return ElementTree.tostring(root, encoding="unicode", xml_declaration=True) + "\n"


def emit_report(records: Sequence[BenchmarkRecord], format: str = "csv", path=None) -> str:
    """Render records as CSV or JSON; write to ``path`` when given.

    The CSV column set is fixed (see :data:`CSV_HEADER`); missing values
    print as ``n/a`` and densities as two-significant-digit percentages.
    Returns the rendered text either way.
    """
    if format == "csv":
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        # The writer quotes a line feed but not a carriage return, on which
        # csv.reader also ends a row; a row holding one is quoted whole.
        minimal = csv.writer(buf, lineterminator="\n")
        quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in map(_record_row, records):
            (quoted if any("\r" in cell for cell in row) else minimal).writerow(row)
        text = buf.getvalue()
    elif format == "json":
        text = json.dumps({"records": [record_to_json(r) for r in records]}, indent=2) + "\n"
    else:
        raise ValueError(f"unknown report format {format!r}")
    return _write(text, path)


def emit_junit(records: Sequence[BenchmarkRecord], path=None) -> str:
    """JUnit-style XML summary: one testcase per record.

    A record fails its testcase when its cell recorded an error, missed its
    target (``success`` False), or left its target unjudged
    (``extras["unjudged"]``, whose reason is the failure message). The
    record alone decides, so a report re-rendered from JSON fails the same
    cases as the run that wrote it.
    """
    cases = []
    for record in records:
        attributes = {"classname": record.problem, "name": record.algorithm, "time": str(record.t_total)}
        error = record.extras.get("error")
        unjudged = record.extras.get("unjudged")
        if record.success is False or error is not None:
            failure = (str(error or "target missed"), str(error or f"ar_best={record.ar_best}"))
        elif unjudged is not None:
            failure = (unjudged, unjudged)
        else:
            failure = None
        cases.append((attributes, failure))
    return _write(_junit("qopt-bench", cases), path)
