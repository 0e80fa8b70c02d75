"""Solvers: exact enumeration, classical heuristics, simulated-quantum loops.

Every solver takes a :class:`~qopt.model.DiagonalObjective` (or a
:class:`~qopt.problems.ProblemInstance`) and returns a :class:`SolveResult`
whose best energy always equals re-evaluating its best assignment. All
solvers are replay-deterministic: the same configuration and seed reproduce
the same result. ``certificate`` is set only by exhaustive enumeration.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping, Sequence

import numpy as np

from qopt._minimize import lbfgs, nelder_mead
from qopt._rng import derive_seed
from qopt.model import DiagonalObjective, IsingModel, index_to_bits
from qopt.problems import ProblemInstance
from qopt.simulator import (
    CapacityError,
    QaoaParams,
    SampleSet,
    Statevector,
    WarmStart,
    _check_cap,
    cvar,
    energy_table,
    expectation,
    qaoa_p1_energy,
    qaoa_state,
    qaoa_value_and_gradient,
    sample,
    statevector_cap,
)

__all__ = [
    "SolveResult",
    "solve_result_to_json",
    "brute_force",
    "simulated_annealing",
    "grover_adaptive_search",
    "qaoa_solve",
    "recursive_qaoa",
    "transfer_parameters",
]

# Streaming enumeration tolerates a few qubits beyond the statevector cap
# since it never materializes amplitudes, only fixed-size energy chunks.
_STREAM_EXTRA = 4
_CHUNK_BITS = 20  # a streamed chunk prices 2^20 patterns


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of one solver run.

    ``certificate`` is True only when the result came from exhaustive
    enumeration, in which case ``c_min``/``c_max``/``argmin`` describe the
    exact spectrum edges and the complete optimum set. ``samples`` is set by
    sampling-based solvers, ``params`` by variational ones. ``timings`` maps
    phase names to wall seconds, and ``"total"`` to the whole run's;
    ``trace`` is the solver's iteration log.
    """

    best_assignment: tuple[int, ...]
    best_energy: float
    certificate: bool = False
    c_min: float | None = None
    c_max: float | None = None
    argmin: tuple[tuple[int, ...], ...] | None = None
    samples: SampleSet | None = None
    params: QaoaParams | None = None
    timings: Mapping[str, float] = field(default_factory=dict)
    trace: tuple = ()
    extras: Mapping = field(default_factory=dict)


def solve_result_to_json(result: SolveResult) -> dict:
    """JSON-safe view of a result (patterns rendered as bit strings)."""

    def pattern_str(bits):
        return "".join(str(b) for b in bits)

    data = {
        "best_assignment": pattern_str(result.best_assignment),
        "best_energy": result.best_energy,
        "certificate": result.certificate,
        "c_min": result.c_min,
        "c_max": result.c_max,
        "argmin": None if result.argmin is None else [pattern_str(b) for b in result.argmin],
        "params": None
        if result.params is None
        else {"p": result.params.p, "gammas": list(result.params.gammas), "betas": list(result.params.betas)},
        "timings": dict(result.timings),
        "trace": [list(t) if isinstance(t, tuple) else t for t in result.trace],
        "extras": {k: v for k, v in dict(result.extras).items()},
    }
    samples = result.samples
    if samples is not None:
        patterns = (pattern_str(index_to_bits(i, samples.n)) for i in samples.indices.tolist())
        data["samples"] = {
            "shots": samples.shots,
            "seed": samples.seed,
            "counts": dict(sorted(zip(patterns, samples.index_counts.tolist()))),
        }
    return data


def _objective_of(problem) -> DiagonalObjective:
    if isinstance(problem, ProblemInstance):
        return problem.objective
    if isinstance(problem, DiagonalObjective):
        return problem
    raise TypeError(f"expected a problem instance or diagonal objective, got {type(problem).__name__}")


def brute_force(problem) -> SolveResult:
    """Exact enumeration: spectrum edges and the complete argmin set.

    Up to the statevector cap it reads :func:`~qopt.simulator.energy_table`,
    which builds and caches the table once. Above the cap, up to four qubits
    further, it streams ``2^20``-pattern chunks priced by ``energies_at``,
    which equal the table's slices bit for bit, and caches nothing.
    This is the reference oracle every other solver is tested against.
    """
    obj = _objective_of(problem)
    cap = statevector_cap()
    if obj.n > cap + _STREAM_EXTRA:
        raise CapacityError(f"{obj.n} variables exceed the enumeration limit of {cap + _STREAM_EXTRA}")
    started = time.perf_counter()
    total = 1 << obj.n
    c_min = math.inf
    c_max = -math.inf
    argmin_idx: list[int] = []
    if obj.n <= cap:
        chunks = [(0, energy_table(obj))]
    else:
        chunk = 1 << _CHUNK_BITS
        chunks = (
            (start, obj.energies_at(np.arange(start, min(start + chunk, total), dtype=np.int64)))
            for start in range(0, total, chunk)
        )
    for start, table in chunks:
        lo = float(table.min())
        hi = float(table.max())
        if hi > c_max:
            c_max = hi
        if lo < c_min:
            c_min = lo
            argmin_idx = []
        if lo == c_min:
            argmin_idx.extend(int(start + k) for k in np.flatnonzero(table == c_min))
    argmin = tuple(index_to_bits(idx, obj.n) for idx in argmin_idx)
    return SolveResult(
        best_assignment=argmin[0],
        best_energy=c_min,
        certificate=True,
        c_min=c_min,
        c_max=c_max,
        argmin=argmin,
        timings={"total": time.perf_counter() - started},
        extras={"states": total},
    )


def _geometric_temperatures(t_hot: float, t_cold: float, sweeps: int) -> np.ndarray:
    if sweeps == 1:
        return np.array([t_hot])
    ratio = (t_cold / t_hot) ** (1.0 / (sweeps - 1))
    return t_hot * ratio ** np.arange(sweeps)


def _probe_temperature(obj: DiagonalObjective, rng: np.random.Generator, table: np.ndarray | None) -> float:
    # Hot end sized from observed flip magnitudes on random states, read from
    # the cached table when there is one (it equals the per-index replay).
    probes = min(256, 1 << min(obj.n, 16))
    if obj.n < 64:
        idx = rng.integers(0, 1 << obj.n, size=probes, dtype=np.int64)
        flips = rng.integers(0, obj.n, size=probes)
        energies_at = obj.energies_at if table is None else table.take
        deltas = np.abs(energies_at(idx ^ (np.int64(1) << flips)) - energies_at(idx))
    else:
        # Wider states have no int64 index, so draw their bits and price
        # each state and its flip one by one.
        rows = rng.integers(0, 2, size=(probes, obj.n))
        flips = rng.integers(0, obj.n, size=probes)
        deltas = np.empty(probes)
        for k, (row, v) in enumerate(zip(rows, flips)):
            before = obj.value(row)
            row[v] ^= 1
            deltas[k] = abs(obj.value(row) - before)
    scale = float(deltas.mean())
    return scale if scale > 0 else 1.0


# An uphill move's uniform is compared with math.exp unless it lies inside
# this relative band around it, or the value is below the floor, where
# relative error bounds give out near the subnormals; numpy's exp decides
# those. The band is 2^12 times wider than the exps' largest relative
# difference, 2^-52 (tests/test_annealing.py checks the premise).
_EXP_BAND_LO = 1.0 - 2.0**-40
_EXP_BAND_HI = 1.0 + 2.0**-40
_EXP_FLOOR = 1e-300


class _ValueByIndex:
    """``obj.value`` by packed index, for objectives with no table."""

    def __init__(self, obj: DiagonalObjective) -> None:
        self.obj = obj

    def __getitem__(self, index: int) -> float:
        return self.obj.value(index_to_bits(index, self.obj.n))


def _chains(
    obj: DiagonalObjective, table: np.ndarray | None, temps: np.ndarray, restarts: int, rng: np.random.Generator
) -> tuple[list[int], list[float]]:
    """Anneal ``restarts`` independent chains over packed-int states.

    A move's energy change is read from ``table``, from the restart's local
    fields when ``obj`` has a spin form, or else from ``obj.value``. Start
    energies come from ``table`` or ``obj.value``. Returns each chain's best
    state (the first reached, on ties) and its energy, read from ``table``
    or re-priced by ``obj.value``: local-field sums carry rounding.
    """
    n = obj.n
    fields = None
    if table is not None:
        energy_of = memoryview(table)
        states = rng.integers(0, 1 << n, size=restarts, dtype=np.int64).tolist()
    else:
        energy_of = _ValueByIndex(obj)
        bits = rng.integers(0, 2, size=(restarts, n))
        states = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in bits]
        spin = obj.spin_model()
        if spin is not None:
            # With spins z = 1 - 2x, flipping bit v changes the energy by
            # z_v g_v, where g_v = -2 (h_v + sum_u J_vu z_u) is summed in
            # adjacency order; the flip then adds 4 J_uv z_v to each g_u.
            adjacency = [[] for _ in range(n)]
            for (u, v), c in spin.J.items():
                if c != 0.0:
                    adjacency[u].append((v, c))
                    adjacency[v].append((u, c))
            fields = []
            for row in bits.tolist():
                g = []
                for h_v, adj in zip(spin.h, adjacency):
                    acc = h_v
                    for u, c in adj:
                        acc = acc - c if row[u] else acc + c
                    g.append(-2.0 * acc)
                fields.append(g)
            neighbours = [[(u, 4.0 * c) for u, c in adj] for adj in adjacency]
    energies = [energy_of[s] for s in states]
    exp, floor, lo, hi = math.exp, _EXP_FLOOR, _EXP_BAND_LO, _EXP_BAND_HI
    best_states = states[:]
    best_energies = energies[:]
    for t in temps.tolist():
        order = rng.permutation(n).tolist()
        flips = [1 << v for v in order]
        uniforms = rng.random((n, restarts)).T.tolist()
        for r in range(restarts):
            s, e, best_s, best_e = states[r], energies[r], best_states[r], best_energies[r]
            g = None if fields is None else fields[r]
            for v, flip, u in zip(order, flips, uniforms[r]):
                proposal = s ^ flip
                if g is None:
                    e_new = energy_of[proposal]
                    delta = e_new - e
                else:
                    sign = -1.0 if s & flip else 1.0
                    delta = sign * g[v]
                    e_new = e + delta
                # Negated tests, so that a NaN delta is rejected.
                if not delta <= 0:
                    x = -delta / t
                    p = exp(x)
                    if p < floor or p * lo <= u <= p * hi:
                        p = float(np.exp(x))
                    if not u < p:
                        continue
                if g is not None:
                    for j, w in neighbours[v]:
                        g[j] += sign * w
                s, e = proposal, e_new
                if e < best_e:
                    best_s, best_e = s, e
            states[r], energies[r], best_states[r], best_energies[r] = s, e, best_s, best_e
    return best_states, [energy_of[s] for s in best_states]


def simulated_annealing(
    problem,
    sweeps: int = 1000,
    temperatures: Sequence[float] | None = None,
    restarts: int = 1,
    seed: int = 0,
) -> SolveResult:
    """Single-flip Metropolis annealing with restarts, geometric schedule.

    One sweep proposes one flip per variable, in an order drawn per sweep and
    shared by all restarts. The default schedule runs geometrically from a
    probed hot temperature down to a thousandth of it; pass ``temperatures``
    (one positive, finite entry per sweep) to override.

    Each restart is a plain-Python chain over a packed-int state. Each sweep
    draws its proposal order and then an ``(n, restarts)`` block of uniforms;
    restart ``r`` reads column ``r``, so the stream does not depend on how
    restarts are scheduled. A move's energy change is read from a zero-copy
    view of the cached :func:`~qopt.simulator.energy_table` up to 20
    variables within the statevector cap; above that, from the restart's
    local fields when the objective has a spin form
    (:meth:`~qopt.model.DiagonalObjective.spin_model`), and otherwise from
    ``obj.value``. The fields are built from the spin form's coupling
    lists, so they take O(n + couplings) memory per restart and no BLAS
    call; an accepted flip updates its neighbours' fields. Off the table,
    start energies and each restart's best energy in ``trace`` come from
    ``obj.value``, so ``min(trace)`` is ``best_energy`` exactly. A downhill
    move is accepted without an exponential. An uphill move compares its
    uniform ``u`` with ``math.exp(-delta / t)``, except when ``u`` lies
    within a relative 2^-40 of that value or the value is below 1e-300:
    there numpy's exp, which can differ from ``math.exp`` in the last place,
    decides.

    A proposal costs O(restarts) interpreter steps, plus the variable's
    degree when a local-field flip is accepted, so many restarts are slow:
    with 1, 8, 32 and 100 restarts, 1000 sweeps of Gaussian SK take about
    0.02, 0.1, 0.35 and 1.2 s at n=20 (table) and 0.04, 0.2, 0.7 and 2.1 s
    at n=30 (local fields, where a numpy loop over all restarts at once took
    0.9-1.4 s at each count) on a 2-vCPU Xeon VM.
    """
    obj = _objective_of(problem)
    if sweeps < 1:
        raise ValueError(f"need at least one sweep, got {sweeps}")
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    if obj.n == 0:
        return SolveResult(best_assignment=(), best_energy=obj.value(()), timings={"total": 0.0})
    if temperatures is not None:
        temps = np.asarray([float(t) for t in temperatures], dtype=np.float64)
        if temps.shape != (sweeps,) or not (np.isfinite(temps) & (temps > 0)).all():
            raise ValueError("temperature schedule needs one positive, finite entry per sweep")
    started = time.perf_counter()
    n = obj.n
    table = energy_table(obj) if n <= min(statevector_cap(), _CHUNK_BITS) else None
    rng = np.random.default_rng(seed)
    if temperatures is None:
        t_hot = _probe_temperature(obj, rng, table)
        temps = _geometric_temperatures(t_hot, max(t_hot * 1e-3, 1e-12), sweeps)
    best_states, per_restart = _chains(obj, table, temps, restarts, rng)
    winner = per_restart.index(min(per_restart))

    return SolveResult(
        best_assignment=index_to_bits(best_states[winner], n),
        best_energy=per_restart[winner],
        timings={"total": time.perf_counter() - started},
        trace=tuple(per_restart),
        extras={"sweeps": sweeps, "restarts": restarts, "t_hot": float(temps[0]), "t_cold": float(temps[-1])},
    )


def grover_adaptive_search(problem, max_rounds: int = 128, seed: int = 0) -> SolveResult:
    """Threshold-descent amplitude amplification, simulated exactly.

    Maintains a threshold (initialized from one uniform sample) and each
    round amplifies the states strictly below it with a randomized iteration
    count drawn uniformly from [0, m]; on a failed measurement m grows by
    8/7 up to sqrt(N), on success the measured energy becomes the new
    threshold and m resets. Stops when the marked set is empty (the
    threshold then certifiably equals the minimum) or the round budget runs
    out. The threshold trace is strictly decreasing.

    The simulation needs only the marked count and one marked pattern drawn
    uniformly (Durr & Hoyer, arXiv:quant-ph/9607014). Both are read from the
    cached :func:`~qopt.simulator.energy_table` and nothing else is cached:
    the count is recounted after each success, and the pick-th marked
    pattern in (energy, index) order is found by a partition of the marked
    energies and a scan of the table for its level, with no sort.
    """
    obj = _objective_of(problem)
    if max_rounds < 1:
        raise ValueError(f"need at least one round, got {max_rounds}")
    started = time.perf_counter()
    table = energy_table(obj)
    n_states = table.shape[0]
    rng = np.random.default_rng(seed)

    first = int(rng.integers(0, n_states))
    threshold = float(table[first])
    best_idx = first
    thresholds = [threshold]
    m = 1.0
    m_cap = math.sqrt(n_states)
    marked_empty = False
    rounds_used = 0
    iterations_total = 0
    count = int(np.count_nonzero(table < threshold))

    for _ in range(max_rounds):
        rounds_used += 1
        if count == 0:
            marked_empty = True
            break
        theta = math.asin(math.sqrt(count / n_states))
        r = int(rng.integers(0, int(m) + 1))
        iterations_total += r
        p_success = math.sin((2 * r + 1) * theta) ** 2
        if rng.random() < p_success:
            pick = int(rng.integers(0, count))
            # The pick-th marked pattern in (energy, index) order: its level
            # is the pick-th smallest marked energy, and it is the
            # (pick - below)-th pattern at that level.
            marked = table[table < threshold]
            marked.partition(pick)
            level = marked[pick]
            below = int(np.count_nonzero(table < level))
            best_idx = int(np.flatnonzero(table == level)[pick - below])
            threshold = float(table[best_idx])
            count = below
            thresholds.append(threshold)
            m = 1.0
        else:
            m = min(m * 8.0 / 7.0, m_cap)

    best_bits = index_to_bits(best_idx, obj.n)
    return SolveResult(
        best_assignment=best_bits,
        best_energy=float(table[best_idx]),
        timings={"total": time.perf_counter() - started},
        trace=tuple(thresholds),
        extras={
            "rounds_used": rounds_used,
            "marked_set_empty": marked_empty,
            "grover_iterations": iterations_total,
        },
    )


def _angle_grid(p: int) -> Iterator[np.ndarray]:
    # Rows of (gammas, betas) over [0, pi)^p x [0, pi/2)^p, last angle
    # fastest, made one at a time: the budget ends the scan long before the
    # 2^(2p) rows of a deep grid.
    points = 8 if p <= 1 else 4 if p == 2 else 2
    axis_g = np.linspace(0.0, math.pi, points, endpoint=False)
    axis_b = np.linspace(0.0, math.pi / 2, points, endpoint=False)
    for row in itertools.product(*([axis_g] * p + [axis_b] * p)):
        yield np.array(row)


def _params_of(vec: np.ndarray, p: int | None = None) -> QaoaParams:
    # Angles as (gammas, betas); with ``p`` beyond their depth, the missing
    # layers get zero angles, which leave the state unchanged bit for bit.
    depth = len(vec) // 2
    pad = (0.0,) * (0 if p is None else p - depth)
    return QaoaParams(p=depth + len(pad), gammas=(*vec[:depth], *pad), betas=(*vec[depth:], *pad))


def _interp(vec: np.ndarray) -> np.ndarray:
    """INTERP (Zhou et al., arXiv:1812.01041): depth-p angles to p + 1.

    Each angle list is read as samples of a smooth schedule and resampled
    at one more point: entry ``i`` of the result is
    ``i/p * a[i-1] + (p-i)/p * a[i]``, with ``a[-1] = a[p] = 0``.
    """
    p = len(vec) // 2
    i = np.arange(p + 1)
    out = []
    for angles in (vec[:p], vec[p:]):
        padded = np.concatenate(([0.0], angles, [0.0]))
        out.append(i / p * padded[i] + (p - i) / p * padded[i + 1])
    return np.concatenate(out)


def _distinct(optima: list) -> list:
    # Refined optima without repeats: an optimum whose value equals a kept
    # one is a mirror image of it (gamma <-> pi - gamma on regular MaxCut),
    # and mirror images refine to mirror images at the next depth. Of equal
    # values the one with the smallest angles stays, the small-angle schedule
    # that INTERP extends (Zhou et al.); the rest follow by value.
    kept = []
    for x, fun in sorted(optima, key=lambda r: float(np.abs(r[0]).sum())):
        if all(abs(fun - k_fun) > _SAME_OPTIMUM * max(1.0, abs(k_fun)) for _, k_fun in kept):
            kept.append((x, fun))
    return sorted(kept, key=lambda r: r[1])


# Relative value gap below which two refined optima count as one.
_SAME_OPTIMUM = 1e-9
# Evaluations charged for one value-and-gradient call. Per layer it runs
# four mixer-sized passes (the forward layer, un-applying it on the state and
# on the co-state, and one generator sweep) where a plain evaluation runs
# one; tests/test_solvers.py counts them.
_GRADIENT_COST = 4
# L-BFGS stops once no gradient entry exceeds 1e-6 or a step gains less
# than 1e-13 relative. Near an optimum the value then sits within rounding
# of a run at gtol 1e-9: on criteria 01/02 the ratios agree to 5e-15.
_LBFGS_OPTIONS = {"ftol": 1e-13, "gtol": 1e-6}
# Imaginary step of the closed form's complex-step gradient: Im f(x + ih) / h
# subtracts nothing, so its error is O(h^2), far below rounding.
_COMPLEX_STEP = 1e-30


def qaoa_solve(
    problem,
    p: int = 1,
    objective_mode: str = "mean",
    alpha: float = 0.25,
    initial: str | WarmStart = "plus",
    optimizer_budget: int = 1000,
    shots: int = 2048,
    seed: int = 0,
) -> SolveResult:
    """Variational solve over the angle box ``[0, pi)^p x [0, pi/2)^p``.

    ``objective_mode`` selects the objective and with it the optimizer:

    * ``mean`` (exact expectation) trains with exact gradients
      (:func:`~qopt.simulator.qaoa_value_and_gradient`). At depth 1 an 8x8
      grid of plain evaluations picks the three best starts, each refined
      by L-BFGS with a Moré–Thuente line search, as L-BFGS-B runs when
      there are no bounds (:func:`qopt._minimize.lbfgs`). Each further
      depth up to ``p`` maps the distinct refined optima of the depth
      below by INTERP and refines them again. If the budget runs out
      below depth ``p``, the best angles found get zero angles for the
      missing layers, which leaves their state unchanged. From the plus
      state, on an objective with a spin form (a QUBO or Ising source),
      depth 1 runs on :func:`~qopt.simulator.qaoa_p1_energy`: one call
      scores the whole grid, and each p=1 gradient is a complex step
      through it. Depth 2 and up, warm starts and other objectives use the
      statevector.
      ``extras["objective_value"]`` is the final state's mean energy.
    * ``cvar`` (tail mean of seeded samples; every evaluation reuses one
      derived seed so the optimizer sees a fixed landscape) is piecewise
      constant in the angles, so it searches a grid at 8 points per
      parameter for p=1, 4 for p=2 and 2 beyond, then refines the best grid
      points with Nelder-Mead (:func:`qopt._minimize.nelder_mead`, an
      in-tree port of scipy's).

    Evaluations stop at ``optimizer_budget``, counted in state preparations:
    a value-and-gradient call is charged as four plain evaluations, the
    layer passes it runs. A closed-form grid point or gradient is charged as
    the statevector call it replaces. Exhausting the budget flags the result
    instead of raising. ``p = 0`` just samples the initial state. The
    statevector cap is checked before any training, since the final state is
    always prepared.
    """
    obj = _objective_of(problem)
    if p < 0:
        raise ValueError(f"layer count must be non-negative, got {p}")
    if optimizer_budget < 1:
        raise ValueError(f"optimizer budget must be positive, got {optimizer_budget}")
    if shots < 1:
        raise ValueError(f"need at least one shot, got {shots}")
    if objective_mode not in ("mean", "cvar"):
        raise ValueError(f"unknown objective mode {objective_mode!r}")
    if objective_mode == "cvar" and not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")

    # The final state needs the full statevector. The closed form never
    # builds one, so without this check it would train first and fail last.
    _check_cap(obj.n)
    closed_form = (
        objective_mode == "mean"
        and (initial == "plus" or initial is None)
        and obj.spin_model() is not None
    )
    started = time.perf_counter()
    eval_seed = derive_seed(seed, "cvar-eval")
    evaluations = 0
    budget_exhausted = False
    trace: list[tuple[int, float]] = []
    best_value = math.inf
    best_vec: np.ndarray | None = None

    def spend(cost: int) -> None:
        nonlocal evaluations
        if evaluations + cost > optimizer_budget:
            raise _BudgetDone
        evaluations += cost

    def keep(vec: np.ndarray, value: float) -> None:
        nonlocal best_value, best_vec
        if value < best_value:
            best_value = value
            best_vec = vec.copy()
            trace.append((evaluations, value))

    def objective_value(vec: np.ndarray) -> float:
        spend(1)
        sv = qaoa_state(obj, _params_of(vec), initial=initial)
        if objective_mode == "mean":
            value = expectation(sv, obj)
        else:
            value = cvar(sample(sv, shots=shots, seed=eval_seed, obj=obj), alpha)
        keep(vec, value)
        return value

    def value_and_gradient(vec: np.ndarray) -> tuple[float, np.ndarray]:
        spend(_GRADIENT_COST)
        if closed_form and len(vec) == 2:  # depth 1
            (g, b), h = vec, _COMPLEX_STEP
            energy = qaoa_p1_energy(obj, np.array([g + 1j * h, g]), np.array([b, b + 1j * h]))
            value, grad = float(energy[0].real), energy.imag / h
        else:
            value, grad = qaoa_value_and_gradient(obj, _params_of(vec), initial)
        keep(vec, value)
        return value, grad

    def refine(start: np.ndarray) -> tuple[np.ndarray, float]:
        return lbfgs(value_and_gradient, start, **_LBFGS_OPTIONS)

    if p == 0:
        final_params = QaoaParams(p=0, gammas=(), betas=())
        optimize_time = 0.0
    else:
        scored: list[tuple[float, np.ndarray]] = []
        grid = _angle_grid(p if objective_mode == "cvar" else 1)
        try:
            if closed_form:
                grid = np.array(list(grid))
                for vec, value in zip(grid, qaoa_p1_energy(obj, grid[:, 0], grid[:, 1]).tolist()):
                    spend(1)
                    keep(vec, value)
                    scored.append((value, vec))
            else:
                for vec in grid:
                    scored.append((objective_value(vec), vec))
            scored.sort(key=lambda sv_: sv_[0])
            if objective_mode == "mean":
                optima = [refine(vec) for _, vec in scored[:3]]
                for _ in range(1, p):
                    optima = [refine(_interp(x)) for x, _ in _distinct(optima)]
            else:
                # Refine from the best few grid points; spend what remains.
                starts = min(3 if p == 1 else 2, len(scored))
                for _, start_vec in scored[:starts]:
                    left = optimizer_budget - evaluations
                    if left < 8:
                        break
                    nelder_mead(
                        objective_value,
                        start_vec,
                        maxfev=left if start_vec is scored[0][1] else max(left // 2, 8),
                        xatol=1e-10,
                        fatol=1e-12,
                    )
        except _BudgetDone:
            budget_exhausted = True
        final_params = _params_of(best_vec, p)
        optimize_time = time.perf_counter() - started

    sv = qaoa_state(obj, final_params, initial=initial)
    mean_energy = expectation(sv, obj)
    samples = sample(sv, shots=shots, seed=derive_seed(seed, "final-sample"), obj=obj)
    best_pattern, best_energy = samples.best()
    return SolveResult(
        best_assignment=best_pattern,
        best_energy=best_energy,
        samples=samples,
        params=final_params,
        timings={"optimize": optimize_time, "total": time.perf_counter() - started},
        trace=tuple(trace),
        extras={
            "mode": objective_mode,
            "alpha": alpha if objective_mode == "cvar" else None,
            "objective_value": best_value if objective_mode == "cvar" and p > 0 else mean_energy,
            "mean_energy": mean_energy,
            "evaluations": evaluations,
            "budget_exhausted": budget_exhausted,
            "warm_start": isinstance(initial, WarmStart),
        },
    )


class _BudgetDone(Exception):
    """Internal: the evaluation budget ran out mid-optimization."""


def _pair_correlations(sv: Statevector, ising: IsingModel) -> dict[tuple[int, int], float]:
    probs = sv.probabilities()
    idx = np.arange(probs.shape[0], dtype=np.int64)
    out = {}
    for (i, j) in ising.J:
        # z_i z_j is +1 where bits i and j agree and -1 where they differ.
        zz = 1.0 - 2.0 * (((idx >> i) ^ (idx >> j)) & 1)
        zz *= probs
        out[(i, j)] = float(zz.sum())
    return out


def _substitute_spin(ising: IsingModel, i: int, j: int, sign: int) -> IsingModel:
    """Eliminate spin j by the relation z_j = sign * z_i, reindexing above j."""

    def image(v: int) -> tuple[int, int]:
        # The new index of spin v and the sign its value carries there.
        return (i - (i > j), sign) if v == j else (v - (v > j), 1)

    offset = ising.offset
    new_h = [0.0] * (ising.n - 1)
    couplings: dict[tuple[int, int], float] = {}
    for v, hv in enumerate(ising.h):
        if hv != 0.0:
            k, s = image(v)
            new_h[k] += s * hv
    for (a, b), c in ising.J.items():
        if c == 0.0:
            continue
        (a, sa), (b, sb) = image(a), image(b)
        # Keys have a < b, so at most one end is j; z_i z_i = 1 folds into the offset.
        if a == b:
            offset += sa * sb * c
        else:
            key = (min(a, b), max(a, b))
            couplings[key] = couplings.get(key, 0.0) + sa * sb * c
    couplings = {k: v for k, v in couplings.items() if v != 0.0}
    return IsingModel(n=ising.n - 1, h=tuple(new_h), J=couplings, offset=offset)


def recursive_qaoa(
    problem,
    cutoff: int = 8,
    p: int = 1,
    objective_mode: str = "mean",
    alpha: float = 0.25,
    optimizer_budget: int = 200,
    shots: int = 1024,
    seed: int = 0,
) -> SolveResult:
    """Iterative variable elimination driven by measured pair correlations.

    Each level optimizes a small ansatz on the current spin model, computes
    exact pair correlations over its couplings, and freezes the relation of
    the strongest pair (aligned for non-negative correlation, anti-aligned
    otherwise; ties resolve to the lowest index pair). Eliminations repeat
    until the model reaches ``cutoff`` variables, which are enumerated
    exactly, or until no coupling is left, when each spin follows the sign
    of its field; substitutions then unwind to a full assignment. With
    ``cutoff >= n`` this degenerates to plain enumeration and keeps its
    certificate.
    """
    obj = _objective_of(problem)
    if cutoff < 1:
        raise ValueError(f"cutoff must be at least 1, got {cutoff}")
    started = time.perf_counter()
    if obj.n <= cutoff:
        return replace(
            brute_force(obj),
            timings={"total": time.perf_counter() - started},
            extras={"substitutions": (), "levels": 0},
        )

    ising = obj.spin_model()
    if ising is None:
        raise TypeError("recursive reduction needs a quadratic model behind the objective")
    # original_of[v] maps a current variable index back to the input index.
    original_of = list(range(obj.n))
    substitutions: list[tuple[int, int, int]] = []
    trace = []
    level = 0
    while ising.n > cutoff and ising.J:
        level += 1
        view = ising.as_objective()
        inner = qaoa_solve(
            view,
            p=p,
            objective_mode=objective_mode,
            alpha=alpha,
            optimizer_budget=optimizer_budget,
            shots=shots,
            seed=derive_seed(seed, "rqaoa-level", level),
        )
        sv = qaoa_state(view, inner.params)
        correlations = _pair_correlations(sv, ising)
        (i, j), corr = max(
            correlations.items(), key=lambda kv: (abs(kv[1]), (-kv[0][0], -kv[0][1]))
        )
        sign = 1 if corr >= 0 else -1
        substitutions.append((original_of[j], original_of[i], sign))
        trace.append((ising.n, original_of[i], original_of[j], corr))
        ising = _substitute_spin(ising, i, j, sign)
        del original_of[j]

    if ising.J:
        remainder = brute_force(ising.as_objective()).best_assignment
    else:
        # Every spin is decoupled: bit 1 (spin -1) iff its field is positive,
        # which is enumeration's smallest-index argmin without the 2^n cost.
        remainder = tuple(int(hv > 0.0) for hv in ising.h)
    spin_of = {original_of[k]: 1 - 2 * remainder[k] for k in range(ising.n)}
    for orig_j, orig_i, sign in reversed(substitutions):
        spin_of[orig_j] = sign * spin_of[orig_i]
    best_bits = tuple((1 - spin_of[v]) // 2 for v in range(obj.n))
    return SolveResult(
        best_assignment=best_bits,
        best_energy=obj.value(best_bits),
        timings={"total": time.perf_counter() - started},
        trace=tuple(trace),
        extras={"substitutions": tuple(substitutions), "levels": level, "cutoff": cutoff},
    )


def transfer_parameters(
    source: SolveResult,
    target,
    shots: int = 2048,
    seed: int = 0,
) -> SolveResult:
    """Re-use trained angles on another instance without re-optimizing.

    Prepares the target's ansatz state at the source's parameters (plain
    mixer) and samples it. The target fits the statevector, so it can also
    be enumerated: the extras report the transferred approximation ratio
    next to a freshly optimized baseline and their gap; these are reported
    metrics only.
    """
    if source.params is None:
        raise ValueError("source result carries no trained parameters")
    obj = _objective_of(target)
    started = time.perf_counter()
    sv = qaoa_state(obj, source.params)
    mean_energy = expectation(sv, obj)
    samples = sample(sv, shots=shots, seed=derive_seed(seed, "transfer-sample"), obj=obj)
    best_pattern, best_energy = samples.best()
    extras = {"mean_energy": mean_energy, "source_params": True}

    from qopt.bench import approximation_ratio

    exact = brute_force(obj)
    baseline = qaoa_solve(
        obj,
        p=source.params.p,
        objective_mode="mean",
        optimizer_budget=400,
        shots=shots,
        seed=derive_seed(seed, "transfer-baseline"),
    )
    if exact.c_max > exact.c_min:
        ar_t = approximation_ratio(mean_energy, exact.c_min, exact.c_max).ratio
        ar_o = approximation_ratio(baseline.extras["mean_energy"], exact.c_min, exact.c_max).ratio
        extras.update(ar_transferred=ar_t, ar_optimized=ar_o, ar_gap=ar_o - ar_t)

    return SolveResult(
        best_assignment=best_pattern,
        best_energy=best_energy,
        samples=samples,
        params=source.params,
        timings={"total": time.perf_counter() - started},
        extras=extras,
    )
