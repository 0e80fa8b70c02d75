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
from qopt.model import DiagonalObjective, IsingModel, _as_real, as_count, bits_to_index, check_real, index_to_bits
from qopt.problems import ProblemInstance
from qopt.simulator import (
    CapacityError,
    QaoaParams,
    SampleSet,
    Statevector,
    _check_alpha,
    _check_cap,
    _draw,
    _energy_sum,
    _evolve,
    _kept_table,
    _probabilities,
    _tail_mean,
    _unfold,
    cvar,  # not called here: perfbench's traced runs wrap solvers.cvar by name
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
]

# Streaming enumeration tolerates a few qubits beyond the statevector cap
# since it never materializes amplitudes, only fixed-size energy chunks.
_STREAM_EXTRA = 4
_CHUNK_BITS = 20  # a streamed chunk prices 2^20 patterns
# Up to this many variables within the statevector cap, annealing reads the
# energy table and draws packed ints; above it, an objective with a spin form
# anneals on local fields and draws bit rows, so moving this bound moves
# results at the sizes it crosses.
_ANNEAL_TABLE_BITS = 20


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of one solver run.

    ``certificate`` is True only when the result came from exhaustive
    enumeration, in which case ``c_min``/``c_max``/``argmin`` describe the
    exact spectrum edges and the complete optimum set; ``argmin`` is a
    read-only, strictly ascending ``int64`` array of packed indices (variable
    ``i`` at bit ``i``), as in :class:`~qopt.simulator.SampleSet`, and only
    ``best_assignment`` is a bit tuple. ``samples`` is set by
    sampling-based solvers, ``params`` by variational ones. ``timings`` maps
    phase names to wall seconds, and ``"total"`` to the whole run's;
    ``trace`` is the solver's iteration log.
    """

    best_assignment: tuple[int, ...]
    best_energy: float
    certificate: bool = False
    c_min: float | None = None
    c_max: float | None = None
    argmin: np.ndarray | None = None
    samples: SampleSet | None = None
    params: QaoaParams | None = None
    timings: Mapping[str, float] = field(default_factory=dict)
    trace: tuple = ()
    extras: Mapping = field(default_factory=dict)


def solve_result_to_json(result: SolveResult) -> dict:
    """JSON-safe view of a result (patterns rendered as bit strings)."""
    n = len(result.best_assignment)
    data = {
        "best_assignment": "".join(map(str, result.best_assignment)),
        "best_energy": result.best_energy,
        "certificate": result.certificate,
        "c_min": result.c_min,
        "c_max": result.c_max,
        "argmin": None if result.argmin is None else _bit_strings(result.argmin, n),
        "params": None
        if result.params is None
        else {"p": result.params.p, "gammas": list(result.params.gammas), "betas": list(result.params.betas)},
        "timings": dict(result.timings),
        "trace": [list(t) if isinstance(t, tuple) else t for t in result.trace],
        "extras": {k: v for k, v in dict(result.extras).items()},
    }
    samples = result.samples
    if samples is not None:
        patterns = _bit_strings(samples.indices, samples.n)
        data["samples"] = {
            "shots": samples.shots,
            "seed": samples.seed,
            "counts": dict(sorted(zip(patterns, samples.index_counts.tolist()))),
        }
    return data


def _bit_strings(indices: np.ndarray, n: int) -> list[str]:
    # Packed indices as bit strings, variable 0 first, in one pass: a '0'/'1'
    # byte per bit and a newline per row, decoded and split once.
    chars = np.full((indices.size, n + 1), ord("\n"), dtype=np.uint8)
    for i in range(n):
        chars[:, i] = ((indices >> i) & 1) + ord("0")
    return chars.tobytes().decode("ascii").split("\n")[:-1]


def _objective_of(problem) -> DiagonalObjective:
    if isinstance(problem, ProblemInstance):
        return problem.objective
    if isinstance(problem, DiagonalObjective):
        return problem
    raise TypeError(f"expected a problem instance or diagonal objective, got {type(problem).__name__}")


def brute_force(problem) -> SolveResult:
    """Exact enumeration: spectrum edges and the complete argmin set.

    Up to the statevector cap it scans :func:`~qopt.simulator._kept_table`,
    which builds and caches the table once, and
    :func:`~qopt.simulator._unfold` turns the minimizing positions into
    patterns (adding their complements when the kept table is the lower
    half). Above the cap, up to four qubits further, it streams
    ``2^20``-pattern chunks priced by ``energies_at``, which equal the
    table's slices bit for bit, and caches nothing. ``argmin`` holds the
    minimizers as packed indices, one ``int64`` per pattern.
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
    found: list[np.ndarray] = []
    if obj.n <= cap:
        chunks = [(0, _kept_table(obj))]
    else:
        chunk = 1 << _CHUNK_BITS
        chunks = (
            (start, obj.energies_at(np.arange(start, min(start + chunk, total), dtype=np.int64)))
            for start in range(0, total, chunk)
        )
    for start, table in chunks:
        lo = float(table.min())
        c_max = max(c_max, float(table.max()))
        if lo < c_min:
            c_min = lo
            found = []
        if lo == c_min:
            found.append(start + np.flatnonzero(table == c_min))
    argmin = np.concatenate(found)
    if obj.n <= cap:
        argmin = _unfold(obj, argmin)
    argmin.setflags(write=False)
    return SolveResult(
        best_assignment=index_to_bits(int(argmin[0]), obj.n),
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


# A frozen restart's sweep is skipped when its least uniform lies at or
# above this multiple of math.exp at its least rejected delta: a margin for
# math.exp not being exactly monotone (tests/test_annealing.py checks that
# it never falls by this much as its argument grows).
_EXP_BAND_HI = 1.0 + 2.0**-40
# Up to this many uniforms per sweep, a frozen restart's least uniform is a
# Python min over its column; above it, one numpy min over the whole block
# costs less. Both took the same time at 60-90 uniforms (n = 20-64) on a
# 2-vCPU Xeon VM.
_LIST_MIN_SIZE = 64


class _ValueByIndex:
    """``obj.value`` by packed index, for objectives with no table."""

    def __init__(self, obj: DiagonalObjective) -> None:
        self.obj = obj

    def __getitem__(self, index: int) -> float:
        return self.obj.value(index_to_bits(index, self.obj.n))


def _field(h_v: float, adj: list, row) -> float:
    # With spins z = 1 - 2x, flipping bit v changes the energy by z_v g_v,
    # where g_v = -2 (h_v + sum_u J_vu z_u) is summed in adjacency order.
    acc = h_v
    for u, c in adj:
        acc = acc - c if row[u] else acc + c
    return -2.0 * acc


def _chains(
    obj: DiagonalObjective, table: np.ndarray | None, sweeps: int, temps: np.ndarray | None, restarts: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[int], list[float]]:
    """Anneal ``restarts`` independent chains over packed-int states.

    Every energy comes from one source: ``table``, else the local fields of
    ``obj``'s spin form, else ``obj.value``. States are drawn as packed ints
    on the table and as bit rows off it. With
    ``temps`` None the schedule is probed first, from states drawn and
    priced the same way. Returns the schedule, each chain's best state (the
    first reached, on ties) and its energy, read from ``table`` or re-priced
    by ``obj.value``: local-field sums carry rounding.
    """
    n = obj.n
    high, row_shape = (1 << n, ()) if table is not None else (2, (n,))

    def draw(count: int) -> np.ndarray:
        return rng.integers(0, high, size=(count, *row_shape), dtype=np.int64)

    energy_of = _ValueByIndex(obj) if table is None else memoryview(table)
    spin = None if table is not None else obj.spin_model()
    if spin is not None:
        adjacency = [[] for _ in range(n)]
        for (u, v), c in spin.J.items():
            if c != 0.0:
                adjacency[u].append((v, c))
                adjacency[v].append((u, c))
    if temps is None:
        probes = min(256, 1 << min(n, 16))
        starts, flips = draw(probes), rng.integers(0, n, size=probes)
        if table is not None:
            deltas = np.abs(table[starts ^ (np.int64(1) << flips)] - table[starts])
        else:
            # Priced on row views: a list copy of the whole block would take
            # 256 n Python ints.
            deltas = np.array([
                abs(_field(spin.h[v], adjacency[v], row)) if spin is not None
                else abs(obj.value(row) - obj.value(row ^ (np.arange(n) == v)))
                for row, v in zip(starts, flips.tolist())
            ])
        scale = float(deltas.mean())
        t_hot = scale if scale > 0 else 1.0
        temps = _geometric_temperatures(t_hot, max(t_hot * 1e-3, 1e-12), sweeps)
    starts = draw(restarts).tolist()
    states = starts if table is not None else [bits_to_index(row) for row in starts]
    fields = None
    if spin is not None:
        fields = [[_field(h_v, adj, row) for h_v, adj in zip(spin.h, adjacency)] for row in starts]
        # An accepted flip of v adds 4 J_uv z_v to each neighbour's g_u.
        neighbours = [[(u, 4.0 * c) for u, c in adj] for adj in adjacency]
    energies = [energy_of[s] for s in states]
    exp, hi = math.exp, _EXP_BAND_HI
    best_states = states[:]
    best_energies = energies[:]
    # A sweep that accepts nothing keeps its state and has priced every flip
    # from it, so the least delta it rejected, lowest[r], bounds each later
    # delta_v until restart r moves (lowest[r] is None until such a sweep and
    # after any that moves). With P = math.exp(-lowest[r] / t),
    # x_v = -delta_v / t <= -lowest[r] / t, so each p_v = math.exp(x_v) the
    # loop compares with lies at or below P * hi <= u_min <= u_v. Where P is
    # near the subnormals, u_min > 0 means u_min >= 2^-53, far above any such
    # p_v. `delta < low` ignores a NaN delta, which the loop rejects anyway.
    # Such a sweep rejects every proposal, with no side effect, and is
    # skipped; its order and uniforms are still drawn, so every stream stays
    # the same.
    lowest = [None] * restarts
    base = list(range(n))
    masks = [1 << v for v in base]
    # Every sweep draws its uniforms into this one block, and restart r reads
    # column r as Python floats through a fixed strided view, so a sweep
    # makes no array and no list of uniforms.
    block = np.empty((n, restarts))
    flat = memoryview(block.reshape(-1))
    columns = [flat[r::restarts] for r in range(restarts)]
    vector_min = block.size > _LIST_MIN_SIZE
    for t in temps.tolist():
        # Generator.shuffle makes the same draws on a list as on the arange
        # that permutation(n) shuffles, and leaves the same generator state;
        # random(out=block) draws what random((n, restarts)) would
        # (tests/test_annealing.py checks both premises).
        order = base[:]
        rng.shuffle(order)
        rng.random(out=block)
        if vector_min and lowest.count(None) < restarts:
            u_mins = block.min(axis=0).tolist()
        flips = None
        for r in range(restarts):
            low = lowest[r]
            if low is not None:
                u_min = u_mins[r] if vector_min else min(columns[r])
                if 0.0 < u_min and exp(-low / t) * hi <= u_min:
                    continue
            if flips is None:
                flips = list(map(masks.__getitem__, order))
            s, e, best_s, best_e = states[r], energies[r], best_states[r], best_energies[r]
            g = None if fields is None else fields[r]
            low = math.inf
            for v, flip, u in zip(order, flips, columns[r]):
                proposal = s ^ flip
                if g is None:
                    e_new = energy_of[proposal]
                    delta = e_new - e
                else:
                    sign = -1.0 if s & flip else 1.0
                    delta = sign * g[v]
                    e_new = e + delta
                # Negated tests, so that a NaN delta is rejected.
                if not delta <= 0 and not u < exp(-delta / t):
                    if delta < low:
                        low = delta
                    continue
                if g is not None:
                    for j, w in neighbours[v]:
                        g[j] += sign * w
                s, e = proposal, e_new
                if e < best_e:
                    best_s, best_e = s, e
            if s != states[r]:
                low = None  # a sweep flips each variable at most once, so it moved
            states[r], energies[r], best_states[r], best_energies[r], lowest[r] = s, e, best_s, best_e, low
    return temps, best_states, [energy_of[s] for s in best_states]


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
    hot temperature, the mean |delta| of one random flip on each of up to
    256 random states, down to a thousandth of it; pass ``temperatures``
    (one positive, finite entry per sweep) to override.

    Each restart is a plain-Python chain over a packed-int state. Each sweep
    draws its proposal order, as a shuffle of the list ``[0, n)`` that
    consumes the stream exactly as ``permutation(n)`` does, and then an
    ``(n, restarts)`` block of uniforms into one array the run reuses;
    restart ``r`` reads column ``r`` through a fixed view of it, so the
    stream does not depend on how restarts are scheduled and a sweep builds
    no array and no list of uniforms. Flip masks come from a table built
    once per run. A run draws its probe and start states, and prices every
    flip, from one source, chosen from the objective's size, its spin form
    (:meth:`~qopt.model.DiagonalObjective.spin_model`) and the statevector
    cap alone, never from what is already cached. Within the cap, up to 20
    variables or when the objective has no spin form, it draws packed ints
    and reads a zero-copy view of :func:`~qopt.simulator.energy_table`,
    building the table if needed. Otherwise, it draws bit rows and reads
    local fields when the objective has a spin form, and otherwise
    ``obj.value``. A probe flip of v costs two table reads, |g_v| summed
    over v's couplings, or two ``obj.value`` calls. The fields come from the
    spin form's coupling lists, in O(n + couplings) memory per restart and
    with no BLAS call; an accepted flip updates its neighbours' fields. Off
    the table, start energies and each restart's best energy in ``trace``
    come from ``obj.value``, so ``min(trace)`` is ``best_energy`` exactly. A
    downhill move is accepted without an exponential; an uphill move is
    accepted iff its uniform ``u < math.exp(-delta / t)``.

    A restart whose sweep accepts nothing keeps the least delta it rejected.
    A later sweep is skipped, its order and uniforms still drawn, while its
    least uniform lies at or above the acceptance probability of that delta
    (widened by a relative 2^-40), so a frozen chain costs only those draws
    and that minimum: a Python ``min`` over its column, or one numpy min
    over the block when a sweep draws more than 64 uniforms.

    A proposal costs O(restarts) interpreter steps, plus the variable's
    degree when a local-field flip is accepted, so many restarts are slow:
    with 1, 8, 32 and 100 restarts, 1000 sweeps of Gaussian SK take about
    0.005, 0.020, 0.064 and 0.21 s at n=20 (table) and 0.009, 0.049, 0.21
    and 0.64 s at n=30 (local fields, where a numpy loop over all restarts
    at once took 0.9-1.4 s at each count) on a 2-vCPU Xeon VM; about two
    thirds of those sweeps are skipped.
    """
    obj = _objective_of(problem)
    sweeps, restarts = as_count("sweeps", sweeps), as_count("restarts", restarts)
    temps = None
    if temperatures is not None:
        temps = np.asarray([_as_real("temperatures", t, positive=True) for t in temperatures], dtype=np.float64)
        if len(temps) != sweeps:
            raise ValueError(f"temperature schedule needs one entry per sweep, got {len(temps)} for {sweeps} sweeps")
    seed = as_count("seed", seed, least=0)
    if obj.n == 0:
        return SolveResult(best_assignment=(), best_energy=obj.value(()), timings={"total": 0.0})
    started = time.perf_counter()
    on_table = obj.n <= statevector_cap() and (obj.n <= _ANNEAL_TABLE_BITS or obj.spin_model() is None)
    table = energy_table(obj) if on_table else None
    rng = np.random.default_rng(seed)
    temps, best_states, per_restart = _chains(obj, table, sweeps, temps, restarts, rng)
    winner = per_restart.index(min(per_restart))

    return SolveResult(
        best_assignment=index_to_bits(best_states[winner], obj.n),
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
    cached :func:`~qopt.simulator.energy_table` and its
    :func:`~qopt.simulator._kept_table`, which is scanned. The first success
    gathers the marked energies. Each success finds the pick-th marked
    pattern in (energy, index) order by a partition of them and a scan of
    the kept table for its level, with no sort, and
    :func:`~qopt.simulator._unfold` lists the patterns at that level; the
    energies below the level are kept as the next marked set instead of
    recounting the table, so a run with s successes makes at most 2 + s
    passes over the kept table, which is half the table when it is
    flip-symmetric.
    """
    obj = _objective_of(problem)
    max_rounds = as_count("max_rounds", max_rounds)
    started = time.perf_counter()
    table = energy_table(obj)
    scan = _kept_table(obj)
    n_states = table.shape[0]
    fold = n_states // scan.size
    rng = np.random.default_rng(as_count("seed", seed, least=0))

    first = int(rng.integers(0, n_states))
    threshold = float(table[first])
    best_idx = first
    thresholds = [threshold]
    m = 1.0
    m_cap = math.sqrt(n_states)
    marked_empty = False
    rounds_used = 0
    iterations_total = 0
    count = fold * int(np.count_nonzero(scan < threshold))
    marked = None

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
            # (pick - below)-th pattern at that level. `marked` holds the
            # scanned energies below the threshold in no particular order,
            # which the partition does not need: its k-th value depends on
            # the values alone. Each scanned energy stands for `fold`
            # patterns, so the pick-th marked energy is the (pick // fold)-th
            # of them, and `_unfold` lists the patterns at the level in index
            # order. After the partition, every energy below `level` lies in
            # marked[:k], and `level` equals the next threshold (which is
            # read from the table all the same: the level of a 0.0 pattern
            # may be -0.0), so filtering that head gives the next marked
            # energies and their count without a pass over the table. Only
            # the first success gathers from the table; the level scan is
            # the one pass per success.
            if marked is None:
                marked = scan[scan < threshold]
            k = pick // fold
            marked.partition(k)
            level = marked[k]
            head = marked[:k]
            marked = head[head < level]
            below = fold * marked.size
            best_idx = int(_unfold(obj, np.flatnonzero(scan == level))[pick - below])
            threshold = float(table[best_idx])
            count = below
            thresholds.append(threshold)
            m = 1.0
        else:
            m = min(m * 8.0 / 7.0, m_cap)

    return SolveResult(
        best_assignment=index_to_bits(best_idx, obj.n),
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
# three mixer-sized passes (the forward layer, un-applying it on the
# co-state, and one generator sweep) where a plain evaluation runs one, plus
# one more per layer whose pre-mixer state the cap left unkept. It is
# charged four, the count before those states were kept, so budgets and
# evaluation counts replay unchanged; tests/test_solvers.py counts them.
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
    optimizer_budget: int = 1000,
    shots: int = 2048,
    seed: int = 0,
) -> SolveResult:
    """Variational solve over the angle box ``[0, pi)^p x [0, pi/2)^p``.

    Trains the angles, then samples their state. ``objective_mode`` selects
    the objective and with it the optimizer:

    * ``mean`` (exact expectation) trains with exact gradients
      (:func:`~qopt.simulator.qaoa_value_and_gradient`). At depth 1 an 8x8
      grid of plain evaluations picks the three best starts, each refined
      by L-BFGS with a Moré–Thuente line search, as L-BFGS-B runs when
      there are no bounds (:func:`qopt._minimize.lbfgs`). Each further
      depth up to ``p`` maps the distinct refined optima of the depth
      below by INTERP and refines them again. If the budget runs out
      below depth ``p``, the best angles found get zero angles for the
      missing layers, which leaves their state unchanged. On an objective
      with a spin form (a QUBO or Ising source), depth 1 runs on
      :func:`~qopt.simulator.qaoa_p1_energy`: one call scores the whole
      grid, and each p=1 gradient is a complex step through it. Depth 2
      and up and other objectives use the statevector.
      ``extras["objective_value"]`` is the final state's mean energy.
    * ``cvar`` (tail mean of seeded samples; every evaluation reuses one
      derived seed so the optimizer sees a fixed landscape) is piecewise
      constant in the angles, so it searches a grid at 8 points per
      parameter for p=1, 4 for p=2 and 2 beyond, then refines the best grid
      points with Nelder-Mead (:func:`qopt._minimize.nelder_mead`, an
      in-tree port of scipy's).

    Evaluations stop at ``optimizer_budget``, counted in state preparations:
    a value-and-gradient call is charged as four plain evaluations, at least
    the layer passes it runs. A closed-form grid point or gradient is charged as
    the statevector call it replaces. Exhausting the budget flags the result
    instead of raising. ``p = 0`` just samples the plus state. The
    statevector cap is checked before any training, since the final state is
    always prepared. ``timings`` holds ``optimize`` (training; 0.0 at
    ``p = 0``) and ``total``.
    """
    obj = _objective_of(problem)
    p, optimizer_budget, shots, seed = _check_qaoa_args(p, objective_mode, alpha, optimizer_budget, shots, seed)
    started = time.perf_counter()
    final_params, trace, evaluations, budget_exhausted, best_value = _train(
        obj, p, objective_mode, alpha, optimizer_budget, shots, seed
    )
    optimize_time = time.perf_counter() - started if p else 0.0

    sv = qaoa_state(obj, final_params)
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
        },
    )


def _train(obj, p, objective_mode, alpha, optimizer_budget, shots, seed) -> tuple:
    # The angles, the trace, the evaluations, whether the budget ran out, and
    # the best value (inf at p = 0). Every caller prepares the angles' state
    # and the closed form builds none, so the cap is checked before training.
    _check_cap(obj.n)
    if p == 0:
        return QaoaParams(p=0, gammas=(), betas=()), [], 0, False, math.inf
    closed_form = objective_mode == "mean" and obj.spin_model() is not None
    eval_seed = derive_seed(seed, "cvar-eval")
    evaluations = 0
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
        # expectation(qaoa_state(...)) or cvar(sample(qaoa_state(...))) bit
        # for bit, taken from the run's (folded) amplitudes.
        spend(1)
        params = _params_of(vec)
        amps = _evolve(obj, params.gammas, params.betas)
        if objective_mode == "mean":
            value = _energy_sum(amps, _kept_table(obj), obj.n)
        else:
            hit, counts = _draw(_probabilities(amps, obj.n), shots, eval_seed)
            value = _tail_mean(energy_table(obj)[hit], counts, alpha)
        keep(vec, value)
        return value

    def value_and_gradient(vec: np.ndarray) -> tuple[float, np.ndarray]:
        spend(_GRADIENT_COST)
        if closed_form and len(vec) == 2:  # depth 1
            (g, b), h = vec, _COMPLEX_STEP
            energy = qaoa_p1_energy(obj, np.array([g + 1j * h, g]), np.array([b, b + 1j * h]))
            value, grad = float(energy[0].real), energy.imag / h
        else:
            value, grad = qaoa_value_and_gradient(obj, _params_of(vec))
        keep(vec, value)
        return value, grad

    def refine(start: np.ndarray) -> tuple[np.ndarray, float]:
        return lbfgs(value_and_gradient, start, **_LBFGS_OPTIONS)

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
        scored.sort(key=lambda r: r[0])
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
        return _params_of(best_vec, p), trace, evaluations, True, best_value
    return _params_of(best_vec, p), trace, evaluations, False, best_value


def _check_qaoa_args(p, objective_mode, alpha, optimizer_budget, shots, seed) -> tuple[int, int, int, int]:
    # qaoa_solve's and recursive_qaoa's argument checks, made before either
    # does any work; alpha must lie in (0, 1] only where CVaR reads it.
    if objective_mode not in ("mean", "cvar"):
        raise ValueError(f"unknown objective mode {objective_mode!r}")
    if objective_mode == "cvar":
        _check_alpha(alpha)
    else:
        check_real("alpha", alpha)
    return (
        as_count("p", p, least=0), as_count("optimizer_budget", optimizer_budget),
        as_count("shots", shots), as_count("seed", seed, least=0),
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

    Each level trains the ansatz on the current spin model as
    :func:`qaoa_solve` does, prepares the trained state once, reads its
    exact pair correlations over the couplings, and freezes the relation of
    the strongest pair (aligned for non-negative correlation, anti-aligned
    otherwise; ties resolve to the lowest index pair). Eliminations repeat
    until the model reaches ``cutoff`` variables, which are enumerated
    exactly, or until no coupling is left, when each spin follows the sign
    of its field; substitutions then unwind to a full assignment. With
    ``cutoff >= n`` this degenerates to plain enumeration and keeps its
    certificate. No level samples its state, so ``shots`` reaches only
    CVaR training; it is validated in either mode. ``p`` must be at least
    1: a depth-0 state is the plus state, whose pair correlations are all 0.
    """
    obj = _objective_of(problem)
    cutoff, p = as_count("cutoff", cutoff), as_count("p", p)
    p, optimizer_budget, shots, seed = _check_qaoa_args(p, objective_mode, alpha, optimizer_budget, shots, seed)
    started = time.perf_counter()
    if obj.n <= cutoff:
        return replace(
            brute_force(obj),
            timings={"total": time.perf_counter() - started},
            extras={"substitutions": (), "levels": 0, "cutoff": cutoff},
        )

    ising = obj.spin_model()
    if ising is None:
        raise TypeError("recursive reduction needs a quadratic model behind the objective")
    # original_of[v] maps a current variable index back to the input index.
    original_of = list(range(obj.n))
    substitutions: list[tuple[int, int, int]] = []
    trace = []
    while ising.n > cutoff and ising.J:
        view = ising.as_objective()
        level_seed = derive_seed(seed, "rqaoa-level", len(substitutions) + 1)
        params = _train(view, p, objective_mode, alpha, optimizer_budget, shots, level_seed)[0]
        correlations = _pair_correlations(qaoa_state(view, params), ising)
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
        extras={"substitutions": tuple(substitutions), "levels": len(substitutions), "cutoff": cutoff},
    )

