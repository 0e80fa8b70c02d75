"""Measurements behind the shipped guarantees, one body per guarantee.

``qopt verify`` runs each on a short prefix of its suite, the acceptance
criteria on the whole suite. A function takes its sizes, counts and master
seed, draws from ``derive_seed(seed, <suite label>)``, and returns what it
measured (a largest gap, a smallest overlap, counts, report text), never a
verdict: each caller holds it to its own threshold. An independent reference
(a closed form, a second enumerator) is passed in by the caller, so the
criteria keep their oracles outside the package.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from qopt._rng import derive_seed
from qopt.bench import BenchmarkConfig, approximation_ratio, emit_report, run_benchmark
from qopt.model import (
    ENERGY_TOL,
    ConstrainedModel,
    IsingModel,
    LinearConstraint,
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
    Statevector,
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

__all__ = [
    "GroverRuns",
    "CvarContract",
    "random_qubo",
    "round_trip_drift",
    "table_replay_drift",
    "penalty_gap",
    "single_qubit_drift",
    "p1_closed_form_drift",
    "gibbs_drift",
    "gibbs_by_value",
    "cvar_contract",
    "grover_runs",
    "anneal_min_overlap",
    "labs_optimum_gap",
    "labs_by_sequence",
    "labs_symmetry_breaks",
    "decomposition_gap",
    "fixing_drift",
    "ratio_drift",
    "replay_reports",
]


class GroverRuns(NamedTuple):
    runs: int
    wins: int  # runs whose best energy is within ENERGY_TOL of the optimum
    rises: int  # runs whose threshold trace is not strictly decreasing
    empty_misses: int  # runs that certified an empty marked set yet missed the optimum


class CvarContract(NamedTuple):
    mean_gap: float  # |CVaR at alpha = 1 - sample mean|
    rise: float  # largest increase of CVaR as alpha shrinks (0.0 when none)
    best_gap: float  # |CVaR at alpha = 1e-12 - best sampled energy|


def _worst(gaps) -> float:
    """The largest of the gaps, 0.0 for none; a NaN among them is returned."""
    return float(np.max(np.asarray(gaps, dtype=np.float64), initial=0.0))


def _gap(got, want) -> float:
    return _worst(np.abs(np.subtract(got, want)))


def random_qubo(n: int, rng: np.random.Generator, fill: float) -> QuboModel:
    """A QUBO whose upper-triangle terms (diagonal included) are each kept
    with probability ``fill`` and drawn standard normal, in row order."""
    terms = {}
    for i in range(n):
        for j in range(i, n):
            if rng.random() < fill:
                terms[(i, j)] = float(rng.normal())
    return QuboModel(n=n, terms=terms)


def round_trip_drift(seed: int, models: int, sizes: range) -> float:
    """Largest energy change, over every state, of a QUBO -> Ising -> QUBO
    round trip of random QUBOs with sizes drawn from ``sizes``."""
    rng = np.random.default_rng(derive_seed(seed, "round-trip-suite"))
    drifts = []
    for _ in range(models):
        q = random_qubo(int(rng.integers(sizes.start, sizes.stop)), rng, 0.6)
        back = ising_to_qubo(qubo_to_ising(q))
        states = np.arange(1 << q.n, dtype=np.int64)
        drifts.append(_gap(q.as_objective().energies_at(states), back.as_objective().energies_at(states)))
    return _worst(drifts)


def table_replay_drift(seed: int, n: int, states: int) -> float:
    """Largest gap between an energy table and its per-index replay
    (``energies_at`` and ``value``) at ``states`` random indices, for a QUBO,
    an Ising model with fields and an offset, and a cubic Ising model."""
    rng = np.random.default_rng(derive_seed(seed, "table-replay-suite"))
    pairs = {(i, j): float(rng.normal()) for i in range(n) for j in range(i + 1, n)}
    cubic = [(*sorted(int(v) for v in rng.choice(n, size=3, replace=False)), float(rng.normal())) for _ in range(5)]
    fields = tuple(float(v) for v in rng.normal(size=n))
    objectives = (
        random_qubo(n, rng, 0.6).as_objective(),
        IsingModel(n=n, h=fields, J=pairs, offset=0.5).as_objective(),
        IsingModel(n=n, J=pairs).as_objective(cubic),
    )
    gaps = []
    for obj in objectives:
        table = energy_table(obj)
        idx = rng.integers(0, 1 << n, size=states)
        gaps.append(_gap(obj.energies_at(idx), table[idx]))
        gaps.append(_gap([obj.value(index_to_bits(int(i), n)) for i in idx], table[idx]))
    return _worst(gaps)


def penalty_gap(seed: int, models: int, n: int) -> float:
    """Largest gap between the optimum of a penalty-compiled QUBO and the
    best feasible energy by enumeration, over random n-variable QUBOs with
    one equality and one inequality that a random witness satisfies."""
    rng = np.random.default_rng(derive_seed(seed, "penalty-suite"))
    gaps = []
    for _ in range(models):
        q = random_qubo(n, rng, 0.6)
        witness = rng.integers(0, 2, size=n)
        eq_coeffs = tuple(float(rng.integers(0, 3)) for _ in range(n))
        iq_coeffs = tuple(float(rng.integers(0, 3)) for _ in range(n))
        eq_bound = float(np.dot(eq_coeffs, witness))
        iq_bound = float(np.dot(iq_coeffs, witness)) + float(rng.integers(0, 2))
        cm = ConstrainedModel(
            objective=q,
            equalities=(LinearConstraint(coeffs=eq_coeffs, bound=eq_bound),),
            inequalities=(LinearConstraint(coeffs=iq_coeffs, bound=iq_bound),),
        )
        compiled_best = brute_force(penalty_encode(cm).as_objective()).c_min
        feasible_best = min(
            q.energy(bits)
            for bits in (index_to_bits(idx, n) for idx in range(1 << n))
            if abs(np.dot(eq_coeffs, bits) - eq_bound) <= 1e-9 and np.dot(iq_coeffs, bits) <= iq_bound + 1e-9
        )
        gaps.append(abs(compiled_best - feasible_best))
    return _worst(gaps)


def single_qubit_drift(points: int, reference: Callable) -> float:
    """Largest gap of the one-spin (h = 1) p=1 ansatz energy from
    ``reference(gamma, beta)`` on a points x points grid over [0, pi] x
    [0, pi/2], and from -1 at (pi/4, pi/4)."""
    obj = IsingModel(n=1, h=(1.0,)).as_objective()

    def energy(gamma, beta):
        return expectation(qaoa_state(obj, QaoaParams(p=1, gammas=(gamma,), betas=(beta,))), obj)

    gaps = [
        abs(energy(gamma, beta) - reference(gamma, beta))
        for gamma in np.linspace(0.0, np.pi, points)
        for beta in np.linspace(0.0, np.pi / 2, points)
    ]
    gaps.append(abs(energy(np.pi / 4, np.pi / 4) - (-1.0)))
    return _worst(gaps)


def p1_closed_form_drift(seed: int, n: int, angles: int) -> float:
    """Largest gap, relative to max(1, max |energy|), between
    ``qaoa_p1_energy`` and the statevector's p=1 energy at ``angles`` random
    angle pairs, on a 3-regular MaxCut graph and an Ising model with fields,
    both on n variables."""
    rng = np.random.default_rng(derive_seed(seed, "p1-closed-form-suite"))
    with_fields = IsingModel(
        n=n,
        h=tuple(float(v) for v in rng.normal(size=n)),
        J={(i, j): float(rng.normal()) for i in range(n) for j in range(i + 1, n)},
        offset=0.5,
    )
    gaps = []
    for obj in (gen_maxcut_r3r(n, seed=int(rng.integers(1 << 32))).objective, with_fields.as_objective()):
        scale = max(1.0, float(np.abs(energy_table(obj)).max()))
        gammas, betas = rng.uniform(-np.pi, np.pi, (2, angles))
        for gamma, beta, closed in zip(gammas, betas, qaoa_p1_energy(obj, gammas, betas)):
            got = expectation(qaoa_state(obj, QaoaParams(p=1, gammas=(gamma,), betas=(beta,))), obj)
            gaps.append(abs(got - closed) / scale)
    return _worst(gaps)


def gibbs_drift(seed: int, models: int, sizes: range, betas: tuple[float, ...], reference: Callable) -> float:
    """Largest gap of ``gibbs_distribution`` from ``reference(obj, beta)`` at
    each beta, and at beta = 0 from the uniform distribution, over random
    QUBOs with sizes drawn from ``sizes``."""
    rng = np.random.default_rng(derive_seed(seed, "gibbs-suite"))
    gaps = []
    for _ in range(models):
        n = int(rng.integers(sizes.start, sizes.stop))
        obj = random_qubo(n, rng, 0.6).as_objective()
        for beta in betas:
            gaps.append(_gap(gibbs_distribution(obj, beta), reference(obj, beta)))
        gaps.append(_gap(gibbs_distribution(obj, 0.0), 1.0 / (1 << n)))
    return _worst(gaps)


def gibbs_by_value(obj, beta: float) -> np.ndarray:
    """Boltzmann weights at inverse temperature beta from ``obj.value`` at each pattern."""
    energies = np.array([obj.value(index_to_bits(idx, obj.n)) for idx in range(1 << obj.n)])
    weights = np.exp(-beta * (energies - energies.min()))
    return weights / weights.sum()


def cvar_contract(seed: int, trials: int, sizes: range, shots: range) -> CvarContract:
    """How far CVaR strays from its contract on samples of the uniform state
    of random QUBOs: the sample mean at alpha = 1, no rise as alpha shrinks
    through 1, 0.6, 0.3, 0.1 and one shot, the best sample at alpha -> 0."""
    rng = np.random.default_rng(derive_seed(seed, "cvar-suite"))
    mean_gaps, rises, best_gaps = [], [], []
    for trial in range(trials):
        n = int(rng.integers(sizes.start, sizes.stop))
        obj = random_qubo(n, rng, 0.6).as_objective()
        count = int(rng.integers(shots.start, shots.stop))
        samples = sample(Statevector.plus(n), shots=count, seed=trial, obj=obj)
        mean_gaps.append(abs(cvar(samples, 1.0) - float(np.mean(samples.energy_values()))))
        values = [cvar(samples, alpha) for alpha in (1.0, 0.6, 0.3, 0.1, 1.0 / count)]
        rises.extend(later - earlier for earlier, later in zip(values, values[1:]))
        best_gaps.append(abs(cvar(samples, 1e-12) - samples.best()[1]))
    return CvarContract(_worst(mean_gaps), _worst(rises), _worst(best_gaps))


def grover_runs(seed: int, instances: int, sizes: range, solver_seeds: int, max_rounds: int) -> GroverRuns:
    """Grover adaptive search with solver seeds 0..solver_seeds-1 on each of
    ``instances`` random QUBOs, instance i of size ``sizes[i % len(sizes)]``."""
    runs = wins = rises = empty_misses = 0
    for i in range(instances):
        rng = np.random.default_rng(derive_seed(seed, "grover-suite", i))
        obj = random_qubo(sizes[i % len(sizes)], rng, 0.5).as_objective()
        c_min = brute_force(obj).c_min
        for solver_seed in range(solver_seeds):
            res = grover_adaptive_search(obj, seed=solver_seed, max_rounds=max_rounds)
            runs += 1
            wins += res.best_energy <= c_min + ENERGY_TOL
            rises += any(later >= earlier for earlier, later in zip(res.trace, res.trace[1:]))
            empty_misses += res.extras["marked_set_empty"] and res.best_energy != c_min
    return GroverRuns(runs, wins, rises, empty_misses)


def anneal_min_overlap(suite, n: int, T: float, steps: int) -> float:
    """Smallest ground-state overlap that a Trotterized anneal of duration T
    in ``steps`` steps reaches on complete-graph spin glasses of n spins, one
    per (coupling distribution, instance seed) pair of ``suite``."""
    overlaps = []
    for dist, instance_seed in suite:
        obj = gen_spin_glass("complete", n, dist=dist, seed=instance_seed).objective
        overlaps.append(ground_state_overlap(anneal_trotter(obj, T=T, steps=steps), obj))
    return float(np.min(overlaps))


def labs_optimum_gap(sizes, reference: Callable) -> float:
    """Largest gap between brute force's LABS optimum at each length k in
    ``sizes`` and the minimum of ``reference(k)``, all 2^k sidelobe energies."""
    return _worst([abs(brute_force(gen_labs(k)).c_min - float(np.min(reference(k)))) for k in sizes])


def labs_by_sequence(k: int) -> list[float]:
    """``labs_energy`` of every length-k sequence, in index order (bit i set: s_i = -1)."""
    return [labs_energy([1 - 2 * b for b in index_to_bits(idx, k)]) for idx in range(1 << k)]


def labs_symmetry_breaks(seed: int, sequences: int, lengths: range) -> int:
    """Random +-1 sequences, lengths drawn from ``lengths``, whose sidelobe
    energy changes under negation or reversal."""
    rng = np.random.default_rng(derive_seed(seed, "labs-symmetry"))
    breaks = 0
    for _ in range(sequences):
        seq = rng.choice((-1, 1), size=int(rng.integers(lengths.start, lengths.stop)))
        energy = labs_energy(seq)
        breaks += labs_energy(-seq) != energy or labs_energy(seq[::-1]) != energy
    return breaks


def decomposition_gap(seed: int, models: int, block_sizes: range) -> float:
    """Largest gap between the optimum of a block-diagonal QUBO (two or three
    random blocks, sizes drawn from ``block_sizes``) and both the sum of its
    components' optima and the energy of their concatenated optimal bits."""
    rng = np.random.default_rng(derive_seed(seed, "decompose-suite"))
    gaps = []
    for _ in range(models):
        sizes = [int(rng.integers(block_sizes.start, block_sizes.stop)) for _ in range(int(rng.integers(2, 4)))]
        terms = {}
        base = 0
        for size in sizes:
            block = random_qubo(size, rng, 0.8)
            for (i, j), coeff in block.terms.items():
                terms[(base + i, base + j)] = coeff
            for i in range(size):
                # linear anchor so every variable lands in some component
                terms.setdefault((base + i, base + i), 0.0)
            base += size
        joined = QuboModel(n=base, terms=terms)
        c_min = brute_force(joined.as_objective()).c_min
        assignment = {}
        component_total = 0.0
        for comp, index_map in decompose_components(joined):
            comp_res = brute_force(comp.as_objective())
            component_total += comp_res.c_min
            assignment.update(dict(zip(index_map, comp_res.best_assignment)))
        bits = tuple(assignment[i] for i in range(base))
        gaps += [abs(component_total - c_min), abs(joined.energy(bits) - c_min)]
    return _worst(gaps)


def fixing_drift(seed: int, models: int, sizes: range) -> float:
    """Largest energy gap between random QUBOs (sizes drawn from ``sizes``)
    and their ``fix_variables`` reductions, one to three variables fixed,
    over every assignment of the free variables."""
    rng = np.random.default_rng(derive_seed(seed, "fixing-suite"))
    gaps = []
    for _ in range(models):
        n = int(rng.integers(sizes.start, sizes.stop))
        q = random_qubo(n, rng, 0.6)
        fixed_vars = sorted(rng.choice(n, size=int(rng.integers(1, 4)), replace=False))
        fixture = {int(v): int(rng.integers(0, 2)) for v in fixed_vars}
        reduced = fix_variables(q, fixture)
        free = [i for i in range(n) if i not in fixture]
        for idx in range(1 << len(free)):
            sub = index_to_bits(idx, len(free))
            full = [0] * n
            for v, b in [*fixture.items(), *zip(free, sub)]:
                full[v] = b
            gaps.append(abs(q.energy(full) - reduced.energy(sub)))
    return _worst(gaps)


def ratio_drift(seed: int, draws: int) -> float:
    """Largest gap of ``approximation_ratio`` from (c_max - v)/(c_max - c_min)
    and from itself after shifting or positively scaling v, c_min and c_max,
    over random draws."""
    rng = np.random.default_rng(derive_seed(seed, "metrics-suite"))
    gaps = []
    for _ in range(draws):
        c_min = float(rng.normal())
        c_max = c_min + float(abs(rng.normal())) + 0.1
        value = float(rng.uniform(c_min, c_max))
        base = approximation_ratio(value, c_min, c_max)
        offset = float(rng.normal())
        scale = float(rng.uniform(0.5, 3.0))
        shifted = approximation_ratio(value + offset, c_min + offset, c_max + offset)
        scaled = approximation_ratio(value * scale, c_min * scale, c_max * scale)
        gaps += [abs(base - (c_max - value) / (c_max - c_min)), abs(shifted - base), abs(scaled - base)]
    return _worst(gaps)


def replay_reports(seed: int, maxcut_n: int, spin_glass_n: int, sweeps: int) -> tuple[str, str]:
    """The CSV reports of two runs, under a zero clock, of one annealing
    cell on a MaxCut and a complete spin-glass instance, master seed ``seed``."""
    config = BenchmarkConfig(
        instances=(
            {"family": "maxcut-r3r", "params": {"n": maxcut_n, "seed": 0}},
            {"family": "spin-glass", "params": {"topology": "complete", "n": spin_glass_n, "seed": 0}},
        ),
        solvers=({"algorithm": "annealing", "params": {"sweeps": sweeps, "restarts": 1}},),
        repetitions=1,
        master_seed=seed,
    )
    first, second = (emit_report(run_benchmark(config, clock=lambda: 0.0), "csv") for _ in range(2))
    return first, second
