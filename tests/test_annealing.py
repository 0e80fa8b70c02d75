"""Simulated annealing: per-restart chains against the lockstep loops they replaced."""

import math
import warnings

import numpy as np
import pytest

from qopt.model import DiagonalObjective, IsingModel, QuboModel, index_to_bits, ising_to_qubo
from qopt.problems import gen_labs, gen_maxcut_r3r, gen_portfolio, gen_spin_glass
from qopt.solvers import _geometric_temperatures, _probe_temperature, simulated_annealing


def lockstep_reference(obj, sweeps, temperatures, restarts, seed):
    """The restart-lockstep numpy loop the chains replaced, probe included.

    All restarts advance together on one proposal order, drawing one uniform
    per restart per proposal and deciding with numpy's exp on every move.
    """
    rng = np.random.default_rng(seed)
    if temperatures is None:
        probes = min(256, 1 << min(obj.n, 16))
        idx = rng.integers(0, 1 << obj.n, size=probes, dtype=np.int64)
        flips = rng.integers(0, obj.n, size=probes)
        deltas = np.abs(obj.energies_at(idx ^ (np.int64(1) << flips)) - obj.energies_at(idx))
        t_hot = float(deltas.mean()) or 1.0
        temps = _geometric_temperatures(t_hot, max(t_hot * 1e-3, 1e-12), sweeps)
    else:
        temps = np.asarray(temperatures, dtype=np.float64)
    n = obj.n
    table = obj.energies_at(np.arange(1 << n, dtype=np.int64))
    state = rng.integers(0, 1 << n, size=restarts, dtype=np.int64)
    energy = table[state]
    best_e = energy.copy()
    best_s = state.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in temps:
            for v in rng.permutation(n):
                proposal = state ^ (np.int64(1) << int(v))
                delta = table[proposal] - energy
                accept = (delta <= 0) | (rng.random(restarts) < np.exp(-delta / t))
                state = np.where(accept, proposal, state)
                energy = np.where(accept, table[proposal], energy)
                improved = energy < best_e
                best_e = np.where(improved, energy, best_e)
                best_s = np.where(improved, state, best_s)
    winner = int(best_e.argmin())
    return (
        index_to_bits(int(best_s[winner]), n),
        float(best_e[winner]),
        tuple(float(e) for e in best_e),
        {"sweeps": sweeps, "restarts": restarts, "t_hot": float(temps[0]), "t_cold": float(temps[-1])},
    )


def field_lockstep_reference(obj, sweeps, temperatures, restarts, seed):
    """The restart-lockstep local-field loop the chains replaced above 20 variables.

    Dense fields for all restarts are updated with the flipped variable's
    full coupling row on every proposal, and numpy's exp decides every move.
    """
    rng = np.random.default_rng(seed)
    if temperatures is None:
        t_hot = _probe_temperature(obj, rng, None)
        temps = _geometric_temperatures(t_hot, max(t_hot * 1e-3, 1e-12), sweeps)
    else:
        temps = np.asarray(temperatures, dtype=np.float64)
    src = ising_to_qubo(obj.source) if isinstance(obj.source, IsingModel) else obj.source
    lin, pairs, offset = src.linear_vector(), src.pair_matrix(), src.offset
    n = obj.n
    x = rng.integers(0, 2, size=(restarts, n)).astype(np.float64)
    g = x @ pairs + lin
    energy = offset + x @ lin + 0.5 * np.einsum("ri,ri->r", x @ pairs, x)
    best_e = energy.copy()
    best_x = x.copy()
    for t in temps:
        for v in rng.permutation(n):
            delta = (1.0 - 2.0 * x[:, v]) * g[:, v]
            uphill = np.exp(-np.maximum(delta, 0.0) / t)
            accept = (delta <= 0) | (rng.random(restarts) < uphill)
            sign = np.where(accept, 1.0 - 2.0 * x[:, v], 0.0)
            x[accept, v] = 1.0 - x[accept, v]
            g += np.outer(sign, pairs[v])
            energy = energy + np.where(accept, delta, 0.0)
            improved = energy < best_e
            best_e = np.where(improved, energy, best_e)
            best_x[improved] = x[improved]
    winner = int(best_e.argmin())
    best = tuple(int(b) for b in best_x[winner])
    return (
        best,
        obj.value(best),
        tuple(float(e) for e in best_e),
        {"sweeps": sweeps, "restarts": restarts, "t_hot": float(temps[0]), "t_cold": float(temps[-1])},
    )


CASES = {
    "maxcut": lambda: gen_maxcut_r3r(12, seed=3),
    "sk-pm1": lambda: gen_spin_glass("complete", 11, dist="pm1", seed=4),
    "sk-gauss": lambda: gen_spin_glass("complete", 10, dist="gaussian", seed=5),
    "portfolio": lambda: gen_portfolio(9, 4, seed=6),
    "labs": lambda: gen_labs(10),
}


def infinite_walls():
    # A third of the patterns are forbidden outright, in blocks closed under
    # flips of bits 0 and 1: such a move has a NaN delta, which numpy's
    # comparisons reject.
    def energy(bits):
        k = sum(b << i for i, b in enumerate(bits))
        return math.inf if (k >> 2) % 3 == 0 else float((k * 7919) % 23)

    return DiagonalObjective(n=8, evaluator=energy, kind="native")


def explicit_schedule(sweeps):
    # Hot enough that many uphill moves are decided by the exponential.
    return list(np.geomspace(3.0, 0.05, sweeps))


@pytest.mark.parametrize("family", sorted(CASES))
@pytest.mark.parametrize("restarts", [1, 3, 8])
@pytest.mark.parametrize("schedule", ["default", "explicit"])
def test_chains_match_lockstep_reference(family, restarts, schedule):
    obj = CASES[family]().objective
    sweeps = 40
    temps = explicit_schedule(sweeps) if schedule == "explicit" else None
    for seed in (0, 7):
        assert_matches_reference(obj, sweeps, temps, restarts, seed)


def assert_matches_reference(obj, sweeps, temps, restarts, seed):
    res = simulated_annealing(obj, sweeps=sweeps, temperatures=temps, restarts=restarts, seed=seed)
    best, energy, trace, extras = lockstep_reference(obj, sweeps, temps, restarts, seed)
    assert res.best_assignment == best
    assert res.best_energy == energy
    assert res.trace == trace
    assert res.extras == extras


FIELD_CASES = {
    "maxcut-24": lambda: gen_maxcut_r3r(24, seed=3),
    "maxcut-64": lambda: gen_maxcut_r3r(64, seed=4),
    "maxcut-256": lambda: gen_maxcut_r3r(256, seed=5),
    "sk-gauss-22": lambda: gen_spin_glass("complete", 22, dist="gaussian", seed=6),
    "sk-gauss-30": lambda: gen_spin_glass("complete", 30, dist="gaussian", seed=7),
    "sk-pm1-22": lambda: gen_spin_glass("complete", 22, dist="pm1", seed=8),
    "sk-pm1-30": lambda: gen_spin_glass("complete", 30, dist="pm1", seed=9),
    "portfolio-24": lambda: gen_portfolio(24, 8, seed=10),
}


@pytest.mark.parametrize("family", sorted(FIELD_CASES))
@pytest.mark.parametrize("restarts", [1, 3, 8])
@pytest.mark.parametrize("schedule", ["default", "explicit"])
def test_field_chains_match_lockstep_reference(family, restarts, schedule):
    # Above 20 variables a QUBO or Ising source anneals on local fields.
    obj = FIELD_CASES[family]().objective
    sweeps = 6
    temps = explicit_schedule(sweeps) if schedule == "explicit" else None
    for seed in (0, 7):
        res = simulated_annealing(obj, sweeps=sweeps, temperatures=temps, restarts=restarts, seed=seed)
        best, energy, trace, extras = field_lockstep_reference(obj, sweeps, temps, restarts, seed)
        assert res.best_assignment == best
        assert res.best_energy == energy
        assert res.trace == trace
        assert res.extras == extras


def test_field_path_equals_value_path_on_integer_weights():
    # With integer weights the local-field sums are exact, so annealing the
    # QUBO and the same energies behind a bare evaluator walk one trajectory.
    rng = np.random.default_rng(11)
    n = 24
    terms = {(i, j): float(rng.integers(-4, 5)) for i in range(n) for j in range(i, n) if rng.random() < 0.3}
    obj = QuboModel(n=n, terms=terms, offset=2.0).as_objective()
    wrapped = DiagonalObjective(n=n, evaluator=obj.value)
    for restarts, temps in ((1, None), (3, None), (2, explicit_schedule(5)), (4, explicit_schedule(5))):
        sweeps = 5
        a = simulated_annealing(obj, sweeps=sweeps, temperatures=temps, restarts=restarts, seed=restarts)
        b = simulated_annealing(wrapped, sweeps=sweeps, temperatures=temps, restarts=restarts, seed=restarts)
        assert (a.best_assignment, a.best_energy, a.trace, a.extras) == (
            b.best_assignment, b.best_energy, b.trace, b.extras,
        )


@pytest.mark.parametrize("restarts", [1, 3, 8])
def test_infinite_energies_match_lockstep_reference(restarts):
    # Two sweeps, so that where a chain leaves the forbidden block shows.
    obj = infinite_walls()
    for seed in range(20):
        assert_matches_reference(obj, 2, [1.0, 0.5], restarts, seed)


def test_table_path_reads_no_energies_at(energies_at_calls):
    # The probe reads the cached table, so a table-path run prices nothing
    # index by index, with the default schedule as with an explicit one.
    obj = gen_spin_glass("complete", 10, dist="gaussian", seed=1).objective
    simulated_annealing(obj, sweeps=20, restarts=2, seed=3)
    simulated_annealing(obj, sweeps=3, temperatures=[2.0, 1.0, 0.5], seed=3)
    assert energies_at_calls == []


def test_cold_explicit_schedule_emits_no_warnings():
    # Downhill moves never evaluate an exponential, so -delta/t for a tiny t
    # cannot overflow.
    obj = gen_labs(12).objective
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = simulated_annealing(obj, sweeps=5, temperatures=[1e-3] * 5, restarts=3, seed=0)
    assert res.best_energy == min(res.trace)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_schedule_rejected(bad):
    obj = gen_maxcut_r3r(6, seed=0).objective
    with pytest.raises(ValueError):
        simulated_annealing(obj, sweeps=3, temperatures=[1.0, bad, 0.1])


def test_lowered_cap_falls_back_to_local_fields(monkeypatch):
    # Above the statevector cap the table is never built; annealing runs on
    # local fields instead of failing, and still finds a valid cut.
    monkeypatch.setenv("QOPT_STATEVECTOR_CAP", "10")
    inst = gen_maxcut_r3r(14, seed=2)
    res = simulated_annealing(inst, sweeps=200, restarts=2, seed=0)
    assert "energy_table" not in inst.objective._cache
    assert res.best_energy == inst.objective.value(res.best_assignment)


def test_guard_band_covers_exp_disagreement():
    # math.exp decides only outside a relative 2^-40 band, which must cover
    # any difference from numpy's exp on the uphill range x < 0.
    rng = np.random.default_rng(0)
    x = -np.concatenate([rng.exponential(3.0, 20000), rng.uniform(0.0, 700.0, 20000)])
    ref = np.exp(x)
    ours = np.array([math.exp(v) for v in x.tolist()])
    keep = ref >= 1e-300
    assert (np.abs(ours - ref)[keep] <= ref[keep] * 2.0**-44).all()
