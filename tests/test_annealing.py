"""Simulated annealing: per-restart chains against the lockstep loops they replaced."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qopt.model import DiagonalObjective, QuboModel, index_to_bits, ising_to_qubo
from qopt.problems import gen_labs, gen_maxcut_r3r, gen_portfolio, gen_spin_glass
from qopt.simulator import energy_table
from qopt.solvers import _EXP_BAND_HI, _chains, _geometric_temperatures, simulated_annealing


class ScriptedRng:
    """A generator stand-in that hands out fixed starts, orders and uniforms.

    ``shuffle`` writes the next order into its argument in place. There is
    no ``permutation``, so a chain that draws its order with one fails
    loudly.
    ``random`` returns the next uniforms in the shape asked for, or writes
    them into ``out``, so one ``(n, restarts)`` block and ``n`` draws of
    ``restarts`` read the same values in the same order.
    """

    def __init__(self, starts, orders, uniforms):
        self.starts = np.asarray(starts, dtype=np.int64)
        self.orders = iter(orders)
        self.uniforms = np.asarray(uniforms, dtype=np.float64).ravel()
        self.used = 0

    def integers(self, low, high, size, dtype):
        return self.starts.copy()

    def shuffle(self, x):
        x[:] = next(self.orders)

    def random(self, shape=None, out=None):
        count = int(np.prod(shape if out is None else out.shape))
        block = self.uniforms[self.used:self.used + count]
        self.used += count
        if out is None:
            return block.reshape(shape)
        out[...] = block.reshape(out.shape)
        return out


def lockstep_reference(obj, sweeps, temperatures, restarts, seed):
    """The restart-lockstep numpy loop the chains replaced, probe included.

    All restarts advance together on one proposal order, drawing one uniform
    per restart per proposal and deciding with numpy's exp on every move.
    """
    rng = seed if isinstance(seed, ScriptedRng) else np.random.default_rng(seed)
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
            # numpy's own permutation(n), spelled out so that a ScriptedRng
            # can supply the order.
            order = np.arange(n)
            rng.shuffle(order)
            for v in order:
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


def spin_field(spin, row, v):
    # -2 (h_v + sum J_vu z_u), its terms added in the order the couplings are listed.
    acc = spin.h[v]
    for (a, b), c in spin.J.items():
        if c != 0.0 and v in (a, b):
            acc += c * (1 - 2 * row[a + b - v])
    return -2.0 * acc


def field_lockstep_reference(obj, sweeps, temperatures, restarts, seed):
    """The restart-lockstep local-field loop the chains replaced above 20 variables.

    The probe draws bit rows and prices each flip of v by |g_v|. Start
    fields come from the spin form, and each start energy and each
    restart's best energy is ``obj.value``. Dense fields for all restarts
    are updated with the flipped variable's full QUBO coupling row on every
    proposal, and numpy's exp decides every move.
    """
    rng = np.random.default_rng(seed)
    spin = obj.spin_model()
    n = obj.n
    if temperatures is None:
        probes = min(256, 1 << min(n, 16))
        rows = rng.integers(0, 2, size=(probes, n))
        flips = rng.integers(0, n, size=probes)
        t_hot = float(np.mean([abs(spin_field(spin, row, v)) for row, v in zip(rows, flips)])) or 1.0
        temps = _geometric_temperatures(t_hot, max(t_hot * 1e-3, 1e-12), sweeps)
    else:
        temps = np.asarray(temperatures, dtype=np.float64)
    # Entry (i, j) of the symmetric, zero-diagonal matrix holds the QUBO's
    # full x_i x_j coefficient: a flip of x_v moves g by row v.
    pairs = np.zeros((n, n))
    for (i, j), c in ising_to_qubo(spin).terms.items():
        if i != j:
            pairs[i, j] += c
            pairs[j, i] += c
    bits = rng.integers(0, 2, size=(restarts, n))
    g = np.empty((restarts, n))
    for r, row in enumerate(bits.tolist()):
        for v in range(n):
            g[r, v] = spin_field(spin, row, v)
    energy = np.array([obj.value(row) for row in bits])
    x = bits.astype(np.float64)
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
    # Each restart's best state is re-priced: the summed deltas carry rounding.
    best_e = np.array([obj.value(tuple(int(b) for b in row)) for row in best_x])
    winner = int(best_e.argmin())
    return (
        tuple(int(b) for b in best_x[winner]),
        float(best_e[winner]),
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


def infinite_walls(table_objective):
    # A third of the patterns are forbidden outright, in blocks closed under
    # flips of bits 0 and 1: such a move has a NaN delta, which numpy's
    # comparisons reject.
    return table_objective([math.inf if (k >> 2) % 3 == 0 else float((k * 7919) % 23) for k in range(1 << 8)])


def explicit_schedule(sweeps):
    # Hot enough that many uphill moves are decided by the exponential.
    return list(np.geomspace(3.0, 0.05, sweeps))


def cold_schedule(sweeps):
    # Cold enough that chains freeze early, most within 7 sweeps and the
    # restarts of one run at different sweeps, so most later sweeps reject
    # every proposal and are skipped.
    return list(np.geomspace(0.3, 0.02, sweeps))


SCHEDULES = {"default": lambda sweeps: None, "explicit": explicit_schedule, "cold": cold_schedule}


@pytest.mark.parametrize("family", sorted(CASES))
@pytest.mark.parametrize("restarts", [1, 3, 8, 4])
@pytest.mark.parametrize("schedule", list(SCHEDULES))
def test_chains_match_lockstep_reference(family, restarts, schedule):
    obj = CASES[family]().objective
    sweeps = 40
    temps = SCHEDULES[schedule](sweeps)
    for seed in (0, 7):
        assert_matches_reference(obj, sweeps, temps, restarts, seed)


def assert_matches_reference(obj, sweeps, temps, restarts, seed):
    res = simulated_annealing(obj, sweeps=sweeps, temperatures=temps, restarts=restarts, seed=seed)
    best, energy, trace, extras = lockstep_reference(obj, sweeps, temps, restarts, seed)
    assert res.best_assignment == best
    assert res.best_energy == energy
    assert res.trace == trace
    assert res.extras == extras


def value_lockstep_reference(obj, temperatures, restarts, seed):
    """The restart-lockstep loop on bit rows priced by ``obj.value`` alone.

    This is the source above 20 variables when the objective has no spin
    form; the schedule is explicit, so nothing is probed.
    """
    rng = np.random.default_rng(seed)
    n = obj.n
    bits = rng.integers(0, 2, size=(restarts, n))
    energy = np.array([obj.value(row) for row in bits])
    best_e = energy.copy()
    best_x = bits.copy()
    with np.errstate(over="ignore"):
        for t in temperatures:
            for v in rng.permutation(n):
                proposal = bits.copy()
                proposal[:, v] ^= 1
                priced = np.array([obj.value(row) for row in proposal])
                delta = priced - energy
                accept = (delta <= 0) | (rng.random(restarts) < np.exp(-delta / t))
                bits = np.where(accept[:, None], proposal, bits)
                energy = np.where(accept, priced, energy)
                improved = energy < best_e
                best_e = np.where(improved, energy, best_e)
                best_x[improved] = bits[improved]
    winner = int(best_e.argmin())
    return (
        tuple(int(b) for b in best_x[winner]),
        float(best_e[winner]),
        tuple(float(e) for e in best_e),
        {"sweeps": len(temperatures), "restarts": restarts, "t_hot": temperatures[0], "t_cold": temperatures[-1]},
    )


def test_frozen_value_path_chain_skips_its_sweeps(monkeypatch):
    # LABS has no spin form, so above the statevector cap every proposal
    # costs one obj.value call. On a cold schedule the chain freezes within a
    # few sweeps; a sweep that can accept nothing is skipped, not priced.
    monkeypatch.setenv("QOPT_STATEVECTOR_CAP", "20")
    obj = gen_labs(21).objective
    sweeps = 200
    temps = cold_schedule(sweeps)
    expected = value_lockstep_reference(obj, temps, 1, seed=2)
    calls = []
    original = DiagonalObjective.value

    def counted(self, bits):
        calls.append(len(bits))
        return original(self, bits)

    monkeypatch.setattr(DiagonalObjective, "value", counted)
    res = simulated_annealing(obj, sweeps=sweeps, temperatures=temps, seed=2)
    assert (res.best_assignment, res.best_energy, res.trace, res.extras) == expected
    assert len(calls) < obj.n * sweeps / 2


def test_skip_bound_edges_on_a_frozen_state(table_objective):
    # State 0 is a local minimum whose cheapest flip, of bit 0, costs 1. The
    # first sweep rejects all three flips. The second one's least uniform
    # sits exactly at P * hi, P = exp(-1 / t): the sweep is skipped, and the
    # loop would have rejected it too. The third holds an exact 0.0, which
    # still accepts the uphill flip and opens the way down to state 3.
    energies = [0.0, 1.0, 2.0, -5.0, 3.0, 4.0, 5.0, 6.0]
    obj = table_objective(energies)
    t = 0.5
    at_bound = math.exp(-1.0 / t) * _EXP_BAND_HI
    uniforms = [[0.9, 0.9, 0.9], [at_bound, 0.9, 0.9], [0.0, 0.9, 0.9]]
    temps = [t] * len(uniforms)

    def script(starts):
        return ScriptedRng(starts, [[0, 1, 2]] * len(uniforms), uniforms)

    best, energy, trace, _ = lockstep_reference(obj, len(temps), temps, 1, script([0]))
    assert energy == -5.0
    calls = []
    original = DiagonalObjective.value

    def counted(self, bits):
        calls.append(tuple(bits))
        return original(self, bits)

    # With no table the chain prices by obj.value, so a skipped sweep shows.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DiagonalObjective, "value", counted)
        _, best_states, per_restart = _chains(obj, None, len(temps), np.array(temps), 1, script([[0, 0, 0]]))
    assert (index_to_bits(best_states[0], obj.n), per_restart[0]) == (best, energy)
    assert tuple(per_restart) == trace
    # The start, three flips in each of two sweeps, and the best state.
    assert len(calls) == 1 + 3 + 3 + 1


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
@pytest.mark.parametrize("restarts", [1, 3, 8, 4])
@pytest.mark.parametrize("schedule", list(SCHEDULES))
def test_field_chains_match_lockstep_reference(family, restarts, schedule):
    # Above 20 variables a QUBO or Ising source anneals on local fields.
    obj = FIELD_CASES[family]().objective
    sweeps = 6
    temps = SCHEDULES[schedule](sweeps)
    for seed in (0, 7):
        res = simulated_annealing(obj, sweeps=sweeps, temperatures=temps, restarts=restarts, seed=seed)
        best, energy, trace, extras = field_lockstep_reference(obj, sweeps, temps, restarts, seed)
        assert res.best_assignment == best
        assert res.best_energy == energy
        assert res.trace == trace
        assert res.extras == extras
        assert min(res.trace) == res.best_energy


@pytest.mark.parametrize("family", ["maxcut-64", "sk-gauss-30"])
def test_local_fields_build_no_dense_arrays(family):
    # The memory itself is held by test_local_field_memory_is_linear_in_n.
    obj = FIELD_CASES[family]().objective
    res = simulated_annealing(obj, sweeps=5, restarts=3, seed=1)
    assert res.best_energy == obj.value(res.best_assignment)


def test_local_field_memory_is_linear_in_n():
    # The fields come from coupling lists: an n x n float matrix alone would
    # take 8 MiB at n=1024.
    obj = gen_maxcut_r3r(1024, seed=0).objective
    tracemalloc.start()
    try:
        simulated_annealing(obj, sweeps=3, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_field_path_equals_value_path_on_integer_weights(monkeypatch):
    # With integer weights the local-field sums are exact, so annealing the
    # QUBO and, above the statevector cap, the same program with no source
    # behind it walk one trajectory.
    monkeypatch.setenv("QOPT_STATEVECTOR_CAP", "20")
    rng = np.random.default_rng(11)
    n = 24
    terms = {(i, j): float(rng.integers(-4, 5)) for i in range(n) for j in range(i, n) if rng.random() < 0.3}
    obj = QuboModel(n=n, terms=terms, offset=2.0).as_objective()
    wrapped = DiagonalObjective(n=n, program=obj.program)
    for restarts, temps in ((1, None), (3, None), (2, explicit_schedule(5)), (4, explicit_schedule(5))):
        sweeps = 5
        a = simulated_annealing(obj, sweeps=sweeps, temperatures=temps, restarts=restarts, seed=restarts)
        b = simulated_annealing(wrapped, sweeps=sweeps, temperatures=temps, restarts=restarts, seed=restarts)
        assert (a.best_assignment, a.best_energy, a.trace, a.extras) == (
            b.best_assignment, b.best_energy, b.trace, b.extras,
        )


@pytest.mark.parametrize("restarts", [1, 3, 8])
def test_infinite_energies_match_lockstep_reference(restarts, table_objective):
    # Two sweeps, so that where a chain leaves the forbidden block shows.
    obj = infinite_walls(table_objective)
    for seed in range(20):
        assert_matches_reference(obj, 2, [1.0, 0.5], restarts, seed)


def test_table_path_reads_no_energies_at(energies_at_calls):
    # The probe reads the cached table, so a table-path run prices nothing
    # index by index, with the default schedule as with an explicit one.
    obj = gen_spin_glass("complete", 10, dist="gaussian", seed=1).objective
    simulated_annealing(obj, sweeps=20, restarts=2, seed=3)
    simulated_annealing(obj, sweeps=3, temperatures=[2.0, 1.0, 0.5], seed=3)
    assert energies_at_calls == []


def test_field_path_probe_prices_no_energies(energies_at_calls, monkeypatch):
    # Off the table the probe prices its flips by local fields, so obj.value
    # runs only for each restart's start and best state.
    obj = gen_maxcut_r3r(256, seed=5).objective
    calls = []
    original = DiagonalObjective.value

    def counted(self, bits):
        calls.append(len(bits))
        return original(self, bits)

    monkeypatch.setattr(DiagonalObjective, "value", counted)
    simulated_annealing(obj, sweeps=3, restarts=4, seed=0)
    assert calls == [256] * 8
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


def test_cached_table_read_up_to_the_cap(monkeypatch):
    # LABS has no spin form, so up to the statevector cap it anneals on the
    # table, cached or not, and no move is priced by obj.value; above the cap
    # the table is not read, and obj.value prices every move.
    obj = gen_labs(21).objective
    energy_table(obj)
    expected = lockstep_reference(obj, 5, None, 2, 4)
    calls = []
    original = DiagonalObjective.value

    def counted(self, bits):
        calls.append(len(bits))
        return original(self, bits)

    monkeypatch.setattr(DiagonalObjective, "value", counted)
    res = simulated_annealing(obj, sweeps=5, restarts=2, seed=4)
    assert calls == []
    assert (res.best_assignment, res.best_energy, res.trace, res.extras) == expected
    monkeypatch.setenv("QOPT_STATEVECTOR_CAP", "20")
    simulated_annealing(obj, sweeps=5, restarts=2, seed=4)
    assert len(calls) > obj.n


def test_list_shuffle_draws_as_permutation():
    # The chains draw each sweep's order by shuffling a list; that must
    # equal permutation(n), the draw the lockstep loops make, and leave the
    # generator in the same state, buffered 32-bit word included.
    for seed in range(3):
        for n in range(70):
            drawn, shuffled = np.random.default_rng(seed), np.random.default_rng(seed)
            order = list(range(n))
            shuffled.shuffle(order)
            assert order == drawn.permutation(n).tolist()
            assert shuffled.bit_generator.state == drawn.bit_generator.state


def test_uniform_next_to_the_exp_is_decided_by_math_exp(table_objective):
    # From state 0, an uphill flip of bit 0 (delta 1) whose uniform sits at
    # or next to math.exp's and numpy's value of exp(-1 / t), then a flip of
    # bit 1 that leads down to -5 only if the first was accepted. Where the
    # two exps differ (temperatures that show it come first), math.exp
    # decides.
    energies = [0.0, 1.0, 2.0, -5.0]
    obj = table_objective(energies)
    temps = sorted((0.05 + k * 1e-5 for k in range(2000)), key=lambda t: math.exp(-1 / t) == np.exp(-1 / t))
    for t in temps[:10]:
        for p in {math.exp(-1 / t), float(np.exp(-1 / t))}:
            for u in (np.nextafter(p, 0.0), p, np.nextafter(p, 1.0)):
                script = ScriptedRng([0], [[0, 1]], [[u], [0.9]])
                _, _, per_restart = _chains(obj, np.array(energies), 1, np.array([t]), 1, script)
                assert per_restart == [-5.0 if u < math.exp(-1 / t) else 0.0]


def test_random_into_block_draws_as_a_fresh_array():
    # Each sweep draws its uniforms into one reused block; that must give
    # the bytes random((n, restarts)) returns and leave the same generator
    # state, between shuffles as the chains make them.
    for seed in range(3):
        for n, restarts in ((1, 1), (3, 1), (18, 1), (20, 3), (7, 8), (20, 100), (30, 8)):
            fresh, reused = np.random.default_rng(seed), np.random.default_rng(seed)
            block = np.empty((n, restarts))
            for _ in range(3):
                fresh.shuffle(list(range(n)))
                reused.shuffle(list(range(n)))
                expected = fresh.random((n, restarts))
                assert reused.random(out=block) is block
                assert block.tobytes() == expected.tobytes()
                assert reused.bit_generator.state == fresh.bit_generator.state


# sha256 of the results below, recorded before the sweep loop drew into a
# reused block and read its columns through memoryviews.
REPLAY_DIGEST = "146ee2a634acd435f92085517ed1f7ebe6c9b95edf5db18104a6f4e0c5913664"


def test_replay_digest_is_pinned():
    # The four bench families at n=18 anneal on the table, the n=24 cases on
    # local fields; every field of each result is hashed.
    cases = {
        "maxcut-r3r": lambda: gen_maxcut_r3r(18, seed=1),
        "spin-glass": lambda: gen_spin_glass("complete", 18, seed=2),
        "portfolio": lambda: gen_portfolio(18, 6, seed=3),
        "labs": lambda: gen_labs(18),
        "maxcut-r3r-24": lambda: gen_maxcut_r3r(24, seed=4),
        "spin-glass-24": lambda: gen_spin_glass("complete", 24, seed=5),
    }
    lines = []
    for name, make in cases.items():
        obj = make().objective
        for restarts in (1, 3):
            for seed in range(4):
                res = simulated_annealing(obj, restarts=restarts, seed=seed)
                lines.append(repr((
                    name, restarts, seed, res.best_assignment, res.best_energy, res.trace, sorted(res.extras.items()),
                )))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == REPLAY_DIGEST


def test_math_exp_never_falls_by_the_skip_margin():
    # A frozen sweep is skipped when its least uniform reaches
    # math.exp(x) * _EXP_BAND_HI at its least rejected exponent x. That needs
    # math.exp at any exponent at or below x to stay within that bound, here
    # over the uphill range x < 0.
    rng = np.random.default_rng(0)
    x = -np.concatenate([rng.exponential(3.0, 20000), rng.uniform(0.0, 700.0, 20000)])
    ours = np.array([math.exp(v) for v in np.sort(x).tolist()])
    assert (np.maximum.accumulate(ours) <= ours * _EXP_BAND_HI).all()
