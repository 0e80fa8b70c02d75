"""Solver tests.

Independent oracles used here:
- a plain Python enumeration loop (never energies_at) for brute force,
- dynamic programming over chain QUBOs for the streaming enumeration path,
- an explicit oracle+diffusion statevector loop for the Grover success
  probability formula,
- the closed-form single-spin QAOA landscape for the variational optimizer.
"""

import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qopt.model import DiagonalObjective, IsingModel, QuboModel, index_to_bits
from qopt.problems import gen_labs, gen_maxcut_r3r, gen_mis, gen_portfolio, gen_spin_glass
from qopt.simulator import CapacityError, QaoaParams, WarmStart, energy_table
from qopt.solvers import (
    SolveResult,
    brute_force,
    grover_adaptive_search,
    qaoa_solve,
    recursive_qaoa,
    simulated_annealing,
    solve_result_to_json,
    transfer_parameters,
)
from qopt.solvers import _substitute_spin


def naive_enumerate(obj):
    """Oracle: pure-Python scan of every assignment."""
    best = math.inf
    worst = -math.inf
    argmin = []
    for idx in range(1 << obj.n):
        bits = tuple((idx >> i) & 1 for i in range(obj.n))
        e = obj.value(bits)
        if e < best:
            best = e
            argmin = [bits]
        elif e == best:
            argmin.append(bits)
        worst = max(worst, e)
    return best, worst, argmin


def random_qubo(n, seed, fill=0.6):
    rng = np.random.default_rng(seed)
    terms = {}
    for i in range(n):
        for j in range(i, n):
            if rng.random() < fill:
                terms[(i, j)] = float(rng.normal())
    return QuboModel(n=n, terms=terms)


def assert_self_consistent(result, obj):
    assert result.best_energy == pytest.approx(obj.value(result.best_assignment), abs=1e-9)
    assert len(result.best_assignment) == obj.n
    assert all(b in (0, 1) for b in result.best_assignment)


class TestBruteForce:
    def test_single_spin_ising(self):
        obj = IsingModel(n=1, h=(1.0,)).as_objective()
        res = brute_force(obj)
        assert res.c_min == -1.0
        assert res.c_max == 1.0
        # z = -1 corresponds to bit 1.
        assert res.argmin == ((1,),)
        assert res.certificate

    def test_all_zero_model_every_assignment_optimal(self):
        res = brute_force(QuboModel(n=4, terms={}).as_objective())
        assert res.c_min == res.c_max == 0.0
        assert len(res.argmin) == 16

    def test_matches_independent_enumeration(self):
        for seed in range(12):
            obj = random_qubo(6, seed).as_objective()
            res = brute_force(obj)
            best, worst, argmin = naive_enumerate(obj)
            assert res.c_min == best
            assert res.c_max == worst
            assert set(res.argmin) == set(argmin)
            assert_self_consistent(res, obj)

    def test_streaming_chunks_match_chain_dynamic_program(self, energies_at_calls, monkeypatch):
        # n=21 above a cap of 20 forces two enumeration chunks; a DP over the
        # chain is the independent optimum oracle.
        monkeypatch.setenv("QOPT_STATEVECTOR_CAP", "20")
        n = 21
        rng = np.random.default_rng(5)
        lin = [float(v) for v in rng.normal(size=n)]
        coup = [float(v) for v in rng.normal(size=n - 1)]
        terms = {(i, i): lin[i] for i in range(n)}
        terms.update({(i, i + 1): coup[i] for i in range(n - 1)})
        obj = QuboModel(n=n, terms=terms).as_objective()

        best = {0: 0.0, 1: lin[0]}
        for i in range(1, n):
            best = {
                xi: min(best[xp] + lin[i] * xi + coup[i - 1] * xp * xi for xp in (0, 1))
                for xi in (0, 1)
            }
        dp_min = min(best.values())

        res = brute_force(obj)
        assert energies_at_calls == [1 << 20, 1 << 20]
        assert res.best_energy == pytest.approx(dp_min, abs=1e-9)
        assert_self_consistent(res, obj)

    def test_second_run_reads_cached_table(self, energies_at_calls):
        calls = energies_at_calls
        obj = random_qubo(9, 4).as_objective()
        first = brute_force(obj)
        table = obj._cache["energy_table"]
        second = brute_force(obj)
        assert obj._cache["energy_table"] is table
        assert calls == []
        assert (second.c_min, second.c_max, second.argmin) == (first.c_min, first.c_max, first.argmin)
        assert np.array_equal(energy_table(obj), obj.energies_at(np.arange(2**9)))

    def test_cached_table_read_above_chunk_size(self, energies_at_calls, monkeypatch):
        # Up to the cap a cached table is read as it is, beyond one 2^20
        # chunk too, with the result of a run streamed under a lower cap.
        obj = gen_maxcut_r3r(22, seed=5).objective
        energy_table(obj)
        cached = brute_force(obj)
        assert energies_at_calls == []
        monkeypatch.setenv("QOPT_STATEVECTOR_CAP", "20")
        streamed_obj = gen_maxcut_r3r(22, seed=5).objective
        streamed = brute_force(streamed_obj)
        assert energies_at_calls == [1 << 20] * 4
        assert "energy_table" not in streamed_obj._cache
        assert (cached.c_min, cached.c_max, cached.argmin, cached.extras) == (
            streamed.c_min, streamed.c_max, streamed.argmin, streamed.extras,
        )

    def test_table_built_and_cached_up_to_default_cap(self, energies_at_calls, monkeypatch):
        # 22 variables fit under the default cap, so enumeration builds the
        # table once, caches it and never replays per index.
        monkeypatch.delenv("QOPT_STATEVECTOR_CAP", raising=False)
        obj = gen_maxcut_r3r(22, seed=5).objective
        res = brute_force(obj)
        assert energies_at_calls == []
        table = obj._cache["energy_table"]
        assert res.c_min == table.min() and res.c_max == table.max()

    def test_capped_enumeration_streams_beyond_cap(self, monkeypatch):
        # Under a lowered cap the table is only read up to the cap; above it,
        # enumeration streams (up to cap + 4) and caches nothing.
        monkeypatch.setenv("QOPT_STATEVECTOR_CAP", "6")
        for n in (6, 9):
            obj = random_qubo(n, 30 + n).as_objective()
            res = brute_force(obj)
            best, worst, argmin = naive_enumerate(obj)
            assert (res.c_min, res.c_max) == (best, worst)
            assert set(res.argmin) == set(argmin)
            assert ("energy_table" in obj._cache) == (n <= 6)
        with pytest.raises(CapacityError):
            brute_force(random_qubo(11, 0).as_objective())

    def test_labs_k13_optimum(self):
        res = brute_force(gen_labs(13))
        assert res.c_min == 6.0
        assert res.certificate

    def test_enumeration_limit(self):
        obj = QuboModel(n=29).as_objective()
        with pytest.raises(CapacityError):
            brute_force(obj)


class TestSimulatedAnnealing:
    def test_ferromagnetic_pair_finds_optimum(self):
        q = QuboModel(n=2, terms={(0, 0): 1.0, (1, 1): 1.0, (0, 1): -3.0})
        obj = q.as_objective()
        res = simulated_annealing(obj, sweeps=200, restarts=4, seed=0)
        assert res.best_energy == brute_force(obj).c_min == -1.0
        assert res.best_assignment == (1, 1)

    def test_precondition_validation(self):
        obj = random_qubo(3, 0).as_objective()
        with pytest.raises(ValueError):
            simulated_annealing(obj, sweeps=0)
        with pytest.raises(ValueError):
            simulated_annealing(obj, sweeps=10, restarts=0)
        with pytest.raises(ValueError):
            simulated_annealing(obj, sweeps=3, temperatures=[1.0, 2.0])
        with pytest.raises(ValueError):
            simulated_annealing(obj, sweeps=2, temperatures=[1.0, -1.0])

    def test_single_sweep_runs_at_the_hot_end(self):
        obj = random_qubo(6, 3).as_objective()
        res = simulated_annealing(obj, sweeps=1, seed=0)
        assert res.extras["t_hot"] == res.extras["t_cold"]
        assert res.best_energy == obj.value(res.best_assignment)

    def test_sk_n20_reaches_ar_095(self):
        # Seed vetted once: seeds 0..5 all reach the exact optimum here.
        inst = gen_spin_glass("complete", 20, dist="gaussian", seed=0)
        ref = brute_force(inst)
        res = simulated_annealing(inst, sweeps=2000, restarts=100, seed=0)
        ar = (ref.c_max - res.best_energy) / (ref.c_max - ref.c_min)
        assert ar >= 0.95
        assert_self_consistent(res, inst.objective)

    def test_explicit_schedule_used(self):
        obj = random_qubo(5, 3).as_objective()
        res = simulated_annealing(obj, sweeps=3, temperatures=[5.0, 1.0, 0.1], seed=1)
        assert res.extras["t_hot"] == 5.0
        assert res.extras["t_cold"] == 0.1

    def test_local_field_path_on_wide_chain(self):
        # n=22 exceeds the table cutoff, exercising the incremental-field
        # branch; the ferromagnetic chain's optimum is the all-ones block.
        n = 22
        terms = {(i, i): 1.0 for i in range(n)}
        terms.update({(i, i + 1): -3.0 for i in range(n - 1)})
        obj = QuboModel(n=n, terms=terms).as_objective()
        res = simulated_annealing(obj, sweeps=400, restarts=8, seed=2)
        assert res.best_assignment == (1,) * n
        assert res.best_energy == pytest.approx(n - 3.0 * (n - 1), abs=1e-9)
        assert_self_consistent(res, obj)

    @pytest.mark.parametrize("n", [64, 1024])
    def test_default_schedule_beyond_int64_indices(self, n):
        # From 64 variables on, a state's index no longer fits an int64.
        inst = gen_maxcut_r3r(n, seed=1)
        res = simulated_annealing(inst, sweeps=3, seed=0)
        assert res.extras["t_hot"] > 0
        assert_self_consistent(res, inst.objective)

    def test_cold_downhill_moves_do_not_overflow(self):
        # The local-field path once took exp(-delta / t) of downhill moves
        # too, which overflows at cold temperatures; the result is pinned at
        # its value from before the exponent was clamped to uphill moves.
        inst = gen_maxcut_r3r(1024, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = simulated_annealing(inst, sweeps=3, seed=0)
        assert res.best_energy == -1292.0
        assert res.trace == (-1292.0,)
        assert hashlib.sha256(bytes(res.best_assignment)).hexdigest() == (
            "94f083e37473ffc055ac19acfa44d15725a7cb50d032ad69e8d3d5f2e12dec10"
        )
        assert res.extras == {
            "sweeps": 3, "restarts": 1, "t_hot": 1.4609375, "t_cold": float.fromhex("0x1.7ef9db22d0e55p-10"),
        }

    def test_generic_fallback_path_runs(self, monkeypatch):
        # A cubic view has no quadratic source and, at n=21, no table.
        calls = []
        value = DiagonalObjective.value
        monkeypatch.setattr(DiagonalObjective, "value", lambda self, x: calls.append(1) or value(self, x))
        obj = IsingModel(n=21).as_objective([(0, 1, 2, -1.0)])
        res = simulated_annealing(obj, sweeps=2, restarts=1, seed=0)
        assert calls
        assert_self_consistent(res, obj)

    def test_replay_deterministic(self):
        obj = random_qubo(8, 11).as_objective()
        a = simulated_annealing(obj, sweeps=50, restarts=3, seed=9)
        b = simulated_annealing(obj, sweeps=50, restarts=3, seed=9)
        assert a.best_assignment == b.best_assignment
        assert a.best_energy == b.best_energy
        assert a.trace == b.trace


def grover_probability_oracle(n, marked, r):
    """Oracle: explicit oracle+diffusion statevector loop."""
    size = 1 << n
    psi = np.full(size, 1.0 / math.sqrt(size))
    for _ in range(r):
        psi = psi.copy()
        psi[list(marked)] *= -1.0
        psi = 2.0 * psi.mean() - psi
    return float(np.sum(psi[list(marked)] ** 2))


def grover_reference(obj, max_rounds=128, seed=0):
    """The search on a stable sort of the table, as it ran before the marked
    pattern was found without one; returns (best index, best energy, trace,
    extras)."""
    table = energy_table(obj)
    n_states = table.shape[0]
    order = np.argsort(table, kind="stable")
    sorted_e = table[order]
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
    for _ in range(max_rounds):
        rounds_used += 1
        count = int(np.searchsorted(sorted_e, threshold, side="left"))
        if count == 0:
            marked_empty = True
            break
        theta = math.asin(math.sqrt(count / n_states))
        r = int(rng.integers(0, int(m) + 1))
        iterations_total += r
        if rng.random() < math.sin((2 * r + 1) * theta) ** 2:
            best_idx = int(order[int(rng.integers(0, count))])
            threshold = float(table[best_idx])
            thresholds.append(threshold)
            m = 1.0
        else:
            m = min(m * 8.0 / 7.0, m_cap)
    extras = {"rounds_used": rounds_used, "marked_set_empty": marked_empty, "grover_iterations": iterations_total}
    return best_idx, float(table[best_idx]), tuple(thresholds), extras


def signed_zero_qubo():
    """Small integer weights on 6 of 10 variables and a -0.0 offset: the
    minimum is zero, 32 patterns price to -0.0 and 16 to 0.0, so searches
    end on ties of both signs."""
    rng = np.random.default_rng(21)
    terms = {(i, j): float(rng.integers(-2, 3)) for i in range(6) for j in range(i, 6) if rng.random() < 0.5}
    obj = QuboModel(n=10, terms=terms, offset=-0.0).as_objective()
    table = energy_table(obj)
    assert table.min() == 0.0 and set(np.signbit(table[table == 0.0]).tolist()) == {False, True}
    return obj


class TestGroverAdaptiveSearch:
    def test_success_probability_formula_matches_statevector(self):
        # The solver scores each round as sin^2((2r+1) asin(sqrt(count/N)));
        # that closed form must match an explicit amplification loop.
        for n, count, r in [(2, 1, 0), (2, 1, 1), (3, 3, 1), (4, 5, 2), (5, 1, 4)]:
            size = 1 << n
            theta = math.asin(math.sqrt(count / size))
            closed = math.sin((2 * r + 1) * theta) ** 2
            direct = grover_probability_oracle(n, range(count), r)
            assert closed == pytest.approx(direct, abs=1e-12)

    def test_unique_marked_among_four_after_one_iteration_is_certain(self):
        assert grover_probability_oracle(2, [3], 1) == pytest.approx(1.0, abs=1e-12)
        theta = math.asin(math.sqrt(1 / 4))
        assert math.sin(3 * theta) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_finds_optimum_with_decreasing_thresholds(self):
        for seed in range(10):
            obj = random_qubo(7, seed + 100).as_objective()
            ref = brute_force(obj)
            res = grover_adaptive_search(obj, seed=seed)
            tr = res.trace
            assert all(tr[k + 1] < tr[k] for k in range(len(tr) - 1))
            assert res.best_energy <= tr[0]
            if res.extras["marked_set_empty"]:
                assert res.best_energy == ref.c_min
            assert_self_consistent(res, obj)

    def test_constant_model_halts_immediately(self):
        obj = QuboModel(n=3, terms={}, offset=2.5).as_objective()
        res = grover_adaptive_search(obj, seed=4)
        assert res.extras["marked_set_empty"]
        assert res.extras["rounds_used"] == 1
        assert res.trace == (2.5,)
        assert res.best_energy == 2.5

    def test_round_budget_validation(self):
        obj = random_qubo(4, 0).as_objective()
        with pytest.raises(ValueError):
            grover_adaptive_search(obj, max_rounds=0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: gen_maxcut_r3r(12, seed=3).objective,
            lambda: gen_spin_glass("complete", 10, dist="gaussian", seed=2).objective,
            lambda: gen_spin_glass("complete", 11, dist="pm1", seed=2).objective,
            lambda: gen_labs(10).objective,
            lambda: gen_labs(11).objective,
            lambda: gen_labs(12).objective,
            lambda: gen_portfolio(9, 3, seed=1).objective,
            signed_zero_qubo,
        ],
        ids=["maxcut", "sk-gauss", "sk-pm1", "labs-10", "labs", "labs-12", "portfolio", "signed-zero"],
    )
    def test_matches_stable_sort_reference(self, make):
        # Energies are compared as float.hex, so that a -0.0 and a 0.0
        # threshold differ; the table is the only array left cached.
        obj = make()
        for seed in range(10):
            for max_rounds in (1, 6, 128):
                res = grover_adaptive_search(obj, max_rounds=max_rounds, seed=seed)
                want_idx, want_e, want_trace, want_extras = grover_reference(obj, max_rounds, seed)
                assert res.best_assignment == index_to_bits(want_idx, obj.n)
                assert res.best_energy.hex() == want_e.hex()
                assert [e.hex() for e in res.trace] == [e.hex() for e in want_trace]
                assert res.extras == want_extras
                assert list(obj._cache) == ["energy_table"]

    def test_replay_deterministic(self):
        obj = random_qubo(8, 77).as_objective()
        a = grover_adaptive_search(obj, seed=5)
        b = grover_adaptive_search(obj, seed=5)
        assert a.best_assignment == b.best_assignment
        assert a.trace == b.trace
        assert a.extras == b.extras


SINGLE_SPIN = IsingModel(n=1, h=(1.0,)).as_objective()


class TestQaoaSolve:
    def test_single_spin_reaches_exact_minimum(self):
        res = qaoa_solve(SINGLE_SPIN, p=1, optimizer_budget=600, seed=0)
        assert res.extras["mean_energy"] == pytest.approx(-1.0, abs=1e-6)
        assert math.sin(2 * res.params.gammas[0]) * math.sin(2 * res.params.betas[0]) == pytest.approx(
            1.0, abs=1e-5
        )

    def test_p0_is_uniform_sampling(self):
        obj = random_qubo(6, 21).as_objective()
        res = qaoa_solve(obj, p=0, shots=4000, seed=3)
        assert res.extras["mean_energy"] == pytest.approx(float(energy_table(obj).mean()), abs=1e-12)
        assert res.params.p == 0
        # Sampled mean stays within a loose statistical band of the average.
        table = energy_table(obj)
        sd = float(table.std()) / math.sqrt(4000)
        sampled = float((res.samples.index_energies * res.samples.index_counts).sum()) / 4000
        assert abs(sampled - table.mean()) < 6 * sd + 1e-12

    def test_budget_exhaustion_flags_instead_of_raising(self):
        obj = random_qubo(5, 8).as_objective()
        res = qaoa_solve(obj, p=1, optimizer_budget=10, seed=0)
        assert res.extras["budget_exhausted"]
        assert res.extras["evaluations"] == 10
        assert res.params is not None
        assert_self_consistent(res, obj)

    def test_cvar_mode_deterministic_landscape(self):
        obj = random_qubo(6, 30).as_objective()
        a = qaoa_solve(obj, p=1, objective_mode="cvar", alpha=0.2, optimizer_budget=80, shots=256, seed=6)
        b = qaoa_solve(obj, p=1, objective_mode="cvar", alpha=0.2, optimizer_budget=80, shots=256, seed=6)
        assert a.params == b.params
        assert a.samples == b.samples
        assert a.extras["alpha"] == 0.2

    def test_warm_start_initial_state(self):
        obj = random_qubo(5, 44).as_objective()
        ws = WarmStart(c_star=(0.9, 0.1, 0.5, 0.8, 0.2), epsilon=0.1)
        res = qaoa_solve(obj, p=1, initial=ws, optimizer_budget=100, seed=1)
        assert res.extras["warm_start"]
        assert_self_consistent(res, obj)

    def test_maxcut_p1_bound_single_instance(self):
        inst = gen_maxcut_r3r(10, seed=1)
        ref = brute_force(inst)
        res = qaoa_solve(inst, p=1, optimizer_budget=400, seed=0)
        ar = (ref.c_max - res.extras["mean_energy"]) / (ref.c_max - ref.c_min)
        assert ar >= 0.692

    def test_validation(self):
        with pytest.raises(ValueError):
            qaoa_solve(SINGLE_SPIN, p=-1)
        with pytest.raises(ValueError):
            qaoa_solve(SINGLE_SPIN, optimizer_budget=0)
        with pytest.raises(ValueError):
            qaoa_solve(SINGLE_SPIN, shots=0)
        with pytest.raises(ValueError):
            qaoa_solve(SINGLE_SPIN, objective_mode="median")
        with pytest.raises(ValueError):
            qaoa_solve(SINGLE_SPIN, objective_mode="cvar", alpha=0.0)

    # CVaR-mode results recorded before mean mode moved to gradients: the
    # sampled objective keeps its grid and Nelder-Mead search bit for bit.
    CVAR_PINS = {
        1: (
            lambda: gen_maxcut_r3r(8, seed=2),
            {"optimizer_budget": 120, "shots": 256, "seed": 3},
            (["0x1.73f6ee1257684p-1"], ["0x1.a13418dd38862p-2"]),
            120,
            [(1, "-0x1.0000000000000p+3"), (10, "-0x1.2600000000000p+3"), (11, "-0x1.2f80000000000p+3"),
             (19, "-0x1.3500000000000p+3"), (68, "-0x1.3600000000000p+3"), (72, "-0x1.3680000000000p+3")],
            "bfd81796902c7988782739fc6014bc0741eee78918653b71f64eb288984eef30",
        ),
        2: (
            lambda: gen_spin_glass("complete", 6, dist="gaussian", seed=7),
            {"optimizer_budget": 300, "shots": 128, "seed": 4},
            (["0x1.2d97c7f3321d2p+1", "0x1.2d97c7f3321d2p+1"], ["0x1.a63ae4badfc26p-1", "0x1.921fb54442d18p-1"]),
            300,
            [(1, "-0x1.41eacf78b9760p+1"), (2, "-0x1.45a680d1e9aaep+1"), (18, "-0x1.08bd54f06a419p+2"),
             (251, "-0x1.3eea64af314a4p+2"), (260, "-0x1.3f166e149de5cp+2")],
            "4b9a8faab6195d4a5ebb8bef3d2eec20af26a46c26b545c590d7bd440dab2b16",
        ),
    }

    @pytest.mark.parametrize("p", sorted(CVAR_PINS))
    def test_cvar_mode_pinned(self, p):
        make, kwargs, (gammas, betas), evaluations, trace, samples_digest = self.CVAR_PINS[p]
        res = qaoa_solve(make(), p=p, objective_mode="cvar", alpha=0.25, **kwargs)
        assert res.params == QaoaParams(
            p=p, gammas=[float.fromhex(g) for g in gammas], betas=[float.fromhex(b) for b in betas]
        )
        assert res.extras["evaluations"] == evaluations
        assert res.trace == tuple((k, float.fromhex(v)) for k, v in trace)
        packed = res.samples.indices.tobytes() + res.samples.index_counts.tobytes()
        assert hashlib.sha256(packed).hexdigest() == samples_digest

    def test_gradient_charge_is_its_layer_pass_count(self, monkeypatch):
        # One value-and-gradient call is charged as many plain evaluations as
        # it runs layer-sized passes (mixers and generator sweeps; the phase
        # passes are fewer) for each one a plain evaluation runs.
        import qopt.simulator as simulator
        from qopt.solvers import _GRADIENT_COST

        passes = {"mixer": 0, "phase": 0}
        for name, key in (("_apply_mixer", "mixer"), ("_apply_generator", "mixer"), ("_apply_phase", "phase")):
            def counted(*args, _fn=getattr(simulator, name), _key=key):
                passes[_key] += 1
                return _fn(*args)

            monkeypatch.setattr(simulator, name, counted)
        obj = gen_maxcut_r3r(8, seed=0).objective
        for p in (1, 2, 3):
            params = QaoaParams(p=p, gammas=(0.3,) * p, betas=(0.2,) * p)
            passes.update(mixer=0, phase=0)
            simulator.qaoa_state(obj, params)
            plain = dict(passes)
            passes.update(mixer=0, phase=0)
            simulator.qaoa_value_and_gradient(obj, params)
            assert passes["mixer"] == _GRADIENT_COST * plain["mixer"]
            assert passes["phase"] <= _GRADIENT_COST * plain["phase"]

    def test_mean_mode_charges_grid_then_gradient_calls(self):
        res = qaoa_solve(gen_maxcut_r3r(8, seed=1), p=2, optimizer_budget=1000, seed=0)
        assert not res.extras["budget_exhausted"]
        assert res.extras["evaluations"] > 64
        assert (res.extras["evaluations"] - 64) % 4 == 0

    def test_budget_spent_below_depth_p_still_returns_p_layers(self):
        # 64 grid points and one gradient call fit in 70; the next call does
        # not, so the run ends at depth 1. The missing layer gets zero angles,
        # which leave the state, and so the reported value, unchanged.
        res = qaoa_solve(gen_maxcut_r3r(8, seed=1), p=2, optimizer_budget=70, seed=0)
        assert res.extras["budget_exhausted"]
        assert res.extras["evaluations"] == 68
        assert res.params.p == 2
        assert (res.params.gammas[1], res.params.betas[1]) == (0.0, 0.0)
        assert res.extras["objective_value"] == res.extras["mean_energy"]

    @staticmethod
    def _depth1_calls(monkeypatch):
        # Depth-1 statevector calls (gradients, states) and closed-form calls
        # made by qaoa_solve, by name in the solvers module.
        import qopt.solvers as solvers

        calls = {"gradient": 0, "state": 0, "closed": 0}
        for name, key in (("qaoa_value_and_gradient", "gradient"), ("qaoa_state", "state")):
            def counted(obj, params, *args, _fn=getattr(solvers, name), _key=key, **kwargs):
                calls[_key] += params.p == 1
                return _fn(obj, params, *args, **kwargs)

            monkeypatch.setattr(solvers, name, counted)

        def closed(*args, _fn=solvers.qaoa_p1_energy):
            calls["closed"] += 1
            return _fn(*args)

        monkeypatch.setattr(solvers, "qaoa_p1_energy", closed)
        return calls

    @pytest.mark.parametrize(
        "make",
        [lambda: random_qubo(7, 3).as_objective(), lambda: gen_spin_glass("complete", 7, dist="gaussian", seed=2)],
        ids=["qubo", "ising-view"],
    )
    def test_plus_start_mean_mode_trains_depth_1_in_closed_form(self, make, monkeypatch):
        calls = self._depth1_calls(monkeypatch)
        res = qaoa_solve(make(), p=2, optimizer_budget=400, seed=0)
        gradients = (res.extras["evaluations"] - 64) // 4
        assert calls["gradient"] == 0
        # The grid is one call; only the final state is prepared at depth 1,
        # and here the final state has depth 2.
        assert calls["state"] == 0
        assert 1 < calls["closed"] <= 1 + gradients

    @pytest.mark.parametrize(
        "make, kwargs",
        [
            (lambda: random_qubo(6, 4).as_objective(), {"initial": WarmStart(c_star=(0.9, 0.1, 0.5, 0.8, 0.2, 0.6))}),
            (lambda: IsingModel(n=6, J={(i, i + 1): 1.0 for i in range(5)}).as_objective([(0, 2, 4, 0.5)]), {}),
            (lambda: gen_labs(6), {}),
            (lambda: DiagonalObjective(n=5, program=random_qubo(5, 3).as_objective().program), {}),
        ],
        ids=["warm-start", "pubo", "labs", "native"],
    )
    def test_other_mean_mode_starts_keep_the_statevector(self, make, kwargs, monkeypatch):
        calls = self._depth1_calls(monkeypatch)
        res = qaoa_solve(make(), p=1, optimizer_budget=300, seed=0, **kwargs)
        assert calls["closed"] == 0
        assert calls["gradient"] == (res.extras["evaluations"] - 64) // 4 > 0
        assert calls["state"] == 64 + 1

    def test_cvar_mode_keeps_the_statevector(self, monkeypatch):
        calls = self._depth1_calls(monkeypatch)
        res = qaoa_solve(random_qubo(6, 5).as_objective(), p=1, objective_mode="cvar", optimizer_budget=100, seed=0)
        assert calls["closed"] == calls["gradient"] == 0
        assert calls["state"] == res.extras["evaluations"] + 1

    def test_deep_cvar_grid_is_made_as_it_is_scored(self):
        # The p=9 grid has 2^18 rows of 18 angles, about 72 MiB when built
        # whole; a budget of 20 scores 20 rows, so only those are made.
        obj = gen_maxcut_r3r(4, seed=0).objective
        tracemalloc.start()
        try:
            res = qaoa_solve(obj, p=9, objective_mode="cvar", optimizer_budget=20, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.extras["evaluations"] == 20 and res.extras["budget_exhausted"]
        assert peak < 2**20

    def test_cap_checked_before_training(self, monkeypatch):
        # Above the cap the final state cannot be prepared, so no training
        # runs, not even in closed form.
        calls = self._depth1_calls(monkeypatch)
        monkeypatch.setenv("QOPT_STATEVECTOR_CAP", "6")
        with pytest.raises(CapacityError, match="7 qubits exceed the simulator cap of 6"):
            qaoa_solve(random_qubo(7, 6).as_objective(), p=1, seed=0)
        assert calls == {"gradient": 0, "state": 0, "closed": 0}

    def test_deeper_mean_training_is_never_worse(self):
        # Depth p trains depth p - 1 first with the same budget accounting,
        # and a depth p - 1 optimum is a depth p point with a zero layer.
        obj = random_qubo(7, 12).as_objective()
        values = [qaoa_solve(obj, p=p, optimizer_budget=2000, seed=0).extras["objective_value"] for p in (1, 2, 3)]
        assert values[0] >= values[1] >= values[2]

    def test_replay_deterministic(self):
        obj = random_qubo(6, 90).as_objective()
        a = qaoa_solve(obj, p=1, optimizer_budget=120, seed=13)
        b = qaoa_solve(obj, p=1, optimizer_budget=120, seed=13)
        assert a.params == b.params
        assert a.best_assignment == b.best_assignment
        assert a.samples == b.samples
        assert a.trace == b.trace


class TestRecursiveQaoa:
    def test_ferromagnetic_pair_single_reduction(self):
        obj = IsingModel(n=2, J={(0, 1): -1.0}).as_objective()
        res = recursive_qaoa(obj, cutoff=1, optimizer_budget=120, seed=0)
        assert res.best_energy == -1.0
        assert res.best_assignment in ((0, 0), (1, 1))
        assert res.extras["levels"] == 1
        ((j, i, sign),) = res.extras["substitutions"]
        assert (i, j) == (0, 1)
        assert sign == 1

    def test_antiferromagnetic_pair_antialigned(self):
        obj = IsingModel(n=2, J={(0, 1): 1.0}).as_objective()
        res = recursive_qaoa(obj, cutoff=1, optimizer_budget=120, seed=0)
        assert res.best_energy == -1.0
        assert res.best_assignment in ((0, 1), (1, 0))
        ((_, _, sign),) = res.extras["substitutions"]
        assert sign == -1

    def test_cutoff_at_n_is_pure_brute_force(self):
        obj = random_qubo(6, 17).as_objective()
        res = recursive_qaoa(obj, cutoff=6, seed=0)
        ref = brute_force(obj)
        assert res.certificate
        assert res.best_energy == ref.c_min
        assert res.extras["levels"] == 0

    def test_substitutions_hold_in_output(self):
        inst = gen_maxcut_r3r(12, seed=2)
        res = recursive_qaoa(inst, cutoff=4, optimizer_budget=150, seed=0)
        assert len(res.best_assignment) == 12
        spins = [1 - 2 * b for b in res.best_assignment]
        for j, i, sign in res.extras["substitutions"]:
            assert spins[j] == sign * spins[i]
        assert_self_consistent(res, inst.objective)

    def test_quality_on_small_maxcut(self):
        inst = gen_maxcut_r3r(10, seed=0)
        ref = brute_force(inst)
        res = recursive_qaoa(inst, cutoff=4, optimizer_budget=150, seed=0)
        ar = (ref.c_max - res.best_energy) / (ref.c_max - ref.c_min)
        assert ar >= 0.8

    def test_fields_only_beyond_enumeration_limit(self):
        # No coupling to eliminate: each spin follows its field, no 2^30 scan.
        rng = np.random.default_rng(90)
        h = [float(v) for v in rng.normal(size=30)]
        h[3] = h[17] = 0.0
        obj = IsingModel(n=30, h=tuple(h)).as_objective()
        res = recursive_qaoa(obj, seed=0)
        assert res.best_assignment == tuple(int(v > 0.0) for v in h)
        assert res.best_energy == pytest.approx(-sum(abs(v) for v in h), abs=1e-9)
        assert res.extras["levels"] == 0

    def test_decoupled_remainder_matches_enumeration(self):
        rng = np.random.default_rng(91)
        h = [float(v) for v in rng.normal(size=10)]
        h[0] = h[6] = 0.0
        obj = IsingModel(n=10, h=tuple(h), offset=1.5).as_objective()
        res = recursive_qaoa(obj, cutoff=4, seed=0)
        assert res.best_assignment == brute_force(obj).best_assignment
        assert_self_consistent(res, obj)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_substitution_keeps_energies_with_fields(self, n):
        # The reduced model at any assignment prices the original one with
        # z_j = sign * z_i, so fields, merged pairs and the pair (i, j)
        # itself, which folds into the offset, all carry over.
        rng = np.random.default_rng(40 + n)
        couplings = {(a, b): float(rng.normal()) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.7}
        couplings[min(couplings)] = 0.0  # present but zero: skipped
        ising = IsingModel(
            n=n, h=tuple(float(v) for v in rng.normal(size=n)), J=couplings, offset=float(rng.normal())
        )
        for i, j in ising.J:
            for sign in (1, -1):
                reduced = _substitute_spin(ising, i, j, sign)
                for idx in range(1 << (n - 1)):
                    z = [1 - 2 * ((idx >> k) & 1) for k in range(n - 1)]
                    full = z[:j] + [sign * z[i]] + z[j:]
                    assert reduced.energy(z) == pytest.approx(ising.energy(full), abs=1e-9)

    @pytest.mark.parametrize("inst", [gen_portfolio(8, 3, seed=1), gen_mis(8, seed=2)], ids=["portfolio", "mis"])
    def test_eliminates_spins_with_fields(self, inst):
        res = recursive_qaoa(inst, cutoff=4)
        assert res.extras["levels"] == 4
        assert res.best_energy == inst.objective.value(res.best_assignment)

    def test_needs_quadratic_model(self):
        with pytest.raises(TypeError):
            recursive_qaoa(gen_labs(6), cutoff=2, seed=0)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            recursive_qaoa(SINGLE_SPIN, cutoff=0)

    def test_replay_deterministic(self):
        inst = gen_maxcut_r3r(10, seed=5)
        a = recursive_qaoa(inst, cutoff=4, optimizer_budget=100, seed=21)
        b = recursive_qaoa(inst, cutoff=4, optimizer_budget=100, seed=21)
        assert a.best_assignment == b.best_assignment
        assert a.extras["substitutions"] == b.extras["substitutions"]


class TestTransferParameters:
    def test_identity_transfer_matches_source_ar(self):
        inst = gen_maxcut_r3r(8, seed=1)
        src = qaoa_solve(inst, p=1, optimizer_budget=150, seed=0)
        ref = brute_force(inst)
        moved = transfer_parameters(src, inst, seed=0)
        source_ar = (ref.c_max - src.extras["mean_energy"]) / (ref.c_max - ref.c_min)
        assert moved.extras["ar_transferred"] == pytest.approx(source_ar, abs=1e-12)

    def test_single_spin_quarter_pi_params_transfer_perfectly(self):
        src = SolveResult(
            best_assignment=(1,),
            best_energy=-1.0,
            params=QaoaParams(p=1, gammas=(math.pi / 4,), betas=(math.pi / 4,)),
        )
        same_sign = IsingModel(n=1, h=(1.0,)).as_objective()
        moved = transfer_parameters(src, same_sign, seed=0)
        assert moved.extras["ar_transferred"] == pytest.approx(1.0, abs=1e-9)
        # Rescaling the field changes the phase period, so the transferred
        # angles stop being optimal: gamma = pi/4 on h=2 lands at mean 0.
        rescaled = IsingModel(n=1, h=(2.0,)).as_objective()
        moved = transfer_parameters(src, rescaled, seed=0)
        assert moved.extras["ar_transferred"] == pytest.approx(0.5, abs=1e-9)
        assert moved.extras["ar_gap"] > 0.4

    def test_gap_fields_reported(self):
        src = qaoa_solve(gen_maxcut_r3r(10, seed=0), p=1, optimizer_budget=150, seed=0)
        moved = transfer_parameters(src, gen_maxcut_r3r(12, seed=3), seed=0)
        ex = moved.extras
        assert {"ar_transferred", "ar_optimized", "ar_gap"} <= set(ex)
        assert ex["ar_gap"] == pytest.approx(ex["ar_optimized"] - ex["ar_transferred"], abs=1e-12)

    def test_requires_trained_params(self):
        bare = brute_force(SINGLE_SPIN)
        with pytest.raises(ValueError):
            transfer_parameters(bare, SINGLE_SPIN)


class TestSolveResultJson:
    def test_brute_force_result_serializes(self):
        res = brute_force(random_qubo(4, 2).as_objective())
        data = solve_result_to_json(res)
        text = json.dumps(data)
        parsed = json.loads(text)
        assert parsed["certificate"] is True
        assert parsed["c_min"] == res.c_min
        assert all(set(s) <= {"0", "1"} for s in parsed["argmin"])

    def test_qaoa_result_serializes_with_samples(self):
        res = qaoa_solve(random_qubo(4, 9).as_objective(), p=1, optimizer_budget=70, seed=0)
        parsed = json.loads(json.dumps(solve_result_to_json(res)))
        assert parsed["params"]["p"] == 1
        assert sum(parsed["samples"]["counts"].values()) == parsed["samples"]["shots"]

    def test_samples_block_bytes_pinned(self):
        # Digest of the block as `qopt solve` writes it (indent=2): the
        # bit-string output must not drift with the in-memory sample format.
        res = qaoa_solve(gen_maxcut_r3r(8, seed=0), p=1, shots=256, seed=0)
        text = json.dumps(solve_result_to_json(res)["samples"], indent=2)
        assert len(text) == 2178
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "35bcca7a45a5b36f4af8fa70a1c7c47e462b4575a1fd5b0eac356c8f494e84e9"
        )
        assert (res.best_assignment, res.best_energy) == ((0, 1, 0, 0, 1, 0, 1, 1), -10.0)
