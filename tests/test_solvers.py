"""Solver tests.

Independent oracles used here:
- a plain Python enumeration loop (never energies_at) for brute force,
- dynamic programming over chain QUBOs for the streaming enumeration path,
- an explicit oracle+diffusion statevector loop for the Grover success
  probability formula,
- the closed-form single-spin QAOA landscape for the variational optimizer.
"""

import functools
import gc
import hashlib
import inspect
import itertools
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qopt import _checks
from qopt._rng import derive_seed
from qopt.bench import SOLVERS, BenchmarkConfig
from qopt.model import (
    ConstrainedModel, DiagonalObjective, IsingModel, LinearConstraint, QuboModel, index_to_bits, penalty_encode,
)
from qopt.problems import FAMILIES, gen_labs, gen_maxcut_r3r, gen_mis, gen_portfolio, gen_spin_glass
from qopt.simulator import (
    CapacityError, QaoaParams, SampleSet, Statevector, _energy_levels, _kept_table, anneal_trotter, cvar,
    energy_table, gibbs_distribution, qaoa_state, sample,
)
from qopt.solvers import (
    brute_force,
    grover_adaptive_search,
    qaoa_solve,
    recursive_qaoa,
    simulated_annealing,
    solve_result_to_json,
)
from qopt.solvers import _substitute_spin, _train


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


def argmin_bits(result):
    """A result's optimum set as bit tuples, in index order."""
    return [index_to_bits(i, len(result.best_assignment)) for i in result.argmin.tolist()]


def random_qubo(n, seed, fill=0.6):
    return _checks.random_qubo(n, np.random.default_rng(seed), fill)


def sk_with_fields(n, dist, seed):
    """Complete-graph couplings (+-1 or Gaussian) and Gaussian fields."""
    rng = np.random.default_rng(seed)
    draw = (lambda: float(rng.choice((-1.0, 1.0)))) if dist == "pm1" else (lambda: float(rng.normal()))
    couplings = {(a, b): draw() for a in range(n) for b in range(a + 1, n)}
    return IsingModel(n=n, h=tuple(float(v) for v in rng.normal(size=n)), J=couplings).as_objective()


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
        assert res.argmin.tolist() == [1]
        assert res.certificate

    def test_all_zero_model_every_assignment_optimal(self):
        res = brute_force(QuboModel(n=4, terms={}).as_objective())
        assert res.c_min == res.c_max == 0.0
        assert res.argmin.tolist() == list(range(16))

    def test_degenerate_optimum_set_is_one_index_array(self, monkeypatch):
        # All 2^18 patterns are optimal: the set is one int64 index array
        # (2 MiB), not 2^18 bit tuples, on the table path and the streamed one.
        obj = QuboModel(n=18).as_objective()
        tracemalloc.start()
        try:
            res = brute_force(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        monkeypatch.setenv("QOPT_STATEVECTOR_CAP", "14")
        streamed = brute_force(QuboModel(n=18).as_objective())
        for argmin in (res.argmin, streamed.argmin):
            assert argmin.dtype == np.int64 and not argmin.flags.writeable
            assert np.array_equal(argmin, np.arange(2**18))
        assert res.best_assignment == streamed.best_assignment == (0,) * 18

    def test_matches_independent_enumeration(self):
        for seed in range(12):
            obj = random_qubo(6, seed).as_objective()
            res = brute_force(obj)
            best, worst, argmin = naive_enumerate(obj)
            assert res.c_min == best
            assert res.c_max == worst
            assert argmin_bits(res) == argmin
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
        assert (second.c_min, second.c_max, second.argmin.tolist()) == (first.c_min, first.c_max, first.argmin.tolist())
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
        assert (cached.c_min, cached.c_max, cached.argmin.tolist(), cached.extras) == (
            streamed.c_min, streamed.c_max, streamed.argmin.tolist(), streamed.extras,
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
            assert argmin_bits(res) == argmin
            assert ("energy_table" in obj._cache) == (n <= 6)
        with pytest.raises(CapacityError):
            brute_force(random_qubo(11, 0).as_objective())

    @pytest.mark.parametrize(
        "make",
        [lambda n=n: gen_maxcut_r3r(n, seed=n).objective for n in (4, 8, 12)]
        + [lambda n=n: gen_spin_glass("complete", n, dist="gaussian", seed=n).objective for n in (2, 3, 8, 12)]
        + [lambda k=k: gen_labs(k).objective for k in (2, 3, 8, 12)],
        ids=[f"maxcut-{n}" for n in (4, 8, 12)] + [f"sk-{n}" for n in (2, 3, 8, 12)] + [f"labs-{k}" for k in (2, 3, 8, 12)],
    )
    def test_folded_scan_matches_full_table_and_stream(self, make, monkeypatch):
        # A flip-symmetric table is read by its lower half; the result
        # equals one read off the whole table, and the streamed path's.
        obj = make()
        table = energy_table(obj)
        assert _kept_table(obj).size == table.size // 2
        res = brute_force(obj)
        c_min = float(table.min())
        want = np.flatnonzero(table == c_min)
        assert res.argmin.tolist() == want.tolist() and res.best_assignment == index_to_bits(int(want[0]), obj.n)
        assert (res.c_min.hex(), res.c_max.hex()) == (c_min.hex(), float(table.max()).hex())
        assert res.certificate
        monkeypatch.setenv("QOPT_STATEVECTOR_CAP", str(obj.n - 1))
        streamed = brute_force(make())
        assert (streamed.c_min.hex(), streamed.c_max.hex(), streamed.argmin.tolist(), streamed.extras) == (
            res.c_min.hex(), res.c_max.hex(), res.argmin.tolist(), res.extras,
        )

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

    @pytest.mark.parametrize("n", [0, 2])
    def test_bad_seed_and_schedule_refused_at_every_size(self, n):
        # At n=0 both once returned energy 0.0, while n=2 raised.
        obj = IsingModel(n=n).as_objective()
        with pytest.raises(ValueError, match="^temperatures must be a positive finite real, got -1.0$"):
            simulated_annealing(obj, sweeps=2, temperatures=[-1.0, math.nan], seed=1.5)
        with pytest.raises(TypeError, match="^seed must be an integer, got 1.5$"):
            simulated_annealing(obj, sweeps=2, seed=1.5)

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
        # A cubic view has no quadratic source and, at n=21 above a cap of
        # 20, no table.
        monkeypatch.setenv("QOPT_STATEVECTOR_CAP", "20")
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


def table_only(energies):
    """An objective known only by its cached energy table, which is all the
    search reads."""
    table = np.asarray(energies, dtype=np.float64)
    table.setflags(write=False)
    return DiagonalObjective(n=table.size.bit_length() - 1, program=None, _cache={"energy_table": table})


def infinite_walls():
    # A third of the patterns are forbidden outright, as in the annealing tests.
    return table_only([math.inf if (k >> 2) % 3 == 0 else float((k * 7919) % 23) for k in range(1 << 8)])


def scattered_minus_infinity():
    # Ten patterns at -inf among integer energies: searches end on a tie of them.
    energies = [float((k * 7919) % 23) - 11.0 for k in range(1 << 8)]
    for k in np.random.default_rng(5).choice(1 << 8, size=10, replace=False).tolist():
        energies[k] = -math.inf
    return table_only(energies)


def mirrored(lower):
    """A flip-symmetric table: ``lower`` followed by its own reverse, so
    pattern 2^n - 1 - x has x's energy bit for bit."""
    lower = list(lower)
    obj = table_only(lower + lower[::-1])
    assert _kept_table(obj).size == len(lower)
    return obj


def mirrored_walls():
    # +inf walls on a third of the half and -inf walls on a few more.
    return mirrored(
        math.inf if (k >> 2) % 3 == 0 else -math.inf if k % 29 == 3 else float((k * 7919) % 23)
        for k in range(1 << 7)
    )


def mirrored_minus_infinity():
    # Five -inf patterns in the lower half and their five mirrors.
    lower = [float((k * 7919) % 23) - 11.0 for k in range(1 << 7)]
    for k in np.random.default_rng(5).choice(1 << 7, size=5, replace=False).tolist():
        lower[k] = -math.inf
    return mirrored(lower)


def mirrored_few_levels():
    # Five levels, each met on both sides of the half boundary, so a drawn
    # pattern lies in the upper half about as often as in the lower.
    return mirrored(float((k * 7919) % 5) for k in range(1 << 7))


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
            infinite_walls,
            scattered_minus_infinity,
            mirrored_walls,
            mirrored_minus_infinity,
            mirrored_few_levels,
        ],
        ids=[
            "maxcut", "sk-gauss", "sk-pm1", "labs-10", "labs", "labs-12", "portfolio", "signed-zero",
            "infinite-walls", "minus-infinity", "mirrored-walls", "mirrored-minus-infinity",
            "mirrored-few-levels",
        ],
    )
    def test_matches_stable_sort_reference(self, make):
        # Energies are compared as float.hex, so that a -0.0 and a 0.0
        # threshold differ; the table is the only array left cached, next
        # to its kept table.
        obj = make()
        for seed in range(10):
            for max_rounds in (1, 6, 128):
                res = grover_adaptive_search(obj, max_rounds=max_rounds, seed=seed)
                want_idx, want_e, want_trace, want_extras = grover_reference(obj, max_rounds, seed)
                assert res.best_assignment == index_to_bits(want_idx, obj.n)
                assert res.best_energy.hex() == want_e.hex()
                assert [e.hex() for e in res.trace] == [e.hex() for e in want_trace]
                assert res.extras == want_extras
                assert list(obj._cache) == ["energy_table", "kept_table"]

    def test_one_table_pass_per_success(self):
        # Beyond the first count and the first success's gather of the
        # marked energies, each success scans the table once, for its level;
        # on a flip-symmetric table every scan reads the lower half only.
        # Entries are counted on comparisons of arrays that share the
        # table's memory, so copies of the marked energies do not count.
        class Counted(np.ndarray):
            table = None
            scanned = 0

            def _count(self):
                if np.shares_memory(self, Counted.table):
                    Counted.scanned += self.size

            def __lt__(self, other):
                self._count()
                return super().__lt__(other)

            def __eq__(self, other):
                self._count()
                return super().__eq__(other)

        cases = [
            (lambda seed: gen_maxcut_r3r(12, seed=seed).objective, 2),
            (lambda seed: gen_portfolio(12, 4, seed=seed).objective, 1),
        ]
        for (make, fold), seed in itertools.product(cases, range(5)):
            obj = make(seed)
            plain = grover_adaptive_search(obj, seed=seed)
            assert (1 << obj.n) // _kept_table(obj).size == fold
            table = energy_table(obj)
            # The kept table is cut again from the counted view, so that the
            # scans of it are counted.
            obj._cache["energy_table"] = table.view(Counted)
            del obj._cache["kept_table"]
            Counted.table, Counted.scanned = table, 0
            res = grover_adaptive_search(obj, seed=seed)
            successes = len(res.trace) - 1
            assert successes > 0
            assert table.size // fold <= Counted.scanned <= (2 + successes) * (table.size // fold)
            assert (res.best_assignment, res.trace, res.extras) == (plain.best_assignment, plain.trace, plain.extras)

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

    def test_maxcut_p1_bound_single_instance(self):
        inst = gen_maxcut_r3r(10, seed=1)
        ref = brute_force(inst)
        res = qaoa_solve(inst, p=1, optimizer_budget=400, seed=0)
        ar = (ref.c_max - res.extras["mean_energy"]) / (ref.c_max - ref.c_min)
        assert ar >= 0.692

    @pytest.mark.parametrize("p", [0, 1])
    def test_timings_are_optimize_and_total(self, p):
        res = qaoa_solve(random_qubo(5, 8).as_objective(), p=p, optimizer_budget=40, seed=0)
        assert res.timings.keys() == {"optimize", "total"}
        assert 0.0 <= res.timings["optimize"] <= res.timings["total"]
        # Training is timed; at p = 0 nothing trains.
        assert (res.timings["optimize"] > 0.0) == (p > 0)

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
        with pytest.raises(TypeError, match="expected a problem instance or diagonal objective, got QuboModel"):
            qaoa_solve(QuboModel(n=1))

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
        # One value-and-gradient call runs three layer-sized passes (mixers and
        # generator sweeps; the phase passes are fewer) for each one a plain
        # evaluation runs, when every pre-mixer state is kept. It is charged
        # as at least that many plain evaluations.
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
            assert passes["mixer"] == 3 * plain["mixer"] <= _GRADIENT_COST * plain["mixer"]
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
        # Depth-1 statevector calls (gradients, state preparations) and
        # closed-form calls made by qaoa_solve, by name in the solvers module.
        # A state is prepared by qaoa_state (the final state) or, for a plain
        # evaluation, by _evolve.
        import qopt.solvers as solvers

        calls = {"gradient": 0, "state": 0, "closed": 0}
        for name, key in (("qaoa_value_and_gradient", "gradient"), ("qaoa_state", "state")):
            def counted(obj, params, *args, _fn=getattr(solvers, name), _key=key, **kwargs):
                calls[_key] += params.p == 1
                return _fn(obj, params, *args, **kwargs)

            monkeypatch.setattr(solvers, name, counted)

        def evolved(obj, gammas, betas, _fn=solvers._evolve):
            calls["state"] += len(gammas) == 1
            return _fn(obj, gammas, betas)

        monkeypatch.setattr(solvers, "_evolve", evolved)

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
        "make",
        [
            lambda: IsingModel(n=6, J={(i, i + 1): 1.0 for i in range(5)}).as_objective([(0, 2, 4, 0.5)]),
            lambda: gen_labs(6),
            lambda: DiagonalObjective(n=5, program=random_qubo(5, 3).as_objective().program),
        ],
        ids=["pubo", "labs", "native"],
    )
    def test_other_mean_mode_starts_keep_the_statevector(self, make, monkeypatch):
        calls = self._depth1_calls(monkeypatch)
        res = qaoa_solve(make(), p=1, optimizer_budget=300, seed=0)
        assert calls["closed"] == 0
        assert calls["gradient"] == (res.extras["evaluations"] - 64) // 4 > 0
        assert calls["state"] == 64 + 1

    def test_cvar_mode_keeps_the_statevector(self, monkeypatch):
        calls = self._depth1_calls(monkeypatch)
        res = qaoa_solve(random_qubo(6, 5).as_objective(), p=1, objective_mode="cvar", optimizer_budget=100, seed=0)
        assert calls["closed"] == calls["gradient"] == 0
        assert calls["state"] == res.extras["evaluations"] + 1

    @pytest.mark.parametrize(
        "make, folded",
        [
            (lambda: gen_maxcut_r3r(8, seed=1).objective, True),
            (lambda: random_qubo(6, 11).as_objective(), False),
            (lambda: gen_labs(7).objective, True),
            (lambda: IsingModel(n=1, h=(1.0,)).as_objective(), False),
        ],
        ids=["maxcut", "qubo-fields", "labs", "n1"],
    )
    def test_cvar_evaluation_is_the_sampled_cvar_of_its_state(self, make, folded, monkeypatch):
        # A training evaluation goes from the run's amplitudes to the tail
        # mean; every improving value and the final objective value equal
        # cvar(sample(qaoa_state(...))) at the same angles, bit for bit.
        import qopt.solvers as solvers

        obj = make()
        assert (_kept_table(obj).size < 1 << obj.n) == folded
        prepared = []

        def evolved(obj_, gammas, betas, _fn=solvers._evolve):
            prepared.append(QaoaParams(p=len(gammas), gammas=gammas, betas=betas))
            return _fn(obj_, gammas, betas)

        monkeypatch.setattr(solvers, "_evolve", evolved)
        shots, seed = 64, 5
        eval_seed = derive_seed(seed, "cvar-eval")
        for p in (1, 2, 3):
            for alpha in (1 / shots, 0.25, 1.0):
                prepared.clear()
                res = qaoa_solve(
                    obj, p=p, objective_mode="cvar", alpha=alpha, shots=shots, optimizer_budget=80, seed=seed
                )
                assert len(prepared) == res.extras["evaluations"]
                points = [(value, prepared[k - 1]) for k, value in res.trace]
                points.append((res.extras["objective_value"], res.params))
                for value, params in points:
                    state = qaoa_state(obj, params)
                    assert value == cvar(sample(state, shots, eval_seed, obj=obj), alpha), (p, alpha, params)

    def test_cvar_evaluation_builds_no_state_or_sample_set(self, monkeypatch):
        # Only the final state and its samples are objects; each evaluation
        # still checks the norm of the state it samples.
        import qopt.solvers as solvers

        built = {}
        for cls in (Statevector, SampleSet):
            def counted(self, _fn=cls.__post_init__, _key=cls.__name__):
                built[_key] += 1
                _fn(self)

            monkeypatch.setattr(cls, "__post_init__", counted)

        def probabilities(amps, n, _fn=solvers._probabilities):
            built["norm checks"] += 1
            return _fn(amps, n)

        monkeypatch.setattr(solvers, "_probabilities", probabilities)
        for obj in (gen_maxcut_r3r(8, seed=0).objective, random_qubo(6, 5).as_objective()):
            built.update({"Statevector": 0, "SampleSet": 0, "norm checks": 0})
            res = qaoa_solve(obj, p=1, objective_mode="cvar", optimizer_budget=100, seed=0)
            assert built == {"Statevector": 1, "SampleSet": 1, "norm checks": res.extras["evaluations"]}

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

    def test_refuses_depth_zero(self):
        # A depth-0 state is the plus state, whose pair correlations are all
        # 0: p=0 once ran every level on them and found -12 where p=1 finds -16.
        with pytest.raises(ValueError, match="^p must be at least 1, got 0$"):
            recursive_qaoa(gen_maxcut_r3r(12, seed=0), p=0)

    @pytest.mark.parametrize("cutoff", [1, 2], ids=["reduced", "enumerated"])
    def test_extras_keys_match_on_both_paths(self, cutoff):
        obj = IsingModel(n=2, J={(0, 1): -1.0}).as_objective()
        res = recursive_qaoa(obj, cutoff=cutoff, optimizer_budget=120, seed=0)
        assert res.extras.keys() == {"cutoff", "levels", "substitutions"}
        assert res.extras["cutoff"] == cutoff

    def test_replay_deterministic(self):
        inst = gen_maxcut_r3r(10, seed=5)
        a = recursive_qaoa(inst, cutoff=4, optimizer_budget=100, seed=21)
        b = recursive_qaoa(inst, cutoff=4, optimizer_budget=100, seed=21)
        assert a.best_assignment == b.best_assignment
        assert a.extras["substitutions"] == b.extras["substitutions"]

    def test_each_level_prepares_one_state_and_samples_none(self, monkeypatch):
        import qopt.solvers as solvers

        calls = dict.fromkeys(("_evolve", "qaoa_state", "sample", "expectation"), 0)
        for name in calls:
            def counted(*args, _fn=getattr(solvers, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(solvers, name, counted)
        res = recursive_qaoa(gen_maxcut_r3r(18, seed=1), seed=0)
        assert res.extras["levels"] == 10
        assert calls == {"_evolve": 10, "qaoa_state": 0, "sample": 0, "expectation": 0}

    def test_each_level_holds_no_full_state(self):
        # A level reads its correlations from its trained run, folded on
        # MaxCut. Building a full Statevector of the run, with its 2^18
        # probabilities and products, once took the peak to 17.1 MiB.
        inst = gen_maxcut_r3r(18, seed=1)
        gc.collect()
        tracemalloc.start()
        try:
            recursive_qaoa(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13 * 2**20

    def test_zero_couplings_are_not_ranked(self):
        # A coupling stored as 0.0 is no coupling: the reduction must not
        # train a level to eliminate along it. It once did, at one trained
        # level's cost, when it ranked the stored pairs rather than the
        # spin form's nonzero couplings.
        fields = {(i, i): c for i, c in enumerate(np.random.default_rng(56).uniform(-1.0, 1.0, 10).tolist())}
        zeros = {pair: 0.0 for pair in itertools.islice(itertools.combinations(range(10), 2), 0, 45, 3)}
        assert len(zeros) == 15
        bare, padded = (
            recursive_qaoa(QuboModel(n=10, terms=terms).as_objective(), cutoff=4, seed=0)
            for terms in (fields, {**fields, **zeros})
        )
        assert padded.extras["levels"] == bare.extras["levels"] == 0
        assert (padded.best_assignment, padded.trace) == (bare.best_assignment, bare.trace)

    # Each case's instance, its options, and the sha256 of its result's
    # assignment, energy, trace (correlations as hex) and substitutions,
    # recorded before RQAOA trained through qaoa_solve's trainer instead of
    # calling qaoa_solve at every level.
    RQAOA_PINNED = {
        "maxcut-r3r-10-s0": (lambda: gen_maxcut_r3r(10, seed=0), {},
                             "dcc979ea72256738d5852bee67d5c0ca4adac2aa3a98f53bfa120740bf5140cf"),
        "maxcut-r3r-10-s1": (lambda: gen_maxcut_r3r(10, seed=1), {},
                             "f7bf5aee0d1b48fffb31dcd2b84c112306d46a01923f43ad239d646712945c55"),
        "maxcut-r3r-14-s0": (lambda: gen_maxcut_r3r(14, seed=0), {},
                             "8b2a1dc85ae78eea8899213a5fee44af0296e440f0f4f83950cd507fbaad6f98"),
        "maxcut-r3r-14-s1": (lambda: gen_maxcut_r3r(14, seed=1), {},
                             "32c3986ac6948d7066f6bd63f0775545a4fcba6a23414d9ff3e9e9088707646e"),
        "maxcut-r3r-18-s0": (lambda: gen_maxcut_r3r(18, seed=0), {},
                             "dd7155308403094bb1de5e340672da7b7dc8621d5ddc95833b68e83b5a15d6d5"),
        "maxcut-r3r-18-s1": (lambda: gen_maxcut_r3r(18, seed=1), {},
                             "8d461e7735076c4a9e9240bc8ad576f2369457458dfb723eed456145781a3f80"),
        "sk-pm1-fields-12": (lambda: sk_with_fields(12, "pm1", 3), {},
                             "e23530269c17edc95f225629f6fedae84db2d04d7092e6315f91c5be1a3ae066"),
        "sk-gaussian-fields-12": (lambda: sk_with_fields(12, "gaussian", 4), {},
                                  "0f97c220aff7d80be6d2ef7412794f6823bf018ad5a90fd6dec0fd49a00d46b1"),
        "cvar-maxcut-r3r-12": (lambda: gen_maxcut_r3r(12, seed=2), {"objective_mode": "cvar", "optimizer_budget": 60},
                               "2bbcd14d8e7006d2e602c3fdd942ca8d1efcb78f95297809a651ead880486040"),
        "p2-maxcut-r3r-10": (lambda: gen_maxcut_r3r(10, seed=0), {"p": 2},
                             "cf1bb9f30507fc86b6ad652e7e1439cd782cf95792ed1b7f8bbdafbe7bb345f4"),
    }

    @pytest.mark.parametrize("case", sorted(RQAOA_PINNED))
    def test_replay_pinned(self, case):
        make, kwargs, digest = self.RQAOA_PINNED[case]
        res = recursive_qaoa(make(), seed=0, **kwargs)
        payload = [
            list(res.best_assignment),
            res.best_energy.hex(),
            [[n, i, j, corr.hex()] for n, i, j, corr in res.trace],
            [list(s) for s in res.extras["substitutions"]],
        ]
        assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("sweeps", lambda obj: simulated_annealing(obj, sweeps=2.5), id="anneal-sweeps"),
        pytest.param("restarts", lambda obj: simulated_annealing(obj, sweeps=3, restarts=1.5), id="anneal-restarts"),
        pytest.param("max_rounds", lambda obj: grover_adaptive_search(obj, max_rounds=2.5), id="grover-max_rounds"),
        pytest.param("p", lambda obj: qaoa_solve(obj, p=1.5), id="qaoa-p"),
        pytest.param("optimizer_budget", lambda obj: qaoa_solve(obj, optimizer_budget=10.5), id="qaoa-budget"),
        pytest.param("shots", lambda obj: qaoa_solve(obj, shots=2.5), id="qaoa-shots"),
        pytest.param("seed", lambda obj: qaoa_solve(obj, seed=1.5), id="qaoa-seed"),
        pytest.param("cutoff", lambda obj: recursive_qaoa(obj, cutoff=2.5), id="rqaoa-cutoff"),
        # At n <= cutoff the reduction enumerates, and checks the same arguments first.
        pytest.param("p", lambda obj: recursive_qaoa(obj, p=1.5), id="rqaoa-p-enumerated"),
        pytest.param(
            "optimizer_budget", lambda obj: recursive_qaoa(obj, optimizer_budget=10.5), id="rqaoa-budget-enumerated",
        ),
        pytest.param("shots", lambda obj: recursive_qaoa(obj, shots=2.5), id="rqaoa-shots-enumerated"),
        pytest.param("seed", lambda obj: recursive_qaoa(obj, seed=1.5), id="rqaoa-seed-enumerated"),
        pytest.param(
            "shots",
            lambda obj: sample(qaoa_state(obj, QaoaParams(p=1, gammas=(0.3,), betas=(0.2,))), 2.5, obj=obj),
            id="sample-shots",
        ),
        pytest.param("steps", lambda obj: anneal_trotter(obj, 1.0, 2.5), id="trotter-steps"),
    ],
)
def test_float_counts_raise_naming_the_parameter(name, call):
    # A count passes through operator.index: 2.5 sweeps used to run three
    # and report 2.5, and a bench config passes JSON numbers straight in.
    obj = gen_maxcut_r3r(6, seed=0).objective
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        call(obj)


def test_recursive_qaoa_checks_its_mode_at_every_size():
    obj = gen_maxcut_r3r(6, seed=0).objective
    for cutoff in (2, 8):
        with pytest.raises(ValueError, match="^unknown objective mode 'max'$"):
            recursive_qaoa(obj, cutoff=cutoff, objective_mode="max")


ONE_EQUALITY = ConstrainedModel(objective=QuboModel(n=1), equalities=(LinearConstraint((1.0,), 1.0),))
POSITIVE = "positive finite real"


@pytest.mark.parametrize("value", [True, "0.5"])
@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("alpha", lambda obj, v: qaoa_solve(obj, objective_mode="cvar", alpha=v), id="qaoa-alpha"),
        pytest.param("alpha", lambda obj, v: recursive_qaoa(obj, cutoff=2, alpha=v), id="rqaoa-alpha"),
        pytest.param("alpha", lambda obj, v: recursive_qaoa(obj, alpha=v), id="rqaoa-alpha-enumerated"),
        pytest.param("edge_prob", lambda obj, v: gen_mis(5, edge_prob=v), id="mis-edge_prob"),
        pytest.param(("side", POSITIVE), lambda obj, v: gen_mis(5, unit_disc=True, side=v), id="udmis-side"),
        pytest.param("weights", lambda obj, v: gen_mis(3, weights=[1.0, v, 1.0]), id="mis-weights"),
        pytest.param(
            "points", lambda obj, v: gen_mis(2, unit_disc=True, points=[(0.0, v), (0.5, 0)]), id="udmis-points",
        ),
        pytest.param("terms[0, 1]", lambda obj, v: QuboModel(2, {(0, 1): v}), id="qubo-terms"),
        pytest.param("offset", lambda obj, v: QuboModel(2, offset=v), id="qubo-offset"),
        pytest.param(
            "entry (1, 0) coefficient", lambda obj, v: QuboModel.from_entries(2, [(1, 0, v)]), id="qubo-entries",
        ),
        pytest.param("h", lambda obj, v: IsingModel(2, h=(0.5, v)), id="ising-h"),
        pytest.param("J[0, 1]", lambda obj, v: IsingModel(2, J={(0, 1): v}), id="ising-J"),
        pytest.param("offset", lambda obj, v: IsingModel(2, offset=v), id="ising-offset"),
        pytest.param(
            "cubic term (0, 1, 2) weight",
            lambda obj, v: IsingModel(3).as_objective(cubic=[(0, 1, 2, v)]),
            id="ising-cubic",
        ),
        pytest.param("coeffs", lambda obj, v: LinearConstraint((1.0, v), 1.0), id="constraint-coeffs"),
        pytest.param("bound", lambda obj, v: LinearConstraint((1.0, 1.0), v), id="constraint-bound"),
        pytest.param(("penalty", POSITIVE), lambda obj, v: penalty_encode(ONE_EQUALITY, penalty=v), id="penalty"),
        pytest.param("gammas", lambda obj, v: QaoaParams(1, (v,), (0.5,)), id="qaoa-gammas"),
        pytest.param("betas", lambda obj, v: QaoaParams(1, (0.5,), (v,)), id="qaoa-betas"),
        pytest.param(("T", POSITIVE), lambda obj, v: anneal_trotter(obj, v, 2), id="trotter-T"),
        pytest.param("beta", lambda obj, v: gibbs_distribution(obj, v), id="gibbs-beta"),
        pytest.param(
            ("temperatures", POSITIVE),
            lambda obj, v: simulated_annealing(obj, sweeps=2, temperatures=[2.0, v]),
            id="anneal-temperatures",
        ),
        pytest.param(("time_limit", POSITIVE), lambda obj, v: BenchmarkConfig(time_limit=v), id="bench-time_limit"),
        pytest.param("target AR", lambda obj, v: BenchmarkConfig(target=("ar", v)), id="bench-target"),
        pytest.param(
            "alpha", lambda obj, v: cvar(sample(Statevector.plus(obj.n), 8, obj=obj), v), id="cvar-alpha",
        ),
    ],
)
def test_non_real_parameters_raise_naming_the_parameter(name, call, value):
    # True once trained at alpha 1.0, built the complete graph or was read
    # as 1.0, and "0.5" failed on an unnamed comparison or conversion or
    # was read as a number.
    name, what = name if isinstance(name, tuple) else (name, "finite real")
    obj = gen_maxcut_r3r(6, seed=0).objective
    with pytest.raises(TypeError, match=f"^{re.escape(name)} must be a {what}, got {re.escape(repr(value))}$"):
        call(obj, value)


# Each family from its least size: a cubic term needs three spins, a LABS
# sequence two symbols.
BOUNDARY_FAMILIES = {
    "quadratic": (0, lambda n: QuboModel(
        n=n, terms={**{(i, i): 1.0 - i % 3 for i in range(n)}, **{(i, i + 1): 2.0 for i in range(n - 1)}},
    ).as_objective()),
    "cubic": (3, lambda n: IsingModel(
        n=n, h=(0.5,) * n, J={(i, i + 1): -1.0 for i in range(n - 1)},
    ).as_objective(cubic=[(i, i + 1, i + 2, 1.0) for i in range(n - 2)])),
    "labs": (2, lambda n: gen_labs(n).objective),
}
BOUNDARY_BUDGETS = {
    "brute-force": {},
    "annealing": {"sweeps": 5},
    "grover": {"max_rounds": 4},
    "qaoa": {"optimizer_budget": 8},
    "rqaoa": {"optimizer_budget": 8},
}


@pytest.mark.parametrize("solver", list(BOUNDARY_BUDGETS))
def test_boundary_sizes_solve_or_refuse_in_one_line(solver, monkeypatch):
    # Every bench solver at the sizes around the statevector cap, the
    # streaming limit (cap + 4) and the 62-bit packing limit, on a quadratic,
    # a cubic and a LABS objective: each run succeeds or refuses in one line.
    cap = 6
    monkeypatch.setenv("QOPT_STATEVECTOR_CAP", str(cap))
    assert list(BOUNDARY_BUDGETS) == list(SOLVERS)
    for family, (least, make) in BOUNDARY_FAMILIES.items():
        for n in (0, 1, 2, cap, cap + 1, cap + 4, cap + 5, 62, 63, 64):
            if n < least:
                continue
            obj = make(n)
            try:
                result = SOLVERS[solver](obj, **BOUNDARY_BUDGETS[solver])
            except (CapacityError, ValueError, TypeError) as exc:
                # Up to the cap every run succeeds.
                assert n > cap and str(exc) and "\n" not in str(exc), (family, n, exc)
            else:
                assert_self_consistent(result, obj)
    # The table-policy edge: up to the cap, annealing reads the table up to
    # 20 variables, and above that when the objective has no spin form, as
    # LABS has none. Under a cap of 21, with the table cached as `qopt bench`
    # compiles it, every solver solves LABS at 20 and 21 variables, except
    # that the recursive reduction refuses it in one line: it needs a
    # quadratic model.
    monkeypatch.setenv("QOPT_STATEVECTOR_CAP", "21")
    for n in (20, 21):
        obj = BOUNDARY_FAMILIES["labs"][1](n)
        energy_table(obj)
        if solver == "rqaoa":
            with pytest.raises(TypeError, match="^recursive reduction needs a quadratic model behind the objective$"):
                SOLVERS[solver](obj, **BOUNDARY_BUDGETS[solver])
        else:
            assert_self_consistent(SOLVERS[solver](obj, **BOUNDARY_BUDGETS[solver]), obj)


CACHE_INSTANCES = {
    "labs-21": lambda: gen_labs(21),
    "maxcut-r3r-22": lambda: gen_maxcut_r3r(22, seed=3),
    "sk-gauss-22": lambda: gen_spin_glass("complete", 22, dist="gaussian", seed=5),
    "maxcut-r3r-12": lambda: gen_maxcut_r3r(12, seed=3),
}
CACHE_CASES = [
    *((name, solver) for name in ("labs-21", "maxcut-r3r-22", "sk-gauss-22")
      for solver in ("brute-force", "annealing", "grover")),
    *(("maxcut-r3r-12", solver) for solver in SOLVERS),
]


@pytest.mark.parametrize("instance, solver", CACHE_CASES)
def test_the_cache_is_never_an_input(instance, solver):
    # A solver gives the same result on a fresh objective as on one whose
    # table, levels, spin form and coupling view an earlier call filled in.
    def run(obj):
        data = solve_result_to_json(SOLVERS[solver](obj, **BOUNDARY_BUDGETS[solver]))
        del data["timings"]
        return data

    fresh = run(CACHE_INSTANCES[instance]().objective)
    filled = CACHE_INSTANCES[instance]().objective
    energy_table(filled)
    _energy_levels(filled)
    filled.spin_model()
    filled.spin_couplings()
    assert run(filled) == fresh


class CountingCouplings(dict):
    """A coupling dict that counts the passes made over its items."""

    passes = 0

    def items(self):
        self.passes += 1
        return super().items()


def test_the_coupling_view_is_built_once_per_objective():
    # The p=1 closed form and annealing's local fields read one cached view
    # of the spin form; neither walks the coupling dict itself. At n=22 the
    # training runs on the closed form alone and annealing on local fields.
    obj = gen_maxcut_r3r(22, seed=3).objective
    spin = obj.spin_model()
    object.__setattr__(spin, "J", CountingCouplings(spin.J))
    _train(obj, 1, "mean", 0.25, 200, 1, 0)
    simulated_annealing(obj, sweeps=5, restarts=2)
    assert spin.J.passes == 1
    assert "energy_table" not in obj._cache


def test_cached_table_is_not_read_above_a_lowered_cap(monkeypatch):
    # A table cached under the default cap is refused, like a fresh one, once
    # the cap drops below its size.
    obj = gen_maxcut_r3r(14, seed=2).objective
    energy_table(obj)
    monkeypatch.setenv("QOPT_STATEVECTOR_CAP", "10")
    for call in (grover_adaptive_search, lambda o: gibbs_distribution(o, 1.0)):
        with pytest.raises(CapacityError, match="^14 qubits exceed the simulator cap of 10$"):
            call(obj)


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

    @staticmethod
    def per_index(indices, n):
        return ["".join(str(b) for b in index_to_bits(i, n)) for i in indices.tolist()]

    @pytest.mark.parametrize("n", [0, 1, 16])
    def test_optima_render_as_per_index_strings(self, n):
        # On an all-zero model every pattern is optimal; rendering them one by
        # one once took 4 s of a 0.02 s solve at n=20.
        res = brute_force(IsingModel(n=n).as_objective())
        assert res.argmin.size == 1 << n
        assert solve_result_to_json(res)["argmin"] == self.per_index(res.argmin[:1024], n)

    def test_a_degenerate_optimum_set_renders_as_a_count_and_a_bounded_list(self):
        # Every pattern of an all-zero model is optimal. Listing each one
        # printed 28 MiB of JSON at n=20; the count carries the size, and the
        # list keeps the 1024 lowest-index optima.
        res = brute_force(IsingModel(n=20).as_objective())
        data = solve_result_to_json(res)
        assert data["argmin_count"] == 1 << 20
        assert data["argmin"] == self.per_index(np.arange(1024), 20)
        assert len(json.dumps(data, indent=2)) < 64 << 10

    def test_62_variable_samples_render_as_per_index_strings(self):
        indices = np.array([0, 1, 5, (1 << 61) + 3, (1 << 62) - 1], dtype=np.int64)
        samples = SampleSet(
            n=62, shots=9, seed=0, indices=indices, index_counts=np.array([1, 2, 3, 2, 1]), index_energies=np.zeros(5),
        )
        res = replace(brute_force(IsingModel(n=1).as_objective()), samples=samples)
        counts = solve_result_to_json(res)["samples"]["counts"]
        assert counts == dict(sorted(zip(self.per_index(indices, 62), [1, 2, 3, 2, 1])))
        assert list(counts) == sorted(counts)


# Small sizes for every family whose generator takes a seed (LABS has none).
SEEDED_FAMILY_SIZES = {
    "maxcut-r3r": {"n": 6}, "mis": {"n": 4}, "udmis": {"n": 4}, "market-share": {"m": 2}, "qap": {"n": 2},
    "spin-glass": {"topology": "complete", "n": 3}, "ev-parking": {"N": 3, "K": 2, "M": 2, "E": 9}, "portfolio": {"N": 4, "B": 2},
}


def seeded_calls():
    inst = gen_maxcut_r3r(6, seed=0)
    calls = {
        name: functools.partial(fn, inst) for name, fn in SOLVERS.items() if "seed" in inspect.signature(fn).parameters
    }
    calls["sample"] = functools.partial(sample, Statevector.plus(6), 8, obj=inst.objective)
    calls.update({f"gen-{family}": functools.partial(FAMILIES[family].generate, **sizes)
                  for family, sizes in SEEDED_FAMILY_SIZES.items()})
    return calls


def test_seeded_families_are_listed():
    seeded = [family for family, row in FAMILIES.items() if "seed" in inspect.signature(row.generate).parameters]
    assert sorted(seeded) == sorted(SEEDED_FAMILY_SIZES)
    assert sorted(seeded_calls()) == sorted(
        ["annealing", "grover", "qaoa", "rqaoa", "sample", *(f"gen-{family}" for family in seeded)]
    )


@pytest.mark.parametrize("name", sorted(seeded_calls()))
def test_negative_seed_is_refused_by_name(name):
    # A -1 once reached numpy's unnamed "expected non-negative integer"
    # (annealing, grover, sample, and the generators drawing from numpy), or
    # was taken (qaoa, rqaoa, maxcut-r3r). Master seeds, which are hashed,
    # still take any int.
    with pytest.raises(ValueError, match=r"^seed must be at least 0, got -1$"):
        seeded_calls()[name](seed=-1)
