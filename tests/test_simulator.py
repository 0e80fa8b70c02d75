"""Simulator: matrix oracles, distribution contracts, invariances."""

import math

import networkx as nx
import numpy as np
import pytest

from qopt.model import DiagonalObjective, IsingModel, QuboModel
from qopt.problems import gen_maxcut_r3r, gen_portfolio, gen_spin_glass
from qopt.simulator import (
    CapacityError,
    GibbsTable,
    QaoaParams,
    SampleSet,
    Statevector,
    WarmStart,
    anneal_trotter,
    cvar,
    dump_statevector,
    energy_table,
    expectation,
    gibbs_distribution,
    ground_state_overlap,
    load_statevector,
    qaoa_state,
    sample,
    statevector_cap,
)

# Single spin with E(bit=0)=+1, E(bit=1)=-1.
SINGLE_SPIN = IsingModel(n=1, h=(1.0,)).as_objective()


def single_spin_oracle(gamma, beta):
    # Independent 2x2 matrix product: mixer @ phase @ |+>.
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    phase = np.diag([np.exp(-1j * gamma * 1.0), np.exp(-1j * gamma * -1.0)])
    mixer = np.array(
        [[math.cos(beta), 1j * math.sin(beta)], [1j * math.sin(beta), math.cos(beta)]]
    )
    state = mixer @ phase @ plus
    return state, float((np.abs(state) ** 2 @ np.array([1.0, -1.0])).real)


def reference_layers(amps, table, layers, thetas=None):
    """Loop reference for the kernels: full-table phase, per-qubit 2x2 mixer.

    Each layer multiplies by ``exp(-1j * g * table)`` and then rotates every
    qubit from a contiguous copy of its bit-0 half. The simulator's level
    lookup and in-place flip update must reproduce this arithmetic.
    """
    amps = np.array(amps, dtype=np.complex128)
    n = amps.size.bit_length() - 1
    for gamma, beta in layers:
        amps *= np.exp(-1j * gamma * table)
        cb = math.cos(beta)
        isb = 1j * math.sin(beta)
        for i in range(n):
            view = amps.reshape(1 << (n - 1 - i), 2, 1 << i)
            a0 = view[:, 0, :].copy()
            a1 = view[:, 1, :]
            if thetas is None:
                d0 = d1 = cb
                off = isb
            else:
                ct, st = math.cos(thetas[i]), math.sin(thetas[i])
                d0 = cb + isb * ct
                d1 = cb - isb * ct
                off = isb * st
            view[:, 0, :] = d0 * a0 + off * a1
            view[:, 1, :] = off * a0 + d1 * a1
    return amps


# Few distinct energies (MaxCut), and all distinct ones (Gaussian SK, portfolio).
KERNEL_CASES = {
    "maxcut-r3r": lambda: gen_maxcut_r3r(10, seed=4).objective,
    "sk-gaussian": lambda: gen_spin_glass("complete", 9, dist="gaussian", seed=5).objective,
    "portfolio": lambda: gen_portfolio(8, 3, seed=6).objective,
}


def maxcut_p1_edge(gamma, beta, du, dv, tri):
    """Wang et al. (arXiv:1706.02998) p=1 expectation of one cut edge.

    Their state is exp(-i beta B) exp(-i gamma C)|+> with C the cut count
    and B the sum of X; ``du``/``dv`` are the endpoint degrees minus one and
    ``tri`` the triangles through the edge.
    """
    c, s = math.cos(gamma), math.sin(gamma)
    return (
        0.5
        + 0.25 * math.sin(4 * beta) * s * (c**du + c**dv)
        - 0.25 * math.sin(2 * beta) ** 2 * c ** (du + dv - 2 * tri) * (1 - math.cos(2 * gamma) ** tri)
    )


def maxcut_objective(n, edges):
    # Energy -C(x): each edge contributes -(x_u + x_v - 2 x_u x_v).
    entries = []
    for u, v in edges:
        entries += [(u, u, -1.0), (v, v, -1.0), (u, v, 2.0)]
    return QuboModel.from_entries(n, entries).as_objective()


class TestStatevector:
    def test_plus_state_amplitudes(self):
        sv = Statevector.plus(3)
        assert np.allclose(sv.amplitudes, 2 ** -1.5)

    def test_basis_state_position(self):
        sv = Statevector.basis(3, (1, 0, 0))
        assert sv.amplitudes[1] == 1.0
        assert sv.probabilities().sum() == 1.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Statevector(n=1, amplitudes=np.array([1.0, 1.0]))

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            Statevector(n=2, amplitudes=np.array([1.0, 0.0]))

    def test_copy_is_independent(self):
        sv = Statevector.plus(2)
        other = sv.copy()
        other.amplitudes[0] = 0.0
        assert sv.amplitudes[0] != 0.0

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("QOPT_STATEVECTOR_CAP", "4")
        assert statevector_cap() == 4
        with pytest.raises(CapacityError):
            Statevector.plus(5)
        Statevector.plus(4)

    def test_cap_env_validation(self, monkeypatch):
        monkeypatch.setenv("QOPT_STATEVECTOR_CAP", "zero")
        with pytest.raises(ValueError):
            statevector_cap()
        monkeypatch.setenv("QOPT_STATEVECTOR_CAP", "0")
        with pytest.raises(ValueError):
            statevector_cap()

    def test_default_cap(self, monkeypatch):
        monkeypatch.delenv("QOPT_STATEVECTOR_CAP", raising=False)
        assert statevector_cap() == 24


class TestQaoaState:
    def test_p0_plus_is_uniform(self):
        obj = QuboModel(n=3, terms={(0, 1): 1.0}).as_objective()
        sv = qaoa_state(obj, QaoaParams(p=0, gammas=(), betas=()))
        assert np.allclose(sv.amplitudes, 2 ** -1.5)

    def test_single_spin_ground_state_point(self):
        params = QaoaParams(p=1, gammas=(math.pi / 4,), betas=(math.pi / 4,))
        sv = qaoa_state(SINGLE_SPIN, params)
        assert expectation(sv, SINGLE_SPIN) == pytest.approx(-1.0, abs=1e-9)
        assert ground_state_overlap(sv, SINGLE_SPIN) == pytest.approx(1.0, abs=1e-9)

    def test_single_spin_matches_matrix_oracle_on_grid(self):
        for gamma in np.linspace(0.0, math.pi, 10):
            for beta in np.linspace(0.0, math.pi / 2, 10):
                params = QaoaParams(p=1, gammas=(float(gamma),), betas=(float(beta),))
                sv = qaoa_state(SINGLE_SPIN, params)
                oracle_state, oracle_e = single_spin_oracle(gamma, beta)
                assert np.allclose(sv.amplitudes, oracle_state, atol=1e-9)
                assert expectation(sv, SINGLE_SPIN) == pytest.approx(oracle_e, abs=1e-9)
                # Closed form from the same oracle.
                assert oracle_e == pytest.approx(
                    -math.sin(2 * gamma) * math.sin(2 * beta), abs=1e-9
                )

    def test_norm_preserved_after_layers(self):
        rng = np.random.default_rng(51)
        obj = QuboModel(
            n=6, terms={(i, j): float(rng.normal()) for i in range(6) for j in range(i, 6)}
        ).as_objective()
        params = QaoaParams(p=3, gammas=(0.3, 1.1, 2.0), betas=(0.2, 0.7, 1.4))
        sv = qaoa_state(obj, params)
        assert float((np.abs(sv.amplitudes) ** 2).sum()) == pytest.approx(1.0, abs=1e-10)

    def test_two_layer_composition(self):
        # Two layers equal applying one-layer twice through the public API.
        obj = QuboModel(n=4, terms={(0, 1): 1.0, (2, 3): -2.0, (1, 2): 0.5}).as_objective()
        params = QaoaParams(p=2, gammas=(0.4, 0.9), betas=(0.3, 0.8))
        sv = qaoa_state(obj, params)
        # Manual composition via the exposed primitives.
        table = energy_table(obj)
        step = Statevector.plus(4)
        for g, b in zip(params.gammas, params.betas):
            step.amplitudes *= np.exp(-1j * g * table)
            for i in range(4):
                view = step.amplitudes.reshape(1 << (3 - i), 2, 1 << i)
                a0 = view[:, 0, :].copy()
                a1 = view[:, 1, :].copy()
                view[:, 0, :] = math.cos(b) * a0 + 1j * math.sin(b) * a1
                view[:, 1, :] = 1j * math.sin(b) * a0 + math.cos(b) * a1
        assert np.allclose(sv.amplitudes, step.amplitudes, atol=1e-12)

    def test_offset_only_changes_global_phase(self):
        base = QuboModel(n=3, terms={(0, 1): 1.0, (2, 2): -1.0})
        shifted = QuboModel(n=3, terms=base.terms, offset=5.0)
        params = QaoaParams(p=2, gammas=(0.7, 0.2), betas=(0.4, 1.0))
        a = qaoa_state(base.as_objective(), params).amplitudes
        b = qaoa_state(shifted.as_objective(), params).amplitudes
        ratio = b[np.abs(a) > 1e-12] / a[np.abs(a) > 1e-12]
        assert np.allclose(np.abs(b) ** 2, np.abs(a) ** 2, atol=1e-12)
        assert np.allclose(ratio, ratio[0], atol=1e-9)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            QaoaParams(p=2, gammas=(0.1,), betas=(0.2, 0.3))
        with pytest.raises(ValueError):
            QaoaParams(p=1, gammas=(float("nan"),), betas=(0.0,))
        with pytest.raises(ValueError):
            QaoaParams(p=-1, gammas=(), betas=())


class TestKernels:
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_plus_state_matches_loop_reference_exactly(self, case):
        obj = KERNEL_CASES[case]()
        table = energy_table(obj)
        rng = np.random.default_rng(61)
        for p in (1, 2, 3):
            gammas = tuple(rng.uniform(-2.0, 2.0, p))
            betas = tuple(rng.uniform(-2.0, 2.0, p))
            got = qaoa_state(obj, QaoaParams(p=p, gammas=gammas, betas=betas)).amplitudes
            ref = reference_layers(Statevector.plus(obj.n).amplitudes, table, zip(gammas, betas))
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_warm_start_matches_loop_reference(self, case):
        # Complex diagonals on strided halves round differently, so 1e-14.
        obj = KERNEL_CASES[case]()
        rng = np.random.default_rng(62)
        warm = WarmStart(tuple(rng.uniform(0.0, 1.0, obj.n)))
        start = qaoa_state(obj, QaoaParams(p=0, gammas=(), betas=()), warm).amplitudes
        for p in (1, 2, 3):
            gammas = tuple(rng.uniform(-2.0, 2.0, p))
            betas = tuple(rng.uniform(-2.0, 2.0, p))
            got = qaoa_state(obj, QaoaParams(p=p, gammas=gammas, betas=betas), warm).amplitudes
            ref = reference_layers(start, energy_table(obj), zip(gammas, betas), warm.thetas())
            assert np.max(np.abs(got - ref)) <= 1e-14

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_anneal_matches_loop_reference_exactly(self, case):
        obj = KERNEL_CASES[case]()
        T, steps = 2.5, 6
        dt = T / steps
        lams = [(k + 0.5) / steps for k in range(steps)]
        ref = reference_layers(
            Statevector.plus(obj.n).amplitudes,
            energy_table(obj),
            [(dt * lam, dt * (1.0 - lam)) for lam in lams],
        )
        assert np.array_equal(anneal_trotter(obj, T, steps).amplitudes, ref)

    def test_energy_levels_rebuild_the_table(self):
        from qopt.simulator import _energy_levels

        obj = KERNEL_CASES["maxcut-r3r"]()
        levels, level_of = _energy_levels(obj)
        assert np.array_equal(levels[level_of], energy_table(obj))
        assert level_of.dtype == np.intp
        assert levels.size < 2**obj.n
        assert _energy_levels(obj)[1] is level_of


class TestMaxcutP1ClosedForm:
    # qopt's phase is exp(-i g E) with E = -C, i.e. exp(-i (-g) C), and its
    # mixer [[cos b, i sin b], [i sin b, cos b]] is exp(+i b X) = exp(-i (-b) X)
    # per qubit. So Wang et al.'s (gamma, beta) is qopt's (-g, -b); their
    # formula is even under flipping both signs, and <E> = -sum_edges <C_uv>.
    @staticmethod
    def _check(graph, rng):
        edges = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
        obj = maxcut_objective(graph.number_of_nodes(), edges)
        for _ in range(3):
            g, b = (float(v) for v in rng.uniform(-math.pi, math.pi, 2))
            sv = qaoa_state(obj, QaoaParams(p=1, gammas=(g,), betas=(b,)))
            closed = -sum(
                maxcut_p1_edge(
                    -g, -b,
                    graph.degree(u) - 1,
                    graph.degree(v) - 1,
                    len(set(graph[u]) & set(graph[v])),
                )
                for u, v in edges
            )
            assert expectation(sv, obj) == pytest.approx(closed, abs=1e-12)

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_random_three_regular(self, n):
        rng = np.random.default_rng(70 + n)
        self._check(nx.random_regular_graph(3, n, seed=n), rng)

    def test_graph_with_triangles(self):
        graph = nx.gnp_random_graph(9, 0.5, seed=3)
        assert sum(nx.triangles(graph).values()) > 0
        self._check(graph, np.random.default_rng(71))


def ising_p1_zz(J, u, v, gamma, beta):
    """Ozaeta, van Dam, McMahon (arXiv:2012.03421) p=1 <Z_u Z_v> for h=0.

    Their state is exp(-i beta B) exp(-i gamma C)|+> with
    C = sum J_uv Z_u Z_v; ``J`` is the symmetric coupling matrix.
    """
    others = [w for w in range(J.shape[0]) if w not in (u, v)]
    cos = lambda a: math.prod(math.cos(2 * gamma * x) for x in a)  # noqa: E731
    first = math.sin(2 * gamma * J[u, v]) * (cos(J[u, others]) + cos(J[v, others]))
    second = cos(J[u, others] + J[v, others]) - cos(J[u, others] - J[v, others])
    return 0.5 * math.sin(4 * beta) * first - 0.5 * math.sin(2 * beta) ** 2 * second


class TestWeightedIsingP1ClosedForm:
    # qopt's phase is exp(-i g E) with E = C, so gamma = g; its mixer
    # exp(+i b X) per qubit is exp(-i (-b) X), so beta = -b. The first term
    # of the formula is odd in beta, so a flipped mixer sign fails here.
    @pytest.mark.parametrize("n", [8, 12])
    def test_gaussian_sk(self, n):
        inst = gen_spin_glass("complete", n, dist="gaussian", seed=40 + n)
        J = np.zeros((n, n))
        for (u, v), c in zip(inst.raw["edges"], inst.raw["couplings"]):
            J[u, v] = J[v, u] = c
        rng = np.random.default_rng(80 + n)
        for _ in range(3):
            g, b = (float(x) for x in rng.uniform(-math.pi, math.pi, 2))
            sv = qaoa_state(inst.objective, QaoaParams(p=1, gammas=(g,), betas=(b,)))
            closed = sum(J[u, v] * ising_p1_zz(J, u, v, g, -b) for u in range(n) for v in range(u + 1, n))
            assert expectation(sv, inst.objective) == pytest.approx(closed, abs=1e-12)


class TestWarmStart:
    def test_binary_optimum_with_zero_clamp_is_basis_state(self):
        obj = QuboModel(n=3, terms={(0, 0): -1.0, (1, 1): 2.0, (2, 2): -3.0}).as_objective()
        ws = WarmStart(c_star=(1.0, 0.0, 1.0), epsilon=0.0)
        sv = qaoa_state(obj, QaoaParams(p=0, gammas=(), betas=()), initial=ws)
        got = sample(sv, shots=100, seed=1)
        assert got.counts == {(1, 0, 1): 100}

    def test_clamp_keeps_all_patterns_reachable(self):
        ws = WarmStart(c_star=(1.0, 0.0), epsilon=0.25)
        obj = QuboModel(n=2, terms={}).as_objective()
        sv = qaoa_state(obj, QaoaParams(p=0, gammas=(), betas=()), initial=ws)
        assert (sv.probabilities() > 0.01).all()

    def test_mixer_fixes_initial_state(self):
        # With gamma=0 the layer reduces to the tilted mixer, whose axis is
        # the initial state's own: the state must come back up to phase.
        ws = WarmStart(c_star=(0.8, 0.3, 0.5), epsilon=0.1)
        obj = QuboModel(n=3, terms={}).as_objective()
        start = qaoa_state(obj, QaoaParams(p=0, gammas=(), betas=()), initial=ws)
        moved = qaoa_state(obj, QaoaParams(p=1, gammas=(0.0,), betas=(0.9,)), initial=ws)
        overlap = abs(np.vdot(start.amplitudes, moved.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_half_relaxation_equals_plain(self):
        obj = QuboModel(n=2, terms={(0, 1): 1.0, (0, 0): -1.0}).as_objective()
        params = QaoaParams(p=1, gammas=(0.6,), betas=(0.8,))
        plain = qaoa_state(obj, params, initial="plus")
        warm = qaoa_state(obj, params, initial=WarmStart(c_star=(0.5, 0.5), epsilon=0.0))
        assert np.allclose(plain.amplitudes, warm.amplitudes, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            WarmStart(c_star=(1.2,))
        with pytest.raises(ValueError):
            WarmStart(c_star=(0.5,), epsilon=0.7)
        obj = QuboModel(n=2, terms={}).as_objective()
        with pytest.raises(ValueError):
            qaoa_state(obj, QaoaParams(p=0, gammas=(), betas=()), initial=WarmStart(c_star=(0.5,)))
        with pytest.raises(ValueError):
            qaoa_state(obj, QaoaParams(p=0, gammas=(), betas=()), initial="minус")


class TestExpectation:
    def test_uniform_average(self):
        obj = QuboModel(n=1, terms={(0, 0): 2.0}).as_objective()  # energies 0, 2
        assert expectation(Statevector.plus(1), obj) == pytest.approx(1.0)

    def test_basis_state_returns_energy(self):
        obj = QuboModel(n=2, terms={(0, 1): 3.0}, offset=1.0).as_objective()
        assert expectation(Statevector.basis(2, (1, 1)), obj) == pytest.approx(4.0)

    def test_offset_shifts_exactly(self):
        base = QuboModel(n=3, terms={(0, 2): 1.5, (1, 1): -0.5})
        shifted = QuboModel(n=3, terms=base.terms, offset=2.25)
        sv = Statevector.plus(3)
        assert expectation(sv, shifted.as_objective()) == pytest.approx(
            expectation(sv, base.as_objective()) + 2.25, abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(Statevector.plus(2), QuboModel(n=3, terms={}).as_objective())


class TestSample:
    def test_basis_state_single_pattern(self):
        got = sample(Statevector.basis(3, (0, 1, 0)), shots=57, seed=9)
        assert got.counts == {(0, 1, 0): 57}
        assert got.shots == 57

    def test_uniform_frequencies_within_binomial_bound(self):
        shots = 1_000_000
        got = sample(Statevector.plus(2), shots=shots, seed=3)
        sigma = math.sqrt(shots * 0.25 * 0.75)
        for pattern in ((0, 0), (1, 0), (0, 1), (1, 1)):
            assert abs(got.counts[pattern] - shots * 0.25) < 5 * sigma

    def test_same_seed_identical(self):
        sv = qaoa_state(SINGLE_SPIN, QaoaParams(p=1, gammas=(0.3,), betas=(0.5,)))
        a = sample(sv, shots=1000, seed=7, obj=SINGLE_SPIN)
        b = sample(sv, shots=1000, seed=7, obj=SINGLE_SPIN)
        assert a == b

    def test_empirical_mean_tracks_expectation(self):
        rng = np.random.default_rng(52)
        obj = QuboModel(
            n=4, terms={(i, j): float(rng.integers(-2, 3)) for i in range(4) for j in range(i, 4)}
        ).as_objective()
        sv = qaoa_state(obj, QaoaParams(p=1, gammas=(0.4,), betas=(0.7,)))
        got = sample(sv, shots=1_000_000, seed=11, obj=obj)
        table = energy_table(obj)
        spread = float(table.max() - table.min())
        sigma = spread / 2 / 1000.0  # crude bound: std <= spread/2, 10^6 shots
        assert abs(float(got.energy_values().mean()) - expectation(sv, obj)) < 5 * sigma

    def test_validation(self):
        with pytest.raises(ValueError):
            sample(Statevector.plus(1), shots=0)
        with pytest.raises(ValueError):
            SampleSet(counts={(0,): 3}, shots=4, seed=0)
        with pytest.raises(ValueError):
            SampleSet(counts={(0,): 1, (0, 1): 1}, shots=2, seed=0)

    def test_non_finite_energy_rejected(self):
        # Pricing is one batched call, but every sampled energy is still checked.
        def _eval(bits):
            return math.inf if bits == (1, 1) else float(sum(bits))

        obj = DiagonalObjective(n=2, evaluator=_eval)
        with pytest.raises(ValueError, match="non-finite"):
            sample(Statevector.plus(2), shots=400, seed=0, obj=obj)
        clean = sample(Statevector.basis(2, (1, 0)), shots=5, seed=0, obj=obj)
        assert clean.best() == ((1, 0), 1.0)

    def test_priced_from_cached_table(self, energies_at_calls):
        calls = energies_at_calls
        obj = gen_spin_glass("complete", 7, dist="gaussian", seed=8).objective
        sv = qaoa_state(obj, QaoaParams(p=1, gammas=(0.4,), betas=(0.3,)))
        assert calls == []
        got = sample(sv, shots=700, seed=2, obj=obj)
        assert calls == []
        assert got == sample(sv, shots=700, seed=2).with_energies(obj)
        assert calls == [got.indices.size]

    def test_index_arrays_match_counts_view(self):
        obj = gen_spin_glass("complete", 5, seed=2).objective
        sv = qaoa_state(obj, QaoaParams(p=1, gammas=(0.4,), betas=(0.3,)))
        ss = sample(sv, shots=300, seed=4)
        assert ss.indices.dtype == np.int64
        assert list(ss.indices) == sorted(set(ss.indices.tolist()))
        assert int(ss.index_counts.sum()) == 300
        pairs = zip(ss.indices.tolist(), ss.index_counts.tolist())
        assert ss.counts == {tuple((i >> b) & 1 for b in range(5)): c for i, c in pairs}
        assert ss.energies is None and ss.index_energies is None
        assert not ss.indices.flags.writeable

    def test_tuple_constructor_round_trips(self):
        counts = {(1, 1): 2, (0, 1): 3}
        ss = SampleSet(counts=counts, shots=5, seed=1, energies={(0, 1): 0.5, (1, 1): -2.0})
        assert ss.indices.tolist() == [2, 3]
        assert ss.index_counts.tolist() == [3, 2]
        assert ss.index_energies.tolist() == [0.5, -2.0]
        assert ss.counts == {(0, 1): 3, (1, 1): 2}
        assert ss.energies == {(0, 1): 0.5, (1, 1): -2.0}
        reordered = {(0, 1): 3, (1, 1): 2}
        assert ss == SampleSet(reordered, shots=5, seed=1, energies={(1, 1): -2.0, (0, 1): 0.5})
        assert ss != SampleSet(reordered, shots=5, seed=1)

    def test_packing_limit(self):
        SampleSet(counts={(1,) * 62: 1}, shots=1, seed=0)
        with pytest.raises(ValueError, match="62"):
            SampleSet(counts={(1,) * 63: 1}, shots=1, seed=0)


class TestCvar:
    def test_two_point_examples(self):
        ss = SampleSet(
            counts={(0,): 1, (1,): 1},
            shots=2,
            seed=0,
            energies={(0,): 0.0, (1,): 2.0},
        )
        assert cvar(ss, 1.0) == 1.0
        assert cvar(ss, 0.5) == 0.0

    def test_matches_sort_and_average_oracle(self):
        rng = np.random.default_rng(53)
        obj = QuboModel(
            n=5, terms={(i, j): float(rng.normal()) for i in range(5) for j in range(i, 5)}
        ).as_objective()
        sv = qaoa_state(obj, QaoaParams(p=1, gammas=(0.5,), betas=(0.9,)))
        ss = sample(sv, shots=1000, seed=5, obj=obj)
        # Independent oracle: expand every shot, sort, average the head.
        flat = sorted(
            e for pattern, count in ss.counts.items() for e in [ss.energies[pattern]] * count
        )
        for alpha in (1.0, 0.6, 0.25, 0.1, 1e-9):
            take = math.ceil(alpha * 1000)
            oracle = sum(flat[:take]) / take
            assert cvar(ss, alpha) == pytest.approx(oracle, abs=1e-12)

    def test_tiny_alpha_returns_best_sample(self):
        ss = SampleSet(
            counts={(0, 0): 10, (1, 0): 5},
            shots=15,
            seed=0,
            energies={(0, 0): 3.0, (1, 0): -1.0},
        )
        assert cvar(ss, 1e-6) == -1.0
        best_pattern, best_e = ss.best()
        assert (best_pattern, best_e) == ((1, 0), -1.0)

    def test_best_ties_go_to_smallest_bit_tuple(self):
        # (1, 0) is index 1 and (0, 1) is index 2: tuple order wins, not index order.
        ss = SampleSet(
            counts={(1, 0): 4, (0, 1): 1}, shots=5, seed=0, energies={(1, 0): -1.0, (0, 1): -1.0}
        )
        assert ss.best() == ((0, 1), -1.0)
        # Same rule on the sampling path: energies 0, -1, -1, 0 over indices 0..3.
        obj = QuboModel(n=2, terms={(0, 0): -1.0, (1, 1): -1.0, (0, 1): 2.0}).as_objective()
        sampled = sample(Statevector.plus(2), shots=200, seed=1, obj=obj)
        assert {1, 2} <= set(sampled.indices.tolist())
        assert sampled.best() == ((0, 1), -1.0)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(54)
        obj = QuboModel(
            n=4, terms={(i, j): float(rng.normal()) for i in range(4) for j in range(i, 4)}
        ).as_objective()
        sv = qaoa_state(obj, QaoaParams(p=1, gammas=(1.1,), betas=(0.4,)))
        ss = sample(sv, shots=500, seed=6, obj=obj)
        alphas = np.linspace(0.01, 1.0, 40)
        values = [cvar(ss, float(a)) for a in alphas]
        assert all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))
        exact = [cvar(sv, float(a), obj=obj) for a in alphas]
        assert all(exact[i] <= exact[i + 1] + 1e-12 for i in range(len(exact) - 1))

    def test_statevector_cvar_contracts(self):
        obj = QuboModel(n=2, terms={(0, 0): 1.0, (1, 1): 2.0}).as_objective()
        sv = Statevector.plus(2)  # energies 0,1,2,3 each with prob 1/4
        assert cvar(sv, 1.0, obj=obj) == pytest.approx(expectation(sv, obj), abs=1e-12)
        assert cvar(sv, 0.25, obj=obj) == pytest.approx(0.0, abs=1e-12)
        # Fractional boundary: half of the second state's mass.
        assert cvar(sv, 0.375, obj=obj) == pytest.approx((0.25 * 0 + 0.125 * 1) / 0.375, abs=1e-12)

    def test_state_objective_mismatch_caught_before_the_table(self):
        # The objective's table would exceed the cap; the mismatch is the error.
        obj = QuboModel(n=30, terms={(0, 1): 1.0}).as_objective()
        with pytest.raises(ValueError, match="state has 2 qubits, objective has 30 variables"):
            cvar(Statevector.plus(2), 0.5, obj=obj)

    def test_alpha_validation(self):
        ss = SampleSet(counts={(0,): 1}, shots=1, seed=0, energies={(0,): 0.0})
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                cvar(ss, bad)

    def test_requires_energies_or_objective(self):
        ss = SampleSet(counts={(0,): 1}, shots=1, seed=0)
        with pytest.raises(ValueError):
            cvar(ss, 0.5)
        obj = QuboModel(n=1, terms={(0, 0): 1.0}).as_objective()
        assert cvar(ss, 0.5, obj=obj) == 0.0


class TestAnneal:
    def test_short_time_stays_uniform(self):
        obj = QuboModel(n=3, terms={(0, 1): 1.0, (1, 2): -1.0}).as_objective()
        sv = anneal_trotter(obj, T=1e-4, steps=10)
        fidelity = abs(np.vdot(Statevector.plus(3).amplitudes, sv.amplitudes)) ** 2
        assert fidelity > 1 - 1e-6

    def test_slow_anneal_finds_spin_glass_ground_state(self):
        # Seed vetted once: this instance's overlap is 1.0 to four digits.
        inst = gen_spin_glass("complete", 6, dist="gaussian", seed=3)
        sv = anneal_trotter(inst.objective, T=50.0, steps=500)
        assert ground_state_overlap(sv, inst.objective) >= 0.9

    def test_longer_is_better_on_average(self):
        inst = gen_spin_glass("complete", 5, dist="gaussian", seed=7)
        fast = ground_state_overlap(anneal_trotter(inst.objective, 2.0, 50), inst.objective)
        slow = ground_state_overlap(anneal_trotter(inst.objective, 40.0, 400), inst.objective)
        assert slow > fast

    def test_rejects_bad_schedule(self):
        obj = QuboModel(n=2, terms={(0, 1): 1.0}).as_objective()
        with pytest.raises(ValueError):
            anneal_trotter(obj, T=1.0, steps=10, schedule=lambda s: 0.5)
        with pytest.raises(ValueError):
            anneal_trotter(obj, T=1.0, steps=0)
        with pytest.raises(ValueError):
            anneal_trotter(obj, T=-1.0, steps=10)

    def test_custom_schedule_endpoints_ok(self):
        obj = QuboModel(n=2, terms={(0, 1): -1.0}).as_objective()
        sv = anneal_trotter(obj, T=10.0, steps=100, schedule=lambda s: s * s)
        assert float((np.abs(sv.amplitudes) ** 2).sum()) == pytest.approx(1.0, abs=1e-10)


class TestGibbs:
    def test_zero_beta_uniform(self):
        obj = QuboModel(n=3, terms={(0, 1): 4.0}).as_objective()
        table = gibbs_distribution(obj, 0.0)
        assert np.allclose(table.probabilities, 1 / 8, atol=1e-15)
        assert table.log_z == pytest.approx(math.log(8))

    def test_huge_beta_concentrates(self):
        obj = QuboModel(n=2, terms={(0, 0): 1.0, (1, 1): 2.0}).as_objective()
        table = gibbs_distribution(obj, 1e6)
        assert table.probabilities[0] >= 1 - 1e-9

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            q = QuboModel(
                n=3,
                terms={(i, j): float(rng.normal()) for i in range(3) for j in range(i, 3)},
                offset=float(rng.normal()),
            )
            obj = q.as_objective()
            got = gibbs_distribution(obj, 2.0)
            # Direct summation oracle, no shift.
            energies = [q.energy(((idx >> 0) & 1, (idx >> 1) & 1, (idx >> 2) & 1)) for idx in range(8)]
            weights = [math.exp(-2.0 * e) for e in energies]
            z = sum(weights)
            for idx in range(8):
                assert got.probabilities[idx] == pytest.approx(weights[idx] / z, abs=1e-12)
            assert got.log_z == pytest.approx(math.log(z), abs=1e-12)
            assert isinstance(got, GibbsTable)

    def test_probabilities_sum_to_one(self):
        obj = QuboModel(n=4, terms={(0, 3): -2.0, (1, 2): 5.0}).as_objective()
        for beta in (0.0, 0.5, 2.0, 10.0, 1e4):
            assert gibbs_distribution(obj, beta).probabilities.sum() == pytest.approx(
                1.0, abs=1e-12
            )

    def test_rejects_bad_beta(self):
        obj = QuboModel(n=1, terms={}).as_objective()
        with pytest.raises(ValueError):
            gibbs_distribution(obj, -0.1)
        with pytest.raises(ValueError):
            gibbs_distribution(obj, float("inf"))


class TestGroundStateOverlap:
    def test_uniform_unique_optimum(self):
        obj = QuboModel(n=3, terms={(0, 0): -1.0}).as_objective()
        # Optima: x0=1, x1/x2 free -> 4 of 8 states.
        assert ground_state_overlap(Statevector.plus(3), obj) == pytest.approx(0.5)
        unique = QuboModel(n=3, terms={(0, 0): -1.0, (1, 1): 1.0, (2, 2): 1.0}).as_objective()
        assert ground_state_overlap(Statevector.plus(3), unique) == pytest.approx(1 / 8)

    def test_basis_state_at_optimum(self):
        obj = QuboModel(n=2, terms={(0, 0): -1.0, (1, 1): 1.0}).as_objective()
        assert ground_state_overlap(Statevector.basis(2, (1, 0)), obj) == 1.0


class TestDumpLoad:
    def test_round_trip(self, tmp_path):
        sv = qaoa_state(SINGLE_SPIN, QaoaParams(p=1, gammas=(0.3,), betas=(0.4,)))
        path = tmp_path / "state.qsv"
        dump_statevector(sv, path)
        back = load_statevector(path)
        assert back.n == sv.n
        assert np.array_equal(back.amplitudes, sv.amplitudes)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.qsv"
        path.write_bytes(b"NOPE" + b"\x01\x00\x00\x00" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_statevector(path)
        path.write_bytes(b"QS")
        with pytest.raises(ValueError):
            load_statevector(path)
