"""Simulator: matrix oracles, distribution contracts, invariances."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from qopt.model import IsingModel, QuboModel
from qopt.problems import gen_ev_parking, gen_labs, gen_maxcut_r3r, gen_portfolio, gen_qap, gen_spin_glass
from qopt.simulator import (
    CapacityError,
    QaoaParams,
    SampleSet,
    Statevector,
    _apply_generator,
    _apply_mixer,
    _apply_phase,
    _energy_levels,
    _energy_sum,
    _imag_inner,
    _kept_table,
    _p1_couplings,
    _start,
    _unfold,
    anneal_trotter,
    cvar,
    energy_table,
    expectation,
    gibbs_distribution,
    ground_state_overlap,
    qaoa_p1_energy,
    qaoa_state,
    qaoa_value_and_gradient,
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


def reference_mixer(amps, beta):
    """Loop reference for the mixer: a plain 2x2 update per qubit, in qubit
    order, each from a contiguous copy of the qubit's bit-0 half."""
    amps = np.array(amps, dtype=np.complex128)
    n = amps.size.bit_length() - 1
    cb = math.cos(beta)
    isb = 1j * math.sin(beta)
    for i in range(n):
        view = amps.reshape(1 << (n - 1 - i), 2, 1 << i)
        a0 = view[:, 0, :].copy()
        a1 = view[:, 1, :]
        view[:, 0, :] = cb * a0 + isb * a1
        view[:, 1, :] = isb * a0 + cb * a1
    return amps


def reference_generator(amps):
    """Loop reference for the generator ``B = sum_i X_i``: each qubit's
    bit-flipped partners, gathered into a contiguous copy, added to a zeroed
    sum in qubit order."""
    amps = np.asarray(amps, dtype=np.complex128)
    n = amps.size.bit_length() - 1
    out = np.zeros_like(amps)
    for i in range(n):
        view = amps.reshape(1 << (n - 1 - i), 2, 1 << i)
        partners = np.empty_like(view)
        partners[:, 0, :] = view[:, 1, :]
        partners[:, 1, :] = view[:, 0, :]
        out += partners.reshape(-1)
    return out


def reference_layers(amps, table, layers):
    """Loop reference for the kernels: full-table phase, per-qubit 2x2 mixer.

    Each layer multiplies by ``exp(-1j * g * table)`` and then applies
    :func:`reference_mixer`. The simulator's level lookup and tiled layer
    kernel must reproduce this arithmetic.
    """
    amps = np.array(amps, dtype=np.complex128)
    for gamma, beta in layers:
        amps *= np.exp(-1j * gamma * table)
        amps = reference_mixer(amps, beta)
    return amps


# Few distinct energies (MaxCut), and all distinct ones (Gaussian SK, portfolio).
KERNEL_CASES = {
    "maxcut-r3r": lambda: gen_maxcut_r3r(10, seed=4).objective,
    "sk-gaussian": lambda: gen_spin_glass("complete", 9, dist="gaussian", seed=5).objective,
    "portfolio": lambda: gen_portfolio(8, 3, seed=6).objective,
}
# The adjoint-gradient test ids name each case and its start state, the plus state.
PLUS_IDS = [f"{case}-plus" for case in sorted(KERNEL_CASES)]


def maxcut_p1_edge(gamma, beta, du, dv, tri):
    """Wang et al. (arXiv:1706.02998) p=1 expectation of one cut edge.

    Their state is exp(-i beta B) exp(-i gamma C)|+> with C the cut count
    and B the sum of X; ``du``/``dv`` are the endpoint degrees minus one and
    ``tri`` the triangles through the edge.
    """
    c, s = np.cos(gamma), np.sin(gamma)
    return (
        0.5
        + 0.25 * np.sin(4 * beta) * s * (c**du + c**dv)
        - 0.25 * np.sin(2 * beta) ** 2 * c ** (du + dv - 2 * tri) * (1 - np.cos(2 * gamma) ** tri)
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
        with pytest.raises(ValueError, match="entry 2 at position 1 is not a bit"):
            Statevector.basis(2, (0, 2))
        with pytest.raises(ValueError, match="length 1, expected 2"):
            Statevector.basis(2, (0,))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Statevector(n=1, amplitudes=np.array([1.0, 1.0]))

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            Statevector(n=2, amplitudes=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("n", [2.0, True])
    def test_qubit_count_must_be_an_integer(self, n):
        # The constructors shifted by n before any check, so 2.0 failed on
        # an unnamed shift and True built a one-qubit state.
        for make in (Statevector.plus, lambda n: Statevector.basis(n, (0,) * int(n))):
            with pytest.raises(TypeError, match="^qubit count must be an integer"):
                make(n)
        with pytest.raises(ValueError, match="^qubit count must be at least 0"):
            Statevector.plus(-1)

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
        # On a flip-symmetric objective the levels index only the lower half
        # of the table: every layered run there is folded and reads no more.
        folded, full = KERNEL_CASES["maxcut-r3r"](), KERNEL_CASES["portfolio"]()
        for obj, size in ((folded, 2 ** (folded.n - 1)), (full, 2**full.n)):
            levels, level_of = _energy_levels(obj)
            assert np.array_equal(levels[level_of], energy_table(obj)[:size])
            assert np.array_equal(levels, np.unique(energy_table(obj)))
            assert level_of.dtype == np.intp and level_of.size == size
            assert _energy_levels(obj)[1] is level_of
        assert _energy_levels(folded)[0].size < 2 ** (folded.n - 1)

    def test_phase_allocates_only_the_distinct_exps(self):
        # Every energy of this portfolio is distinct, so its exps are as
        # large as the state. The gather goes into the run's scratch buffer:
        # a run holds the state, the scratch and the exps (3x the state, on
        # top of the cached table and levels), not a gathered copy as well
        # (4x). The quarter state of slack covers Python objects, and a line
        # tracer's own, at this small size.
        import tracemalloc

        obj = gen_portfolio(12, 4, seed=1).objective
        assert _energy_levels(obj)[0].size == 2**obj.n
        params = QaoaParams(p=2, gammas=(0.3, 0.2), betas=(0.2, 0.1))
        qaoa_state(obj, params)
        tracemalloc.start()
        try:
            qaoa_state(obj, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = 16 << obj.n
        assert peak <= 3 * size + size // 4


def complex_step_gradient(closed, g, b, h=1e-30):
    # Exact derivatives of an analytic closed form in (g, b): Im f(x + ih) / h
    # subtracts nothing, so its only error is O(h^2), far below rounding.
    return np.array([closed(g + 1j * h, b).imag / h, closed(g, b + 1j * h).imag / h])


def maxcut_p1_energy(graph):
    """The MaxCut objective of ``graph`` and its p=1 energy in qopt's (g, b).

    qopt's phase is exp(-i g E) with E = -C, i.e. exp(-i (-g) C), and its
    mixer [[cos b, i sin b], [i sin b, cos b]] is exp(+i b X) = exp(-i (-b) X)
    per qubit. So Wang et al.'s (gamma, beta) is qopt's (-g, -b); their
    formula is even under flipping both signs, and <E> = -sum_edges <C_uv>.
    """
    edges = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
    obj = maxcut_objective(graph.number_of_nodes(), edges)
    shapes = [
        (graph.degree(u) - 1, graph.degree(v) - 1, len(set(graph[u]) & set(graph[v]))) for u, v in edges
    ]
    return obj, lambda g, b: -sum(maxcut_p1_edge(-g, -b, *shape) for shape in shapes)


class TestMaxcutP1ClosedForm:
    @staticmethod
    def _check(graph, rng):
        obj, closed = maxcut_p1_energy(graph)
        for _ in range(3):
            g, b = (float(v) for v in rng.uniform(-math.pi, math.pi, 2))
            sv = qaoa_state(obj, QaoaParams(p=1, gammas=(g,), betas=(b,)))
            assert expectation(sv, obj) == pytest.approx(closed(g, b), abs=1e-12)

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_random_three_regular(self, n):
        rng = np.random.default_rng(70 + n)
        self._check(nx.random_regular_graph(3, n, seed=n), rng)

    def test_graph_with_triangles(self):
        graph = nx.gnp_random_graph(9, 0.5, seed=3)
        assert sum(nx.triangles(graph).values()) > 0
        self._check(graph, np.random.default_rng(71))

    @pytest.mark.parametrize("n", [8, 12])
    def test_gradient_is_the_closed_form_derivative(self, n):
        # A flipped mixer sign negates the beta derivative, which is nonzero
        # at these random angles, so it fails here.
        obj, closed = maxcut_p1_energy(nx.random_regular_graph(3, n, seed=n))
        rng = np.random.default_rng(90 + n)
        for _ in range(3):
            g, b = (float(v) for v in rng.uniform(-math.pi, math.pi, 2))
            _, grad = qaoa_value_and_gradient(obj, QaoaParams(p=1, gammas=(g,), betas=(b,)))
            np.testing.assert_allclose(grad, complex_step_gradient(closed, g, b), rtol=0, atol=1e-9)


def ising_p1_zz(J, u, v, gamma, beta):
    """Ozaeta, van Dam, McMahon (arXiv:2012.03421) p=1 <Z_u Z_v> for h=0.

    Their state is exp(-i beta B) exp(-i gamma C)|+> with
    C = sum J_uv Z_u Z_v; ``J`` is the symmetric coupling matrix.
    """
    others = [w for w in range(J.shape[0]) if w not in (u, v)]
    cos = lambda a: np.prod(np.cos(2 * gamma * a))  # noqa: E731
    first = np.sin(2 * gamma * J[u, v]) * (cos(J[u, others]) + cos(J[v, others]))
    second = cos(J[u, others] + J[v, others]) - cos(J[u, others] - J[v, others])
    return 0.5 * np.sin(4 * beta) * first - 0.5 * np.sin(2 * beta) ** 2 * second


def ising_p1_energy(inst):
    """The p=1 energy of a zero-field spin glass in qopt's (g, b).

    qopt's phase is exp(-i g E) with E = C, so gamma = g; its mixer
    exp(+i b X) per qubit is exp(-i (-b) X), so beta = -b. The first term
    of the formula is odd in beta, so a flipped mixer sign fails against it.
    """
    n = inst.n
    J = np.zeros((n, n))
    for (u, v), c in zip(inst.raw["edges"], inst.raw["couplings"]):
        J[u, v] = J[v, u] = c
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return lambda g, b: sum(J[u, v] * ising_p1_zz(J, u, v, g, -b) for u, v in pairs)


class TestWeightedIsingP1ClosedForm:
    @pytest.mark.parametrize("n", [8, 12])
    def test_gaussian_sk(self, n):
        inst = gen_spin_glass("complete", n, dist="gaussian", seed=40 + n)
        closed = ising_p1_energy(inst)
        rng = np.random.default_rng(80 + n)
        for _ in range(3):
            g, b = (float(x) for x in rng.uniform(-math.pi, math.pi, 2))
            sv = qaoa_state(inst.objective, QaoaParams(p=1, gammas=(g,), betas=(b,)))
            assert expectation(sv, inst.objective) == pytest.approx(closed(g, b), abs=1e-12)

    @pytest.mark.parametrize("n", [8, 12])
    def test_gradient_is_the_closed_form_derivative(self, n):
        inst = gen_spin_glass("complete", n, dist="gaussian", seed=40 + n)
        closed = ising_p1_energy(inst)
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            g, b = (float(x) for x in rng.uniform(-math.pi, math.pi, 2))
            _, grad = qaoa_value_and_gradient(inst.objective, QaoaParams(p=1, gammas=(g,), betas=(b,)))
            np.testing.assert_allclose(grad, complex_step_gradient(closed, g, b), rtol=0, atol=1e-9)


def spin_glass_with_fields(n, seed):
    # Gaussian SK couplings plus standard-normal fields and an offset.
    src = gen_spin_glass("complete", n, dist="gaussian", seed=seed).objective.source
    h = np.random.default_rng(seed).normal(size=n)
    return IsingModel(n=n, h=tuple(h), J=src.J, offset=0.75).as_objective()


def qubo_with_linear_terms(n, seed):
    rng = np.random.default_rng(seed)
    terms = {(i, j): float(rng.normal()) for i in range(n) for j in range(i, n) if i == j or rng.random() < 0.6}
    return QuboModel(n=n, terms=terms, offset=-1.25).as_objective()


P1_CASES = {
    "maxcut-r3r": lambda: gen_maxcut_r3r(12, seed=3).objective,
    "qubo-linear": lambda: qubo_with_linear_terms(9, 11),
    "sk-fields": lambda: spin_glass_with_fields(10, 12),
    "portfolio": lambda: gen_portfolio(10, 3, seed=13).objective,
    "n0": lambda: QuboModel(n=0, offset=2.5).as_objective(),
    "n1": lambda: IsingModel(n=1, h=(0.7,), offset=-0.2).as_objective(),
    "n2": lambda: qubo_with_linear_terms(2, 14),
}


def assert_p1_close(got, want, obj):
    # 1e-12 relative to the objective's largest absolute energy.
    scale = max(1.0, float(np.abs(energy_table(obj)).max()))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def dense_p1_energy(obj, gammas, betas):
    """The p=1 closed form with each product over a whole row of the n x n
    coupling matrix, zeros included: the reference for the packed rows
    :func:`qaoa_p1_energy` multiplies over."""
    src = obj.spin_model()
    n = src.n
    h = np.array(src.h, dtype=np.float64)
    J = np.zeros((n, n))
    for (u, v), c in src.J.items():
        J[u, v] = J[v, u] = c
    us, vs = np.nonzero(np.triu(J))
    rows_u, rows_v = J[us], J[vs]
    rows_u[np.arange(us.size), vs] = 0.0
    rows_v[np.arange(us.size), us] = 0.0
    j_pair = J[us, vs]
    g2 = 2.0 * np.asarray(gammas)[:, None]
    b2 = -2.0 * np.asarray(betas)[:, None]
    sin2b = np.sin(b2)
    g3 = g2[:, :, None]
    field_prod = np.cos(g3 * J).prod(axis=-1)
    energy = (h * (sin2b * np.sin(g2 * h) * field_prod)).sum(axis=-1)
    h_u, h_v = h[us], h[vs]
    first = np.sin(g2 * j_pair) * (
        np.cos(g2 * h_u) * np.cos(g3 * rows_u).prod(axis=-1)
        + np.cos(g2 * h_v) * np.cos(g3 * rows_v).prod(axis=-1)
    )
    second = (
        np.cos(g2 * (h_u + h_v)) * np.cos(g3 * (rows_u + rows_v)).prod(axis=-1)
        - np.cos(g2 * (h_u - h_v)) * np.cos(g3 * (rows_u - rows_v)).prod(axis=-1)
    )
    zz = 0.5 * np.sin(2.0 * b2) * first - 0.5 * sin2b**2 * second
    return energy + (j_pair * zz).sum(axis=-1) + src.offset


# Sparse and dense couplings, fields or none, and no couplings at all.
PACKED_CASES = {
    "maxcut-r3r-n14": lambda: gen_maxcut_r3r(14, seed=1).objective,
    "sk-gaussian-n11": lambda: gen_spin_glass("complete", 11, dist="gaussian", seed=2).objective,
    "portfolio": lambda: gen_portfolio(10, 3, seed=13).objective,
    "no-couplings": lambda: IsingModel(n=4, h=(0.7, -0.2, 0.0, 1.5), offset=0.3).as_objective(),
}


class TestP1ClosedForm:
    """:func:`qaoa_p1_energy` against the statevector and the adjoint gradient."""

    @pytest.mark.parametrize("case", sorted(P1_CASES))
    def test_value_and_gradient_match_the_statevector(self, case):
        obj = P1_CASES[case]()
        rng = np.random.default_rng(sorted(P1_CASES).index(case))
        h = 1e-30
        for g, b in rng.uniform(-math.pi, math.pi, (4, 2)):
            value, grad = qaoa_value_and_gradient(obj, QaoaParams(p=1, gammas=(g,), betas=(b,)))
            real = qaoa_p1_energy(obj, np.array([g]), np.array([b]))
            stepped = qaoa_p1_energy(obj, np.array([g + 1j * h, g]), np.array([b, b + 1j * h]))
            assert real.dtype == np.float64 and real.shape == (1,)
            assert_p1_close(real[0], value, obj)
            assert_p1_close(stepped[0].real, value, obj)
            assert_p1_close(stepped.imag / h, grad, obj)

    @pytest.mark.parametrize("case", sorted(PACKED_CASES))
    def test_packed_rows_equal_the_dense_form_bit_for_bit(self, case):
        # Real angles (a grid), the complex steps training takes, and steps
        # in both angles at once.
        obj = PACKED_CASES[case]()
        rng = np.random.default_rng(sorted(PACKED_CASES).index(case))
        grid = rng.uniform(-math.pi, math.pi, (2, 64))
        calls = [(grid[0], grid[1])]
        for g, b in rng.uniform(-math.pi, math.pi, (6, 2)):
            calls.append((np.array([g + 1e-30j, g]), np.array([b, b + 1e-30j])))
            calls.append((np.array([g + 1e-30j]), np.array([b + 1e-30j])))
        for gammas, betas in calls:
            got, want = qaoa_p1_energy(obj, gammas, betas), dense_p1_energy(obj, gammas, betas)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_build_at_n4096_holds_no_dense_matrix(self):
        # The rows were once cut from a dense n x n matrix and two pairs x n
        # blocks, a 752 MiB peak here; the coupling view and the rows need about 5 MiB.
        import tracemalloc

        obj = gen_maxcut_r3r(4096, seed=1).objective
        obj.spin_model()
        tracemalloc.start()
        try:
            h, fields, us, vs, j_pair, rows_u, rows_v, offset = _p1_couplings(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert fields.shape == (4096, 3) and rows_u.shape == rows_v.shape == (6144, 4)

    # sha256 of the energies below, recorded while the closed form built its
    # rows from the spin model's sorted coupling keys.
    OUT_OF_ORDER_DIGEST = "d6436a886f7be04cea3aa3d36db0743ef5057fa4d358cadcb2d91852afa3999d"

    def test_out_of_order_families_are_pinned(self):
        # qap and ev-parking list their couplings out of row-major order:
        # real angles and the complex steps training takes, byte for byte.
        rng = np.random.default_rng(56)
        grid = rng.uniform(-math.pi, math.pi, (2, 16))
        g, b = rng.uniform(-math.pi, math.pi, 2)
        stepped = np.array([g + 1e-30j, g]), np.array([b, b + 1e-30j])
        digest = hashlib.sha256()
        for s in range(3):
            for inst in (gen_qap(5, seed=s), gen_ev_parking(6, 3, 1, 12, seed=s)):
                digest.update(qaoa_p1_energy(inst.objective, grid[0], grid[1]).tobytes())
                digest.update(qaoa_p1_energy(inst.objective, *stepped).tobytes())
        assert digest.hexdigest() == self.OUT_OF_ORDER_DIGEST

    def test_vectorised_call_equals_single_calls(self):
        obj = P1_CASES["sk-fields"]()
        gammas, betas = np.random.default_rng(5).uniform(-2.0, 2.0, (2, 7))
        together = qaoa_p1_energy(obj, gammas, betas)
        apart = [qaoa_p1_energy(obj, gammas[k : k + 1], betas[k : k + 1])[0] for k in range(7)]
        np.testing.assert_allclose(together, apart, rtol=1e-15, atol=0)

    def test_weighted_ising_n20_value(self):
        obj = spin_glass_with_fields(20, 21)
        for g, b in ((0.31, -0.47), (-1.2, 0.9)):
            want = expectation(qaoa_state(obj, QaoaParams(p=1, gammas=(g,), betas=(b,))), obj)
            assert_p1_close(qaoa_p1_energy(obj, np.array([g]), np.array([b]))[0], want, obj)

    @pytest.mark.parametrize("n", [8, 12])
    def test_zero_field_spin_glass_matches_the_oracle_copy(self, n):
        # The test module's own zero-field formula, written independently.
        inst = gen_spin_glass("complete", n, dist="gaussian", seed=40 + n)
        obj, closed = inst.objective, ising_p1_energy(inst)
        for g, b in np.random.default_rng(n).uniform(-math.pi, math.pi, (3, 2)):
            assert_p1_close(qaoa_p1_energy(obj, np.array([g]), np.array([b]))[0], closed(g, b), obj)

    def test_couplings_cached_on_the_objective(self):
        obj = P1_CASES["qubo-linear"]()
        qaoa_p1_energy(obj, np.array([0.1]), np.array([0.2]))
        cached = obj._cache["p1_couplings"]
        qaoa_p1_energy(obj, np.array([0.3]), np.array([0.4]))
        assert obj._cache["p1_couplings"] is cached

    @pytest.mark.parametrize(
        "obj",
        [
            IsingModel(n=3, J={(0, 1): 1.0, (1, 2): 1.0}).as_objective([(0, 1, 2, 0.5)]),
            gen_labs(3).objective,
        ],
        ids=["pubo", "native"],
    )
    def test_needs_a_quadratic_source(self, obj):
        with pytest.raises(TypeError, match="QUBO or Ising source"):
            qaoa_p1_energy(obj, np.array([0.1]), np.array([0.2]))


def backward_walk_value_and_gradient(obj, params):
    """The adjoint value and gradient with no state kept from the forward pass.

    The backward walk un-applies each layer (negated angle) on both ``psi``
    and the co-state ``lam``, reading ``d/d beta_j = -2 Im <lam|B psi>``
    after layer j and ``d/d gamma_j = 2 Im <lam|E psi>`` before its mixer.
    """
    psi = _start(obj)
    n, p = obj.n, params.p
    table = energy_table(obj)[: psi.size]
    levels, level_of = _energy_levels(obj)
    scratch = np.empty_like(psi)
    for gamma, beta in zip(params.gammas, params.betas):
        _apply_phase(psi, scratch, levels, level_of, gamma)
        _apply_mixer(psi, scratch, n, beta)
    value = _energy_sum(psi, table, n)
    lam = table * psi
    grad = np.zeros(2 * p)
    for j in reversed(range(p)):
        _apply_generator(psi, scratch, n)
        grad[p + j] = -2.0 * _imag_inner(lam, scratch, n)
        _apply_mixer(psi, scratch, n, -params.betas[j])
        _apply_mixer(lam, scratch, n, -params.betas[j])
        np.multiply(psi, table, out=scratch)
        grad[j] = 2.0 * _imag_inner(lam, scratch, n)
        if j:
            _apply_phase(psi, scratch, levels, level_of, -params.gammas[j])
            _apply_phase(lam, scratch, levels, level_of, -params.gammas[j])
    return value, grad


class TestAdjointGradient:
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES), ids=PLUS_IDS)
    def test_matches_central_differences(self, case):
        obj = KERNEL_CASES[case]()
        rng = np.random.default_rng(sorted(KERNEL_CASES).index(case))

        def energy(vec, p):
            params = QaoaParams(p=p, gammas=vec[:p], betas=vec[p:])
            return expectation(qaoa_state(obj, params), obj)

        h = 1e-3
        for p in (1, 2, 3):
            x = rng.uniform(-1.5, 1.5, 2 * p)
            value, grad = qaoa_value_and_gradient(obj, QaoaParams(p=p, gammas=x[:p], betas=x[p:]))
            assert value == energy(x, p)
            # Fourth-order central differences, one axis at a time.
            fd = [
                (8 * (energy(x + h * e, p) - energy(x - h * e, p)) - energy(x + 2 * h * e, p)
                 + energy(x - 2 * h * e, p)) / (12 * h)
                for e in np.eye(2 * p)
            ]
            np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES), ids=PLUS_IDS)
    def test_matches_the_backward_walk(self, case):
        obj = KERNEL_CASES[case]()
        rng = np.random.default_rng(100 + sorted(KERNEL_CASES).index(case))
        for p in (1, 2, 3, 4):
            params = QaoaParams(p=p, gammas=rng.uniform(-1.5, 1.5, p), betas=rng.uniform(-1.5, 1.5, p))
            value, grad = qaoa_value_and_gradient(obj, params)
            ref_value, ref_grad = backward_walk_value_and_gradient(obj, params)
            assert value.hex() == ref_value.hex()
            np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES), ids=PLUS_IDS)
    def test_cap_bounds_the_kept_states(self, case, monkeypatch):
        # At cap = n a full run keeps one pre-mixer state and a folded run two
        # halves; each layer j below them is recomputed from the plus state,
        # j more mixer passes, to the same value and gradient bit for bit.
        import qopt.simulator as simulator

        obj = KERNEL_CASES[case]()
        rng = np.random.default_rng(200 + sorted(KERNEL_CASES).index(case))
        p = 3
        params = QaoaParams(p=p, gammas=rng.uniform(-1.5, 1.5, p), betas=rng.uniform(-1.5, 1.5, p))
        value, grad = qaoa_value_and_gradient(obj, params)
        passes = []
        kernel = simulator._apply_mixer

        def counted(*args):
            passes.append(1)
            kernel(*args)

        monkeypatch.setattr(simulator, "_apply_mixer", counted)
        monkeypatch.setenv("QOPT_STATEVECTOR_CAP", str(obj.n))
        low_value, low_grad = qaoa_value_and_gradient(obj, params)
        kept = (1 << obj.n) // _kept_table(obj).size
        assert len(passes) == 2 * p + sum(range(p - kept))
        assert low_value.hex() == value.hex()
        assert low_grad.tobytes() == grad.tobytes()

    def test_training_does_not_depend_on_the_cap(self, monkeypatch):
        # Layers below the kept states once were stepped down by negated
        # angles, which moved two gradient entries by ~5e-15 at cap 12 and
        # so the angles this training ends on.
        from qopt.solvers import qaoa_solve

        inst = gen_maxcut_r3r(12, seed=3)
        runs = []
        for cap in (None, "12"):
            if cap is not None:
                monkeypatch.setenv("QOPT_STATEVECTOR_CAP", cap)
            res = qaoa_solve(inst, p=3, seed=0)
            angles = [float(x).hex() for x in (*res.params.gammas, *res.params.betas)]
            runs.append((angles, res.extras["mean_energy"].hex(), res.extras["evaluations"]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "make",
        [lambda: gen_maxcut_r3r(14, seed=1).objective, lambda: gen_portfolio(12, 4, seed=1).objective],
        ids=["folded", "full"],
    )
    def test_kept_states_fit_one_capped_state(self, make, monkeypatch):
        # A p=4 call runs the same passes as a p=2 call with more layers, so
        # its peak differs by the pre-mixer states it keeps beyond those of
        # the p=2 call. All kept states together never exceed one 2^cap
        # state; at a cap far above n every layer's is kept, which shows the
        # measurement sees them.
        import tracemalloc

        obj = make()
        energy_table(obj)
        _energy_levels(obj)
        size = 16 * _kept_table(obj).size  # bytes of the run's array

        def peak(p):
            params = QaoaParams(p=p, gammas=(0.3,) * p, betas=(0.2,) * p)
            tracemalloc.start()
            try:
                qaoa_value_and_gradient(obj, params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for cap in (obj.n, obj.n + 1, 30):
            monkeypatch.setenv("QOPT_STATEVECTOR_CAP", str(cap))
            kept2, kept4 = (min(p, (16 << cap) // size) for p in (2, 4))
            extra = peak(4) - peak(2)
            assert kept2 * size + extra <= (16 << cap) + size // 4
            assert extra >= (kept4 - kept2) * size - size // 4

    def test_folded_gradient_checks_the_cap(self, monkeypatch):
        # A folded run builds no Statevector, so its start checks the cap,
        # also when the table was built under a higher one.
        obj = KERNEL_CASES["maxcut-r3r"]()
        energy_table(obj)
        monkeypatch.setenv("QOPT_STATEVECTOR_CAP", str(obj.n - 1))
        with pytest.raises(CapacityError, match="10 qubits exceed the simulator cap of 9"):
            qaoa_value_and_gradient(obj, QaoaParams(p=1, gammas=(0.3,), betas=(0.2,)))

    def test_zero_layers(self):
        obj = KERNEL_CASES["portfolio"]()
        value, grad = qaoa_value_and_gradient(obj, QaoaParams(p=0, gammas=(), betas=()))
        assert value == pytest.approx(float(energy_table(obj).mean()), abs=1e-9)
        assert grad.shape == (0,)


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
        obj = QuboModel(n=3, terms={(1, 1): -2.0}).as_objective()
        got = sample(Statevector.basis(3, (0, 1, 0)), shots=57, seed=9, obj=obj)
        assert (got.indices.tolist(), got.index_counts.tolist(), got.index_energies.tolist()) == ([0b010], [57], [-2.0])
        assert got.shots == 57

    def test_uniform_frequencies_within_binomial_bound(self):
        shots = 1_000_000
        got = sample(Statevector.plus(2), shots=shots, seed=3, obj=QuboModel(n=2).as_objective())
        sigma = math.sqrt(shots * 0.25 * 0.75)
        assert got.indices.tolist() == [0, 1, 2, 3]
        for count in got.index_counts.tolist():
            assert abs(count - shots * 0.25) < 5 * sigma

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
        one = QuboModel(n=1).as_objective()
        with pytest.raises(ValueError):
            sample(Statevector.plus(1), shots=0, obj=one)
        with pytest.raises(ValueError, match="state has 2 qubits, objective has 1 variables"):
            sample(Statevector.plus(2), shots=4, obj=one)
        with pytest.raises(TypeError, match="obj"):
            sample(Statevector.plus(1), shots=4)
        with pytest.raises(TypeError, match="index_energies"):
            SampleSet(n=1, shots=1, seed=0, indices=[0], index_counts=[1])
        with pytest.raises(ValueError, match="shots must be at least 1"):
            SampleSet(n=1, shots=0, seed=0, indices=[], index_counts=[], index_energies=[])
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            SampleSet(n=1, shots=1, seed=-1, indices=[0], index_counts=[1], index_energies=[0.0])
        for fields, message in [
            ({"indices": [0], "index_counts": [3], "index_energies": [0.0]}, "sum to the shot total"),
            ({"indices": [0, 1], "index_counts": [-1, 5]}, "at least 1"),
            ({"indices": [0, 1], "index_counts": [0, 4]}, "at least 1"),
            ({"indices": [2, 1], "index_counts": [2, 2]}, "strictly ascending"),
            ({"indices": [1, 1], "index_counts": [2, 2]}, "strictly ascending"),
            ({"indices": [1, 4], "index_counts": [2, 2]}, r"\[0, 2\^2\)"),
            ({"indices": [-1, 1], "index_counts": [2, 2]}, r"\[0, 2\^2\)"),
            ({"indices": [0, 1], "index_counts": [4]}, "aligned"),
            ({"indices": [[0, 1]], "index_counts": [[2, 2]], "index_energies": [[0.0, 0.0]]}, "aligned"),
            ({"indices": [0, 1], "index_counts": [2, 2], "index_energies": [0.0]}, "align"),
            ({"indices": [0, 1], "index_counts": [2, 2], "index_energies": [0.0, math.nan]}, "non-finite"),
            ({"indices": [0, 1], "index_counts": [2, 2], "index_energies": [-math.inf, 0.0]}, "non-finite"),
        ]:
            with pytest.raises(ValueError, match=message):
                SampleSet(**{"n": 2, "shots": 4, "seed": 0, "index_energies": [0.0, 0.0], **fields})

    def test_state_norm_checked_when_sampled(self):
        # A state edited in place after construction is checked again: its
        # probabilities are divided by their sum only when that is 1.
        sv = Statevector.plus(2)
        sv.amplitudes *= 2.0
        with pytest.raises(ValueError, match=r"^state norm\^2 is 4.0, not 1$"):
            sample(sv, shots=4, obj=QuboModel(n=2).as_objective())

    def test_non_finite_energy_rejected(self, table_objective):
        # Pricing is one batched call, but every sampled energy is still checked.
        obj = table_objective([0.0, 1.0, 1.0, math.inf])
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
        assert np.array_equal(got.index_energies, obj.energies_at(got.indices))
        assert calls == [got.indices.size]

    def test_index_arrays_match_counts_view(self):
        obj = gen_spin_glass("complete", 5, seed=2).objective
        sv = qaoa_state(obj, QaoaParams(p=1, gammas=(0.4,), betas=(0.3,)))
        ss = sample(sv, shots=300, seed=4, obj=obj)
        assert ss.indices.dtype == ss.index_counts.dtype == np.int64
        # The same multinomial draw, read back as a count per hit index.
        probs = sv.probabilities()
        draws = np.random.default_rng(4).multinomial(300, probs / probs.sum())
        assert dict(zip(ss.indices.tolist(), ss.index_counts.tolist())) == {
            i: c for i, c in enumerate(draws.tolist()) if c
        }
        assert np.array_equal(ss.index_energies, energy_table(obj)[ss.indices])
        assert not ss.indices.flags.writeable and not ss.index_counts.flags.writeable
        assert not ss.index_energies.flags.writeable

    def test_array_constructor_round_trips(self):
        indices, counts = np.array([2, 3]), np.array([3, 2])
        ss = SampleSet(n=2, shots=5, seed=1, indices=indices, index_counts=counts, index_energies=[0.5, -2.0])
        assert ss.indices.tolist() == [2, 3]
        assert ss.index_counts.tolist() == [3, 2]
        assert ss.index_energies.tolist() == [0.5, -2.0]
        assert not ss.index_energies.flags.writeable
        # The set keeps its own copies: editing the inputs changes nothing.
        indices[0] = 0
        counts[0] = 1
        assert (ss.indices.tolist(), ss.index_counts.tolist()) == ([2, 3], [3, 2])
        same = SampleSet(n=2, shots=5, seed=1, indices=[2, 3], index_counts=[3, 2], index_energies=[0.5, -2.0])
        assert ss == same
        assert ss != SampleSet(n=2, shots=5, seed=1, indices=[2, 3], index_counts=[3, 2], index_energies=[0.5, -1.0])
        assert ss != SampleSet(n=2, shots=5, seed=2, indices=[2, 3], index_counts=[3, 2], index_energies=[0.5, -2.0])
        assert ss != object()

    def test_packing_limit(self):
        SampleSet(n=62, shots=1, seed=0, indices=[(1 << 62) - 1], index_counts=[1], index_energies=[0.0])
        for n in (63, -1):
            with pytest.raises(ValueError, match="62"):
                SampleSet(n=n, shots=1, seed=0, indices=[0], index_counts=[1], index_energies=[0.0])


class TestCvar:
    def test_two_point_examples(self):
        ss = SampleSet(n=1, shots=2, seed=0, indices=[0, 1], index_counts=[1, 1], index_energies=[0.0, 2.0])
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
            e for count, e in zip(ss.index_counts.tolist(), ss.index_energies.tolist()) for _ in range(count)
        )
        for alpha in (1.0, 0.6, 0.25, 0.1, 1e-9):
            take = math.ceil(alpha * 1000)
            oracle = sum(flat[:take]) / take
            assert cvar(ss, alpha) == pytest.approx(oracle, abs=1e-12)

    def test_tiny_alpha_returns_best_sample(self):
        ss = SampleSet(n=2, shots=15, seed=0, indices=[0, 1], index_counts=[10, 5], index_energies=[3.0, -1.0])
        assert cvar(ss, 1e-6) == -1.0
        best_pattern, best_e = ss.best()
        assert (best_pattern, best_e) == ((1, 0), -1.0)

    def test_best_ties_go_to_smallest_bit_tuple(self):
        # (1, 0) is index 1 and (0, 1) is index 2: tuple order wins, not index order.
        ss = SampleSet(n=2, shots=5, seed=0, indices=[1, 2], index_counts=[4, 1], index_energies=[-1.0, -1.0])
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
        with pytest.raises(ValueError, match="requires the objective"):
            cvar(Statevector.plus(2), 0.5)

    def test_alpha_validation(self):
        ss = SampleSet(n=1, shots=1, seed=0, indices=[0], index_counts=[1], index_energies=[0.0])
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                cvar(ss, bad)
        with pytest.raises(TypeError, match="cannot compute CVaR of list"):
            cvar([0.0], 0.5)


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
            anneal_trotter(obj, T=1.0, steps=0)
        with pytest.raises(ValueError, match="^T must be a positive finite real, got -1.0$"):
            anneal_trotter(obj, T=-1.0, steps=10)


class TestGibbs:
    def test_zero_beta_uniform(self):
        obj = QuboModel(n=3, terms={(0, 1): 4.0}).as_objective()
        assert np.allclose(gibbs_distribution(obj, 0.0), 1 / 8, atol=1e-15)

    def test_huge_beta_concentrates(self):
        obj = QuboModel(n=2, terms={(0, 0): 1.0, (1, 1): 2.0}).as_objective()
        assert gibbs_distribution(obj, 1e6)[0] >= 1 - 1e-9

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
                assert got[idx] == pytest.approx(weights[idx] / z, abs=1e-12)
            assert isinstance(got, np.ndarray)

    def test_probabilities_sum_to_one(self):
        obj = QuboModel(n=4, terms={(0, 3): -2.0, (1, 2): 5.0}).as_objective()
        for beta in (0.0, 0.5, 2.0, 10.0, 1e4):
            assert gibbs_distribution(obj, beta).sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_beta(self):
        obj = QuboModel(n=1, terms={}).as_objective()
        with pytest.raises(ValueError, match="^beta must be at least 0, got -0.1$"):
            gibbs_distribution(obj, -0.1)
        with pytest.raises(ValueError, match="^beta must be a finite real, got inf$"):
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
        with pytest.raises(ValueError, match="state has 3 qubits, objective has 2 variables"):
            ground_state_overlap(Statevector.plus(3), obj)


# E(x) == E(not x) exactly: cut values, couplings without fields, sidelobes.
FOLD_CASES = {
    "ising-n1": lambda: IsingModel(n=1, offset=-0.75).as_objective(),
    "sk-gaussian-n2": lambda: gen_spin_glass("complete", 2, dist="gaussian", seed=1).objective,
    "maxcut-r3r-n10": lambda: gen_maxcut_r3r(10, seed=4).objective,
    "maxcut-r3r-n12": lambda: gen_maxcut_r3r(12, seed=2).objective,
    "sk-pm1-n7": lambda: gen_spin_glass("complete", 7, dist="pm1", seed=3).objective,
    "sk-pm1-n8": lambda: gen_spin_glass("complete", 8, dist="pm1", seed=4).objective,
    "sk-gaussian-n9": lambda: gen_spin_glass("complete", 9, dist="gaussian", seed=5).objective,
    "sk-gaussian-n10": lambda: gen_spin_glass("complete", 10, dist="gaussian", seed=6).objective,
    "labs-k7": lambda: gen_labs(7).objective,
    "labs-k8": lambda: gen_labs(8).objective,
}


def full_levels(obj):
    # Levels over the whole table: the cache keeps only the lower half on a
    # flip-symmetric objective.
    return np.unique(energy_table(obj), return_inverse=True)


def unfolded_run(obj, layers):
    """The plus-state kernels on all 2^n amplitudes, none of them folded."""
    levels, level_of = full_levels(obj)
    amps = Statevector.plus(obj.n).amplitudes
    scratch = np.empty_like(amps)
    for gamma, beta in layers:
        _apply_phase(amps, scratch, levels, level_of, gamma)
        _apply_mixer(amps, scratch, obj.n, beta)
    return amps


def unfolded_value_and_gradient(obj, params):
    """The adjoint value and gradient with every sum over all 2^n products.

    Same order as the simulator: the forward pass keeps each pre-mixer state
    and the backward loop un-applies only the co-state.
    """
    n, p = obj.n, params.p
    table = energy_table(obj)
    levels, level_of = full_levels(obj)
    psi = Statevector.plus(n).amplitudes
    scratch = np.empty_like(psi)
    phis = []
    for gamma, beta in zip(params.gammas, params.betas):
        _apply_phase(psi, scratch, levels, level_of, gamma)
        phis.append(psi.copy())
        _apply_mixer(psi, scratch, n, beta)
    value = float((np.abs(psi) ** 2 * table).sum())
    lam = table * psi
    grad = np.zeros(2 * p)
    for j in reversed(range(p)):
        _apply_mixer(lam, scratch, n, -params.betas[j])
        _apply_generator(phis[j], scratch, n)
        grad[p + j] = -2.0 * float((np.conj(lam) * scratch).imag.sum())
        grad[j] = 2.0 * float((np.conj(lam) * (phis[j] * table)).imag.sum())
        if j:
            _apply_phase(lam, scratch, levels, level_of, -params.gammas[j])
    return value, grad


def hex_list(values):
    return [float(v).hex() for v in values]


def folds(obj):
    # Whether runs on ``obj`` are folded: its kept table is shorter than 2^n.
    return _kept_table(obj).size < 1 << obj.n


class TestFlipFold:
    @pytest.mark.parametrize("case", sorted(FOLD_CASES))
    def test_folded_runs_equal_unfolded_bit_for_bit(self, case):
        obj = FOLD_CASES[case]()
        rng = np.random.default_rng(sorted(FOLD_CASES).index(case))
        for p in (0, 1, 2, 3):
            params = QaoaParams(p=p, gammas=rng.uniform(-2.0, 2.0, p), betas=rng.uniform(-2.0, 2.0, p))
            ref = unfolded_run(obj, zip(params.gammas, params.betas))
            assert qaoa_state(obj, params).amplitudes.tobytes() == ref.tobytes()
            value, grad = qaoa_value_and_gradient(obj, params)
            ref_value, ref_grad = unfolded_value_and_gradient(obj, params)
            assert hex_list([value, *grad]) == hex_list([ref_value, *ref_grad])
        T, steps = 2.5, 7
        dt = T / steps
        lams = [(k + 0.5) / steps for k in range(steps)]
        ref = unfolded_run(obj, [(dt * lam, dt * (1.0 - lam)) for lam in lams])
        assert anneal_trotter(obj, T, steps).amplitudes.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("case", sorted(FOLD_CASES))
    def test_symmetric_families_fold(self, case):
        # One variable never folds: its half would be a single amplitude.
        obj = FOLD_CASES[case]()
        assert folds(obj) is (obj.n >= 2)
        assert (obj._cache["kept_table"].size < 1 << obj.n) is (obj.n >= 2)
        table = energy_table(obj)
        assert np.array_equal(table.view(np.int64), table[::-1].view(np.int64))

    def test_tables_that_are_not_mirrors_do_not_fold(self, table_objective):
        linear = QuboModel(n=3, terms={(0, 0): 1.0, (0, 1): -2.0, (1, 2): 0.5}).as_objective()
        assert not folds(KERNEL_CASES["portfolio"]())
        assert not folds(linear)
        table = energy_table(FOLD_CASES["sk-gaussian-n9"]()).copy()
        assert folds(table_objective(table))
        table[5] = np.nextafter(table[5], np.inf)
        assert not folds(table_objective(table))
        assert not folds(table_objective([1.0]))

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_each_mirror_pair_is_compared(self, n, table_objective):
        # Pair i is (i, 2^n - 1 - i). The first pair and the last, at the half
        # boundary, are both compared; a -0.0 facing a 0.0 is no mirror.
        lower = np.arange(1 << (n - 1), dtype=np.float64) % 5
        table = np.concatenate([lower, lower[::-1]])
        assert folds(table_objective(table))
        half = table.size // 2
        for i, left, right in [(half - 1, 1.0, 2.0), (0, 3.0, 4.0), (half - 1, -0.0, 0.0), (0, 0.0, -0.0)]:
            broken = table.copy()
            broken[i], broken[table.size - 1 - i] = left, right
            assert not folds(table_objective(broken))

    def test_kept_table_is_the_cached_lower_half_of_a_mirror(self):
        obj = FOLD_CASES["labs-k8"]()
        table = energy_table(obj)
        kept = _kept_table(obj)
        half = table.size // 2
        assert kept.size == half and kept.tobytes() == table[:half].tobytes()
        assert np.shares_memory(kept, table[:half]) and not np.shares_memory(kept, table[half:])
        assert not kept.flags.writeable
        assert _kept_table(obj) is kept

    @pytest.mark.parametrize("make", [KERNEL_CASES["portfolio"], FOLD_CASES["ising-n1"]], ids=["portfolio", "n1"])
    def test_tables_that_do_not_fold_are_kept_whole(self, make):
        obj = make()
        assert _kept_table(obj) is energy_table(obj)

    def test_unfold_adds_complements_of_a_lower_half(self):
        # Every position stands for itself and its complement; together they
        # come out ascending, as one index array over all 2^n patterns.
        obj = FOLD_CASES["maxcut-r3r-n10"]()
        kept = _kept_table(obj)
        positions = np.flatnonzero(kept <= np.quantile(kept, 0.3))
        patterns = _unfold(obj, positions)
        full = (1 << obj.n) - 1
        assert patterns.dtype == np.int64
        assert patterns.tolist() == sorted(positions.tolist() + [full - x for x in positions.tolist()])

    @pytest.mark.parametrize("make", [KERNEL_CASES["portfolio"], FOLD_CASES["ising-n1"]], ids=["portfolio", "n1"])
    def test_unfold_of_a_whole_table_is_the_identity(self, make):
        obj = make()
        positions = np.flatnonzero(energy_table(obj) == energy_table(obj).min())
        assert _unfold(obj, positions) is positions

    def test_cached_kept_table_is_not_read_above_a_lowered_cap(self, monkeypatch):
        obj = FOLD_CASES["maxcut-r3r-n10"]()
        _kept_table(obj)
        monkeypatch.setenv("QOPT_STATEVECTOR_CAP", str(obj.n - 1))
        with pytest.raises(CapacityError, match="10 qubits exceed the simulator cap of 9"):
            _kept_table(obj)

    def test_only_plus_starts_on_mirrors_fold(self, monkeypatch):
        import qopt.simulator as simulator

        sizes = []
        kernel = simulator._apply_mixer

        def recording(amps, *args):
            sizes.append(amps.size)
            kernel(amps, *args)

        monkeypatch.setattr(simulator, "_apply_mixer", recording)
        params = QaoaParams(p=1, gammas=(0.3,), betas=(-0.4,))
        mirror, other = FOLD_CASES["maxcut-r3r-n10"](), KERNEL_CASES["portfolio"]()
        for obj, size in ((mirror, 1 << 9), (other, 1 << 8)):
            sizes.clear()
            qaoa_state(obj, params)
            qaoa_value_and_gradient(obj, params)
            assert sizes == [size] * 3
        sizes.clear()
        anneal_trotter(mirror, 1.0, 2)
        assert sizes == [1 << 9] * 2


# Sizes on both sides of each boundary of the layer kernel: in place below
# 2^12 amplitudes, one whole-state tile up to 2^15, gathered tiles above. A
# folded run holds 2^(n-1) of them.
TILE_SIZES = [1, 2, 3, 7, 8, 9, 13, 14, 15, 16, 17]
TILE_CASES = [(n, folded) for n in TILE_SIZES for folded in (False, True) if n >= 2 or not folded]
TILE_IDS = [f"n{n}-{'folded' if folded else 'full'}" for n, folded in TILE_CASES]


def tile_objective(n, folded):
    # A Gaussian SK glass is flip-symmetric; fields break the mirror.
    if folded:
        return gen_spin_glass("complete", n, dist="gaussian", seed=n).objective
    if n == 1:
        return IsingModel(n=1, h=(0.7,), offset=-0.2).as_objective()
    return spin_glass_with_fields(n, n)


def random_run_array(n, folded, seed):
    # A random complex array as a run holds it, and the 2^n state it stands for.
    rng = np.random.default_rng(seed)
    size = 1 << (n - 1 if folded else n)
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return amps, (np.concatenate([amps, amps[::-1]]) if folded else amps)


class TestTiledKernel:
    """The layer kernel against the loop references, byte for byte."""

    @pytest.mark.parametrize("n, folded", TILE_CASES, ids=TILE_IDS)
    def test_mixer_and_generator_match_the_loop_references(self, n, folded):
        amps, whole = random_run_array(n, folded, seed=n + 40 * folded)
        for beta in (0.83, -2.1):
            got = amps.copy()
            _apply_mixer(got, np.empty_like(got), n, beta)
            assert got.tobytes() == reference_mixer(whole, beta)[: amps.size].tobytes()
        out = np.full_like(amps, np.nan)
        _apply_generator(amps, out, n)
        assert out.tobytes() == reference_generator(whole)[: amps.size].tobytes()

    def test_folded_n20_mixer_matches_the_loop_reference(self):
        amps, whole = random_run_array(20, True, seed=20)
        got = amps.copy()
        _apply_mixer(got, np.empty_like(got), 20, 0.41)
        assert got.tobytes() == reference_mixer(whole, 0.41)[: amps.size].tobytes()

    @pytest.mark.parametrize("n, folded", TILE_CASES, ids=TILE_IDS)
    def test_runs_match_the_references(self, n, folded):
        obj = tile_objective(n, folded)
        assert folds(obj) is folded
        table = energy_table(obj)
        plus = Statevector.plus(n).amplitudes
        params = QaoaParams(p=2, gammas=(0.37, -0.81), betas=(1.13, 0.29))
        layers = list(zip(params.gammas, params.betas))
        assert qaoa_state(obj, params).amplitudes.tobytes() == reference_layers(plus, table, layers).tobytes()
        value, grad = qaoa_value_and_gradient(obj, params)
        ref_value, ref_grad = unfolded_value_and_gradient(obj, params)
        assert hex_list([value, *grad]) == hex_list([ref_value, *ref_grad])
        T, steps = 1.7, 3
        dt = T / steps
        ramp = [(dt * lam, dt * (1.0 - lam)) for lam in ((k + 0.5) / steps for k in range(steps))]
        assert anneal_trotter(obj, T, steps).amplitudes.tobytes() == reference_layers(plus, table, ramp).tobytes()


# Prints, as float.hex, everything a 2^14 reduction decides: a mean-mode
# training (angles, mean energy, evaluation count), CVaR of a state at
# several alphas, the pair correlations recursive QAOA reads, and a
# local-field anneal's best energy and per-restart trace.
REPLAY_SCRIPT = """
import json
from qopt.problems import gen_maxcut_r3r, gen_spin_glass
from qopt.simulator import QaoaParams, _evolve, _pair_correlations, cvar, qaoa_state
from qopt.solvers import qaoa_solve, simulated_annealing

inst = gen_maxcut_r3r(14, seed=3)
res = qaoa_solve(inst, p=2, seed=0)
obj = inst.objective
sv = qaoa_state(obj, QaoaParams(p=1, gammas=(0.4,), betas=(0.3,)))
pairs = _pair_correlations(_evolve(obj, (0.4,), (0.3,)), obj.n, obj.spin_model().J)
sk = gen_spin_glass("complete", 30, dist="gaussian", seed=7)
sa = simulated_annealing(sk, sweeps=6, restarts=3, seed=0)
print(json.dumps({
    "params": [g.hex() for g in res.params.gammas + res.params.betas],
    "mean_energy": res.extras["mean_energy"].hex(),
    "evaluations": res.extras["evaluations"],
    "cvar": [cvar(sv, a, obj=obj).hex() for a in (0.3, 0.75, 0.9, 0.999, 1.0)],
    "pairs": sorted([i, j, v.hex()] for (i, j), v in pairs.items()),
    "anneal_energy": sa.best_energy.hex(),
    "anneal_trace": [e.hex() for e in sa.trace],
}))
"""

# REPLAY_SCRIPT's output, recorded before the mean-mode kernels were folded
# onto half the statevector; the anneal entries were recorded once its local
# fields came from the spin form's coupling lists, and the trace again once
# each restart's best state was re-priced, and the anneal entries again once
# the temperature probe drew bit rows and priced flips by local fields; the
# angles and mean energy were recorded again once the adjoint gradient read
# kept pre-mixer states. Any drift in the last bit fails the replay.
REPLAY_PINNED = {
    "params": ["0x1.ec63dfcb24ae6p-2", "0x1.b5e6369bfc78ep-1", "0x1.22e35c3413963p-1", "0x1.541aef66220b5p-2"],
    "mean_energy": "-0x1.fff3d44588466p+3",
    "evaluations": 212,
    "cvar": [
        "-0x1.ffdcdd76486a1p+3", "-0x1.ccb645d363babp+3", "-0x1.bec5c9d4f9311p+3",
        "-0x1.b3b6bea90c6e5p+3", "-0x1.b385624d3cb0ep+3",
    ],
    "pairs": [
        [0, 3, "-0x1.3b4d69a4b58a0p-2"], [0, 7, "-0x1.3b4d69a4b58a0p-2"], [0, 9, "-0x1.3b4d69a4b58a0p-2"],
        [1, 2, "-0x1.114d3b1c16dfcp-2"], [1, 6, "-0x1.3b4d69a4b58a0p-2"], [1, 13, "-0x1.114d3b1c16dfcp-2"],
        [2, 8, "-0x1.3b4d69a4b58a0p-2"], [2, 13, "-0x1.114d3b1c16dfdp-2"], [3, 10, "-0x1.3b4d69a4b58a0p-2"],
        [3, 12, "-0x1.3b4d69a4b58a0p-2"], [4, 5, "-0x1.114d3b1c16dfdp-2"], [4, 9, "-0x1.3b4d69a4b58a0p-2"],
        [4, 11, "-0x1.114d3b1c16dfcp-2"], [5, 6, "-0x1.3b4d69a4b58a0p-2"], [5, 11, "-0x1.114d3b1c16dfcp-2"],
        [6, 8, "-0x1.3b4d69a4b58a0p-2"], [7, 10, "-0x1.3b4d69a4b58a0p-2"], [7, 12, "-0x1.3b4d69a4b58a0p-2"],
        [8, 12, "-0x1.3b4d69a4b58a0p-2"], [9, 10, "-0x1.3b4d69a4b589fp-2"], [11, 13, "-0x1.3b4d69a4b58a0p-2"],
    ],
    "anneal_energy": "-0x1.b3bbaa0395fb1p+6",
    "anneal_trace": ["-0x1.87a1acdb713c5p+6", "-0x1.8c7242e5411e1p+6", "-0x1.b3bbaa0395fb1p+6"],
}


class TestFixedOrderReductions:
    @pytest.mark.parametrize("n", [0, 3, 14])
    def test_imag_inner_matches_vdot(self, n):
        rng = np.random.default_rng(n)
        a, b = (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n) for _ in range(2))
        expected = np.vdot(a, b).imag
        assert _imag_inner(a, b, n) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_replay_ignores_blas_thread_count(self):
        # OpenBLAS splits a long dot across its threads, which changes the
        # rounding; numpy's sums do not, so one and two threads must agree
        # bit for bit, and both with the recorded output.
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            proc = subprocess.run(
                [sys.executable, "-c", REPLAY_SCRIPT],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1]
        assert outputs[0] == REPLAY_PINNED
