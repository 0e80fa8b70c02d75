"""Problem generators: hand oracles, reproducibility, feasibility soundness."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from qopt.model import ConstrainedModel, QuboModel, density
from qopt.problems import (
    LabsSequence,
    ev_parking_from_data,
    gen_ev_parking,
    gen_labs,
    gen_market_share,
    gen_maxcut_r3r,
    gen_mis,
    gen_portfolio,
    gen_qap,
    gen_spin_glass,
    instance_from_json,
    instance_to_json,
    labs_energy,
    labs_from_string,
    labs_to_string,
    portfolio_from_data,
    qap_from_data,
)


def all_bits(n):
    for idx in range(1 << n):
        yield tuple((idx >> i) & 1 for i in range(n))


def cut_value(edges, bits):
    # Independent cut counter straight off the edge list.
    return sum(1 for u, v in edges if bits[u] != bits[v])


def brute_min(obj):
    # Vectorized full enumeration; energies_at itself is cross-checked
    # against value() in the per-family formula tests.
    table = obj.energies_at(np.arange(1 << obj.n))
    idx = int(table.argmin())
    return float(table[idx]), tuple((idx >> i) & 1 for i in range(obj.n))


def satisfies(cm: ConstrainedModel, bits):
    for con in cm.equalities:
        if abs(sum(c * b for c, b in zip(con.coeffs, bits)) - con.bound) > 1e-9:
            return False
    for con in cm.inequalities:
        if sum(c * b for c, b in zip(con.coeffs, bits)) > con.bound + 1e-9:
            return False
    return True


class TestMaxcut:
    def test_k4_maximum_cut_is_four(self):
        # n=4 has a single 3-regular graph: K4.
        inst = gen_maxcut_r3r(4, seed=7)
        edges = [tuple(e) for e in inst.raw["edges"]]
        assert len(edges) == 6
        best = max(cut_value(edges, bits) for bits in all_bits(4))
        assert best == 4
        assert min(inst.objective.value(bits) for bits in all_bits(4)) == -4.0

    def test_energy_is_negated_cut(self):
        inst = gen_maxcut_r3r(8, seed=3)
        edges = [tuple(e) for e in inst.raw["edges"]]
        for bits in list(all_bits(8))[::7]:
            assert inst.objective.value(bits) == pytest.approx(-cut_value(edges, bits))

    def test_all_zeros_is_empty_cut(self):
        inst = gen_maxcut_r3r(10, seed=1)
        assert inst.objective.value((0,) * 10) == 0.0
        assert inst.meta["cut_min"] == 0

    def test_density_at_twenty_vertices(self):
        inst = gen_maxcut_r3r(20, seed=0)
        assert len(inst.raw["edges"]) == 30
        assert density(inst.objective.source) == pytest.approx(30 / 190)

    def test_rejects_odd_or_tiny(self):
        with pytest.raises(ValueError):
            gen_maxcut_r3r(7)
        with pytest.raises(ValueError):
            gen_maxcut_r3r(2)


class TestMis:
    def test_single_edge_optimum(self):
        inst = gen_mis(2, edge_prob=1.0, seed=0)
        assert inst.raw["edges"] == [[0, 1]]
        best, bits = brute_min(inst.objective)
        assert best == -1.0
        assert sum(bits) == 1

    def test_edgeless_takes_everything(self):
        inst = gen_mis(5, edge_prob=0.0, weights=(1.0, 2.0, 3.0, 4.0, 5.0), seed=0)
        best, bits = brute_min(inst.objective)
        assert best == -15.0
        assert bits == (1, 1, 1, 1, 1)

    def test_triangle_optimum(self):
        inst = gen_mis(3, edge_prob=1.0, seed=0)
        assert len(inst.raw["edges"]) == 3
        best, _ = brute_min(inst.objective)
        assert best == -1.0

    def test_optimum_is_always_independent(self):
        # Invariant: with P = 1 + sum(c), minimizers never include an edge.
        for seed in range(8):
            n = 6 + (seed % 5)
            inst = gen_mis(n, edge_prob=0.4, seed=seed)
            edges = [tuple(e) for e in inst.raw["edges"]]
            _, bits = brute_min(inst.objective)
            assert all(not (bits[u] and bits[v]) for u, v in edges)
            # And the value matches an independent max-weight subset search.
            w = inst.raw["weights"]
            best = 0.0
            for cand in all_bits(n):
                if all(not (cand[u] and cand[v]) for u, v in edges):
                    best = max(best, sum(c * b for c, b in zip(w, cand)))
            assert inst.objective.value(bits) == pytest.approx(-best)

    def test_unit_disc_edges_from_points(self):
        pts = [(0.0, 0.0), (0.5, 0.0), (3.0, 3.0)]
        inst = gen_mis(3, points=pts, unit_disc=True, seed=0)
        assert inst.family == "udmis"
        assert inst.raw["edges"] == [[0, 1]]

    def test_unit_disc_sampled_points_stay_in_square(self):
        inst = gen_mis(9, unit_disc=True, seed=4)
        side = math.sqrt(9)
        assert all(0 <= x <= side and 0 <= y <= side for x, y in inst.raw["points"])

    def test_side_without_unit_disc_rejected(self):
        # A G(n, p) draw would otherwise ignore the side it was asked for.
        with pytest.raises(ValueError):
            gen_mis(6, side=2.0, seed=1)

    def test_edge_prob_with_unit_disc_rejected(self):
        # A unit-disc draw would otherwise ignore the edge probability.
        with pytest.raises(ValueError):
            gen_mis(6, unit_disc=True, edge_prob=0.9, seed=1)
        assert gen_mis(6, seed=1).meta["params"]["edge_prob"] == 0.3

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            gen_mis(3, weights=(1.0, -1.0, 2.0))
        with pytest.raises(ValueError):
            gen_mis(3, weights=(0.0, 1.0, 1.0))

    def test_constrained_rows_cover_edges(self):
        inst = gen_mis(5, edge_prob=0.5, seed=2)
        assert len(inst.constrained.inequalities) == len(inst.raw["edges"])


class TestMarketShare:
    def test_objective_matches_raw_formula(self):
        inst = gen_market_share(2, seed=5)
        assert inst.objective.n == 10
        w = np.array(inst.raw["weights"])
        targets = np.array(inst.raw["targets"])
        assert list(targets) == [int(row.sum()) // 2 for row in w]
        for bits in list(all_bits(10))[::97]:
            x = np.array(bits)
            expect = float(((w @ x - targets) ** 2).sum())
            assert inst.objective.value(bits) == pytest.approx(expect)

    def test_zero_iff_perfect_split(self):
        inst = gen_market_share(2, seed=5)
        w = np.array(inst.raw["weights"])
        targets = np.array(inst.raw["targets"])
        best, bits = brute_min(inst.objective)
        exact = any(
            all(int(w[j] @ np.array(b)) == int(targets[j]) for j in range(2)) for b in all_bits(10)
        )
        assert (best == 0.0) == exact
        assert inst.objective.value(bits) == best

    def test_all_zeros_costs_sum_of_squared_targets(self):
        inst = gen_market_share(3, seed=1)
        targets = inst.raw["targets"]
        assert inst.objective.value((0,) * inst.objective.n) == pytest.approx(
            sum(t * t for t in targets)
        )

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            gen_market_share(1)


def labs_energy_by_correlate(seq):
    # Second enumerator on a different code path: full autocorrelation via
    # numpy, sidelobes are the entries right of center.
    s = np.asarray(seq, dtype=np.float64)
    c = np.correlate(s, s, mode="full")
    side = c[len(s) :]
    return float((side * side).sum())


class TestLabs:
    def test_energy_examples(self):
        assert labs_energy((1, 1)) == 1.0
        assert labs_energy((1, -1)) == 1.0
        assert labs_energy((1, 1, -1)) == 1.0

    def test_both_enumerators_agree(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            k = int(rng.integers(2, 12))
            seq = [int(v) for v in rng.choice((-1, 1), size=k)]
            assert labs_energy(seq) == labs_energy_by_correlate(seq)

    def test_symmetries(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            k = int(rng.integers(2, 14))
            seq = [int(v) for v in rng.choice((-1, 1), size=k)]
            e = labs_energy(seq)
            assert labs_energy([-v for v in seq]) == e
            assert labs_energy(seq[::-1]) == e

    def test_minimum_energies(self):
        # Exhaustive minima for small lengths.
        mins = {}
        for k in (2, 3, 4, 5):
            mins[k] = min(
                labs_energy([1 - 2 * ((idx >> i) & 1) for i in range(k)]) for idx in range(1 << k)
            )
        assert mins[2] == 1.0
        assert mins[3] == 1.0
        assert mins[4] == 2.0

    def test_instance_minimum_k13(self):
        inst = gen_labs(13)
        table = inst.objective.energies_at(np.arange(1 << 13))
        assert table.min() == 6.0

    def test_table_by_lag_doubling(self):
        for k in range(2, 13):
            want = [labs_energy([1 - 2 * b for b in bits]) for bits in all_bits(k)]
            assert gen_labs(k).objective.table().tolist() == want
        obj = gen_labs(16).objective
        assert np.array_equal(obj.table(), obj.energies_at(np.arange(1 << 16)))

    def test_index_pricing_memory_is_bounded(self):
        # Pricing 2^18 indices at k=21 once held (index, bit) temporaries for
        # all of them at once, about 128 MiB; blocks keep the peak flat.
        obj = gen_labs(21).objective
        idx = np.random.default_rng(21).integers(0, 1 << 21, size=1 << 18)
        table = obj.table()
        tracemalloc.start()
        try:
            priced = obj.energies_at(idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert np.array_equal(priced, table[idx])

    def test_instance_matches_energy_function(self):
        inst = gen_labs(6)
        for bits in all_bits(6):
            spins = [1 - 2 * b for b in bits]
            assert inst.objective.value(bits) == labs_energy(spins)

    def test_rejects_short_or_invalid(self):
        with pytest.raises(ValueError):
            labs_energy((1,))
        with pytest.raises(ValueError):
            labs_energy((1, 0))
        with pytest.raises(ValueError):
            gen_labs(1)

    def test_sequence_type_validation(self):
        with pytest.raises(ValueError):
            LabsSequence(k=2, s=(1, 2))
        with pytest.raises(ValueError):
            LabsSequence(k=3, s=(1, 1))

    def test_sign_text_round_trip(self):
        seq = LabsSequence(k=5, s=(1, -1, -1, 1, -1))
        text = labs_to_string(seq)
        assert text == "+--+-"
        assert labs_from_string(text) == seq
        assert labs_from_string(" +- \n-+ ") == LabsSequence(k=4, s=(1, -1, -1, 1))
        with pytest.raises(ValueError):
            labs_from_string("+x-")


class TestQap:
    def test_all_ones_has_two_equal_optima(self):
        inst = qap_from_data(np.ones((2, 2)), np.ones((2, 2)))
        assert inst.objective.n == 4
        energies = {bits: inst.objective.value(bits) for bits in all_bits(4)}
        best = min(energies.values())
        winners = [b for b, e in energies.items() if e == pytest.approx(best)]
        # x[i,k] layout: (x00, x01, x10, x11); the two permutation matrices win.
        assert sorted(winners) == [(0, 1, 1, 0), (1, 0, 0, 1)]
        assert best == pytest.approx(4.0)

    def test_hand_cost_example(self):
        inst = qap_from_data([[0, 1], [1, 0]], [[0, 2], [2, 0]])
        best, bits = brute_min(inst.objective)
        assert best == pytest.approx(4.0)
        assert bits in ((1, 0, 0, 1), (0, 1, 1, 0))

    def test_infeasible_assignments_cost_more(self):
        inst = qap_from_data([[0, 1], [1, 0]], [[0, 2], [2, 0]])
        feasible_cost = inst.objective.value((1, 0, 0, 1))
        for bits in all_bits(4):
            if bits not in ((1, 0, 0, 1), (0, 1, 1, 0)):
                assert inst.objective.value(bits) > feasible_cost

    def test_permutation_costs_match_direct_formula(self):
        inst = gen_qap(3, seed=9)
        a = np.array(inst.raw["a"])
        b = np.array(inst.raw["b"])
        import itertools

        for perm in itertools.permutations(range(3)):
            bits = [0] * 9
            for i, k in enumerate(perm):
                bits[i * 3 + k] = 1
            direct = sum(a[i, j] * b[perm[i], perm[j]] for i in range(3) for j in range(3))
            assert inst.objective.value(tuple(bits)) == pytest.approx(float(direct))

    def test_generated_optimum_is_feasible(self):
        inst = gen_qap(2, seed=3)
        _, bits = brute_min(inst.objective)
        assert satisfies(inst.constrained, bits)


class TestSpinGlass:
    def test_complete_topology_is_fully_dense(self):
        inst = gen_spin_glass("complete", 17, seed=0)
        assert density(inst.objective.source) == 1.0
        assert len(inst.raw["edges"]) == 17 * 16 // 2

    def test_two_spins_antialign(self):
        inst = gen_spin_glass("complete", 2, dist="pm1", seed=1)
        j = inst.raw["couplings"][0]
        table = inst.objective.energies_at(np.arange(4))
        assert table.min() == -1.0
        # Aligned states sit at +J, anti-aligned at -J.
        assert table[0] == pytest.approx(j)
        assert table[1] == pytest.approx(-j)

    def test_grid_ground_state_matches_exhaustive(self):
        inst = gen_spin_glass("grid", 9, dist="pm1", seed=4)
        couplings = {tuple(e): c for e, c in zip(inst.raw["edges"], inst.raw["couplings"])}
        best = math.inf
        for bits in all_bits(9):
            spins = [1 - 2 * b for b in bits]
            best = min(best, sum(c * spins[u] * spins[v] for (u, v), c in couplings.items()))
        found, _ = brute_min(inst.objective)
        assert found == pytest.approx(best)

    def test_grid_edge_structure(self):
        inst = gen_spin_glass("grid", 9, seed=0)
        edges = {tuple(e) for e in inst.raw["edges"]}
        assert (0, 1) in edges and (0, 3) in edges
        assert (2, 3) not in edges  # row boundary
        assert len(edges) == 12

    def test_heavy_hex_shape(self):
        inst = gen_spin_glass("heavy-hex-like", 127, seed=0)
        edges = [tuple(e) for e in inst.raw["edges"]]
        assert len(edges) == 144
        degree = np.zeros(127, dtype=int)
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        assert degree.max() == 3
        truncated = gen_spin_glass("heavy-hex-like", 30, seed=0)
        assert all(u < 30 and v < 30 for u, v in truncated.raw["edges"])

    def test_gaussian_couplings(self):
        inst = gen_spin_glass("complete", 6, dist="gaussian", seed=8)
        cs = inst.raw["couplings"]
        assert any(abs(c) not in (0.0, 1.0) for c in cs)

    def test_cubic_terms_change_kind_and_energy(self):
        inst = gen_spin_glass("complete", 5, dist="pm1", seed=2, cubic_terms=3)
        assert inst.objective.source is None
        assert len(inst.raw["cubic"]) == 3
        couplings = {tuple(e): c for e, c in zip(inst.raw["edges"], inst.raw["couplings"])}
        for bits in list(all_bits(5))[::3]:
            spins = [1 - 2 * b for b in bits]
            expect = sum(c * spins[u] * spins[v] for (u, v), c in couplings.items())
            expect += sum(w * spins[a] * spins[b] * spins[c] for a, b, c, w in inst.raw["cubic"])
            assert inst.objective.value(bits) == pytest.approx(expect)

    def test_rejects_bad_configurations(self):
        with pytest.raises(ValueError):
            gen_spin_glass("grid", 10)
        with pytest.raises(ValueError):
            gen_spin_glass("heavy-hex-like", 128)
        with pytest.raises(ValueError):
            gen_spin_glass("ring", 8)
        with pytest.raises(ValueError):
            gen_spin_glass("complete", 8, dist="cauchy")


def ev_feasible(raw, x):
    u = np.array(raw["windows"])
    d = np.array(raw["demand"])
    xs = np.array(x)
    return (u.T @ xs <= raw["M"]).all() and (d.T @ xs <= raw["E"]).all()


def ev_best_value(raw):
    n = raw["N"]
    best = 0.0
    for bits in all_bits(n):
        if ev_feasible(raw, bits):
            best = max(best, sum(v * b for v, b in zip(raw["values"], bits)))
    return best


class TestEvParking:
    def test_single_ev_accepted_when_uncapped(self):
        inst = gen_ev_parking(1, 2, 1, 25, seed=0)
        total = sum(sum(row) for row in inst.raw["demand"])
        assert total <= 25
        best, bits = brute_min(inst.objective)
        assert bits[0] == 1
        assert best == pytest.approx(-inst.raw["values"][0])

    def test_overlapping_evs_pick_higher_value(self):
        u = [[1, 1], [1, 1]]
        d = [[2, 2], [3, 3]]
        inst = ev_parking_from_data(u, d, values=[4.0, 9.0], M=1, E=20)
        best, bits = brute_min(inst.objective)
        assert bits[:2] == (0, 1)
        assert best == pytest.approx(-9.0)

    def test_compiled_equals_constrained_brute_force(self):
        # Full enumeration of the compiled model on a small crafted instance.
        u = [[1, 0], [1, 1], [0, 1]]
        d = [[3, 0], [2, 4], [0, 5]]
        inst = ev_parking_from_data(u, d, values=[3.5, 6.0, 5.25], M=2, E=7)
        assert inst.objective.n <= 16
        best, bits = brute_min(inst.objective)
        assert ev_feasible(inst.raw, bits[:3])
        assert best == pytest.approx(-ev_best_value(inst.raw))

    def test_generated_optimum_matches_admission_search(self):
        # Minimize over slacks analytically: the best slack for a row is the
        # clamped residual, so the compiled optimum over admissions must
        # match the direct constrained search.
        inst = gen_ev_parking(5, 4, 2, 20, seed=11)
        compiled = inst.objective.source
        penalty_rows = []
        base_n = 5
        best = math.inf
        for bits in all_bits(base_n):
            value = sum(v * b for v, b in zip(inst.raw["values"], bits))
            u = np.array(inst.raw["windows"])
            d = np.array(inst.raw["demand"])
            xs = np.array(bits)
            viol = 0.0
            p = 1.0 + sum(inst.raw["values"])
            for load, cap in [(u.T @ xs, inst.raw["M"]), (d.T @ xs, inst.raw["E"])]:
                viol += float(((np.maximum(load - cap, 0)) ** 2).sum())
            best = min(best, -value + p * viol)
        found = compiled.energies_at(np.arange(1 << compiled.n)) if compiled.n <= 22 else None
        if found is not None:
            assert found.min() == pytest.approx(best)
        assert -ev_best_value(inst.raw) == pytest.approx(best)

    def test_window_and_demand_shape(self):
        inst = gen_ev_parking(6, 5, 2, 15, seed=3)
        u = np.array(inst.raw["windows"])
        d = np.array(inst.raw["demand"])
        for row_u, row_d in zip(u, d):
            on = np.flatnonzero(row_u)
            assert len(on) >= 1
            assert (np.diff(on) == 1).all()  # contiguous window
            assert ((row_d >= 1) & (row_d <= 10))[on].all()
            assert (row_d[row_u == 0] == 0).all()

    def test_rejects_bad_caps(self):
        with pytest.raises(ValueError):
            gen_ev_parking(2, 2, 0, 5)
        with pytest.raises(ValueError):
            ev_parking_from_data([[1]], [[2]], [1.0], M=1, E=2.5)
        with pytest.raises(ValueError):
            ev_parking_from_data([[1]], [[2]], [1.0], M=1, E=0)


class TestPortfolio:
    def test_hand_example_selects_better_asset(self):
        inst = portfolio_from_data([0.1, 0.0], np.eye(2), B=1)
        e0 = inst.objective.value((1, 0))
        e1 = inst.objective.value((0, 1))
        assert e0 == pytest.approx(0.4)
        assert e1 == pytest.approx(0.5)
        best, bits = brute_min(inst.objective)
        assert bits == (1, 0)

    def test_full_cardinality_forces_all_ones(self):
        inst = gen_portfolio(4, 4, seed=0)
        _, bits = brute_min(inst.objective)
        assert bits == (1, 1, 1, 1)

    def test_seeded_optimum_matches_feasible_enumeration(self):
        import itertools

        inst = gen_portfolio(6, 3, seed=17)
        mu = np.array(inst.raw["mu"])
        sigma = np.array(inst.raw["sigma"])
        lam, B = inst.raw["lam"], inst.raw["B"]
        best = math.inf
        for combo in itertools.combinations(range(6), 3):
            x = np.zeros(6)
            x[list(combo)] = 1.0
            best = min(best, lam / (2 * B * B) * x @ sigma @ x - mu @ x / B)
        found, bits = brute_min(inst.objective)
        assert sum(bits) == 3
        assert found == pytest.approx(best)

    def test_covariance_is_positive_definite(self):
        inst = gen_portfolio(8, 2, seed=5)
        eigs = np.linalg.eigvalsh(np.array(inst.raw["sigma"]))
        assert eigs.min() > 0

    def test_rejects_bad_cardinality(self):
        with pytest.raises(ValueError):
            gen_portfolio(3, 4)
        with pytest.raises(ValueError):
            gen_portfolio(3, 0)


class TestReproducibility:
    CASES = [
        lambda s: gen_maxcut_r3r(10, seed=s),
        lambda s: gen_mis(8, edge_prob=0.4, seed=s),
        lambda s: gen_mis(8, unit_disc=True, seed=s),
        lambda s: gen_market_share(3, seed=s),
        lambda s: gen_qap(3, seed=s),
        lambda s: gen_spin_glass("complete", 7, dist="gaussian", seed=s),
        lambda s: gen_ev_parking(4, 3, 2, 12, seed=s),
        lambda s: gen_portfolio(5, 2, seed=s),
    ]

    def test_same_seed_identical_raw(self):
        for make in self.CASES:
            a, b = make(42), make(42)
            assert a.raw == b.raw
            idx = np.arange(min(64, 1 << a.objective.n))
            assert (a.objective.energies_at(idx) == b.objective.energies_at(idx)).all()

    def test_different_seed_changes_payload(self):
        changed = 0
        for make in self.CASES:
            if make(1).raw != make(2).raw:
                changed += 1
        assert changed == len(self.CASES)

    def test_labs_seedless(self):
        assert gen_labs(7).raw == gen_labs(7).raw
        assert gen_labs(7).meta["seed"] == 0


class TestFeasibilitySoundness:
    def test_constrained_families_optimum_is_feasible(self):
        instances = [
            gen_mis(9, edge_prob=0.35, seed=2),
            gen_qap(3, seed=5),
            gen_portfolio(7, 3, seed=4),
            ev_parking_from_data(
                [[1, 1], [1, 0], [0, 1]], [[2, 1], [3, 0], [0, 2]], [2.0, 3.0, 2.5], M=2, E=4
            ),
        ]
        for inst in instances:
            assert inst.constrained is not None
            n_model = inst.objective.n
            if n_model > 14:
                continue
            _, bits = brute_min(inst.objective)
            assert satisfies(inst.constrained, bits[: inst.constrained.n])


class TestSerialization:
    def make_all(self):
        return [
            gen_maxcut_r3r(8, seed=1),
            gen_mis(6, edge_prob=0.5, seed=2),
            gen_mis(6, unit_disc=True, seed=3),
            gen_market_share(2, seed=4),
            gen_labs(9),
            gen_qap(2, seed=5),
            gen_spin_glass("grid", 9, dist="gaussian", seed=6),
            gen_spin_glass("complete", 5, dist="pm1", seed=7, cubic_terms=2),
            gen_ev_parking(3, 2, 1, 9, seed=8),
            gen_portfolio(5, 2, seed=9),
            gen_qap(2, seed=5, penalty=40.0),
            gen_mis(3, points=[(0.0, 0.0), (0.5, 0.0), (3.0, 3.0)], unit_disc=True, seed=0),
            qap_from_data([[0, 3], [1, 0]], [[0, 2], [5, 0]], penalty=7.0),
            ev_parking_from_data(
                [[1, 1], [1, 0], [0, 1]], [[2, 1], [3, 0], [0, 2]], [2.0, 3.0, 2.5], M=2, E=4
            ),
            portfolio_from_data([0.1, 0.0, 0.05], np.eye(3), B=1),
        ]

    def test_round_trip_preserves_energies(self):
        rng = np.random.default_rng(31)
        for inst in self.make_all():
            text = json.dumps(instance_to_json(inst))
            back = instance_from_json(json.loads(text))
            assert back.family == inst.family
            assert back.raw == dict(inst.raw)
            assert back.objective.n == inst.objective.n
            assert type(back.objective.source) is type(inst.objective.source)
            idx = rng.integers(0, 1 << min(inst.objective.n, 20), size=50)
            assert np.allclose(
                back.objective.energies_at(idx), inst.objective.energies_at(idx), atol=0
            )
            if inst.constrained is not None:
                assert back.constrained == inst.constrained

    def test_envelope_has_model_schema(self):
        data = instance_to_json(gen_maxcut_r3r(6, seed=0))
        assert set(data) >= {"family", "meta", "raw", "model"}
        assert data["model"]["n"] == 6
        assert all(len(t) == 3 for t in data["model"]["terms"])

    def test_native_families_omit_model(self):
        assert instance_to_json(gen_labs(5))["model"] is None
        assert instance_to_json(gen_spin_glass("complete", 4, seed=0, cubic_terms=1))["model"] is None

    def test_mismatched_stored_model_rejected(self):
        data = instance_to_json(gen_maxcut_r3r(6, seed=0))
        data["model"]["n"] = 7
        with pytest.raises(ValueError):
            instance_from_json(data)

    def test_edited_term_coefficient_rejected(self):
        data = json.loads(json.dumps(instance_to_json(gen_maxcut_r3r(6, seed=0))))
        data["model"]["terms"][0][2] += 5.0
        with pytest.raises(ValueError):
            instance_from_json(data)

    def test_edited_constraint_bound_rejected(self):
        data = json.loads(json.dumps(instance_to_json(gen_portfolio(5, 2, seed=9))))
        data["constrained"]["constraints"]["equalities"][0]["bound"] += 1.0
        with pytest.raises(ValueError):
            instance_from_json(data)

    def test_qap_without_meta_rejected(self):
        # Without meta the rebuild falls back to the default penalty, so the
        # stored model no longer matches it.
        data = json.loads(json.dumps(instance_to_json(gen_qap(2, seed=5, penalty=40.0))))
        del data["meta"]
        with pytest.raises(ValueError):
            instance_from_json(data)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            instance_from_json({"family": "sudoku", "raw": {}})
