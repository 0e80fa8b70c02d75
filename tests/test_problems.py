"""Problem generators: hand oracles, reproducibility, feasibility soundness."""

import collections
import copy
import json
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from qopt.model import ConstrainedModel, QuboModel, density
from qopt.problems import (
    FAMILIES,
    _LabsProgram,
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


def hand_made(family, raw, **params):
    """``raw`` as a hand-written envelope, read the way ``qopt solve FILE`` reads it."""
    return instance_from_json({"family": family, "meta": {"params": params} if params else {}, "raw": raw})


# Hand-written payloads, one per family whose generator draws its data.
HAND_QAP = {"n": 2, "a": [[0.0, 3.0], [1.0, 0.0]], "b": [[0.0, 2.0], [5.0, 0.0]]}
HAND_EV_PARKING = {
    "N": 3, "K": 2, "M": 2, "E": 4, "windows": [[1, 1], [1, 0], [0, 1]], "demand": [[2, 1], [3, 0], [0, 2]],
    "values": [2.0, 3.0, 2.5],
}
HAND_PORTFOLIO = {"N": 3, "B": 1, "lam": 1.0, "mu": [0.1, 0.0, 0.05], "sigma": np.eye(3).tolist()}


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

    def test_graphs_match_networkx(self):
        # The in-tree pairing draws as networkx 3.6.1's random_regular_graph
        # does. (52, 15) needs five attempts; a port that orders the pair in
        # _suitable without rebinding its outer s1 gets it wrong.
        nx = pytest.importorskip("networkx")
        cases = [(n, s) for n in range(4, 200, 2) for s in range(5)] + [(512, 0), (512, 1), (1000, 0), (1000, 1), (52, 15)]
        for n, seed in cases:
            want = sorted((min(u, v), max(u, v)) for u, v in nx.random_regular_graph(3, n, seed=seed).edges())
            assert gen_maxcut_r3r(n, seed=seed).raw["edges"] == [list(e) for e in want], (n, seed)

    def test_numpy_integer_seed_is_the_int_seed(self):
        inst = gen_maxcut_r3r(8, seed=np.int64(3))
        assert inst.raw == gen_maxcut_r3r(8, seed=3).raw
        assert type(inst.meta["seed"]) is int and inst.meta["seed"] == 3

    def test_float_seed_refused(self):
        # As numpy's default_rng refuses it for the other families.
        with pytest.raises(TypeError):
            gen_maxcut_r3r(8, seed=1.5)
        with pytest.raises(TypeError):
            gen_spin_glass("complete", 4, seed=1.5)


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
        with pytest.raises(ValueError, match="got 3 points for n=4 vertices"):
            gen_mis(4, points=pts, unit_disc=True, seed=0)

    def test_unit_disc_sampled_points_stay_in_square(self):
        inst = gen_mis(9, unit_disc=True, seed=4)
        side = math.sqrt(9)
        assert all(0 <= x <= side and 0 <= y <= side for x, y in inst.raw["points"])

    def test_side_without_unit_disc_rejected(self):
        # A G(n, p) draw would otherwise ignore the side it was asked for.
        with pytest.raises(ValueError):
            gen_mis(6, side=2.0, seed=1)
        for side in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"^side must be a positive finite real, got {side}$"):
                gen_mis(6, unit_disc=True, side=side, seed=1)

    def test_edge_prob_with_unit_disc_rejected(self):
        # A unit-disc draw would otherwise ignore the edge probability.
        with pytest.raises(ValueError):
            gen_mis(6, unit_disc=True, edge_prob=0.9, seed=1)
        assert gen_mis(6, seed=1).meta["params"]["edge_prob"] == 0.3
        for edge_prob in (-0.1, 1.5):
            with pytest.raises(ValueError, match=r"edge probability must lie in \[0, 1\]"):
                gen_mis(6, edge_prob=edge_prob, seed=1)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match=r"^mis payload: weights must be a positive finite real, got -1\.0$"):
            gen_mis(3, weights=(1.0, -1.0, 2.0))
        with pytest.raises(ValueError, match=r"^mis payload: weights must be a positive finite real, got 0\.0$"):
            gen_mis(3, weights=(0.0, 1.0, 1.0))

    def test_hand_made_weights_must_be_positive(self):
        # A negative weight made the penalty 1 + sum(weights) too small: this
        # envelope once built with penalty 1.5, and brute force certified
        # (1, 1, 0) at -4.5, which takes both ends of edge 0-1.
        raw = {"n": 3, "edges": [[0, 1], [1, 2]], "weights": [3, 3, -5.5]}
        with pytest.raises(ValueError, match=r"^mis payload: weights must be a positive finite real, got -5\.5$"):
            hand_made("mis", raw)
        assert brute_min(hand_made("mis", {**raw, "weights": [3, 3, 5.5]}).objective) == (-8.5, (1, 0, 1))

    def test_constrained_rows_cover_edges(self):
        inst = gen_mis(5, edge_prob=0.5, seed=2)
        assert len(inst.constrained.inequalities) == len(inst.raw["edges"])

    def test_endpoint_outside_the_graph_is_named(self):
        # The constraint rows once indexed a list with it first and raised
        # a bare IndexError.
        envelope = json.loads(json.dumps(instance_to_json(gen_mis(4, edge_prob=0.9, seed=1))))
        envelope["raw"]["edges"][0] = [0, 7]
        with pytest.raises(ValueError, match=r"term index pair \(0, 7\) invalid for n=4"):
            instance_from_json(envelope)


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

    def test_payload_sizes_must_match_the_data(self):
        # The build once took its sizes from the weights alone and ignored
        # the payload's m and n.
        envelope = json.loads(json.dumps(instance_to_json(gen_market_share(2, seed=5))))
        for edit in ({"m": 3}, {"n": 9}, {"targets": [1]}):
            with pytest.raises(ValueError, match=r"^need \d+ x \d+ weights and \d+ targets, got \(2, 10\) and \d"):
                instance_from_json({**envelope, "raw": {**envelope["raw"], **edit}})

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

    def test_refuses_payload_it_cannot_price_exactly(self):
        # Term (0, 0) of this envelope is 2^53 + 1, which no double holds:
        # the build once rounded it to 0.0 and left the term out.
        raw = {"m": 2, "n": 2, "weights": [[2**53 + 1, 1], [0, 3]], "targets": [2**52, 1]}
        with pytest.raises(ValueError, match=r"^market-share payload: weights and targets must keep .* below 2\^53"):
            hand_made("market-share", raw)

    def test_payload_just_under_the_bound_prices_exactly(self):
        rows = [([31635422, 7, 18981253], 44289583), ([3, 0, 5], 4)]
        bound = sum((sum(w) + c) ** 2 for w, c in rows)
        assert (1 << 53) - 2**27 < bound < 1 << 53
        weights, targets = map(list, zip(*rows))
        inst = hand_made("market-share", {"m": 2, "n": 3, "weights": weights, "targets": targets})
        table = inst.objective.energies_at(np.arange(8)).tolist()
        for energy, bits in zip(table, all_bits(3)):
            assert energy == sum((sum(a * b for a, b in zip(w, bits)) - c) ** 2 for w, c in rows)


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

    def test_fractional_entries_are_not_rounded(self):
        # Entries were once converted by int() before the sign check, so
        # 1.3 read as +1 and -0.5 as 0 (then rejected, but only by luck).
        for bad in [(1, 1.3), (1.9, -1, 1), (np.float64(-1.5), 1)]:
            with pytest.raises(ValueError, match="entries must be -1 or \\+1"):
                labs_energy(bad)
        assert labs_energy((1.0, np.int64(-1), 1)) == labs_energy((1, -1, 1))

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
            assert gen_labs(k).objective.program.table().tolist() == want
        for k in (16, 18):
            obj = gen_labs(k).objective
            assert np.array_equal(obj.program.table(), obj.energies_at(np.arange(1 << k)))
        # Flipping all bits, the even bits or the odd bits keeps every energy.
        for k in range(2, 15):
            table = gen_labs(k).objective.program.table()
            idx = np.arange(1 << k)
            for mask in ((1 << k) - 1, sum(1 << b for b in range(0, k, 2)), sum(1 << b for b in range(1, k, 2))):
                assert np.array_equal(table[idx ^ mask], table)

    def test_table_prices_one_quarter(self, monkeypatch):
        # The other three quarters are the priced one under the flips of all
        # bits, of bit k-2's parity, and of both.
        priced = []
        at = _LabsProgram.at

        def counted(self, block):
            priced.append(block.size)
            return at(self, block)

        monkeypatch.setattr(_LabsProgram, "at", counted)
        for k in range(2, 17):
            priced.clear()
            gen_labs(k).objective.program.table()
            assert sum(priced) == 1 << (k - 2)

    def test_table_builds_half_and_mirrors_it(self):
        # Only the lowest quarter is priced, in blocks; flipping the bits of
        # k-2's parity fills the rest of the lower half, and the upper half
        # is its mirror: the peak is the output's 8 bytes per pattern plus
        # the blocks' temporaries, where a full build held 12.
        k = 18
        program = gen_labs(k).objective.program
        tracemalloc.start()
        try:
            table = program.table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11 << k
        assert np.array_equal(table[: 1 << (k - 1)], table[: (1 << (k - 1)) - 1 : -1])

    def test_index_pricing_memory_is_bounded(self):
        # Pricing 2^18 indices at k=21 once held (index, bit) temporaries for
        # all of them at once, about 128 MiB; blocks keep the peak flat.
        obj = gen_labs(21).objective
        idx = np.random.default_rng(21).integers(0, 1 << 21, size=1 << 18)
        table = obj.program.table()
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


class TestQap:
    SWAP = {"n": 2, "a": [[0.0, 1.0], [1.0, 0.0]], "b": [[0.0, 2.0], [2.0, 0.0]]}

    def test_all_ones_has_two_equal_optima(self):
        inst = hand_made("qap", {"n": 2, "a": np.ones((2, 2)).tolist(), "b": np.ones((2, 2)).tolist()})
        assert inst.objective.n == 4
        energies = {bits: inst.objective.value(bits) for bits in all_bits(4)}
        best = min(energies.values())
        winners = [b for b, e in energies.items() if e == pytest.approx(best)]
        # x[i,k] layout: (x00, x01, x10, x11); the two permutation matrices win.
        assert sorted(winners) == [(0, 1, 1, 0), (1, 0, 0, 1)]
        assert best == pytest.approx(4.0)

    def test_hand_cost_example(self):
        inst = hand_made("qap", self.SWAP)
        best, bits = brute_min(inst.objective)
        assert best == pytest.approx(4.0)
        assert bits in ((1, 0, 0, 1), (0, 1, 1, 0))

    def test_infeasible_assignments_cost_more(self):
        inst = hand_made("qap", self.SWAP)
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
        with pytest.raises(ValueError, match="three spins"):
            gen_spin_glass("complete", 2, cubic_terms=1)

    def test_couplings_must_pair_with_edges(self):
        # Without a stored model to compare, a short couplings list once
        # dropped the unpaired edges silently.
        envelope = json.loads(json.dumps(instance_to_json(gen_spin_glass("complete", 4, seed=1))))
        del envelope["model"]
        envelope["raw"]["couplings"].pop()
        with pytest.raises(ValueError, match="shorter"):
            instance_from_json(envelope)

    def test_repeated_pair_couplings_sum(self):
        # A pair listed twice once kept only its last coupling, and the term
        # whose edge was overwritten vanished without a word.
        envelope = bare_envelope(gen_spin_glass("complete", 4, dist="gaussian", seed=1))
        raw = envelope["raw"]
        raw["edges"][1] = [1, 0]
        inst = instance_from_json(envelope)
        first, second = raw["couplings"][:2]
        assert inst.objective.source.J[(0, 1)] == first + second
        assert (0, 2) not in inst.objective.source.J
        for bits in all_bits(4):
            spins = [1 - 2 * b for b in bits]
            expect = sum(c * spins[u] * spins[v] for (u, v), c in zip(raw["edges"], raw["couplings"]))
            assert inst.objective.value(bits) == pytest.approx(expect, abs=1e-12)


def integer_paths(value, path):
    """Paths to every int in ``value``, itself or a nested list entry; bools excluded."""
    if isinstance(value, list):
        return [p for i, item in enumerate(value) for p in integer_paths(item, (*path, i))]
    return [path] if isinstance(value, int) and not isinstance(value, bool) else []


DROP = object()  # a payload edit that deletes the entry


def lookup(raw, path):
    for key in path:
        raw = raw[key]
    return raw


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
        raw = {"N": 2, "K": 2, "M": 1, "E": 20, "windows": u, "demand": d, "values": [4.0, 9.0]}
        inst = hand_made("ev-parking", raw)
        best, bits = brute_min(inst.objective)
        assert bits[:2] == (0, 1)
        assert best == pytest.approx(-9.0)

    def test_compiled_equals_constrained_brute_force(self):
        # Full enumeration of the compiled model on a small crafted instance.
        u = [[1, 0], [1, 1], [0, 1]]
        d = [[3, 0], [2, 4], [0, 5]]
        raw = {"N": 3, "K": 2, "M": 2, "E": 7, "windows": u, "demand": d, "values": [3.5, 6.0, 5.25]}
        inst = hand_made("ev-parking", raw)
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

    def test_fractional_or_bool_presence_and_demand_rejected(self):
        # A numpy int64 conversion once truncated presence 0.9 to 0 and
        # demand 2.5 to 2, and read True as 1.
        for u, d, field in [
            ([[0.9, 1]], [[0, 2]], "windows"),
            ([[True, 1]], [[2, 2]], "windows"),
            ([[1, 1]], [[2.5, 2]], "demand"),
            ([[1, 1]], [[2, True]], "demand"),
        ]:
            with pytest.raises(TypeError, match=f"^{field} must be an integer"):
                hand_made("ev-parking", {"N": 1, "K": 2, "M": 1, "E": 4, "windows": u, "demand": d, "values": [1.0]})

    def test_rejects_bad_caps(self):
        with pytest.raises(ValueError):
            gen_ev_parking(2, 2, 0, 5)
        raw = {"N": 1, "K": 1, "M": 1, "windows": [[1]], "demand": [[2]], "values": [1.0]}
        with pytest.raises(TypeError, match="E must be an integer"):
            hand_made("ev-parking", {**raw, "E": 2.5})
        with pytest.raises(ValueError):
            hand_made("ev-parking", {**raw, "E": 0})


class TestPortfolio:
    def test_hand_example_selects_better_asset(self):
        inst = hand_made("portfolio", {"N": 2, "B": 1, "lam": 1.0, "mu": [0.1, 0.0], "sigma": np.eye(2).tolist()})
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

    def test_fractional_or_bool_cardinality_rejected(self):
        # int() once read B=2.9 as 2 and True as 1.
        for B in (2.9, 2.0, True):
            with pytest.raises(TypeError, match="^B must be an integer"):
                hand_made("portfolio", {**HAND_PORTFOLIO, "B": B})
            with pytest.raises(TypeError, match="^B must be an integer"):
                gen_portfolio(5, B)

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

    def test_numpy_integer_seed_envelope_is_json(self):
        for make in self.CASES:
            inst = make(np.int64(42))
            assert inst.raw == make(42).raw
            assert json.loads(json.dumps(instance_to_json(inst)))["meta"]["seed"] == 42

    # Every family, with each size or count parameter passed through ``t``.
    SIZED = [
        lambda t: gen_maxcut_r3r(t(8), seed=1),
        lambda t: gen_mis(t(6), seed=1),
        lambda t: gen_mis(t(6), unit_disc=True, seed=1),
        lambda t: gen_market_share(t(2), seed=1),
        lambda t: gen_labs(t(5)),
        lambda t: gen_qap(t(3), seed=1),
        lambda t: gen_spin_glass("complete", t(5), seed=1, cubic_terms=t(1)),
        lambda t: gen_spin_glass("grid", t(4), seed=1),
        lambda t: gen_spin_glass("heavy-hex-like", t(5), seed=1),
        lambda t: gen_ev_parking(t(3), t(2), t(2), t(10), seed=1),
        lambda t: gen_portfolio(t(5), t(2), seed=1),
    ]

    def test_numpy_integer_sizes_give_the_int_instance(self):
        assert {make(int).family for make in self.SIZED} == set(FAMILIES)
        for make in self.SIZED:
            inst, ref = make(np.int64), make(int)
            envelope = json.loads(json.dumps(instance_to_json(inst)))
            assert envelope["raw"] == inst.raw == ref.raw
            assert envelope["meta"]["params"] == inst.meta["params"] == ref.meta["params"]
            with pytest.raises(TypeError):
                make(float)
            with pytest.raises(TypeError):
                make(bool)

    def test_labs_seedless(self):
        assert gen_labs(7).raw == gen_labs(7).raw
        assert gen_labs(7).meta["seed"] == 0


def test_the_coupling_view_is_the_spin_form_as_a_sorted_graph():
    # Every family; qap and ev-parking again at sizes whose couplings are
    # listed out of row-major order; and a QUBO that stores a zero coupling.
    makes = [*TestReproducibility.SIZED, lambda t: gen_qap(5, seed=0), lambda t: gen_ev_parking(6, 3, 1, 12, seed=0)]
    objs = [make(int).objective for make in makes]
    objs.append(QuboModel(n=3, terms={(0, 0): 1.0, (0, 1): 0.0, (1, 2): -2.0}).as_objective())
    assert objs[-1].spin_model().J == {(0, 1): 0.0, (1, 2): -0.5}
    without = 0
    for obj in objs:
        spin, graph = obj.spin_model(), obj.spin_couplings()
        assert obj.spin_couplings() is graph
        if spin is None:
            assert graph is None
            without += 1
            continue
        assert len(graph) == spin.n
        for u, row in enumerate(graph):
            neighbours = [v for v, _ in row]
            assert neighbours == sorted(set(neighbours)) and u not in neighbours
            assert all(c != 0.0 and (u, c) in graph[v] for v, c in row)
        pairs = {(u, v): c for u, row in enumerate(graph) for v, c in row if u < v}
        assert pairs == {key: c for key, c in spin.J.items() if c != 0.0}
    assert without == 2  # LABS and the cubic spin glass


class TestFeasibilitySoundness:
    def test_constrained_families_optimum_is_feasible(self):
        instances = [
            gen_mis(9, edge_prob=0.35, seed=2),
            gen_qap(3, seed=5),
            gen_portfolio(7, 3, seed=4),
            hand_made("ev-parking", HAND_EV_PARKING),
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
            hand_made("qap", HAND_QAP, penalty=7.0),
            hand_made("ev-parking", HAND_EV_PARKING),
            hand_made("portfolio", HAND_PORTFOLIO),
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

    # Payloads where the rule that leaves out zero terms decides which terms
    # exist: a market-share row with no weight, a portfolio pair that cancels
    # (sigma_01 = -sigma_10) beside zero diagonals, and a QAP flow matrix with
    # a zero row. The model block and the terms' insertion order are pinned.
    @pytest.mark.parametrize(
        "family, raw, model, order",
        [
            (
                "market-share", {"m": 2, "n": 3, "weights": [[0, 0, 0], [3, 0, 5]], "targets": [7, 4]},
                {"n": 3, "terms": [[0, 0, -15.0], [0, 2, 30.0], [2, 2, -15.0]], "offset": 65.0},
                [(0, 0), (0, 2), (2, 2)],
            ),
            (
                "portfolio",
                {"N": 3, "B": 1, "lam": 1.0, "mu": [0.1, 0.0, 0.0],
                 "sigma": [[0.2, 0.3, 0.0], [-0.3, 0.1, 0.0], [0.0, 0.0, 0.0]]},
                {"n": 3, "terms": [[0, 0, -1.05], [0, 1, 2.1], [0, 2, 2.1], [1, 1, -1.0], [1, 2, 2.1], [2, 2, -1.05]],
                 "offset": 1.05},
                [(1, 1), (0, 0), (0, 1), (0, 2), (1, 2), (2, 2)],
            ),
            (
                "qap", {"n": 2, "a": [[0.0, 0.0], [1.0, 2.0]], "b": [[1.0, 2.0], [3.0, 4.0]]},
                {"n": 4, "terms": [[0, 0, -62.0], [0, 1, 62.0], [0, 2, 63.0], [0, 3, 3.0], [1, 1, -62.0], [1, 2, 2.0],
                                   [1, 3, 66.0], [2, 2, -60.0], [2, 3, 72.0], [3, 3, -54.0]], "offset": 124.0},
                [(0, 2), (0, 3), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (0, 0), (0, 1), (1, 1)],
            ),
        ],
        ids=["market-share-zero-row", "portfolio-cancelling-pair", "qap-zero-flow-row"],
    )
    def test_zero_rule_corners_compile_as_recorded(self, family, raw, model, order):
        inst = hand_made(family, raw)
        assert json.loads(json.dumps(instance_to_json(inst)["model"])) == model
        assert list(inst.objective.source.terms) == order

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

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_integer_payload_field_rejects_floats_and_bools(self, family):
        # Every integer field of every family's raw payload, scalar or list
        # entry, was once read through int() or an int64 array, so 3.7 was
        # solved as 3 and True as 1. Each field's first and last integer
        # entry is replaced. Every integer flag is set to 4, which gives a
        # valid instance in every family, and every other flag to its default.
        entry = FAMILIES[family]
        params = {flag.kwarg: 4 if flag.type is int else flag.default for flag in entry.flags}
        envelope = json.loads(json.dumps(instance_to_json(entry.generate(**params))))
        assert instance_from_json(envelope).raw == envelope["raw"]
        checked = 0
        for field, value in envelope["raw"].items():
            found = integer_paths(value, (field,))
            for path in {found[0], found[-1]} if found else ():
                for bad in (float(lookup(envelope["raw"], path)), True):
                    edited = copy.deepcopy(envelope)
                    *parents, last = path
                    lookup(edited["raw"], parents)[last] = bad
                    with pytest.raises(TypeError, match=rf"^{re.escape(field)}\b.*must be an integer, got "):
                        instance_from_json(edited)
                    checked += 1
        assert checked, f"{family} has no integer payload field"

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            instance_from_json({"family": "sudoku", "raw": {}})

    @pytest.mark.parametrize(
        "make, path, value, message",
        [
            (lambda: gen_maxcut_r3r(6, seed=0), ("edges", 0), [0, 1, 2],
             "maxcut-r3r payload: edges entries must be pairs, got [0, 1, 2]"),
            (lambda: gen_maxcut_r3r(6, seed=0), ("edges",), 5, "maxcut-r3r payload: edges must be a list, got 5"),
            (lambda: gen_maxcut_r3r(6, seed=0), ("edges", 0), 7, "maxcut-r3r payload: edges must be a list, got 7"),
            (lambda: gen_portfolio(5, 2, seed=0), ("lam",), DROP, "portfolio payload has no 'lam' field"),
            (lambda: gen_labs(5), ("k",), DROP, "labs payload has no 'k' field"),
            (lambda: gen_spin_glass("complete", 4, seed=1), ("couplings", -1), DROP,
             "spin-glass payload: couplings is shorter than edges: 5 for 6"),
            (lambda: gen_mis(4, edge_prob=0.9, seed=1), ("weights",), 1.0,
             "mis payload: weights must be a list, got 1.0"),
            (lambda: gen_ev_parking(3, 2, 2, 4, seed=0), ("windows", 0), 1,
             "ev-parking payload: windows must be a list, got 1"),
            (lambda: gen_market_share(2, seed=0), ("weights", 0, 0), 10**400,
             "weights must be below 2^63, got a 1329-bit integer (market-share payload)"),
        ],
        ids=["edge-triple", "edges-int", "edge-int", "portfolio-no-lam", "labs-no-k", "couplings-short",
             "mis-weights-float", "ev-window-int", "weights-beyond-int64"],
    )
    def test_misshapen_payload_names_family_and_field(self, make, path, value, message):
        # Each of these once raised an unnamed error: an unpacking count,
        # "'int' object is not iterable", a bare KeyError, a zip() length or
        # an OverflowError from float().
        envelope = json.loads(json.dumps(instance_to_json(make())))
        envelope.pop("model", None)
        *parents, last = path
        if value is DROP:
            del lookup(envelope["raw"], parents)[last]
        else:
            lookup(envelope["raw"], parents)[last] = value
        with pytest.raises(ValueError) as caught:
            instance_from_json(envelope)
        assert str(caught.value) == message


BAD_VALUES = (None, True, 3.7, -1, math.nan, math.inf, -math.inf, "x", [], {}, [1, 2], [[1]], 10**6, 0, DROP)


def leaf_paths(value, path):
    """Paths to every leaf under ``value``: a scalar, or an empty list or object."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    return [p for key, item in items for p in leaf_paths(item, (*path, key))] or [path]


def bare_envelope(inst):
    """The JSON envelope without its ``model`` and ``constrained`` blocks, so only the checks refuse it."""
    envelope = json.loads(json.dumps(instance_to_json(inst)))
    envelope.pop("model")
    envelope.pop("constrained", None)
    return envelope


def edited(envelope, path, value):
    out = copy.deepcopy(envelope)
    *parents, last = path
    if value is DROP:
        del lookup(out, parents)[last]
    else:
        lookup(out, parents)[last] = value
    return out


def assert_names(message, family, fields):
    # One line naming the family and one of the fields; "must be a ..." is not qap's field a.
    assert "\n" not in message
    assert re.search(rf"(?<![\w-]){re.escape(family)}(?![\w-])", message), message
    text = message.replace(" be a ", " be ")
    assert any(re.search(rf"(?<![\w-]){re.escape(f)}(?![\w-])", text) for f in fields), (fields, message)


class TestPayloadSchema:
    ENVELOPES = {
        "maxcut-r3r": [lambda: gen_maxcut_r3r(6, seed=1)],
        "mis": [lambda: gen_mis(5, edge_prob=0.5, seed=2)],
        "udmis": [lambda: gen_mis(5, unit_disc=True, seed=3)],
        "market-share": [lambda: gen_market_share(2, seed=4)],
        "labs": [lambda: gen_labs(6)],
        "qap": [lambda: gen_qap(2, seed=5, penalty=40.0), lambda: hand_made("qap", HAND_QAP, penalty=None)],
        "spin-glass": [
            lambda: gen_spin_glass("complete", 5, seed=7, cubic_terms=2),
            lambda: gen_spin_glass("grid", 4, dist="gaussian", seed=6),
        ],
        "ev-parking": [
            lambda: gen_ev_parking(3, 2, 2, 9, seed=8),
            lambda: hand_made("ev-parking", {"N": 2, "K": 2, "M": 2, "E": 4, "windows": [[1, 1], [1, 0]],
                                             "demand": [[2, 1], [3, 0]], "values": [2.0, 3.0]}),
        ],
        "portfolio": [
            lambda: gen_portfolio(4, 2, seed=9),
            lambda: hand_made("portfolio", {"N": 2, "B": 1, "lam": 1.0, "mu": [0.1, 0.0], "sigma": np.eye(2).tolist()}),
        ],
    }

    def test_seeded_mutants_build_or_name_family_and_field(self):
        # 9 families x 60 mutants once gave 86 errors naming neither family
        # nor field ("setting an array element with a sequence", "float()
        # argument must be ..."), a RuntimeWarning for a QAP inf, and silent
        # builds with NaN points, markups or a topology of 3.7. Each case
        # replaces or deletes one leaf of raw or meta. A raw field may also
        # be refused through an array whose length it names; of meta only
        # QAP's params are checked (its build reads penalty; n is declared
        # beside it), so every other meta edit builds.
        assert sorted(self.ENVELOPES) == sorted(FAMILIES)
        envelopes = {family: [bare_envelope(make()) for make in makes] for family, makes in self.ENVELOPES.items()}
        rng = random.Random(3607)
        outcomes = collections.Counter()
        for _ in range(600):
            family = rng.choice(sorted(envelopes))
            envelope = rng.choice(envelopes[family])
            section, key = rng.choice([(section, key) for section in ("raw", "meta") for key in envelope[section]])
            path = rng.choice(leaf_paths(envelope[section][key], (section, key)))
            bad = rng.choice(BAD_VALUES)
            if section == "raw":
                sized = FAMILIES[family].fields.items()
                fields = {key} | {name for name, spec in sized if key in re.split(r"[\[,\]]", spec)[1:]}
            else:
                fields = {path[-1]} if family == "qap" and path[1] == "params" else set()
            try:
                instance_from_json(edited(envelope, path, bad))
                outcomes["built"] += 1
            except (ValueError, TypeError) as exc:
                assert fields, f"{family} {path} = {bad!r} is descriptive but raised {exc}"
                assert_names(str(exc), family, fields)
                outcomes["refused"] += 1
        assert outcomes["built"] > 100 and outcomes["refused"] > 100, outcomes

    @pytest.mark.parametrize(
        "make, path, renamed",
        [
            (lambda: gen_spin_glass("complete", 5, seed=1, cubic_terms=3), ("raw", "cubic"), "cubics"),
            (lambda: gen_qap(3, seed=0, penalty=50.0), ("meta", "params", "penalty"), "penalti"),
        ],
        ids=["spin-glass-cubics", "qap-penalti"],
    )
    def test_undeclared_fields_are_refused(self, make, path, renamed):
        # Each once built another instance without a word: the spin glass
        # without its cubic terms (c_min -4.0 for -7.0), the QAP with the
        # default penalty (c_max 38149.0 for 2725.0).
        inst = make()
        envelope = bare_envelope(inst)
        *parents, last = path
        holder = lookup(envelope, parents)
        holder[renamed] = holder.pop(last)
        with pytest.raises(ValueError) as caught:
            instance_from_json(envelope)
        assert_names(str(caught.value), inst.family, {renamed})

    @pytest.mark.parametrize(
        "make, path, value, field",
        [
            (lambda: gen_mis(4, unit_disc=True, seed=1), ("raw", "points", 0, 0), math.nan, "points"),
            (lambda: gen_mis(4, unit_disc=True, seed=1), ("raw", "points", 0, 0), [0.5, 0.5], "points"),
            (lambda: gen_mis(4, unit_disc=True, seed=1), ("raw", "points", 0, 1), DROP, "points"),
            (lambda: gen_ev_parking(3, 2, 2, 9, seed=8), ("raw", "markups", 0), math.nan, "markups"),
            (lambda: gen_ev_parking(3, 2, 2, 9, seed=8), ("raw", "markups"), math.nan, "markups"),
            (lambda: gen_ev_parking(3, 2, 2, 9, seed=8), ("raw", "markups"), -1, "markups"),
            (lambda: gen_ev_parking(3, 2, 2, 9, seed=8), ("raw", "markups"), [], "markups"),
            (lambda: gen_ev_parking(3, 2, 2, 9, seed=8), ("raw", "markups", 0), DROP, "markups"),
            (lambda: gen_spin_glass("complete", 4, seed=1), ("raw", "topology"), 3.7, "topology"),
            (lambda: gen_spin_glass("complete", 4, seed=1), ("raw", "topology"), None, "topology"),
            (lambda: gen_spin_glass("complete", 4, seed=1), ("raw", "topology"), "x", "topology"),
            (lambda: gen_qap(2, seed=5), ("meta", "params", "penalty"), "x", "penalty"),
        ],
        ids=["points-nan", "points-list", "points-coordinate-deleted", "markup-nan", "markups-nan", "markups-negative",
             "markups-empty", "markup-deleted", "topology-float", "topology-null", "topology-word", "qap-penalty-word"],
    )
    def test_descriptive_fields_are_checked(self, make, path, value, field):
        # Each of these once built, as no build reads the field; QAP's
        # penalty string reached penalty_encode's unnamed float().
        family = make().family
        with pytest.raises((ValueError, TypeError)) as caught:
            instance_from_json(edited(bare_envelope(make()), path, value))
        assert_names(str(caught.value), family, {field})

    @pytest.mark.parametrize(
        "make, path, value, fields",
        [
            (lambda: gen_ev_parking(3, 2, 2, 9, seed=8), ("raw", "windows", 0, 0), 2, {"windows"}),
            (lambda: hand_made("ev-parking", {"N": 1, "K": 2, "M": 1, "E": 4, "windows": [[1, 0]], "demand": [[2, 0]],
                                              "values": [1.0]}),
             ("raw", "demand", 0, 1), 3, {"demand", "windows"}),
            (lambda: gen_portfolio(4, 2, seed=9), ("raw", "B"), 5, {"B"}),
            (lambda: gen_qap(2, seed=5), ("meta", "params"), 5, {"params"}),
        ],
        ids=["ev-presence-two", "ev-demand-outside-window", "portfolio-budget-above-assets", "qap-params-number"],
    )
    def test_rules_across_fields_name_family_and_field(self, make, path, value, fields):
        family = make().family
        with pytest.raises((ValueError, TypeError)) as caught:
            instance_from_json(edited(bare_envelope(make()), path, value))
        assert_names(str(caught.value), family, fields)
