"""Pre-solve reductions: exactness of decomposition and fixing."""

import numpy as np
import pytest

from qopt.model import QuboModel
from qopt.preprocess import decompose_components, fix_variables


def all_bits(n):
    for idx in range(1 << n):
        yield tuple((idx >> i) & 1 for i in range(n))


def brute(q):
    table = q.as_objective().energies_at(np.arange(1 << q.n))
    idx = int(table.argmin())
    return float(table[idx]), tuple((idx >> i) & 1 for i in range(q.n))


def random_sparse(rng, n, pair_prob=0.18):
    terms = {}
    for i in range(n):
        if rng.random() < 0.7:
            terms[(i, i)] = float(rng.integers(-5, 6))
        for j in range(i + 1, n):
            if rng.random() < pair_prob:
                terms[(i, j)] = float(rng.integers(-5, 6))
    return QuboModel(n=n, terms=terms, offset=float(rng.integers(-3, 4)))


class TestDecompose:
    def test_two_disjoint_edges(self):
        q = QuboModel(n=4, terms={(0, 1): 1.0, (2, 3): -2.0})
        dec = decompose_components(q)
        assert len(dec) == 2
        sizes = [sub.n for sub, _ in dec]
        assert sizes == [2, 2]
        maps = [m for _, m in dec]
        assert maps == [(0, 1), (2, 3)]

    def test_complete_graph_single_component(self):
        q = QuboModel(n=5, terms={(i, j): 1.0 for i in range(5) for j in range(i + 1, 5)})
        dec = decompose_components(q)
        assert len(dec) == 1
        assert dec[0][1] == (0, 1, 2, 3, 4)

    def test_isolated_variables_are_singletons(self):
        q = QuboModel(n=3, terms={(1, 1): 2.0})
        dec = decompose_components(q)
        assert [m for _, m in dec] == [(0,), (1,), (2,)]

    def test_offset_on_first_component_only(self):
        q = QuboModel(n=4, terms={(0, 1): 1.0, (2, 3): 1.0}, offset=7.0)
        dec = decompose_components(q)
        assert dec[0][0].offset == 7.0
        assert dec[1][0].offset == 0.0

    def test_index_maps_partition_range(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            q = random_sparse(rng, int(rng.integers(1, 13)))
            dec = decompose_components(q)
            seen = sorted(v for _, m in dec for v in m)
            assert seen == list(range(q.n))
            for sub, index_map in dec:
                assert all(0 <= i <= j < sub.n for i, j in sub.terms)

    def test_component_optima_concatenate_to_global(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            q = random_sparse(rng, 12)
            dec = decompose_components(q)
            parts = [brute(sub) for sub, _ in dec]
            merged = [0] * q.n
            for (_, index_map), (_, bits) in zip(dec, parts):
                for local, original in enumerate(index_map):
                    merged[original] = bits[local]
            total = sum(value for value, _ in parts)
            best, _ = brute(q)
            assert total == pytest.approx(best, abs=1e-12)
            assert q.energy(merged) == pytest.approx(best, abs=1e-12)

    def test_empty_model(self):
        dec = decompose_components(QuboModel(n=0, terms={}, offset=1.5))
        assert len(dec) == 1
        assert dec[0][0].offset == 1.5


class TestFixVariables:
    def test_fix_nothing_is_identity(self):
        q = QuboModel(n=3, terms={(0, 1): 1.0}, offset=2.0)
        assert fix_variables(q, {}) is q

    def test_single_pair_example(self):
        q = QuboModel(n=2, terms={(0, 1): 2.0})
        r = fix_variables(q, {0: 1})
        assert r.n == 1
        assert r.terms == {(0, 0): 2.0}
        # Both completions agree with the original.
        assert r.energy((0,)) == q.energy((1, 0))
        assert r.energy((1,)) == q.energy((1, 1))

    def test_fix_to_zero_drops_couplings(self):
        q = QuboModel(n=2, terms={(0, 1): 2.0, (1, 1): 1.0})
        r = fix_variables(q, {0: 0})
        assert r.terms == {(0, 0): 1.0}

    def test_fix_all_leaves_constant(self):
        q = QuboModel(n=3, terms={(0, 1): 1.0, (2, 2): -2.0}, offset=0.5)
        for bits in all_bits(3):
            r = fix_variables(q, dict(enumerate(bits)))
            assert r.n == 0
            assert r.offset == pytest.approx(q.energy(bits), abs=1e-12)

    def test_energy_consistency_all_completions(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(2, 11))
            q = random_sparse(rng, n, pair_prob=0.4)
            k = int(rng.integers(1, n + 1))
            which = sorted(rng.choice(n, size=k, replace=False).tolist())
            assignment = {v: int(rng.integers(0, 2)) for v in which}
            r = fix_variables(q, assignment)
            free = [v for v in range(n) if v not in assignment]
            assert r.n == len(free)
            for y in all_bits(len(free)):
                merged = [0] * n
                for v, b in assignment.items():
                    merged[v] = b
                for pos, v in enumerate(free):
                    merged[v] = y[pos]
                assert r.energy(y) == pytest.approx(q.energy(merged), abs=1e-12)

    def test_rejects_bad_indices(self):
        q = QuboModel(n=2, terms={})
        with pytest.raises(ValueError):
            fix_variables(q, {2: 1})
        with pytest.raises(ValueError):
            fix_variables(q, {0: 2})


class TestDecompositionType:
    def test_components_are_models_with_maps(self):
        dec = decompose_components(QuboModel(n=2, terms={(0, 1): 1.0}))
        assert isinstance(dec, tuple)
        sub, index_map = dec[0]
        assert isinstance(sub, QuboModel)
        assert index_map == (0, 1)
