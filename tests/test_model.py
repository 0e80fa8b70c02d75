"""Model layer: energies, conversions, penalties, serialization."""

import json
import math
import re

import numpy as np
import pytest

from qopt import model as model_module
from qopt.model import (
    ConstrainedModel,
    DiagonalObjective,
    InfeasibleConstraintError,
    IsingModel,
    LinearConstraint,
    QuboModel,
    as_count,
    bits_to_index,
    default_penalty,
    density,
    index_to_bits,
    ising_to_qubo,
    model_to_json,
    penalty_encode,
    qubo_to_ising,
)
from qopt.preprocess import fix_variables
from qopt.problems import gen_labs


def naive_qubo_energy(n, terms, offset, bits):
    # Straight loop over the term dict, written independently of the class.
    e = offset
    for (i, j), c in terms.items():
        e += c * bits[i] * bits[j]
    return e


def naive_ising_energy(h, J, offset, spins):
    e = offset
    for i, v in enumerate(h):
        e += v * spins[i]
    for (i, j), c in J.items():
        e += c * spins[i] * spins[j]
    return e


def random_qubo(rng, n, p=0.6):
    terms = {}
    for i in range(n):
        if rng.random() < p:
            terms[(i, i)] = round(float(rng.normal()), 3)
        for j in range(i + 1, n):
            if rng.random() < p:
                terms[(i, j)] = round(float(rng.normal()), 3)
    return QuboModel(n=n, terms=terms, offset=round(float(rng.normal()), 3))


def all_bits(n):
    for idx in range(1 << n):
        yield tuple((idx >> i) & 1 for i in range(n))


class TestIndexing:
    def test_round_trip(self):
        for n in (0, 1, 3, 6):
            for idx in range(1 << n):
                bits = index_to_bits(idx, n)
                assert len(bits) == n
                assert bits_to_index(bits) == idx

    def test_bit_zero_is_variable_zero(self):
        assert index_to_bits(1, 3) == (1, 0, 0)
        assert bits_to_index((1, 0, 0)) == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            index_to_bits(8, 3)
        with pytest.raises(ValueError):
            bits_to_index((0, 2))


class TestAsCount:
    def test_ints_and_numpy_integers_give_ints(self):
        assert type(as_count("n", np.int64(3))) is int and as_count("n", np.int64(3)) == 3
        assert as_count("seed", -7, least=None) == -7
        assert as_count("p", 0, least=0) == 0

    @pytest.mark.parametrize("value", [2.0, 2.5, True, False, np.True_, np.float64(2.0), "2", None])
    def test_non_integers_raise_type_error_naming_the_value(self, value):
        with pytest.raises(TypeError, match=rf"^sweeps must be an integer, got {re.escape(repr(value))}$"):
            as_count("sweeps", value)

    def test_value_below_least_raises_value_error(self):
        with pytest.raises(ValueError, match=r"^n must be at least 2, got 1$"):
            as_count("n", 1, least=2)


class TestIntegerIndices:
    # Each of these was once read through int(), so 0.5 named variable 0
    # and True named variable 1.
    @pytest.mark.parametrize("bad", [0.5, 1.0, True])
    def test_term_and_coupling_indices(self, bad):
        with pytest.raises(TypeError, match="term index must be an integer"):
            QuboModel(n=2, terms={(0, bad): 1.0})
        with pytest.raises(TypeError, match="coupling index must be an integer"):
            IsingModel(n=2, J={(bad, 1): 1.0})
        with pytest.raises(TypeError, match="cubic term index must be an integer"):
            IsingModel(n=3).as_objective(cubic=[(0, bad, 2, 1.0)])
        with pytest.raises(TypeError, match="variable index must be an integer"):
            fix_variables(QuboModel(n=2, terms={(0, 1): 1.0}), {bad: 1})

    @pytest.mark.parametrize("bad", [2.0, True])
    def test_variable_counts(self, bad):
        for make in (QuboModel, IsingModel, lambda n: DiagonalObjective(n=n, program=None)):
            with pytest.raises(TypeError, match="count must be an integer"):
                make(n=bad)

    def test_numpy_integer_count_and_indices_give_the_int_model(self):
        q = QuboModel(n=np.int64(2), terms={(np.int64(0), np.int64(1)): 1.0})
        assert type(q.n) is int and q == QuboModel(n=2, terms={(0, 1): 1.0})
        assert all(type(i) is int for key in q.terms for i in key)
        assert type(IsingModel(n=np.int64(2)).n) is int


class TestQuboModel:
    def test_energy_matches_naive(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            q = random_qubo(rng, 5)
            for bits in all_bits(5):
                assert q.energy(bits) == pytest.approx(
                    naive_qubo_energy(q.n, q.terms, q.offset, bits), abs=1e-12
                )

    def test_energies_at_matches_energy(self):
        rng = np.random.default_rng(12)
        q = random_qubo(rng, 6)
        idx = np.arange(64)
        table = q.as_objective().energies_at(idx)
        for i, bits in zip(idx, all_bits(6)):
            assert table[i] == pytest.approx(q.energy(bits), abs=1e-12)

    def test_from_entries_accumulates_and_normalizes(self):
        q = QuboModel.from_entries(3, [(2, 0, 1.5), (0, 2, 0.5), (1, 1, -1.0)])
        assert q.terms == {(0, 2): 2.0, (1, 1): -1.0}

    def test_from_entries_leaves_out_pairs_that_cancel(self):
        # A pair whose entries sum to exactly zero (a -0.0 too) is no term.
        q = QuboModel.from_entries(3, [(0, 1, 1.5), (1, 0, -1.5), (2, 2, -0.0), (1, 1, 2.0)], offset=0.5)
        assert q.terms == {(1, 1): 2.0} and q.offset == 0.5

    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            QuboModel(n=2, terms={(1, 0): 1.0})
        with pytest.raises(ValueError):
            QuboModel(n=2, terms={(0, 2): 1.0})
        with pytest.raises(ValueError):
            QuboModel(n=2, terms={(0, 1): float("nan")})
        with pytest.raises(ValueError, match="^offset must be a finite real, got inf$"):
            QuboModel(n=2, offset=math.inf)

    def test_rejects_bad_assignment(self):
        q = QuboModel(n=2, terms={(0, 1): 1.0})
        with pytest.raises(ValueError):
            q.energy((0,))
        with pytest.raises(ValueError):
            q.energy((0, 2))

    def test_fractional_entries_are_not_truncated(self):
        # Entries were once converted by int() before the bit check, so
        # (0.7, 0) read as (0, 0) and (0.9, 0.2, 1) as (0, 0, 1).
        q = QuboModel(n=3, terms={(0, 0): 1.0, (0, 1): 2.0, (2, 2): -1.0})
        obj = q.as_objective()
        for bad in [(0.7, 0, 0), (0.9, 0.2, 1), (1, 0, 1.3), (np.float64(0.5), 0, 0)]:
            with pytest.raises(ValueError, match="entries must be 0 or 1"):
                q.energy(bad)
            with pytest.raises(ValueError, match="entries must be 0 or 1"):
                obj.value(bad)

    def test_exact_bit_values_of_any_type_are_accepted(self):
        q = QuboModel(n=3, terms={(0, 0): 1.0, (0, 1): 2.0, (2, 2): -1.0})
        obj = q.as_objective()
        for bits in [(1.0, np.int64(1), True), np.array([1, 1, 1]), [1, 1.0, np.True_]]:
            assert q.energy(bits) == obj.value(bits) == obj.value((1, 1, 1)) == 2.0

    def test_zero_variable_model(self):
        q = QuboModel(n=0, terms={}, offset=3.5)
        assert q.energy(()) == 3.5

    def test_helper_views(self):
        q = QuboModel(n=3, terms={(0, 0): 2.0, (0, 1): -1.0, (1, 2): 0.0})
        assert q.quadratic_pairs() == {(0, 1)}


class TestIsingModel:
    def test_energy_matches_naive(self):
        rng = np.random.default_rng(13)
        h = tuple(round(float(v), 3) for v in rng.normal(size=4))
        J = {(0, 1): 0.5, (1, 3): -1.25, (0, 2): 2.0}
        m = IsingModel(n=4, h=h, J=J, offset=0.75)
        for bits in all_bits(4):
            spins = tuple(1 - 2 * b for b in bits)
            assert m.energy(spins) == pytest.approx(
                naive_ising_energy(h, J, 0.75, spins), abs=1e-12
            )

    def test_energies_at_uses_bit_to_spin_map(self):
        m = IsingModel(n=2, h=(1.0, 0.0), J={(0, 1): 1.0})
        # index 0 -> bits (0,0) -> spins (+1,+1): energy 1 + 1 = 2
        # index 1 -> bits (1,0) -> spins (-1,+1): energy -1 - 1 = -2
        table = m.as_objective().energies_at(np.arange(4))
        assert list(table) == [2.0, -2.0, 0.0, 0.0]

    def test_fields_from_a_numpy_array(self):
        # A 1-D array once failed on numpy's "truth value of an array is ambiguous".
        m = IsingModel(n=2, h=np.array([0.5, -1.0]))
        assert m.h == (0.5, -1.0) and all(type(v) is float for v in m.h)
        assert m == IsingModel(n=2, h=(0.5, -1.0))

    def test_default_fields_are_zero(self):
        m = IsingModel(n=3)
        assert m.h == (0.0, 0.0, 0.0)
        assert m.energy((1, 1, 1)) == 0.0

    def test_rejects_bad_couplings(self):
        with pytest.raises(ValueError):
            IsingModel(n=2, J={(0, 0): 1.0})
        with pytest.raises(ValueError):
            IsingModel(n=2, J={(1, 0): 1.0})
        with pytest.raises(ValueError):
            IsingModel(n=2, h=(1.0,))
        with pytest.raises(ValueError, match="^h must be a finite real, got nan$"):
            IsingModel(n=2, h=(1.0, math.nan))
        # The keys of a mapping were once read as the fields: {0: 0.5, 1: 0.5} gave h = (0.0, 1.0).
        with pytest.raises(TypeError, match="^h must be a sequence of 2 fields, got a mapping$"):
            IsingModel(n=2, h={0: 0.5, 1: 0.5})
        with pytest.raises(TypeError, match="^h must be a sequence of 2 fields, got a 2-D ndarray$"):
            IsingModel(n=2, h=np.array([[0.5], [0.5]]))
        with pytest.raises(TypeError, match="^h must be a sequence of 2 fields, got a 0-D float$"):
            IsingModel(n=2, h=0.5)
        with pytest.raises(ValueError, match=r"^J\[0, 1\] must be a finite real, got inf$"):
            IsingModel(n=2, J={(0, 1): math.inf})
        with pytest.raises(ValueError, match="^offset must be a finite real, got -inf$"):
            IsingModel(n=2, offset=-math.inf)

    def test_rejects_bad_cubic_terms(self):
        # Family payloads are refused before they get here; the model keeps its own check.
        for term in [(0, 0, 1, 1.0), (0, 1, 3, 1.0)]:
            with pytest.raises(ValueError, match=r"needs three distinct spins in 0\.\.2"):
                IsingModel(n=3).as_objective([term])

    def test_rejects_bad_spins(self):
        m = IsingModel(n=2, h=(1.0, 1.0))
        with pytest.raises(ValueError):
            m.energy((0, 1))
        with pytest.raises(ValueError, match="spin vector has length 1, model has 2 spins"):
            m.energy((1,))

    def test_fractional_spins_are_not_rounded(self):
        # 1.3 once read as +1 and -1.9 as -1.
        m = IsingModel(n=2, h=(1.0, 2.0), J={(0, 1): 0.5})
        for bad in [(1.3, 1), (1, -1.9), (0.5, -1)]:
            with pytest.raises(ValueError, match="spin entries must be -1 or \\+1"):
                m.energy(bad)
        assert m.energy((1.0, np.int64(-1))) == m.energy((1, -1)) == -1.5


class TestConversions:
    def test_qubo_ising_round_trip_energies(self):
        # The documented contract: both forms give identical energies on
        # every assignment, and the round trip is exact.
        rng = np.random.default_rng(14)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            q = random_qubo(rng, n)
            m = qubo_to_ising(q)
            q2 = ising_to_qubo(m)
            for bits in all_bits(n):
                spins = tuple(1 - 2 * b for b in bits)
                e = q.energy(bits)
                assert m.energy(spins) == pytest.approx(e, abs=1e-9)
                assert q2.energy(bits) == pytest.approx(e, abs=1e-9)

    def test_single_linear_term(self):
        # x0 with coefficient 1: x = (1 - z)/2, so h = -1/2, offset 1/2.
        m = qubo_to_ising(QuboModel(n=1, terms={(0, 0): 1.0}))
        assert m.h == (-0.5,)
        assert m.offset == 0.5
        assert m.J == {}

    def test_single_pair_term(self):
        m = qubo_to_ising(QuboModel(n=2, terms={(0, 1): 1.0}))
        assert m.J == {(0, 1): 0.25}
        assert m.h == (-0.25, -0.25)
        assert m.offset == 0.25

    def test_single_field(self):
        q = ising_to_qubo(IsingModel(n=1, h=(1.0,)))
        assert q.terms == {(0, 0): -2.0}
        assert q.offset == 1.0

    def test_single_coupling(self):
        q = ising_to_qubo(IsingModel(n=2, J={(0, 1): 1.0}))
        assert q.terms == {(0, 0): -2.0, (1, 1): -2.0, (0, 1): 4.0}
        assert q.offset == 1.0

    def test_objective_views_agree(self):
        rng = np.random.default_rng(15)
        q = random_qubo(rng, 5)
        obj_q = q.as_objective()
        obj_i = qubo_to_ising(q).as_objective()
        assert isinstance(obj_q.source, QuboModel)
        assert isinstance(obj_i.source, IsingModel)
        for bits in all_bits(5):
            assert obj_i.value(bits) == pytest.approx(obj_q.value(bits), abs=1e-9)


class TestDiagonalObjective:
    def test_native_program(self):
        # A bare program backs an objective with no quadratic source.
        program = QuboModel(n=3, terms={(i, i): 1.0 for i in range(3)}).as_objective().program
        obj = DiagonalObjective(n=3, program=program)
        assert obj.source is None
        assert obj.value((1, 0, 1)) == 2.0
        assert obj.program.table().tolist() == [0.0, 1.0, 1.0, 2.0, 1.0, 2.0, 2.0, 3.0]

    def test_rejects_non_finite_energy(self):
        # 1e308 + 1e308 overflows to inf in the replay of the set bit.
        obj = QuboModel(n=1, terms={(0, 0): 1e308}, offset=1e308).as_objective()
        assert obj.value((0,)) == 1e308
        with pytest.raises(ValueError, match="non-finite energy inf"):
            obj.value((1,))

    def test_energies_at_without_table_fn(self):
        # Packed indices are priced by the replay; no table is built or cached.
        obj = QuboModel(n=3, terms={(0, 0): 1.0, (2, 2): 2.0}).as_objective()
        table = obj.energies_at(np.arange(8))
        assert list(table) == [0.0, 1.0, 0.0, 1.0, 2.0, 3.0, 2.0, 3.0]
        assert obj._cache == {}

    def test_spin_model_of_each_view(self, monkeypatch):
        # An Ising view hands back its source; a QUBO view converts once, and
        # the result equals qubo_to_ising's bit for bit.
        ising = IsingModel(n=3, h=(0.5, 0.0, -1.0), J={(0, 1): 2.0, (1, 2): -0.25}, offset=1.0)
        assert ising.as_objective().spin_model() is ising
        q = random_qubo(np.random.default_rng(16), 6)
        obj = q.as_objective()
        calls = []
        monkeypatch.setattr(model_module, "qubo_to_ising", lambda m: calls.append(m) or qubo_to_ising(m))
        spin = obj.spin_model()
        assert obj.spin_model() is spin
        assert calls == [q]

        def hexed(m):
            return m.n, [v.hex() for v in m.h], [(k, v.hex()) for k, v in m.J.items()], m.offset.hex()

        assert hexed(spin) == hexed(qubo_to_ising(q))

    def test_spin_model_is_none_without_quadratic_source(self):
        cubic = IsingModel(n=3, J={(0, 1): 1.0}).as_objective(cubic=[(0, 1, 2, 0.5)])
        for obj in (gen_labs(5).objective, cubic):
            assert obj.spin_model() is None


def brute_force_min(obj, feasible=None):
    best = math.inf
    best_bits = None
    for bits in all_bits(obj.n):
        if feasible is not None and not feasible(bits):
            continue
        e = obj.value(bits)
        if e < best - 1e-12:
            best, best_bits = e, bits
    return best, best_bits


class TestPenaltyEncode:
    def test_no_constraints_returns_objective(self):
        q = QuboModel(n=2, terms={(0, 1): 1.0})
        cm = ConstrainedModel(objective=q)
        assert penalty_encode(cm) is q

    def test_equality_expansion_by_hand(self):
        # P (x0 + x1 - 1)^2 = P (x0 + x1 + 2 x0 x1 - 2 x0 - 2 x1 + 1)
        q = QuboModel(n=2, terms={})
        cm = ConstrainedModel(objective=q, equalities=(LinearConstraint((1.0, 1.0), 1.0),))
        enc = penalty_encode(cm, penalty=3.0)
        assert enc.n == 2
        assert enc.terms == {(0, 0): -3.0, (1, 1): -3.0, (0, 1): 6.0}
        assert enc.offset == 3.0

    def test_slack_bit_count_examples(self):
        # c.x <= d with span d - min(c.x): 5 - 0 = 5 needs 3 bits; a tight
        # bound with span 0 still gets one slack bit.
        q = QuboModel(n=3, terms={})
        enc = penalty_encode(
            ConstrainedModel(objective=q, inequalities=(LinearConstraint((1.0, 2.0, 2.0), 5.0),))
        )
        assert enc.n == 3 + 3
        enc2 = penalty_encode(
            ConstrainedModel(
                objective=QuboModel(n=2, terms={}),
                inequalities=(LinearConstraint((-1.0, -1.0), -2.0),),
            )
        )
        assert enc2.n == 2 + 1

    def test_slack_bits_appended_in_constraint_order(self):
        q = QuboModel(n=2, terms={})
        cm = ConstrainedModel(
            objective=q,
            inequalities=(
                LinearConstraint((1.0, 0.0), 1.0),  # span 1 -> 1 bit (var 2)
                LinearConstraint((1.0, 1.0), 2.0),  # span 2 -> 2 bits (vars 3, 4)
            ),
        )
        enc = penalty_encode(cm)
        assert enc.n == 5
        # Var 2 couples only with constraint-1 variables, var 3/4 with both originals.
        pairs = enc.quadratic_pairs()
        assert (0, 2) in pairs and (1, 2) not in pairs
        assert (0, 3) in pairs and (1, 3) in pairs and (3, 4) in pairs

    def test_infeasible_equality(self):
        q = QuboModel(n=2, terms={})
        with pytest.raises(InfeasibleConstraintError):
            penalty_encode(
                ConstrainedModel(objective=q, equalities=(LinearConstraint((0.0, 0.0), 1.0),))
            )

    def test_infeasible_inequality(self):
        q = QuboModel(n=2, terms={})
        with pytest.raises(InfeasibleConstraintError):
            penalty_encode(
                ConstrainedModel(objective=q, inequalities=(LinearConstraint((1.0, 1.0), -1.0),))
            )

    def test_non_integer_inequality_rejected(self):
        q = QuboModel(n=2, terms={})
        with pytest.raises(ValueError):
            penalty_encode(
                ConstrainedModel(objective=q, inequalities=(LinearConstraint((0.5, 1.0), 1.0),))
            )
        # Constraint data that is not finite, or that does not match the
        # objective, is refused before any encoding.
        with pytest.raises(ValueError, match="^coeffs must be a finite real, got nan$"):
            LinearConstraint((1.0, math.nan), 1.0)
        with pytest.raises(ValueError, match="^bound must be a finite real, got inf$"):
            LinearConstraint((1.0, 1.0), math.inf)
        with pytest.raises(ValueError, match="constraint has 3 coefficients, objective has 2 variables"):
            ConstrainedModel(objective=q, equalities=(LinearConstraint((1.0, 1.0, 1.0), 1.0),))

    def test_redundant_zero_equality_dropped(self):
        q = QuboModel(n=2, terms={(0, 1): 1.0})
        enc = penalty_encode(
            ConstrainedModel(objective=q, equalities=(LinearConstraint((0.0, 0.0), 0.0),))
        )
        assert enc.terms == q.terms and enc.n == q.n

    def test_penalty_optimum_matches_constrained_brute_force(self):
        # Independent oracle: enumerate the constrained problem directly and
        # compare against the unconstrained optimum of the compiled model
        # restricted to the original variables.
        rng = np.random.default_rng(16)
        for trial in range(60):
            n = int(rng.integers(2, 6))
            q = QuboModel.from_entries(
                n,
                [
                    (i, j, float(rng.integers(-4, 5)))
                    for i in range(n)
                    for j in range(i, n)
                    if rng.random() < 0.7
                ],
                offset=float(rng.integers(-3, 4)),
            )
            eqs = []
            ineqs = []
            if trial % 3 != 2:
                k = int(rng.integers(1, min(n, 3) + 1))
                eqs.append(LinearConstraint(tuple(1.0 if i < k else 0.0 for i in range(n)), 1.0))
            if trial % 2 == 0:
                coeffs = tuple(float(rng.integers(-2, 3)) for _ in range(n))
                lo = sum(min(c, 0.0) for c in coeffs)
                hi = sum(max(c, 0.0) for c in coeffs)
                bound = float(rng.integers(int(lo), int(hi) + 1))
                ineqs.append(LinearConstraint(coeffs, bound))
            if not eqs and not ineqs:
                continue
            cm = ConstrainedModel(objective=q, equalities=tuple(eqs), inequalities=tuple(ineqs))

            def feasible(bits):
                for con in cm.equalities:
                    if abs(sum(c * b for c, b in zip(con.coeffs, bits)) - con.bound) > 1e-9:
                        return False
                for con in cm.inequalities:
                    if sum(c * b for c, b in zip(con.coeffs, bits)) > con.bound + 1e-9:
                        return False
                return True

            if not any(feasible(bits) for bits in all_bits(n)):
                # Joint infeasibility across constraints is out of scope for
                # compile-time detection; the soundness contract covers
                # feasible instances only.
                continue
            best_con, _ = brute_force_min(q.as_objective(), feasible)
            enc = penalty_encode(cm)
            best_enc, bits_enc = brute_force_min(enc.as_objective())
            assert best_enc == pytest.approx(best_con, abs=1e-9)
            assert feasible(bits_enc[:n])

    def test_rejects_non_positive_penalty(self):
        cm = ConstrainedModel(
            objective=QuboModel(n=1, terms={}),
            equalities=(LinearConstraint((1.0,), 1.0),),
        )
        with pytest.raises(ValueError, match="^penalty must be a positive finite real, got 0.0$"):
            penalty_encode(cm, penalty=0.0)

    def test_default_penalty_value(self):
        q = QuboModel(n=2, terms={(0, 0): -2.0, (0, 1): 3.0})
        assert default_penalty(q) == 6.0


class TestDensity:
    def test_complete_graph_is_one(self):
        q = QuboModel(n=4, terms={(i, j): 1.0 for i in range(4) for j in range(i + 1, 4)})
        assert density(q) == 1.0

    def test_counts_only_nonzero_pairs(self):
        q = QuboModel(n=4, terms={(0, 1): 1.0, (2, 3): 0.0, (1, 1): 5.0})
        assert density(q) == pytest.approx(1 / 6)

    def test_ising_density(self):
        m = IsingModel(n=4, J={(0, 1): 1.0, (1, 2): -1.0})
        assert density(m) == pytest.approx(2 / 6)

    def test_rejects_tiny_models(self):
        with pytest.raises(ValueError):
            density(QuboModel(n=1, terms={}))
        with pytest.raises(TypeError, match="density needs a quadratic model, got DiagonalObjective"):
            density(QuboModel(n=2).as_objective())


class TestJson:
    def test_qubo_round_trip(self):
        q = QuboModel(n=3, terms={(0, 1): -1.5, (2, 2): 2.0}, offset=0.25)
        data = model_to_json(q)
        assert data == {"n": 3, "terms": [[0, 1, -1.5], [2, 2, 2.0]], "offset": 0.25}
        assert json.loads(json.dumps(data)) == data
        with pytest.raises(TypeError, match="cannot serialize IsingModel"):
            model_to_json(IsingModel(n=1))

    def test_constrained_round_trip(self):
        cm = ConstrainedModel(
            objective=QuboModel(n=2, terms={(0, 1): 1.0}),
            equalities=(LinearConstraint((1.0, 1.0), 1.0),),
            inequalities=(LinearConstraint((1.0, 0.0), 1.0),),
        )
        data = model_to_json(cm)
        assert data == {
            "n": 2,
            "terms": [[0, 1, 1.0]],
            "offset": 0.0,
            "constraints": {
                "equalities": [{"coeffs": [1.0, 1.0], "bound": 1.0}],
                "inequalities": [{"coeffs": [1.0, 0.0], "bound": 1.0}],
            },
        }
        assert json.loads(json.dumps(data)) == data
