"""One energy path: table, per-index replay and value() of the model views."""

import re

import numpy as np
import pytest

from qopt.model import IsingModel, QuboModel, index_to_bits
from qopt.problems import gen_labs, gen_portfolio, gen_qap, gen_spin_glass
from qopt.simulator import energy_table
from qopt.solvers import brute_force


def spin(idx, i):
    return 1.0 - 2.0 * ((idx >> i) & 1)


def per_term_qubo(q, idx):
    """The per-term QUBO formula the tables were built from before doubling."""
    out = np.full(idx.shape, q.offset, dtype=np.float64)
    for (i, j), c in q.terms.items():
        bi = (idx >> i) & 1
        out += c * bi if i == j else c * (bi & ((idx >> j) & 1))
    return out


def per_term_ising(m, idx, cubic=()):
    """The per-term spin formula, cubic terms included."""
    out = np.full(idx.shape, m.offset, dtype=np.float64)
    for i, v in enumerate(m.h):
        if v != 0.0:
            out += v * spin(idx, i)
    for (i, j), c in m.J.items():
        out += c * spin(idx, i) * spin(idx, j)
    for a, b, c, w in cubic:
        out = out + w * spin(idx, a) * spin(idx, b) * spin(idx, c)
    return out


def gaussian_qubo(n, rng):
    terms = {(i, j): float(rng.normal()) for i in range(n) for j in range(i, n) if rng.random() < 0.7}
    return QuboModel(n=n, terms=terms, offset=float(rng.normal()))


def qubo_case(q):
    return q.as_objective(), lambda idx: per_term_qubo(q, idx), sum(map(abs, q.terms.values())) + abs(q.offset)


def sk_with_fields(n, rng):
    h = tuple(float(v) for v in rng.normal(size=n))
    J = {(i, j): float(rng.normal()) for i in range(n) for j in range(i + 1, n)}
    m = IsingModel(n=n, h=h, J=J, offset=float(rng.normal()))
    scale = sum(map(abs, h)) + sum(map(abs, J.values())) + abs(m.offset)
    return m.as_objective(), lambda idx: per_term_ising(m, idx), scale


def cubic_spin_glass(n, rng):
    raw = gen_spin_glass("complete", n, dist="gaussian", seed=int(rng.integers(1000)), cubic_terms=4).raw
    m = IsingModel(n=n, J={(u, v): c for (u, v), c in zip(raw["edges"], raw["couplings"])})
    scale = sum(map(abs, raw["couplings"])) + sum(abs(t[3]) for t in raw["cubic"])
    return m.as_objective(raw["cubic"]), lambda idx: per_term_ising(m, idx, raw["cubic"]), scale


def portfolio(n, rng):
    return qubo_case(gen_portfolio(n, max(1, n // 3), seed=int(rng.integers(1000))).objective.source)


def qap(n, rng):
    return qubo_case(gen_qap(int(round(n**0.5)), seed=int(rng.integers(1000))).objective.source)


# Builder and variable counts per family; QAP on m facilities has m^2 variables.
FAMILIES = {
    "gaussian-qubo": (lambda n, rng: qubo_case(gaussian_qubo(n, rng)), range(1, 15)),
    "sk-fields": (sk_with_fields, range(1, 15)),
    "cubic-spin-glass": (cubic_spin_glass, range(3, 15)),
    "portfolio": (portfolio, range(2, 15)),
    "qap": (qap, (4, 9)),
}
CASES = [(name, n) for name, (_, sizes) in FAMILIES.items() for n in sizes]


def build(name, n):
    rng = np.random.default_rng([n, sorted(FAMILIES).index(name)])
    return FAMILIES[name][0](n, rng)


@pytest.mark.parametrize("name,n", CASES)
def test_table_replay_and_value_agree(name, n):
    obj, _, _ = build(name, n)
    table = energy_table(obj)
    if obj.n <= 8:
        idx = np.arange(1 << obj.n)
    else:
        idx = np.random.default_rng(obj.n).integers(0, 1 << obj.n, size=500)
    assert np.array_equal(obj.energies_at(idx), table[idx])
    assert [obj.value(index_to_bits(int(i), obj.n)) for i in idx] == table[idx].tolist()


@pytest.mark.parametrize("name,n", CASES)
def test_table_within_rounding_of_per_term_formula(name, n):
    obj, formula, scale = build(name, n)
    want = formula(np.arange(1 << obj.n, dtype=np.int64))
    assert np.max(np.abs(energy_table(obj) - want)) <= 1e-12 * (1.0 + scale)


def test_value_beyond_packed_indices():
    q = gaussian_qubo(70, np.random.default_rng(70))
    bits = tuple(int(b) for b in np.random.default_rng(71).integers(0, 2, size=70))
    assert q.as_objective().value(bits) == pytest.approx(q.energy(bits), abs=1e-9)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_table_is_built_without_pricing_indices(name, energies_at_calls):
    obj, _, _ = build(name, 9)
    energy_table(obj)
    assert energies_at_calls == []


@pytest.mark.parametrize("name,n", [("gaussian-qubo", 10), ("sk-fields", 10), ("cubic-spin-glass", 21)])
def test_streamed_enumeration_matches_table(name, n, monkeypatch):
    obj, _, _ = build(name, n)
    table = obj.program.table()
    monkeypatch.setenv("QOPT_STATEVECTOR_CAP", str(n - 4))
    res = brute_force(obj)
    assert "energy_table" not in obj._cache
    assert (res.c_min, res.c_max) == (table.min(), table.max())
    assert res.argmin.tolist() == np.flatnonzero(table == table.min()).tolist()


@pytest.mark.parametrize(
    "obj,indices,bad",
    [
        (QuboModel(n=2, terms={(0, 0): 1.0, (1, 1): 2.0}).as_objective(), [4, 5, -1], "4 is outside [0, 2^2)"),
        (QuboModel(n=2, terms={(0, 0): 1.0}).as_objective(), [[0, 3], [-1, 2]], "-1 is outside [0, 2^2)"),
        (gen_labs(3).objective, [8, -1], "8 is outside [0, 2^3)"),
        (gen_labs(3).objective, [-1], "-1 is outside [0, 2^3)"),
    ],
)
def test_out_of_range_indices_are_refused(obj, indices, bad):
    # Both programs read only bits 0..n-1, so an unchecked index outside
    # [0, 2^n) would be priced as some other pattern.
    with pytest.raises(ValueError, match=re.escape(f"pattern index {bad} for {obj.n} variables")):
        obj.energies_at(np.array(indices))
