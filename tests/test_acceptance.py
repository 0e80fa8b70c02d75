"""Acceptance checklist for the shipped guarantees.

One test per guarantee, numbered in run order. Each prints a single
PASS/FAIL line (with wall time against its budget) straight to the
terminal, so a full run reads as a checklist even under output capture.
Thresholds marked "frozen" were measured once against independent oracles
and are pinned here as plain constants. Criteria 03-11 measure through
:mod:`qopt._checks`, the code ``qopt verify`` runs on a prefix of each
suite; the thresholds and the independent oracles stay in this file.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from qopt import _checks
from qopt.bench import approximation_ratio
from qopt.problems import gen_labs, gen_maxcut_r3r
from qopt.solvers import brute_force, qaoa_solve


@pytest.fixture
def criterion(capfd):
    @contextmanager
    def _criterion(num, label, budget_s):
        start = time.monotonic()
        try:
            yield
        except BaseException:
            elapsed = time.monotonic() - start
            with capfd.disabled():
                print(f"criterion {num:02d} FAIL {elapsed:7.1f}s  {label}")
            raise
        elapsed = time.monotonic() - start
        ok = elapsed < budget_s
        with capfd.disabled():
            print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {elapsed:7.1f}s  {label}")
        assert ok, f"finished correct but over the {budget_s:.0f}s budget ({elapsed:.1f}s)"

    return _criterion


MAXCUT_SUITE = tuple((n, g) for n in (8, 10, 12, 14, 16) for g in range(4))


def qaoa_suite_ratios(p):
    ratios = []
    for n, graph_seed in MAXCUT_SUITE:
        inst = gen_maxcut_r3r(n, seed=graph_seed)
        ref = brute_force(inst)
        res = qaoa_solve(inst, p=p, optimizer_budget=1000, seed=0)
        ar = approximation_ratio(res.extras["mean_energy"], ref.c_min, ref.c_max)
        ratios.append((n, graph_seed, ar))
    return ratios


class TestAcceptance:
    def test_01_qaoa_p1_ratio_floor(self, criterion):
        with criterion(1, "p=1 mean-energy ratio >= 0.692 on 20 regular graphs", 300):
            for n, graph_seed, ratio in qaoa_suite_ratios(p=1):
                assert ratio >= 0.692, f"n={n} seed={graph_seed}: {ratio:.4f}"

    def test_02_qaoa_p2_ratio_floor(self, criterion):
        with criterion(2, "p=2 mean-energy ratio >= 0.7559 on the same suite", 1200):
            for n, graph_seed, ratio in qaoa_suite_ratios(p=2):
                assert ratio >= 0.7559, f"n={n} seed={graph_seed}: {ratio:.4f}"

    def test_03_encoding_round_trip_and_penalties(self, criterion):
        with criterion(3, "200 QUBO<->Ising round trips and 100 penalty optima", 120):
            assert _checks.round_trip_drift(0, models=200, sizes=range(1, 13)) <= 1e-9
            assert _checks.penalty_gap(0, models=100, n=5) <= 1e-9

    def test_04_single_qubit_ansatz_analytics(self, criterion):
        with criterion(4, "single-qubit ansatz matches a 2x2 matrix oracle", 1):
            def oracle(gamma, beta):
                # independent dense propagation: |+>, diagonal phase, X rotation
                amps = np.full(2, 1 / np.sqrt(2), dtype=complex)
                amps *= np.exp(-1j * gamma * np.array([1.0, -1.0]))
                mixer = np.array(
                    [
                        [np.cos(beta), 1j * np.sin(beta)],
                        [1j * np.sin(beta), np.cos(beta)],
                    ]
                )
                amps = mixer @ amps
                return float(np.real(np.abs(amps) ** 2 @ np.array([1.0, -1.0])))

            assert _checks.single_qubit_drift(points=10, reference=oracle) <= 1e-9

    def test_05_gibbs_exactness(self, criterion):
        def direct(obj, beta):
            table = obj.energies_at(np.arange(1 << obj.n, dtype=np.int64))
            weights = np.exp(-beta * (table - table.min()))
            return weights / weights.sum()

        with criterion(5, "Gibbs weights exact to 1e-12 at four temperatures", 60):
            betas = (0.0, 0.5, 2.0, 10.0)
            assert _checks.gibbs_drift(0, models=20, sizes=range(2, 13), betas=betas, reference=direct) <= 1e-12

    def test_06_grover_search_success_rate(self, criterion):
        with criterion(6, "Grover search hits the optimum on >= 99% of 1000 runs", 300):
            runs = _checks.grover_runs(0, instances=50, sizes=range(6, 11), solver_seeds=20, max_rounds=128)
            assert runs.runs == 1000
            assert runs.rises == 0
            assert runs.wins >= 990, f"only {runs.wins}/1000 runs found the optimum"

    def test_07_slow_anneal_ground_state_overlap(self, criterion):
        # Frozen suite: every member measured >= 0.96 overlap once at freeze time.
        suite = [("pm1", s) for s in range(10)] + [("gaussian", s) for s in (1, 3, 5, 9)]
        with criterion(7, "T=50 anneal reaches >= 0.9 overlap on 14 spin glasses", 120):
            assert _checks.anneal_min_overlap(suite, n=6, T=50.0, steps=500) >= 0.9

    def test_08_labs_optima_and_symmetries(self, criterion):
        def sidelobe_table(k):
            # independent enumeration via explicit lag sums
            idx = np.arange(1 << k, dtype=np.int64)
            signs = (1.0 - 2.0 * ((idx[:, None] >> np.arange(k)) & 1)).astype(np.float64)
            total = np.zeros(1 << k)
            for lag in range(1, k):
                corr = np.einsum("ij,ij->i", signs[:, : k - lag], signs[:, lag:])
                total += corr * corr
            return total

        with criterion(8, "LABS optima match a second enumerator; symmetries hold", 60):
            assert _checks.labs_optimum_gap(range(3, 17), reference=sidelobe_table) == 0.0
            assert brute_force(gen_labs(13)).c_min == 6.0
            assert _checks.labs_symmetry_breaks(0, sequences=1000, lengths=range(2, 33)) == 0

    def test_09_cvar_contract(self, criterion):
        with criterion(9, "CVaR mean/monotonicity/best-sample contract", 10):
            contract = _checks.cvar_contract(0, trials=100, sizes=range(3, 7), shots=range(50, 300))
            assert contract.mean_gap <= 1e-12
            assert contract.rise <= 1e-12
            assert contract.best_gap == 0.0

    def test_10_metrics_and_report_format(self, criterion):
        with criterion(10, "ratio invariances, density cells, replayed bytes", 30):
            assert _checks.ratio_drift(0, draws=200) <= 1e-12
            first, second = _checks.replay_reports(0, maxcut_n=20, spin_glass_n=17, sweeps=20)
            rows = [line.split(",") for line in first.splitlines()[1:]]
            assert rows[0][3] == "16%"
            assert rows[1][3] == "100%"
            assert first == second

    def test_11_decomposition_and_fixing(self, criterion):
        with criterion(11, "component optima concatenate; fixing preserves energies", 60):
            assert _checks.decomposition_gap(0, models=50, block_sizes=range(2, 5)) <= 1e-9
            assert _checks.fixing_drift(0, models=10, sizes=range(5, 11)) <= 1e-9
