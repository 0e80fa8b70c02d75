"""The in-tree minimizers against their scipy references.

scipy is a test dependency only; the reference tests skip without it.
"""

import math

import numpy as np
import pytest

from qopt._minimize import _MAX_TRIALS, _MoreThuente, lbfgs, nelder_mead
from qopt.problems import gen_maxcut_r3r
from qopt.simulator import QaoaParams, qaoa_value_and_gradient

NM_OPTIONS = {"maxfev": 2000, "xatol": 1e-10, "fatol": 1e-12}
LBFGS_OPTIONS = {"ftol": 1e-13, "gtol": 1e-6}
POINT_TOL = 1e-9


@pytest.fixture
def minimize():
    return pytest.importorskip("scipy.optimize").minimize


def recorded(fun):
    """``fun`` that also records every point it is called at."""
    points = []

    def wrapped(x):
        points.append(np.array(x, copy=True))
        return fun(x)

    return wrapped, points


def rosenbrock(x):
    return float((100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2).sum())


def rosenbrock_and_gradient(x):
    grad = np.zeros_like(x)
    inner = x[1:] - x[:-1] ** 2
    grad[:-1] = -400.0 * x[:-1] * inner - 2.0 * (1.0 - x[:-1])
    grad[1:] += 200.0 * inner
    return rosenbrock(x), grad


def quadratic(x):
    return float((np.array([1.0, 3.0, 5.0, 7.0]) * (x - np.array([1.0, -2.0, 0.5, 3.0])) ** 2).sum())


def plateau(x):
    # 0 at the start point only: every reflection and contraction scores 1,
    # so every iteration ends in a shrink towards the start point.
    return 0.0 if np.array_equal(x, PLATEAU_START) else 1.0


PLATEAU_START = np.array([0.3, -0.2])


class TestNelderMeadMatchesScipy:
    @pytest.mark.parametrize(
        "fun, x0, options",
        [
            (rosenbrock, np.array([-1.2, 1.0]), NM_OPTIONS),
            # Zero entries take the absolute 0.00025 initial step.
            (quadratic, np.array([0.0, 0.3, 0.0, -1.0]), NM_OPTIONS),
            (plateau, PLATEAU_START, {"maxfev": 60, "xatol": 1e-10, "fatol": 1e-12}),
            # Cut by maxfev mid-run.
            (rosenbrock, np.array([-1.2, 1.0]), {"maxfev": 37, "xatol": 1e-10, "fatol": 1e-12}),
            # Cut before the first simplex is complete (n + 1 = 5 vertices).
            (quadratic, np.array([0.0, 0.3, 0.0, -1.0]), {"maxfev": 3, "xatol": 1e-10, "fatol": 1e-12}),
        ],
        ids=["rosenbrock", "quadratic-zero-entries", "shrinks", "maxfev-cut", "maxfev-below-simplex"],
    )
    def test_bit_for_bit(self, minimize, fun, x0, options):
        theirs, their_points = recorded(fun)
        ours, our_points = recorded(fun)
        ref = minimize(theirs, x0, method="Nelder-Mead", options=options)
        x, value = nelder_mead(ours, x0, **options)
        assert len(our_points) == len(their_points) <= options["maxfev"]
        for mine, ref_point in zip(our_points, their_points):
            assert mine.tobytes() == ref_point.tobytes()
        assert x.tobytes() == ref.x.tobytes()
        assert value == ref.fun

    def test_plateau_only_shrinks(self):
        # Only shrinking can bring the calls this close to the start point.
        fun, points = recorded(plateau)
        nelder_mead(fun, PLATEAU_START, maxfev=60, xatol=1e-10, fatol=1e-12)
        assert len(points) == 60
        assert np.abs(points[-1] - PLATEAU_START).max() < 1e-6

    def test_objective_exceptions_propagate(self):
        class Stop(Exception):
            pass

        def fun(x):
            raise Stop

        with pytest.raises(Stop):
            nelder_mead(fun, np.zeros(2), **NM_OPTIONS)
        with pytest.raises(Stop):
            lbfgs(fun, np.zeros(2), **LBFGS_OPTIONS)


def double_well(a, b, s, k):
    """t^4 - a t^2 + b t + s sin(k t) with its derivative: a non-convex 1-D
    slice whose line searches reach the rarer Moré–Thuente branches."""

    def value_and_gradient(x):
        t = x[0]
        return float(t**4 - a * t**2 + b * t + s * math.sin(k * t)), np.array([4 * t**3 - 2 * a * t + b + s * k * math.cos(k * t)])

    return value_and_gradient


def nan_below(value_nan, grad_nan, cut, fun):
    """``fun`` whose value and/or gradient is NaN wherever x0 < cut."""

    def value_and_gradient(x):
        f, g = fun(x)
        if x[0] < cut:
            f = math.nan if value_nan else f
            g = np.full_like(x, math.nan) if grad_nan else g
        return f, g

    return value_and_gradient


def qaoa_p2_objective():
    obj = gen_maxcut_r3r(10, seed=1).objective

    def value_and_gradient(x):
        return qaoa_value_and_gradient(obj, QaoaParams(p=2, gammas=tuple(x[:2]), betas=tuple(x[2:])))

    return value_and_gradient


class TestLbfgsMatchesScipy:
    # L-BFGS-B without bounds takes the same steps, with its direction from
    # the compact representation instead of the two-loop recursion, so the
    # two agree in the number of calls and, to rounding, in x and value.
    # Measured gaps (x, value): 1.6e-15 and 1e-23 on the 2-D Rosenbrock,
    # 2.2e-16 and 4.4e-16 in 4-D, 3.6e-15 and 1.4e-14 on the QAOA objective
    # (8e-13 in x from the worst of six random starts). Every call point
    # agrees to POINT_TOL relative; the widest gap, mid-run on the 2-D
    # Rosenbrock, is 2.9e-10. A ``fun_tol`` of None skips the value: after a
    # failed search scipy reports the last trial's value, not the restored
    # point's.
    @pytest.mark.parametrize(
        "make, x0, x_tol, fun_tol",
        [
            (lambda: rosenbrock_and_gradient, np.array([-1.2, 1.0]), 1e-13, 1e-15),
            (lambda: rosenbrock_and_gradient, np.array([-1.2, 1.0, 0.5, 0.3]), 1e-13, 1e-13),
            (qaoa_p2_objective, np.array([0.3, 0.6, 0.5, 0.2]), 1e-11, 1e-13),
            # A trial below f(0) without sufficient decrease: the step on psi.
            (lambda: double_well(1.0, -3.0, 0.0, 0.0), np.array([0.5]), 1e-13, 1e-13),
            # _dcstep with the derivative's magnitude decreasing: the step
            # clamped to stpmax, the bracketed choice above stx, and the
            # cubic through stp and sty (plus a bisection).
            (lambda: double_well(1.0, 3.0, 0.5, 5.0), np.array([1.5]), 1e-13, 1e-13),
            # The same case with stp below stx: stpmin, and the bracketed
            # choice below stx.
            (lambda: double_well(1.0, 3.0, 1.0, 10.0), np.array([1.5]), 1e-13, 1e-13),
            # The cubic through stp and sty with stp above sty.
            (lambda: double_well(1.0, -1.0, 1.0, 5.0), np.array([-2.5]), 1e-13, 1e-13),
            # A search that falls back to the trial it has just evaluated.
            (lambda: double_well(3.0, -3.0, 0.0, 0.0), np.array([-1.75]), 1e-13, 1e-13),
            # A NaN slope makes the next step NaN; the step bound maps it to
            # 0, so the bracketed search retreats to its start and accepts it.
            (lambda: nan_below(False, True, 0.0, lambda x: (float(10.0 * (x * x).sum()), 20.0 * x)),
             np.array([0.1]), 0.0, 0.0),
            # NaN values and slopes on every overshoot; the last search fails.
            (lambda: nan_below(True, True, 0.0, lambda x: (float((x * x).sum() + x[0]), 2.0 * x + [1.0, 0.0])),
             np.array([2.0, 1.0]), 0.0, None),
            # NaN values around the minimizer, met on 62 of 66 calls.
            (lambda: nan_below(True, False, 1.0, lambda x: (float((x**4).sum()), 4.0 * x**3)),
             np.array([3.0, 1.0]), 1e-13, 1e-13),
        ],
        ids=[
            "rosenbrock-2d", "rosenbrock-4d", "qaoa-p2-n10", "psi-step", "decreasing-slope-up",
            "decreasing-slope-down", "cubic-above-sty", "repeated-trial", "nan-slope", "nan-value-and-slope",
            "nan-values",
        ],
    )
    def test_same_calls(self, minimize, make, x0, x_tol, fun_tol):
        fun = make()
        theirs, their_points = recorded(fun)
        ours, our_points = recorded(fun)
        ref = minimize(theirs, x0, jac=True, method="L-BFGS-B", options=LBFGS_OPTIONS)
        x, value = lbfgs(ours, x0, **LBFGS_OPTIONS)
        assert len(our_points) == len(their_points)
        for mine, ref_point in zip(our_points, their_points):
            assert (np.abs(mine - ref_point) <= POINT_TOL * np.maximum(1.0, np.abs(ref_point))).all()
        assert np.abs(x - ref.x).max() <= x_tol
        if fun_tol is not None:
            assert abs(value - ref.fun) <= fun_tol or math.isnan(value) and math.isnan(ref.fun)

    def test_repeated_trial_reuses_its_evaluation(self):
        # On t^4 - 3 t^2 - 3 t from -1.75 a search falls back to the trial it
        # has just evaluated; that trial is not evaluated again, so the run
        # makes 14 calls (as scipy's L-BFGS-B does) where it once made 15.
        fun, points = recorded(double_well(3.0, -3.0, 0.0, 0.0))
        x, value = lbfgs(fun, np.array([-1.75]), **LBFGS_OPTIONS)
        assert len(points) == 14
        assert all(a.tobytes() != b.tobytes() for a, b in zip(points, points[1:]))
        assert abs(x[0] - 1.4236610509974765) <= 1e-13

    def test_failed_search_clears_memory_then_ends(self, monkeypatch):
        # From the fourth call on the gradient points uphill. The search
        # from the last accepted point then fails with the memory in use;
        # the memory is cleared, the retry along -g (unit step) fails too,
        # and with empty memory that ends the run at the accepted point.
        # Each failed search runs all its trials, and a trial at the point
        # just evaluated reuses that call, so trials are counted apart.
        weights = np.array([1.0, 10.0])
        calls, grads, trials = [], [], []

        def fun(x):
            calls.append(x.copy())
            grads.append(2.0 * weights * x * (1.0 if len(calls) <= 3 else -1.0))
            return float((weights * x * x).sum()), grads[-1]

        update = _MoreThuente.update

        def counted(self, *args):
            # Each trial is recorded as the index of the call it was decided on.
            trials.append(len(calls) - 1)
            return update(self, *args)

        monkeypatch.setattr(_MoreThuente, "update", counted)
        x, value = lbfgs(fun, np.ones(2), **LBFGS_OPTIONS)
        failed = trials[-2 * _MAX_TRIALS :]
        accepted = failed[0] - 1
        assert accepted >= 3 and trials[-2 * _MAX_TRIALS - 1] == accepted
        # Every later call is one of their trials; a repeated index is a reused one.
        assert failed == sorted(failed) and set(failed) == set(range(accepted + 1, len(calls)))
        assert x.tobytes() == calls[accepted].tobytes()
        assert value == float((weights * x * x).sum())
        steepest = x - grads[accepted]
        assert calls[failed[0]].tobytes() != steepest.tobytes()
        assert failed[_MAX_TRIALS] > failed[_MAX_TRIALS - 1]
        assert calls[failed[_MAX_TRIALS]].tobytes() == steepest.tobytes()

        # A first trial above f(0) whose slope is NaN leaves a NaN next step,
        # which is bounded to 0: the search retreats to its start, calls it
        # again (as L-BFGS-B does) and accepts it, and the run ends there
        # with no decrease.
        def nan_slope(x):
            calls.append(x.copy())
            return float(10.0 * (x * x).sum()), 20.0 * x if x[0] >= 0 else np.full_like(x, math.nan)

        calls.clear()
        x, value = lbfgs(nan_slope, np.array([0.1]), **LBFGS_OPTIONS)
        assert len(calls) == 3 and calls[1][0] < 0 and calls[2].tobytes() == calls[0].tobytes()
        assert x.tolist() == [0.1] and value == 10.0 * (0.1 * 0.1)

    def test_stops_at_small_gradient_without_a_step(self):
        fun, points = recorded(lambda x: (float((x * x).sum()), 2.0 * x))
        x, value = lbfgs(fun, np.array([1e-8, 0.0]), **LBFGS_OPTIONS)
        assert len(points) == 1 and x.tolist() == [1e-8, 0.0]
