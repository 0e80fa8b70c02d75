"""The two minimizers QAOA training uses, so that it needs no scipy.

* :func:`nelder_mead` ports scipy 1.17's ``_minimize_neldermead``
  (BSD-3-Clause) for the unbounded, non-adaptive case. It builds the same
  initial simplex, applies the same steps and ``argsort`` reordering, and
  stops before a call beyond ``maxfev``, so it evaluates the same points
  bit for bit.
* :func:`lbfgs` is L-BFGS (Liu & Nocedal, Math. Prog. 45, 1989) with the
  settings scipy's L-BFGS-B runs on a problem without bounds: the last 10
  pairs, a first step of min(1/|d|, 1e10) and then 1, and the Moré–Thuente
  line search (MINPACK-2 ``dcsrch``/``dcstep``, ported from scipy's
  ``optimize/_dcsrch.py``). It takes the same steps as L-BFGS-B up to
  rounding, which differs because L-BFGS-B forms its direction from the
  compact representation and this code by the two-loop recursion.

Inner products are elementwise products followed by ``sum``, never a BLAS
dot. An exception raised by the objective propagates unchanged.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

__all__ = ["nelder_mead", "lbfgs"]

# Nelder-Mead: reflection, expansion, contraction and shrink coefficients,
# and the initial simplex's relative step (absolute for a zero entry).
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025

# L-BFGS: pairs kept, largest step, line-search trials, and the line
# search's sufficient-decrease, curvature and interval-width tolerances.
_MEMORY = 10
_STEP_MAX = 1e10
_MAX_TRIALS = 20
_LS_FTOL, _LS_GTOL, _LS_XTOL = 1e-3, 0.9, 0.1
_EPS = float(np.finfo(float).eps)


class _CallsSpent(Exception):
    """Internal: the next call would exceed ``maxfev``."""


def nelder_mead(fun, x0, maxfev: int, xatol: float, fatol: float) -> tuple[np.ndarray, float]:
    """Minimize ``fun`` by the Nelder-Mead simplex method from ``x0``.

    Stops once every vertex lies within ``xatol`` of the best in each
    coordinate and within ``fatol`` of it in value, or before a call that
    would exceed ``maxfev``. Returns the best vertex and the least value.
    """
    calls = 0

    def func(x: np.ndarray) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _CallsSpent
        calls += 1
        return fun(np.copy(x))

    x0 = np.asarray(x0, dtype=float).ravel()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim[k + 1] = y
    fsim = np.full((n + 1,), np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = func(sim[k])
    except _CallsSpent:
        pass
    # scipy sorts here twice; with ties among more than 16 vertices numpy's
    # introsort need not leave a sorted array as it is.
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    while calls < maxfev:
        try:
            if np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + _RHO) * xbar - _RHO * sim[-1]
            fxr = func(xr)
            doshrink = False
            if fxr < fsim[0]:
                xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
                fxe = func(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                # Outside contraction.
                xc = (1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1]
                fxc = func(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:
                # Inside contraction.
                xcc = (1 - _PSI) * xbar + _PSI * sim[-1]
                fxcc = func(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True
            if doshrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + _SIGMA * (sim[j] - sim[0])
                    fsim[j] = func(sim[j])
        except _CallsSpent:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], float(np.min(fsim))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float((a * b).sum())


def _direction(g: np.ndarray, memory: deque, h0: float) -> np.ndarray:
    # Two-loop recursion: -H g for the inverse Hessian built from the stored
    # (s, y, s'y) on H0 = h0 I (the identity while the memory is empty).
    q = g
    alphas = []
    for s, y, sy in reversed(memory):
        alpha = _dot(s, q) / sy
        q = q - alpha * y
        alphas.append(alpha)
    r = h0 * q if memory else q
    for (s, y, sy), alpha in zip(memory, reversed(alphas)):
        r = r + s * (alpha - _dot(y, r) / sy)
    return -r


def lbfgs(fun_and_grad, x0, ftol: float, gtol: float) -> tuple[np.ndarray, float]:
    """Minimize a smooth function, ``fun_and_grad(x) -> (value, gradient)``,
    from ``x0`` by L-BFGS.

    Stops once no gradient entry exceeds ``gtol`` in magnitude, or once an
    iteration lowers the value by at most ``ftol * max(|f_old|, |f|, 1)``.
    A pair whose s'y is at most ``eps * -g_old's`` is not stored. A line
    search that fails (20 trials without an acceptable step, or an ascent
    direction) clears the memory and the iteration is retried along -g;
    failing with an empty memory ends the run. Returns the last accepted
    point and its value.
    """
    x = np.array(x0, dtype=float)
    f, g = fun_and_grad(x.copy())
    if np.abs(g).max() <= gtol:
        return x, f
    memory: deque = deque(maxlen=_MEMORY)
    h0 = 1.0
    first = True
    while True:
        d = _direction(g, memory, h0)
        gd0 = _dot(g, d)
        step = min(1.0 / math.sqrt(_dot(d, d)), _STEP_MAX) if first else 1.0
        found = _line_search(fun_and_grad, x, f, d, gd0, step) if gd0 < 0 else None
        if found is None:
            if not memory:
                return x, f
            memory.clear()
            continue
        first = False
        f_old, g_old = f, g
        step, x, f, g, gd = found
        if np.abs(g).max() <= gtol or f_old - f <= ftol * max(abs(f_old), abs(f), 1.0):
            return x, f
        y = g - g_old
        sy = (gd - gd0) * step
        if sy > _EPS * (-gd0 * step):
            memory.append((step * d, y, sy))
            h0 = sy / _dot(y, y)


def _line_search(fun_and_grad, x, f, d, gd0, step):
    """Moré–Thuente search along ``d`` from ``x``, starting at ``step``.

    Returns ``(step, x, f, g, g'd)`` at the accepted point, or None when
    no step was accepted within the trial limit.
    """
    search = _MoreThuente(f, gd0, step)
    last = None
    for _ in range(_MAX_TRIALS):
        x_new = step * d + x
        # A trial at the point just evaluated (the search falling back to its
        # best step) reuses that evaluation, as scipy's memoised objective does.
        if x_new.tobytes() != last:
            last = x_new.tobytes()
            f_new, g_new = fun_and_grad(x_new)
            gd = _dot(g_new, d)
        done, next_step = search.update(step, f_new, gd)
        if done:
            return step, x_new, f_new, g_new, gd
        step = next_step
    return None


class _MoreThuente:
    """MINPACK-2 ``dcsrch`` (Moré & Thuente, ACM TOMS 20, 1994) with
    stpmin 0 and stpmax 1e10, after scipy's ``optimize/_dcsrch.py``.

    Built from the value and (negative) slope at step 0 and the first trial
    step; :meth:`update` takes the value and slope at the current trial.
    Both a converged search and one that ends with a warning (rounding
    prevents progress, the interval is below ``xtol``, the step sits at a
    bound) accept the current trial, as L-BFGS-B does.
    """

    def __init__(self, f0: float, g0: float, stp: float) -> None:
        self.brackt = False
        self.stage = 1
        f0, g0 = np.float64(f0), np.float64(g0)
        self.finit = f0
        self.ginit = g0
        self.gtest = _LS_FTOL * g0
        self.width = _STEP_MAX
        self.width1 = self.width / 0.5
        self.stx, self.fx, self.gx = 0.0, f0, g0
        self.sty, self.fy, self.gy = 0.0, f0, g0
        self.stmin = 0.0
        self.stmax = stp + 4.0 * stp

    def update(self, stp: float, f: float, g: float) -> tuple[bool, float]:
        """Whether the trial ``stp`` is accepted, and the next trial step."""
        # numpy scalars and no warnings: a NaN value or slope can make the
        # next step NaN, which the bounds below turn into a retreat.
        stp, f, g = np.float64(stp), np.float64(f), np.float64(g)
        with np.errstate(all="ignore"):
            ftest = self.finit + stp * self.gtest
            if self.stage == 1 and f <= ftest and g >= 0:
                self.stage = 2
            if (
                (self.brackt and (stp <= self.stmin or stp >= self.stmax))
                or (self.brackt and self.stmax - self.stmin <= _LS_XTOL * self.stmax)
                or (stp == _STEP_MAX and f <= ftest and g <= self.gtest)
                or (stp == 0.0 and (f > ftest or g >= self.gtest))
                or (f <= ftest and abs(g) <= _LS_GTOL * -self.ginit)
            ):
                return True, float(stp)

            if self.stage == 1 and f <= self.fx and f > ftest:
                # Step on the modified function psi(a) = f(a) - f(0) - ftol a f'(0).
                fm = f - stp * self.gtest
                fxm = self.fx - self.stx * self.gtest
                fym = self.fy - self.sty * self.gtest
                gm = g - self.gtest
                gxm = self.gx - self.gtest
                gym = self.gy - self.gtest
                self.stx, fxm, gxm, self.sty, fym, gym, stp, self.brackt = _dcstep(
                    self.stx, fxm, gxm, self.sty, fym, gym, stp, fm, gm, self.brackt, self.stmin, self.stmax
                )
                self.fx = fxm + self.stx * self.gtest
                self.fy = fym + self.sty * self.gtest
                self.gx = gxm + self.gtest
                self.gy = gym + self.gtest
            else:
                self.stx, self.fx, self.gx, self.sty, self.fy, self.gy, stp, self.brackt = _dcstep(
                    self.stx, self.fx, self.gx, self.sty, self.fy, self.gy, stp, f, g,
                    self.brackt, self.stmin, self.stmax,
                )
            if self.brackt:
                # Bisect when the interval did not shrink enough.
                if abs(self.sty - self.stx) >= 0.66 * self.width1:
                    stp = self.stx + 0.5 * (self.sty - self.stx)
                self.width1 = self.width
                self.width = abs(self.sty - self.stx)
                self.stmin = min(self.stx, self.sty)
                self.stmax = max(self.stx, self.sty)
            else:
                self.stmin = stp + 1.1 * (stp - self.stx)
                self.stmax = stp + 4.0 * (stp - self.stx)
            # A NaN step is bounded to 0, as in L-BFGS-B; a bracketed search
            # then falls back to its best step.
            stp = 0.0 if math.isnan(stp) else min(max(stp, 0.0), _STEP_MAX)
            if self.brackt and (
                stp <= self.stmin or stp >= self.stmax or self.stmax - self.stmin <= _LS_XTOL * self.stmax
            ):
                # No further progress is possible: try the best step so far.
                stp = self.stx
        return False, float(stp)


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    # MINPACK-2 dcstep: a safeguarded cubic or quadratic step, and the new
    # interval (stx, sty) that brackets a step of sufficient decrease.
    opposite = np.sign(dp) * np.sign(dx) < 0
    if fp > fx:
        # Higher value: the minimum is bracketed.
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp < stx:
            gamma = -gamma
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        stpc = stx + p / q * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:
        # Lower value, derivatives of opposite sign: bracketed.
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        stpc = stp + p / q * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # Lower value, same sign, the derivative's magnitude decreases.
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt(max(0, (theta / s) ** 2 - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(max(stpf, stpmin), stpmax)
    elif brackt:
        # Lower value, same sign, the derivative does not decrease: the
        # cubic through stp and sty.
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        s = max(abs(theta), abs(dy), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
        if stp > sty:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dy
        stpf = stp + p / q * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin

    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt
