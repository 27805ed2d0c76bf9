"""Shared numerical kernel: ODE integration, quadrature, root finding.

Everything downstream (within-host simulation, bifurcation sweeps, the
structured epidemic solver) is built on the operations in this module:

* ``integrate_ode`` -- adaptive embedded Dormand-Prince 5(4) pair, with
  optional scalar event location: ``find_root`` on the event along one
  Dormand-Prince step from the left end of the bracketing step.
* ``rk4_step`` -- one classic RK4 step on a single state, a float or an
  ndarray; the batched cycle sampler passes its (2, m) block of orbits.
  The epidemic solver's three scalar pools run the same tableau written
  out over Python floats.
* ``quadrature`` -- the package's one composite Simpson rule: a guarded
  sum of evenly spaced node values over [0, length], one per row.
* ``find_root`` -- bracketed scalar root solve by Brent's method, in the
  form and with the stopping rule of scipy's ``brentq``, plus explicit
  bracket validation. The package needs numpy only.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BracketError,
    ConvergenceError,
    NonFiniteError,
    NumericsError,
    StepLimitError,
)

__all__ = [
    "NumericsError",
    "NonFiniteError",
    "StepLimitError",
    "BracketError",
    "ConvergenceError",
    "IntegratorSpec",
    "RootBracket",
    "Trajectory",
    "integrate_ode",
    "rk4_step",
    "quadrature",
    "simpson_coefficients",
    "find_root",
]

# Event times are located to this relative tolerance on the bracketing step.
EVENT_RELATIVE_TOL = 1e-10
# Step budget of one integrate_ode call, rejected steps included.
MAX_STEPS = 1_000_000
# Brent's stopping width is xtol plus this relative part (scipy's brentq
# default), and a solve may take this many iterations.
BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
BRENT_MAXITER = 200


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegratorSpec:
    """Configuration for ``integrate_ode``.

    The embedded 5(4) pair is controlled by ``rel_tol``/``abs_tol``.
    ``max_step`` caps the step so output stays dense enough to resolve
    oscillations when the caller needs that.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float | None = None

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_step is not None and not self.max_step > 0:
            raise ValueError("max_step must be positive when given")


@dataclass(frozen=True)
class RootBracket:
    """An interval [lo, hi] expected to bracket a sign change."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")


# ---------------------------------------------------------------------------
# ODE integration
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """Accepted integration samples, plus the event hit if one was requested."""

    t: np.ndarray
    y: np.ndarray
    event_time: float | None = None
    event_state: np.ndarray | None = None


def rk4_step(rhs, t, y, h):
    """One classic RK4 step of ``y' = rhs(t, y)`` from t to t + h.

    ``y`` is one state, a float or an ndarray, and ``rhs`` returns its
    derivative in the same form. Every operation is elementwise, so one
    array may stack a batch of independent orbits.
    """
    half = 0.5 * h
    k1 = rhs(t, y)
    k2 = rhs(t + half, y + half * k1)
    k3 = rhs(t + half, y + half * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand-Prince 5(4) tableau as Python floats: _A<i><j> weights stage j in
# the input of stage i, _B<j> is the fourth-order weight of stage j. The
# fifth-order weights equal the seventh stage's row (first same as last).
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A72, _A73, _A74, _A75, _A76 = 35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_B1, _B3, _B4, _B5, _B6, _B7 = (
    5179 / 57600, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40
)


def _dp45_step(rhs, t, y, h, k1=None):
    """One embedded step; returns (y5, error_estimate, k_last) with FSAL reuse.

    Stage inputs sum their terms left to right, zero weights of the seventh
    stage included, so results match a loop over the tableau bit for bit.
    Trial steps may overshoot into overflow; the caller rejects non-finite
    results, so numpy warnings are silenced here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if k1 is None:
            k1 = rhs(t, y)
        k2 = rhs(t + _C2 * h, y + h * (_A21 * k1))
        k3 = rhs(t + _C3 * h, y + h * (_A31 * k1 + _A32 * k2))
        k4 = rhs(t + _C4 * h, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = rhs(t + _C5 * h, y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
        k6 = rhs(
            t + h, y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5)
        )
        k7 = rhs(
            t + h,
            y + h * (_A71 * k1 + _A72 * k2 + _A73 * k3 + _A74 * k4 + _A75 * k5 + _A76 * k6),
        )
        y5 = y + h * (_A71 * k1 + _A73 * k3 + _A74 * k4 + _A75 * k5 + _A76 * k6)
        y4 = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6 + _B7 * k7)
        return y5, y5 - y4, k7


def _locate_event(rhs, event, t_lo, y_lo, t_hi, y_hi):
    """Event crossing time on the bracketing step, by find_root.

    The state at a trial time is one Dormand-Prince step from the left end
    of the bracketing step. The right end keeps its accepted state, so the
    bracket keeps the sign change the step detected. Width tolerance is
    relative (EVENT_RELATIVE_TOL).
    """
    k1 = rhs(t_lo, y_lo)

    def state_at(t):
        return y_hi if t == t_hi else _dp45_step(rhs, t_lo, y_lo, t - t_lo, k1)[0]

    tol = EVENT_RELATIVE_TOL * max(1.0, abs(t_hi))
    t_ev = find_root(lambda t: event(t, state_at(t)), RootBracket(t_lo, t_hi), tol=tol)
    return t_ev, state_at(t_ev)


def integrate_ode(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: Sequence[float] | np.ndarray,
    t_span: tuple[float, float],
    spec: IntegratorSpec | None = None,
    event: Callable[[float, np.ndarray], float] | None = None,
) -> Trajectory:
    """Integrate ``y' = rhs(t, y)`` over ``t_span``, stopping at an event zero.

    ``rhs`` must return a float ndarray shaped like ``y``. The event, when
    given, is a scalar function of (t, y); integration stops at its first
    sign change, located by find_root on the bracketing step. Raises
    NonFiniteError if the state leaves the finite range and StepLimitError
    after MAX_STEPS steps.
    """
    spec = spec or IntegratorSpec()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must satisfy t_end > t_start")
    y = np.asarray(y0, dtype=float).copy()
    if y.ndim != 1:
        raise ValueError("y0 must be one-dimensional")

    ts = [t0]
    ys = [y.copy()]
    e_prev = event(t0, y) if event is not None else None

    t = t0
    h = (t1 - t0) / 100.0
    if spec.max_step is not None:
        h = min(h, spec.max_step)
    k_carry = None
    steps = 0
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        if steps >= MAX_STEPS:
            raise StepLimitError(f"exceeded {MAX_STEPS} steps")
        steps += 1
        h = min(h, t1 - t)
        y_new, err, k_last = _dp45_step(rhs, t, y, h, k_carry)
        if not np.all(np.isfinite(y_new)):
            h *= 0.5
            k_carry = None
            if h < 1e-15 * max(1.0, abs(t)):
                raise NonFiniteError(f"state blew up near t={t:.6g}")
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            scale = spec.abs_tol + spec.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if not np.isfinite(err_norm):
            h *= 0.5
            k_carry = None
            continue
        if err_norm <= 1.0:
            t_new = t + h
            if event is not None:
                e_new = event(t_new, y_new)
                if _crossed(e_prev, e_new):
                    t_ev, y_ev = _locate_event(rhs, event, t, y, t_new, y_new)
                    ts.append(t_ev)
                    ys.append(y_ev)
                    return Trajectory(np.array(ts), np.array(ys), t_ev, y_ev)
                e_prev = e_new
            t, y = t_new, y_new
            ts.append(t)
            ys.append(y.copy())
            k_carry = k_last
        else:
            k_carry = None
        factor = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if spec.max_step is not None:
            h = min(h, spec.max_step)
    return Trajectory(np.array(ts), np.array(ys))


def _crossed(e_prev, e_new):
    if e_prev is None:
        return False
    if e_prev == 0.0:
        return False
    return e_prev * e_new <= 0.0


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def simpson_coefficients(n: int) -> np.ndarray:
    """Composite Simpson coefficients 1, 4, 2, ..., 2, 4, 1 on n panels.

    The weights on a panel of width h are these times h/3. The array is
    cached per n and shared, so it is read-only. n must be even.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"Simpson rule requires an even panel count >= 2, got {n}")
    coeff = np.ones(n + 1)
    coeff[1:-1:2] = 4.0
    coeff[2:-1:2] = 2.0
    coeff.flags.writeable = False
    return coeff


def quadrature(values, length):
    """Composite Simpson sum of node values spread evenly over [0, length].

    The last axis holds the n + 1 values of n panels (n even). A 1-D row
    gives one scalar (a Python float or complex for a Python length); a
    2-D block gives one sum per row, with one length per row or one for
    all. A complex dtype is kept. Raises NonFiniteError on a non-finite sum.
    """
    n = np.shape(values)[-1] - 1
    sums = np.dot(values, simpson_coefficients(n))
    if isinstance(sums, np.ndarray):
        sums = sums * length / (3.0 * n)
        if not np.isfinite(sums).all():
            raise NonFiniteError("non-finite quadrature sum")
        return sums
    total = sums.item() * length / (3.0 * n)
    if not cmath.isfinite(total):
        raise NonFiniteError("non-finite quadrature sum")
    return total


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


def find_root(
    f: Callable[[float], float],
    bracket: RootBracket,
    tol: float = 1e-12,
) -> float:
    """Bracketed scalar root of ``f`` to interval width ``tol`` (Brent).

    Raises NonFiniteError on a non-finite endpoint value, BracketError when
    the endpoints share a sign, and ConvergenceError when a value turns NaN
    mid-solve or the iteration budget runs out.
    """
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = f(lo), f(hi)
    if not (np.isfinite(flo) and np.isfinite(fhi)):
        raise NonFiniteError("non-finite endpoint evaluation")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}"
        )
    root = _brent(f, lo, hi, float(flo), float(fhi), tol)
    return float(min(max(root, lo), hi))


def _brent(f, xpre, xcur, fpre, fcur, xtol):
    """Brent's method (Brent 1973, ch. 4) on a bracket with a sign change.

    A line-by-line port of scipy's ``brentq`` C kernel, so roots agree bit
    for bit; the endpoint values come from the caller instead of being
    evaluated again. Inverse quadratic or secant steps are taken when they
    stay well inside the bracket, bisection otherwise; the solve stops once
    half the bracket is below (xtol + BRENT_RTOL*|x|)/2.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:  # inverse quadratic
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ConvergenceError(f"bracketed solve failed: f({xcur}) is NaN")
    raise ConvergenceError(f"bracketed solve failed to converge after {BRENT_MAXITER} iterations")


def _div(num, den):
    """``num / den`` with the IEEE result (inf or NaN) where Python raises."""
    try:
        return num / den
    except ZeroDivisionError:
        if num == 0.0 or math.isnan(num):
            return math.nan
        return math.copysign(math.inf, num) * math.copysign(1.0, den)
