"""Shared numerical kernel: ODE integration, quadrature, root finding.

Everything downstream (within-host simulation, bifurcation sweeps, the
structured epidemic solver) is built on the operations in this module:

* ``integrate_ode`` -- adaptive embedded Dormand-Prince 5(4) pair over a
  state carried as a tuple of Python floats (the rhs takes one and returns
  a sequence of floats), with optional scalar event location:
  ``find_root`` on the event along one Dormand-Prince step from the left
  end of the bracketing step. The returned Trajectory holds lists.
* ``linspace`` -- evenly spaced Python floats, np.linspace's bit for bit.
* ``quadrature`` -- the package's one rule for status integrals of
  f*e^{-phi}, exact in phi's chord, one guarded sum per row; the one user
  of numpy here, imported by its calls.
* ``find_root`` -- bracketed scalar root solve by Brent's method, in the
  form and with the stopping rule of scipy's ``brentq``, plus explicit
  bracket validation. The package needs numpy only.

The settings no caller changes are module constants: the integrator's
tolerances RTOL and ATOL, its step budget, and Brent's stopping rule. The
exceptions raised here are defined in ``errors``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import BracketError, ConvergenceError, NonFiniteError, StepLimitError

__all__ = [
    "Trajectory",
    "integrate_ode",
    "linspace",
    "quadrature",
    "find_root",
]

# Relative and absolute error tolerances of each integrate_ode step.
RTOL = 1e-8
ATOL = 1e-10
# Event times are located to this relative tolerance on the bracketing step.
EVENT_RELATIVE_TOL = 1e-10
# Step budget of one integrate_ode call, rejected steps included.
MAX_STEPS = 1_000_000
# Brent's stopping width is xtol plus this relative part (scipy's brentq
# default), and a solve may take this many iterations.
BRENT_RTOL = 4.0 * sys.float_info.epsilon
BRENT_MAXITER = 200
# quadrature: m_2(D) = sum_j (-D)^j/(j! (j + 3)) below |D| = SERIES_RADIUS, to an ulp
SERIES_RADIUS = 0.5
_M2_SERIES = tuple((-1) ** j / (math.factorial(j) * (j + 3)) for j in range(13, -1, -1))


# ---------------------------------------------------------------------------
# ODE integration
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """Accepted integration samples, one state tuple per time; when an event
    fired, event_time is its time and the last row of y its state."""

    t: list[float]
    y: list[tuple[float, ...]]
    event_time: float | None = None


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

    ``y`` and every stage are tuples of Python floats. Stage inputs sum
    their terms left to right, zero weights of the seventh stage included,
    so results match a loop over the tableau on arrays bit for bit. Trial
    steps may overshoot into overflow; float products and sums then turn
    inf or NaN without raising, and the caller rejects non-finite results.
    """
    if k1 is None:
        k1 = rhs(t, y)
    k2 = rhs(t + _C2 * h, tuple([u + h * (_A21 * a) for u, a in zip(y, k1)]))
    k3 = rhs(t + _C3 * h, tuple([u + h * (_A31 * a + _A32 * b) for u, a, b in zip(y, k1, k2)]))
    k4 = rhs(t + _C4 * h, tuple([
        u + h * (_A41 * a + _A42 * b + _A43 * c) for u, a, b, c in zip(y, k1, k2, k3)
    ]))
    k5 = rhs(t + _C5 * h, tuple([
        u + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
        for u, a, b, c, d in zip(y, k1, k2, k3, k4)
    ]))
    k6 = rhs(t + h, tuple([
        u + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
        for u, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
    ]))
    k7 = rhs(t + h, tuple([
        u + h * (_A71 * a + _A72 * b + _A73 * c + _A74 * d + _A75 * e + _A76 * f)
        for u, a, b, c, d, e, f in zip(y, k1, k2, k3, k4, k5, k6)
    ]))
    y5 = tuple([
        u + h * (_A71 * a + _A73 * c + _A74 * d + _A75 * e + _A76 * f)
        for u, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)
    ])
    # the error is y5 - y4, with y4 from the fourth-order weights
    err = [
        v - (u + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * f + _B7 * g))
        for v, u, a, c, d, e, f, g in zip(y5, y, k1, k3, k4, k5, k6, k7)
    ]
    return y5, err, k7


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
    t_ev = find_root(lambda t: event(t, state_at(t)), t_lo, t_hi, tol=tol)
    return t_ev, state_at(t_ev)


def integrate_ode(
    rhs: Callable[[float, tuple[float, ...]], Sequence[float]],
    y0: Sequence[float],
    t_span: tuple[float, float],
    event: Callable[[float, tuple[float, ...]], float] | None = None,
) -> Trajectory:
    """Integrate ``y' = rhs(t, y)`` over ``t_span``, stopping at an event zero.

    The state travels as a tuple of Python floats: ``rhs`` receives one and
    returns the derivative as a sequence of floats of the same length, and
    the event, when given, is a scalar function of (t, y); integration
    stops where it first falls from positive to zero or below, located by
    find_root on the bracketing step. Steps are accepted to the tolerances
    RTOL and ATOL, read at call time. The returned Trajectory holds lists.
    Raises NonFiniteError if the state leaves the finite range and
    StepLimitError after MAX_STEPS steps.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must satisfy t_end > t_start")
    try:
        y = tuple(map(float, y0))
    except TypeError:
        y = ()
    if not y:
        raise ValueError("y0 must be one-dimensional and non-empty")
    n = len(y)
    abs_tol, rel_tol = ATOL, RTOL
    isfinite = math.isfinite

    ts = [t0]
    ys = [y]
    e_prev = event(t0, y) if event is not None else None

    t = t0
    h = (t1 - t0) / 100.0
    k_carry = None
    steps = 0
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        if steps >= MAX_STEPS:
            raise StepLimitError(f"exceeded {MAX_STEPS} steps")
        steps += 1
        h = min(h, t1 - t)
        y_new, err, k_last = _dp45_step(rhs, t, y, h, k_carry)
        if not all(map(isfinite, y_new)):
            h *= 0.5
            k_carry = None
            if h < 1e-15 * max(1.0, abs(t)):
                raise NonFiniteError(f"state blew up near t={t:.6g}")
            continue
        # root mean square of the scaled error, the squares summed left to
        # right as numpy's mean sums fewer than eight values
        total = 0.0
        for e, u, v in zip(err, y, y_new):
            q = e / (abs_tol + rel_tol * max(abs(u), abs(v)))
            total += q * q
        err_norm = math.sqrt(total / n)
        if not isfinite(err_norm):
            h *= 0.5
            k_carry = None
            continue
        if err_norm <= 1.0:
            t_new = t + h
            if event is not None:
                e_new = event(t_new, y_new)
                if e_prev > 0.0 and e_new <= 0.0:
                    t_ev, y_ev = _locate_event(rhs, event, t, y, t_new, y_new)
                    ts.append(t_ev)
                    ys.append(y_ev)
                    return Trajectory(ts, ys, t_ev)
                e_prev = e_new
            t, y = t_new, y_new
            ts.append(t)
            ys.append(y)
            k_carry = k_last
        else:
            k_carry = None
        factor = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return Trajectory(ts, ys)


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """The n >= 2 values of np.linspace(lo, hi, n) bit for bit, as a list.
    The list is requested whole first: a length past memory is refused
    before any value is built."""
    try:
        values = [hi] * n
    except MemoryError:
        raise MemoryError(f"Unable to allocate a list of {n} floats") from None
    div, delta = n - 1, hi - lo
    step = delta / div
    for i in range(div):
        # a step lost to underflow: numpy scales each index first
        values[i] = (i / div * delta if step == 0.0 else i * step) + lo
    return values


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def quadrature(values, exponent, length):
    """Integral of f*e^{-phi} over [0, length] from f and phi on n + 1 even
    nodes (n even), the last axis; leading axes broadcast to one sum per
    row (a Python number for one row), with one length per row or for all.
    On each double panel the quadratic through f is integrated exactly
    against phi's chord (a rule of Filon type) from its end with the
    smaller real exponent, by the moments m_k(D) = int_0^1 t^k e^{-Dt} dt
    of the chord's rise D. The midpoint value of f carries phi's bend off
    the chord, e^{-bend}, its real part clipped at -1 (unresolved there) so
    it cannot overflow. At phi = 0 this is Simpson's rule. Rows are summed
    by ``np.einsum``, not BLAS: a real row of a block sums bit for bit as
    alone. Raises ValueError on an odd n, NonFiniteError on a non-finite sum.
    """
    import numpy as np

    phi = np.asarray(exponent)
    n = phi.shape[-1] - 1
    if n < 2 or n % 2 != 0:
        raise ValueError(f"the rule requires an even panel count >= 2, got {n}")
    left, right = phi[..., 0:-1:2], phi[..., 2::2]
    rise = right - left
    bend = phi[..., 1::2] - (left + 0.5 * rise)
    flip = rise.real < 0.0
    flipped = flip.any()
    if flipped:
        rise, left = np.where(flip, -rise, rise), np.where(flip, right, left)
    # m_2 by its series, then m_{k-1} = (D*m_k + e^{-D})/k down; far from 0,
    # m_0 = -expm1(-D)/D and m_k = (k*m_{k-1} - e^{-D})/D up, each stable there
    big = np.abs(rise) >= SERIES_RADIUS
    d = np.where(big, 0.0, rise)
    m2 = np.zeros_like(d)
    for coefficient in _M2_SERIES:
        m2 *= d
        m2 += coefficient
    fade = np.exp(-d)
    m1 = 0.5 * (d * m2 + fade)
    m0 = d * m1 + fade
    d = rise[big]
    drop, inverse = np.expm1(-d), 1.0 / d
    m0[big] = low = -drop * inverse
    m1[big] = one = (low - (drop + 1.0)) * inverse
    m2[big] = (2.0 * one - (drop + 1.0)) * inverse
    lift = np.exp(np.minimum(-bend.real, 1.0))
    lift = lift * np.exp(-1j * bend.imag) if np.iscomplexobj(bend) else lift
    # the weights of the anchored end, the midpoint and the far end
    fade = np.exp(-left)
    near, far = fade * (m0 - 3.0 * m1 + 2.0 * m2), fade * (2.0 * m2 - m1)
    mid = fade * lift * (4.0 * (m1 - m2))
    if flipped:
        near, far = np.where(flip, far, near), np.where(flip, near, far)
    sums = sum(
        np.einsum("...j,...j->...", values[..., k : n + k - 1 : 2], w) for k, w in enumerate((near, mid, far))
    )
    # a single row's sum is a Python number
    total = sums * (2.0 * np.asarray(length) / n) if np.ndim(sums) else sums.item() * (2.0 * length / n)
    if not np.isfinite(total).all():
        raise NonFiniteError("non-finite quadrature sum")
    return total


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


def find_root(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12) -> float:
    """Root of ``f`` on the bracket [lo, hi] to interval width ``tol`` (Brent).

    Raises ValueError unless lo < hi, NonFiniteError on a non-finite
    endpoint value, BracketError when the endpoints share a sign, and
    ConvergenceError when a value turns NaN mid-solve or the iteration
    budget runs out.
    """
    if not lo < hi:
        raise ValueError(f"bracket requires lo < hi, got [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    if not (math.isfinite(flo) and math.isfinite(fhi)):
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
