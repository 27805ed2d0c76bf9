"""Shared numerical kernel: ODE integration, quadrature, root finding.

Everything downstream (within-host simulation, bifurcation sweeps, the
structured epidemic solver) is built on the operations in this module:

* ``integrate_ode`` -- adaptive embedded Dormand-Prince 5(4) pair, with
  optional scalar event localization by bisection on the bracketing step.
* ``rk4_step`` -- one classic RK4 step; the event localizer, the batched
  cycle sampler and the epidemic solver's scalar pools all take it.
* ``quadrature`` -- composite Simpson rule over [a, b]; its 1, 4, 2, ...,
  4, 1 coefficients (``simpson_coefficients``) also weight the epidemic
  model's transmission integrals.
* ``find_root`` -- bracketed scalar root solve (Brent) with explicit
  bracket validation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "NumericsError",
    "NonFiniteError",
    "StepLimitError",
    "BracketError",
    "ConvergenceError",
    "IntegratorSpec",
    "QuadratureSpec",
    "RootBracket",
    "Trajectory",
    "integrate_ode",
    "rk4_step",
    "quadrature",
    "quadrature_nodes",
    "simpson_coefficients",
    "find_root",
]

# Event times are bisected to this relative tolerance on the bracketing step.
EVENT_RELATIVE_TOL = 1e-10
# Step budget of one integrate_ode call, rejected steps included.
MAX_STEPS = 1_000_000


class NumericsError(Exception):
    """Base class for failures raised by the numerical kernel."""


class NonFiniteError(NumericsError):
    """A state vector or integrand evaluation became NaN or infinite."""


class StepLimitError(NumericsError):
    """The integrator exhausted its step budget before reaching t_end."""


class BracketError(NumericsError):
    """A root bracket does not enclose a sign change."""


class ConvergenceError(NumericsError):
    """An iterative solve (Newton, Brent) failed to converge."""


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
class QuadratureSpec:
    """Composite Simpson rule on ``n`` panels (even, at least 2)."""

    n: int = 64

    def __post_init__(self) -> None:
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"Simpson rule requires an even panel count >= 2, got {self.n}")


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

    @property
    def final_state(self) -> np.ndarray:
        return self.y[-1]


def rk4_step(rhs, t, y, h):
    """One classic RK4 step of ``y' = rhs(t, y)`` from t to t + h.

    Every operation is elementwise, so ``y`` may stack any number of
    independent states (a batch of orbits, say) as long as ``rhs`` returns
    an array of the same shape.
    """
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
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


def _substepped(rhs, t_lo, y_lo, dt, pieces=8):
    """State at t_lo + dt by composed RK4 sub-steps (tighter than one step)."""
    if dt == 0.0:
        return y_lo
    h = dt / pieces
    y = y_lo
    for k in range(pieces):
        y = rk4_step(rhs, t_lo + k * h, y, h)
    return y


def _locate_event(rhs, event, t_lo, y_lo, t_hi, e_lo, e_hi):
    """Bisect the bracketing step for the event crossing time.

    Candidate states are produced by composed RK4 sub-steps from the left
    end of the bracketing step. Width tolerance is relative
    (EVENT_RELATIVE_TOL).
    """
    a, b = t_lo, t_hi
    ea = e_lo
    tol = EVENT_RELATIVE_TOL * max(1.0, abs(t_hi))
    for _ in range(200):
        if (b - a) <= tol:
            break
        mid = 0.5 * (a + b)
        y_mid = _substepped(rhs, t_lo, y_lo, mid - t_lo)
        e_mid = event(mid, y_mid)
        if ea * e_mid <= 0.0 and not (ea == 0.0 and e_mid == 0.0):
            b = mid
        else:
            a, ea = mid, e_mid
    t_ev = 0.5 * (a + b)
    y_ev = _substepped(rhs, t_lo, y_lo, t_ev - t_lo)
    return t_ev, y_ev


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
    sign change, localized by bisection on the bracketing step. Raises
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
                    t_ev, y_ev = _locate_event(rhs, event, t, y, t_new, e_prev, e_new)
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
    cached per n and shared, so it is read-only.
    """
    coeff = np.ones(n + 1)
    coeff[1:-1:2] = 4.0
    coeff[2:-1:2] = 2.0
    coeff.flags.writeable = False
    return coeff


def quadrature_nodes(a: float, b: float, spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Simpson rule on [a, b]."""
    nodes = np.linspace(a, b, spec.n + 1)
    h = (b - a) / spec.n
    return nodes, simpson_coefficients(spec.n) * (h / 3.0)


def quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Integrate ``f`` over [a, b]. ``f`` must accept an ndarray of nodes.

    Degenerate intervals (a == b) integrate to zero. Raises NonFiniteError on
    non-finite integrand values.
    """
    spec = spec or QuadratureSpec()
    if not a <= b:
        raise ValueError(f"quadrature requires a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0
    nodes, w = quadrature_nodes(a, b, spec)
    vals = np.asarray(f(nodes), dtype=float)
    if vals.shape != nodes.shape:
        raise ValueError("integrand must return one value per node")
    if not np.all(np.isfinite(vals)):
        raise NonFiniteError("non-finite integrand evaluation")
    return float(w @ vals)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


def find_root(
    f: Callable[[float], float],
    bracket: RootBracket,
    tol: float = 1e-12,
) -> float:
    """Bracketed scalar root of ``f`` to interval width ``tol`` (Brent)."""
    # scipy.optimize costs most of the package's import time; only root
    # solves need it
    from scipy.optimize import brentq

    lo, hi = bracket.lo, bracket.hi
    flo, fhi = f(lo), f(hi)
    if not (np.isfinite(flo) and np.isfinite(fhi)):
        raise NonFiniteError("non-finite endpoint evaluation")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}"
        )
    try:
        root = brentq(f, lo, hi, xtol=tol, maxiter=200)
    except (RuntimeError, ValueError) as exc:  # pragma: no cover - scipy internal
        raise ConvergenceError(f"bracketed solve failed: {exc}") from exc
    return float(min(max(root, lo), hi))
