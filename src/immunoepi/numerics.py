"""Shared numerical kernel: ODE integration, quadrature, root finding, continuation.

Everything downstream (within-host simulation, bifurcation sweeps, the
structured epidemic solver) is built on the four operations in this module so
that accuracy knobs live in one place:

* ``integrate_ode`` -- fixed-step classic RK4 or an adaptive embedded
  Dormand-Prince 5(4) pair, with optional scalar event localization by
  bisection on the bracketing step.
* ``quadrature`` -- composite trapezoid / Simpson rules over [a, b].
* ``find_root`` -- bracketed scalar root solve (Brent) with explicit
  bracket validation.
* ``continue_branch`` -- natural-parameter continuation of ``F(x, p) = 0``
  with Newton correction and finite-difference Jacobians, switching to
  pseudo-arclength steps so fold points are traversed rather than lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "quadrature",
    "quadrature_nodes",
    "find_root",
    "ContinuationPoint",
    "FoldEvent",
    "ContinuationResult",
    "continue_branch",
    "fd_jacobian",
]

# Relative perturbation for all finite-difference Jacobians in this module.
FD_RELATIVE_STEP = 1e-6

# Event times are bisected to this relative tolerance on the bracketing step.
EVENT_RELATIVE_TOL = 1e-10


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

    method "rk4" takes fixed steps of size ``step``; "adaptive" uses an
    embedded 5(4) pair controlled by ``rel_tol``/``abs_tol``. ``max_step``
    caps the adaptive step so output stays dense enough to resolve
    oscillations when the caller needs that.
    """

    method: str = "adaptive"
    step: float | None = None
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_steps: int = 1_000_000
    max_step: float | None = None

    def __post_init__(self) -> None:
        if self.method not in ("rk4", "adaptive"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if self.method == "rk4":
            if self.step is None or not self.step > 0:
                raise ValueError("fixed-step integration requires step > 0")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.max_step is not None and not self.max_step > 0:
            raise ValueError("max_step must be positive when given")


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite quadrature rule: ``rule`` in {"trapezoid", "simpson"}, ``n`` panels."""

    rule: str = "simpson"
    n: int = 64

    def __post_init__(self) -> None:
        if self.rule not in ("trapezoid", "simpson"):
            raise ValueError(f"unknown quadrature rule {self.rule!r}")
        if self.n < 1:
            raise ValueError("panel count must be >= 1")
        if self.rule == "simpson" and self.n % 2 != 0:
            raise ValueError("Simpson rule requires an even panel count")


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


def _rk4_step(rhs, t, y, h):
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand-Prince 5(4) tableau.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _dp45_step(rhs, t, y, h, k1=None):
    """One embedded step; returns (y5, error_estimate, k_last) with FSAL reuse.

    Trial steps may overshoot into overflow; the caller rejects non-finite
    results, so numpy warnings are silenced here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        k = [None] * 7
        k[0] = rhs(t, y) if k1 is None else k1
        for i in range(1, 7):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
            k[i] = rhs(t + _DP_C[i] * h, yi)
        y5 = y + h * sum(b * k[i] for i, b in enumerate(_DP_B5) if b != 0.0)
        y4 = y + h * sum(b * k[i] for i, b in enumerate(_DP_B4) if b != 0.0)
        return y5, y5 - y4, k[6]


def _substepped(rhs, t_lo, y_lo, dt, pieces=8):
    """State at t_lo + dt by composed RK4 sub-steps (tighter than one step)."""
    if dt == 0.0:
        return y_lo
    h = dt / pieces
    y = y_lo
    for k in range(pieces):
        y = _rk4_step(rhs, t_lo + k * h, y, h)
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

    The event, when given, is a scalar function of (t, y); integration stops
    at its first sign change, localized by bisection on the bracketing step.
    Raises NonFiniteError if the state leaves the finite range and
    StepLimitError if ``spec.max_steps`` is exhausted.
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

    def wrapped(t, state):
        out = np.asarray(rhs(t, state), dtype=float)
        return out

    def check_finite(state):
        if not np.all(np.isfinite(state)):
            raise NonFiniteError(f"non-finite state at t={ts[-1]:.6g}")

    t = t0
    if spec.method == "rk4":
        h = spec.step
        steps = 0
        while t < t1 - 1e-14 * max(1.0, abs(t1)):
            if steps >= spec.max_steps:
                raise StepLimitError(f"exceeded {spec.max_steps} steps")
            h_eff = min(h, t1 - t)
            y_new = _rk4_step(wrapped, t, y, h_eff)
            check_finite(y_new)
            t_new = t + h_eff
            if event is not None:
                e_new = event(t_new, y_new)
                if _crossed(e_prev, e_new):
                    t_ev, y_ev = _locate_event(wrapped, event, t, y, t_new, e_prev, e_new)
                    ts.append(t_ev)
                    ys.append(y_ev)
                    return Trajectory(np.array(ts), np.array(ys), t_ev, y_ev)
                e_prev = e_new
            t, y = t_new, y_new
            ts.append(t)
            ys.append(y.copy())
            steps += 1
        return Trajectory(np.array(ts), np.array(ys))

    # adaptive embedded pair
    h = (t1 - t0) / 100.0
    if spec.max_step is not None:
        h = min(h, spec.max_step)
    k_carry = None
    steps = 0
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        if steps >= spec.max_steps:
            raise StepLimitError(f"exceeded {spec.max_steps} steps")
        steps += 1
        h = min(h, t1 - t)
        y_new, err, k_last = _dp45_step(wrapped, t, y, h, k_carry)
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
                    t_ev, y_ev = _locate_event(wrapped, event, t, y, t_new, e_prev, e_new)
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


def quadrature_nodes(a: float, b: float, spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule on [a, b]."""
    n = spec.n
    nodes = np.linspace(a, b, n + 1)
    h = (b - a) / n
    if spec.rule == "trapezoid":
        w = np.full(n + 1, h)
        w[0] = w[-1] = 0.5 * h
    else:
        w = np.empty(n + 1)
        w[0] = w[-1] = h / 3.0
        w[1:-1:2] = 4.0 * h / 3.0
        w[2:-1:2] = 2.0 * h / 3.0
    return nodes, w


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


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


@dataclass
class ContinuationPoint:
    """One corrected solution of F(x, p) = 0 along a branch."""

    p: float
    x: np.ndarray
    eigenvalues: np.ndarray
    det: float


@dataclass
class FoldEvent:
    """Parameter fold: det dF/dx crosses zero along the branch."""

    p: float
    x: np.ndarray


@dataclass
class ContinuationResult:
    points: list[ContinuationPoint] = field(default_factory=list)
    folds: list[FoldEvent] = field(default_factory=list)


def fd_jacobian(
    F: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    rel_step: float = FD_RELATIVE_STEP,
) -> np.ndarray:
    """Central-difference Jacobian of a vector map at x."""
    x = np.asarray(x, dtype=float)
    n = x.size
    f0 = np.asarray(F(x), dtype=float)
    J = np.empty((f0.size, n))
    for j in range(n):
        h = rel_step * max(abs(x[j]), 1.0)
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (np.asarray(F(xp), dtype=float) - np.asarray(F(xm), dtype=float)) / (2 * h)
    return J


def _newton(F, x0, tol=1e-11, max_iter=20):
    """Damped Newton on F(x) = 0 with finite-difference Jacobian."""
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(max_iter):
        f = np.asarray(F(x), dtype=float)
        if not np.all(np.isfinite(f)):
            raise NonFiniteError("non-finite residual in Newton solve")
        if np.max(np.abs(f)) < tol:
            return x
        J = fd_jacobian(F, x)
        try:
            dx = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular Jacobian in Newton solve") from exc
        # backtracking keeps steps from overshooting near folds
        lam = 1.0
        f_norm = np.max(np.abs(f))
        for _ in range(8):
            x_try = x + lam * dx
            f_try = np.asarray(F(x_try), dtype=float)
            if np.all(np.isfinite(f_try)) and np.max(np.abs(f_try)) < f_norm:
                x = x_try
                break
            lam *= 0.5
        else:
            raise ConvergenceError("Newton line search stalled")
    f = np.asarray(F(x), dtype=float)
    if np.max(np.abs(f)) < tol * 100:
        return x
    raise ConvergenceError("Newton iteration did not converge")


def _branch_point(F, x, p):
    J = fd_jacobian(lambda z: F(z, p), x)
    eigs = np.linalg.eigvals(J)
    return ContinuationPoint(p=float(p), x=x.copy(), eigenvalues=eigs, det=float(np.linalg.det(J)))


def _refine_fold(F, x0, p0) -> FoldEvent:
    """Solve the extended system [F(x, p); det dF/dx] = 0 for the fold point."""
    n = np.asarray(x0).size

    def ext(z):
        x, p = z[:n], z[n]
        f = np.asarray(F(x, p), dtype=float)
        d = np.linalg.det(fd_jacobian(lambda q: F(q, p), x))
        return np.concatenate([f, [d]])

    z = _newton(ext, np.concatenate([np.asarray(x0, float), [p0]]), tol=1e-12, max_iter=40)
    return FoldEvent(p=float(z[n]), x=z[:n].copy())


def continue_branch(
    F: Callable[[np.ndarray, float], np.ndarray],
    x0: Sequence[float] | np.ndarray | float,
    p_range: tuple[float, float],
    n_steps: int = 100,
    *,
    newton_tol: float = 1e-11,
    max_points: int | None = None,
) -> ContinuationResult:
    """Trace the solution branch of ``F(x, p) = 0`` across ``p_range``.

    Stepping is natural in p; when a Newton correction fails (the usual
    symptom of an approaching fold) the tracer switches to pseudo-arclength
    steps in (x, p) so the branch is followed around the turning point.
    Determinant sign changes along the branch are refined into FoldEvents
    with an extended-system Newton solve.
    """
    p0, p1 = float(p_range[0]), float(p_range[1])
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    direction = 1.0 if p1 >= p0 else -1.0
    dp = (p1 - p0) / n_steps
    p_lo, p_hi = min(p0, p1), max(p0, p1)
    margin = 2.0 * abs(dp)
    max_points = max_points or 8 * n_steps

    result = ContinuationResult()
    x = _newton(lambda q: F(q, p0), x, tol=newton_tol)
    result.points.append(_branch_point(F, x, p0))

    def record(pt_prev, pt_new):
        if pt_prev is not None and pt_prev.det * pt_new.det < 0.0:
            mid_x = 0.5 * (pt_prev.x + pt_new.x)
            mid_p = 0.5 * (pt_prev.p + pt_new.p)
            try:
                result.folds.append(_refine_fold(F, mid_x, mid_p))
            except NumericsError:
                # fall back to the sign-change midpoint
                result.folds.append(FoldEvent(p=mid_p, x=mid_x))
        result.points.append(pt_new)

    p = p0
    arclength_mode = False
    while len(result.points) < max_points:
        prev = result.points[-1]
        if not arclength_mode:
            if direction * (p1 - p) <= 1e-12 * max(1.0, abs(p1)):
                break
            p_next = p + dp
            if direction * (p_next - p1) > 0:
                p_next = p1
            try:
                x_next = _newton(lambda q: F(q, p_next), prev.x, tol=newton_tol)
                p = p_next
                record(prev, _branch_point(F, x_next, p_next))
                continue
            except NumericsError:
                arclength_mode = True

        # pseudo-arclength stepping
        if len(result.points) >= 2:
            older = result.points[-2]
            tangent = np.concatenate([prev.x - older.x, [prev.p - older.p]])
        else:
            tangent = np.concatenate([np.zeros_like(prev.x), [direction]])
        norm = np.linalg.norm(tangent)
        if norm == 0.0:
            tangent = np.concatenate([np.zeros_like(prev.x), [direction]])
            norm = 1.0
        tangent /= norm
        ds = max(abs(dp), norm) if len(result.points) >= 2 else abs(dp)
        ds = min(ds, 4.0 * abs(dp))

        n = prev.x.size

        def arc_residual(z, z_prev, tan, step):
            xx, pp = z[:n], z[n]
            f = np.asarray(F(xx, pp), dtype=float)
            cons = tan @ (z - z_prev) - step
            return np.concatenate([f, [cons]])

        z_prev = np.concatenate([prev.x, [prev.p]])
        stepped = False
        for _ in range(12):
            z_pred = z_prev + ds * tangent
            try:
                z_new = _newton(
                    lambda z: arc_residual(z, z_prev, tangent, ds), z_pred, tol=newton_tol
                )
                pt = _branch_point(F, z_new[:n], z_new[n])
                record(prev, pt)
                stepped = True
                break
            except NumericsError:
                ds *= 0.5
                if ds < 1e-12 * max(1.0, abs(dp)):
                    break
        if not stepped:
            break
        p = result.points[-1].p
        if p < p_lo - margin or p > p_hi + margin:
            break

    # A fold sitting exactly at the end of the range produces no determinant
    # sign change to record; a near-singular terminal point is refined here.
    if result.points:
        last = result.points[-1]
        det_scale = max(abs(pt.det) for pt in result.points)
        if det_scale > 0.0 and abs(last.det) < 1e-3 * det_scale:
            try:
                fold = _refine_fold(F, last.x, last.p)
            except NumericsError:
                fold = None
            if (
                fold is not None
                and p_lo - margin <= fold.p <= p_hi + margin
                and all(
                    abs(fold.p - known.p) > 1e-8 * (1.0 + abs(fold.p))
                    for known in result.folds
                )
            ):
                result.folds.append(fold)
    return result
