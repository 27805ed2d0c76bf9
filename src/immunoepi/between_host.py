"""Immune-status-structured epidemic model with an environmental reservoir.

The population model couples a susceptible pool S(t), an infected density
I(t, omega) structured by immune status omega in [0, omega0], a recovered
pool V(t), and an environmental bacterial concentration B(t):

    S' = r - mu1*S - S*(beta_h*int P*I domega) - beta_e*S*B + rho*V
    I_t + (g(omega)*I)_omega = -mu2(omega)*I
    g(0)*I(t,0) = S*(beta_h*int P*I domega) + beta_e*S*B
    V' = g(omega0)*I(t,omega0) - (rho + mu3)*V
    B' = int xi*P*I domega - sigma*B

Infected hosts move rightward in status at speed g(omega) > 0 and recover
when they reach omega0. New infections enter at omega = 0 through the
nonlocal boundary condition, driven by direct (beta_h) and environmental
(beta_e) transmission.

This module provides the transport solver, the reproduction number and its
spectral refinement, the endemic equilibrium with residual checks,
stability residuals of the endemic linearization, and an equivalent
renewal-equation formulation used for cross-checking. All of them read
G, M and the survival density pi = exp(-M)/g from one StatusClock per
parameter set, `BetweenHostParams.clock`, and sum their status integrals
with the guarded Simpson rule `numerics.quadrature` on a fixed panel
count (TABLE_PANELS, and KERNEL_TOTAL_PANELS for the kernel's total
integral), so a non-finite integral raises NonFiniteError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .coefficients import Coefficient
from .errors import BracketError, PoleError, TransportBlowupError
from .numerics import RootBracket, find_root, quadrature

__all__ = [
    "BetweenHostParams",
    "StructuredState",
    "EndemicEquilibrium",
    "EpidemicRun",
    "RenewalRun",
    "StatusClock",
    "PoleError",
    "TransportBlowupError",
    "build_clock",
    "survival_pi",
    "r0",
    "r0_terms",
    "dfe_lambda_hat",
    "endemic_equilibrium",
    "endemic_residuals",
    "simulate_epidemic",
    "renewal_kernel_A",
    "kernel_total_integral",
    "simulate_renewal",
    "endemic_char_residual",
    "ResidualScan",
    "endemic_spectrum_scan",
]

NEGATIVITY_ABORT = -1e-8
POLE_GUARD = 1e-8
CLOCK_NODES = 16384
# Simpson panels of the transmission table and of each renewal-kernel row
TABLE_PANELS = 64
# Simpson panels of each smooth piece of the kernel's total integral
KERNEL_TOTAL_PANELS = 256
# delays per block of renewal-kernel Simpson rows
KERNEL_BLOCK = 1024
# real-axis endemic residual scan: rates on [0, SPECTRUM_SCAN_MAX], this far apart
SPECTRUM_SCAN_MAX = 50.0
SPECTRUM_SCAN_STEP = 1e-2


# ---------------------------------------------------------------------------
# parameters and states


@dataclass(frozen=True)
class BetweenHostParams:
    """Rates and functional coefficients of the structured epidemic model.

    Scalar rates are positive except the transmission rates beta_h, beta_e
    and the immunity-loss rate rho, which may be zero. The functional
    coefficients are `Coefficient` instances over [0, omega0]: mu2 (extra
    removal of infecteds), xi (environmental shedding), P (infectiousness
    weight), and g (status growth speed, strictly positive). a_bar caps the
    age of environmental bacteria in the renewal formulation. The set is
    frozen, so its status clock is built once, on first use, and every
    between-host quantity reads that one clock.
    """

    r: float
    mu1: float
    mu3: float
    beta_h: float
    beta_e: float
    rho: float
    sigma: float
    omega0: float
    mu2: Coefficient
    xi: Coefficient
    P: Coefficient
    g: Coefficient
    a_bar: float = 30.0

    def __post_init__(self):
        for name in ("r", "mu1", "mu3", "sigma", "omega0", "a_bar"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("beta_h", "beta_e", "rho"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")
        probe = np.linspace(0.0, self.omega0, 65)
        for name in COEFFICIENT_FIELDS:
            fn = getattr(self, name)
            if not isinstance(fn, Coefficient):
                raise TypeError(f"{name} must be a Coefficient, got {type(fn).__name__}")
            nodes = probe
            if fn.family == "table":
                # piecewise linear: its knots inside [0, omega0] decide the sign exactly
                knots = np.asarray(fn.describe["omega"])
                nodes = np.union1d(probe, knots[(knots >= 0.0) & (knots <= self.omega0)])
            vals = fn(nodes)
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"{name}(omega) is not finite on [0, omega0]")
            if name == "g":
                if np.any(vals <= 0):
                    raise ValueError("g(omega) must be strictly positive on [0, omega0]")
            elif np.any(vals < 0):
                raise ValueError(f"{name}(omega) must be nonnegative on [0, omega0]")

    @functools.cached_property
    def clock(self) -> StatusClock:
        """The status clock of this parameter set."""
        return build_clock(self)


# the functional coefficients, read off the field annotations
COEFFICIENT_FIELDS = tuple(f.name for f in fields(BetweenHostParams) if f.type == "Coefficient")


@dataclass
class StructuredState:
    """One snapshot: susceptibles, infected density on a uniform status grid,
    recovered pool, and environmental concentration."""

    S: float
    I: np.ndarray
    V: float
    B: float

    def __post_init__(self):
        self.I = np.asarray(self.I, dtype=float)
        if self.I.ndim != 1 or self.I.size < 2:
            raise ValueError("I must be a 1-d density array with at least 2 nodes")
        for name in ("S", "V", "B"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")
        if not np.all(np.isfinite(self.I)) or np.any(self.I < 0):
            raise ValueError("I must be nonnegative and finite")


@dataclass(frozen=True)
class EndemicEquilibrium:
    """Stationary state with disease present; exists only above threshold."""

    S: float
    omega: np.ndarray
    I: np.ndarray
    V: float
    B: float
    I0: float
    reproduction_number: float


# ---------------------------------------------------------------------------
# the status clock: cumulative travel time and removal exposure


@dataclass(frozen=True)
class StatusClock:
    """Dense tables of G(omega) = int_0^omega 1/g and M(omega) = int_0^omega mu2/g.

    g > 0 makes G strictly increasing, so status <-> elapsed-time conversion
    is a monotone interpolation both ways. M is the accumulated removal
    exposure along the same path. The clock is the one source of G, M and
    the survival density pi = exp(-M)/g: the reproduction number, both
    characteristic equations, the endemic profile and the renewal kernel
    all read them from `BetweenHostParams.clock`, the one clock of each
    parameter set.
    """

    omega: np.ndarray
    elapsed: np.ndarray
    decay: np.ndarray

    @property
    def total_time(self) -> float:
        """Travel time from status 0 to omega0."""
        return float(self.elapsed[-1])

    def time_of(self, omega):
        return np.interp(omega, self.omega, self.elapsed)

    def status_at(self, theta):
        return np.interp(theta, self.elapsed, self.omega)

    def decay_at(self, omega):
        return np.interp(omega, self.omega, self.decay)


def build_clock(params: BetweenHostParams) -> StatusClock:
    """Tabulate the travel-time and removal-exposure integrals on [0, omega0].

    Cumulative trapezoid on CLOCK_NODES+1 uniform nodes; exact for constant
    ratios.
    """
    nodes = np.linspace(0.0, params.omega0, CLOCK_NODES + 1)
    g_vals = params.g(nodes)
    if np.any(g_vals <= 0):
        raise ValueError("g(omega) must be strictly positive on [0, omega0]")
    step = params.omega0 / CLOCK_NODES
    inv_g = 1.0 / g_vals
    ratio = params.mu2(nodes) * inv_g
    elapsed = np.concatenate([[0.0], np.cumsum(0.5 * (inv_g[1:] + inv_g[:-1]) * step)])
    decay = np.concatenate([[0.0], np.cumsum(0.5 * (ratio[1:] + ratio[:-1]) * step)])
    return StatusClock(omega=nodes, elapsed=elapsed, decay=decay)


# ---------------------------------------------------------------------------
# survival and threshold quantities


def survival_pi(omega, params: BetweenHostParams):
    """Status-survival density pi(omega) = (1/g)*exp(-M(omega)), M from the clock.

    pi(omega) d omega is the chance an entrant is still infected while
    passing status omega, weighted by the time spent there. Accepts scalar
    or array omega in [0, omega0].
    """
    omega_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    if np.any(omega_arr < 0) or np.any(omega_arr > params.omega0 * (1 + 1e-12)):
        raise ValueError("omega must lie in [0, omega0]")
    out = np.exp(-params.clock.decay_at(omega_arr)) / params.g(omega_arr)
    return float(out[0]) if np.ndim(omega) == 0 else out


def _transmission_table(params: BetweenHostParams) -> Callable[[float], tuple[float, float]]:
    """The two weighted status integrals behind every spectral quantity,
    as a function of lam:

      J_P  = int_0^omega0 P(w)/g(w) * exp(-M(w) - lam*G(w)) dw
      J_xi = int_0^omega0 xi(w)*P(w)/g(w) * exp(-M(w) - lam*G(w)) dw

    with G, M the clock integrals, by Simpson's rule on TABLE_PANELS
    panels. The lam-independent node values (P/g, M, G, xi) are tabulated
    once.
    """
    nodes = np.linspace(0.0, params.omega0, TABLE_PANELS + 1)
    p_over_g = params.P(nodes) / params.g(nodes)
    clock = params.clock
    decay, elapsed, xi = clock.decay_at(nodes), clock.time_of(nodes), params.xi(nodes)

    def integrals(lam):
        weight = p_over_g * np.exp(-decay - lam * elapsed)
        return quadrature(weight, params.omega0), quadrature(weight * xi, params.omega0)

    return integrals


def _threshold_characteristic(params: BetweenHostParams) -> Callable[[float], tuple[float, float, float]]:
    """G(lam) = (r/mu1) * [beta_h*J_P(lam) + beta_e/(lam+sigma)*J_xi(lam)]
    by route, from one transmission table.

    Returns lam -> (direct, environmental, J_xi); G is direct +
    environmental, and J_xi is the shedding integral the endemic
    reservoir needs.
    """
    integrals = _transmission_table(params)
    s0 = params.r / params.mu1

    def routes(lam):
        j_p, j_xi = integrals(lam)
        direct = s0 * params.beta_h * j_p
        environmental = s0 * params.beta_e / (lam + params.sigma) * j_xi if params.beta_e > 0 else 0.0
        return direct, environmental, j_xi

    return routes


def r0(params: BetweenHostParams) -> float:
    """Reproduction number G(0): expected secondary infections at the
    infection-free state, direct plus environmental routes."""
    return sum(r0_terms(params))


def r0_terms(params: BetweenHostParams) -> tuple[float, float]:
    """(direct, environmental) additive parts of the reproduction number."""
    direct, environmental, _ = _threshold_characteristic(params)(0.0)
    return direct, environmental


def dfe_lambda_hat(params: BetweenHostParams, lam_max: float = 1e6) -> float:
    """Real root of the infection-free characteristic equation G(lam) = 1.

    G is strictly decreasing with limit 0, so the root is unique when it
    exists; its sign matches the sign of r0 - 1. Raises BracketError when
    G stays below 1 on the admissible interval (lam > -sigma).
    """
    characteristic = _threshold_characteristic(params)

    def f(lam):
        direct, environmental, _ = characteristic(lam)
        return direct + environmental - 1.0

    at_zero = f(0.0)
    if at_zero == 0.0:
        return 0.0
    if at_zero > 0:
        lo, hi = 0.0, 1.0
        while f(hi) > 0:
            hi *= 2.0
            if hi > lam_max:
                raise BracketError("characteristic function stays above 1")
    else:
        hi = 0.0
        # approach the admissible edge -sigma geometrically
        gap = 0.5 * params.sigma
        lo = -params.sigma + gap
        while f(lo) < 0:
            gap *= 0.5
            lo = -params.sigma + gap
            if gap < 1e-12 * params.sigma:
                raise BracketError("characteristic function stays below 1 on (-sigma, 0]")
    return find_root(f, RootBracket(lo, hi))


# ---------------------------------------------------------------------------
# endemic equilibrium


def endemic_equilibrium(params: BetweenHostParams, n_omega: int = 400) -> EndemicEquilibrium | None:
    """Closed-form stationary state with disease present.

    Returns None when the reproduction number is at or below 1. The
    infected profile is I*(omega) = I*(0)*g(0)*pi(omega) on a uniform
    grid of n_omega+1 nodes.
    """
    direct, environmental, j_xi = _threshold_characteristic(params)(0.0)
    basic = direct + environmental
    if basic <= 1.0:
        return None
    g0 = params.g(0.0)
    pi_end = survival_pi(params.omega0, params)
    recycle = params.rho * params.g(params.omega0) * pi_end / (params.rho + params.mu3)
    i0 = params.r * (1.0 - 1.0 / basic) / (g0 * (1.0 - recycle))
    omega = np.linspace(0.0, params.omega0, n_omega + 1)
    profile = i0 * g0 * survival_pi(omega, params)
    b_star = i0 * g0 * j_xi / params.sigma
    v_star = params.g(params.omega0) * i0 * g0 * pi_end / (params.rho + params.mu3)
    # S* = 1/(beta_h*J_P + beta_e*J_xi/sigma) = (r/mu1)/R0
    s_star = params.r / params.mu1 / basic
    return EndemicEquilibrium(
        S=s_star,
        omega=omega,
        I=profile,
        V=v_star,
        B=b_star,
        I0=i0,
        reproduction_number=basic,
    )


def endemic_residuals(eq: EndemicEquilibrium, params: BetweenHostParams) -> dict[str, float]:
    """Residuals of the five stationarity equations at an equilibrium.

    Integrals use the trapezoid rule on the equilibrium's own grid and the
    transport equation is checked by central differences, so residuals are
    grid-order small rather than machine-zero.
    """
    omega, profile = eq.omega, eq.I
    step = omega[1] - omega[0]
    p_vals = params.P(omega)
    force_direct = float(np.trapezoid(p_vals * profile, dx=step))
    shed = float(np.trapezoid(params.xi(omega) * p_vals * profile, dx=step))
    infection = params.beta_h * eq.S * force_direct + params.beta_e * eq.S * eq.B
    g_vals = params.g(omega)
    flux = g_vals * profile
    transport = np.gradient(flux, step, edge_order=2) + params.mu2(omega) * profile
    return {
        "susceptible": params.r - params.mu1 * eq.S - infection + params.rho * eq.V,
        "transport": float(np.max(np.abs(transport))),
        "boundary": g_vals[0] * profile[0] - infection,
        "recovered": g_vals[-1] * profile[-1] - (params.rho + params.mu3) * eq.V,
        "environment": shed - params.sigma * eq.B,
    }


# ---------------------------------------------------------------------------
# transport simulation


@dataclass
class EpidemicRun:
    """Recorded output of simulate_epidemic.

    t, S, I_total, V, B, F sample the scalar time series at the output
    stride (and at the last step); they are the rows of one preallocated
    (6, n_rec) block. snapshots hold full I rows, one preallocated block,
    when a snapshot stride was requested.
    """

    omega: np.ndarray
    t: np.ndarray
    S: np.ndarray
    I_total: np.ndarray
    V: np.ndarray
    B: np.ndarray
    F: np.ndarray
    snapshot_t: np.ndarray
    snapshots: np.ndarray
    final: StructuredState = field(repr=False)


def simulate_epidemic(
    params: BetweenHostParams,
    initial: StructuredState,
    t_max: float,
    n_omega: int,
    dt: float,
    output_stride: int = 1,
    snapshot_stride: int = 0,
) -> EpidemicRun:
    """March the structured system with conservative first-order upwind
    transport and positivity-preserving removal.

    The status flux g*I is differenced one-sidedly (flow is rightward since
    g > 0) under the CFL condition dt*max(g) <= domega; removal acts as an
    exact per-step decay factor so densities stay nonnegative. The scalar
    pools (S, V, B) advance by the classic RK4 tableau, written out over
    three Python floats in numerics.rk4_step's operation order, with the
    coupling integrals frozen over the step; the nonlocal boundary value is
    filled explicitly afterwards. The step's array work runs in fixed
    buffers and views, and the clip to zero only runs when some density is
    at or below zero. A state below the negativity tolerance or a
    non-finite one aborts with TransportBlowupError.
    """
    if initial.I.size != n_omega + 1:
        raise ValueError(f"initial.I must have n_omega+1 = {n_omega + 1} nodes")
    if dt <= 0 or t_max <= 0:
        raise ValueError("dt and t_max must be positive")
    if output_stride < 1 or snapshot_stride < 0:
        raise ValueError(
            f"output_stride must be >= 1 and snapshot_stride >= 0, "
            f"got {output_stride!r} and {snapshot_stride!r}"
        )
    omega = np.linspace(0.0, params.omega0, n_omega + 1)
    step_w = params.omega0 / n_omega
    g_vals = params.g(omega)
    cfl = dt * float(np.max(g_vals))
    if cfl > step_w * (1.0 + 1e-12):
        raise ValueError(
            f"CFL violation: dt*max(g) = {cfl:.6g} exceeds domega = {step_w:.6g}"
        )
    mu2_vals = params.mu2(omega)
    p_vals = params.P(omega)
    shed_weight = params.xi(omega) * p_vals
    decay_factor = np.exp(-mu2_vals * dt)
    trap = np.full(n_omega + 1, step_w)
    trap[0] = trap[-1] = 0.5 * step_w
    g0 = float(g_vals[0])
    g_end = float(g_vals[-1])

    n_steps = int(round(t_max / dt))
    density = initial.I.copy()
    s_now, v_now, b_now = float(initial.S), float(initial.V), float(initial.B)
    r, mu1, rho, mu3, sigma = params.r, params.mu1, params.rho, params.mu3, params.sigma
    beta_h, beta_e = params.beta_h, params.beta_e

    # one column per recorded step: t, S, I_total, V, B, F; the last step is
    # recorded even when the stride does not divide n_steps
    n_rec = n_steps // output_stride + 1 + (n_steps % output_stride != 0)
    series = np.empty((6, n_rec))
    t_rec, s_rec, mass_rec, v_rec, b_rec, f_rec = series
    n_snap = n_steps // snapshot_stride + 1 if snapshot_stride else 0
    snap_t = np.empty(n_snap)
    snaps = np.empty((n_snap, n_omega + 1))
    n_recorded = n_snapped = 0
    # per-step temporaries: p*I, xi*P*I and the g*I flux with its difference,
    # plus the fixed views of the buffers that the upwind step reads and writes
    weighted = np.empty_like(density)
    flux = np.empty_like(density)
    flux_diff = np.empty(n_omega)
    flux_hi, flux_lo = flux[1:], flux[:-1]
    interior, decay_interior = density[1:], decay_factor[1:]
    multiply, subtract, dot = np.multiply, np.subtract, np.dot
    maximum, min_reduce = np.maximum, np.minimum.reduce

    def record(t_now, direct):
        nonlocal n_recorded
        k = n_recorded
        t_rec[k] = t_now
        s_rec[k] = s_now
        mass_rec[k] = dot(trap, density)
        v_rec[k] = v_now
        b_rec[k] = b_now
        f_rec[k] = beta_h * direct + beta_e * b_now
        n_recorded += 1

    def snapshot(t_now):
        nonlocal n_snapped
        snap_t[n_snapped] = t_now
        snaps[n_snapped] = density
        n_snapped += 1

    multiply(p_vals, density, out=weighted)
    direct_now = float(dot(trap, weighted))
    record(0.0, direct_now)
    if snapshot_stride:
        snapshot(0.0)

    courant = dt / step_w
    # the classic RK4 tableau of numerics.rk4_step, written out over the
    # three pool floats in the same operation order
    half, sixth = 0.5 * dt, dt / 6.0
    v_loss = rho + mu3
    for n in range(n_steps):
        multiply(shed_weight, density, out=weighted)
        shed_now = float(dot(trap, weighted))
        outflux = g_end * float(density[-1])

        # scalar pools: RK4 with the I-coupling frozen over the step
        direct_force = beta_h * direct_now
        s1, v1, b1 = s_now, v_now, b_now
        ds1 = r - mu1 * s1 - s1 * (direct_force + beta_e * b1) + rho * v1
        dv1 = outflux - v_loss * v1
        db1 = shed_now - sigma * b1
        s2, v2, b2 = s1 + half * ds1, v1 + half * dv1, b1 + half * db1
        ds2 = r - mu1 * s2 - s2 * (direct_force + beta_e * b2) + rho * v2
        dv2 = outflux - v_loss * v2
        db2 = shed_now - sigma * b2
        s3, v3, b3 = s1 + half * ds2, v1 + half * dv2, b1 + half * db2
        ds3 = r - mu1 * s3 - s3 * (direct_force + beta_e * b3) + rho * v3
        dv3 = outflux - v_loss * v3
        db3 = shed_now - sigma * b3
        s4, v4, b4 = s1 + dt * ds3, v1 + dt * dv3, b1 + dt * db3
        ds4 = r - mu1 * s4 - s4 * (direct_force + beta_e * b4) + rho * v4
        dv4 = outflux - v_loss * v4
        db4 = shed_now - sigma * b4
        s_new = s1 + sixth * (ds1 + 2.0 * ds2 + 2.0 * ds3 + ds4)
        v_new = v1 + sixth * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4)
        b_new = b1 + sixth * (db1 + 2.0 * db2 + 2.0 * db3 + db4)

        # upwind transport then exact removal decay
        multiply(g_vals, density, out=flux)
        subtract(flux_hi, flux_lo, out=flux_diff)
        multiply(flux_diff, courant, out=flux_diff)
        subtract(interior, flux_diff, out=interior)
        multiply(interior, decay_interior, out=interior)

        # nonlocal boundary, explicit: fresh interior and pools; slot 0 still
        # holds the lagged previous boundary value inside the quadrature
        multiply(p_vals, density, out=weighted)
        direct_mix = float(dot(trap, weighted))
        density[0] = s_new * (beta_h * direct_mix + beta_e * b_new) / g0

        # NaN fails this test; a NaN pool reaches density[0] within a step
        density_low = float(min_reduce(density))
        low = min(density_low, s_new, v_new, b_new)
        if not low >= NEGATIVITY_ABORT:
            raise TransportBlowupError(
                f"negative or non-finite state {low:.3e} at t = {n * dt + dt:.6g}"
            )
        # max(x, +0.0) is x for every x > 0: the clip only matters at or below 0
        if density_low <= 0.0:
            maximum(density, 0.0, out=density)
        s_now, v_now, b_now = max(s_new, 0.0), max(v_new, 0.0), max(b_new, 0.0)
        # the next step's direct force and the recorded F share this integral
        multiply(p_vals, density, out=weighted)
        direct_now = float(dot(trap, weighted))

        t_next = (n + 1) * dt
        if (n + 1) % output_stride == 0 or n + 1 == n_steps:
            record(t_next, direct_now)
        if snapshot_stride and (n + 1) % snapshot_stride == 0:
            snapshot(t_next)

    try:
        final = StructuredState(S=s_now, I=density.copy(), V=v_now, B=b_now)
    except ValueError as exc:
        # the clip leaves every value nonnegative: only a non-finite one is left
        raise TransportBlowupError(f"non-finite state at t = {n_steps * dt:.6g}: {exc}") from exc
    return EpidemicRun(
        omega=omega,
        t=t_rec,
        S=s_rec,
        I_total=mass_rec,
        V=v_rec,
        B=b_rec,
        F=f_rec,
        snapshot_t=snap_t,
        snapshots=snaps,
        final=final,
    )


# ---------------------------------------------------------------------------
# renewal-equation reformulation


def renewal_kernel_A(omega, params: BetweenHostParams):
    """Infectivity kernel of the renewal form, at time-since-infection omega.

    Direct part: transmission weight of a host infected omega time units
    ago, still below recovery status,

        K_h(theta) = beta_h * P(w(theta)) * exp(-M(w(theta))),

    with w(theta) the status reached after travel time theta. Environmental
    part: contribution through bacteria of age a shed at theta - a,

        K_e(theta) = int beta_e * e^{-sigma*a} * xi(w)*P(w)*exp(-M(w)) da,
        w = w(theta - a),  a in [max(0, theta - T0), min(a_bar, theta)],

    where T0 is the travel time to recovery. The kernel is K_h + K_e,
    supported on [0, a_bar + T0]. Accepts scalar or array omega; each K_e
    value is a Simpson sum on TABLE_PANELS panels.
    """
    total = params.clock.total_time
    omega_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    if np.any(omega_arr < 0) or np.any(omega_arr > (params.a_bar + total) * (1 + 1e-12)):
        raise ValueError("omega must lie in [0, a_bar + travel time to recovery]")
    out = np.zeros_like(omega_arr)
    direct = omega_arr <= total
    if params.beta_h > 0 and np.any(direct):
        out[direct] = _kernel_direct(omega_arr[direct], params)
    if params.beta_e > 0:
        out += _kernel_env(omega_arr, params, TABLE_PANELS)
    return float(out[0]) if np.ndim(omega) == 0 else out


def _kernel_direct(theta, params: BetweenHostParams) -> np.ndarray:
    """Direct-route kernel values; callers restrict theta to [0, total_time]."""
    clock = params.clock
    w_here = clock.status_at(np.asarray(theta, dtype=float))
    return params.beta_h * params.P(w_here) * np.exp(-clock.decay_at(w_here))


def _kernel_env(theta: np.ndarray, params: BetweenHostParams, panels: int) -> np.ndarray:
    """Environmental-route kernel values at a 1-d array of delays theta.

    Each delay is one Simpson row of `panels` panels over its age interval;
    rows go through the rule in blocks of KERNEL_BLOCK delays to bound the
    temporaries.
    """
    clock = params.clock
    lo = np.maximum(0.0, theta - clock.total_time)
    hi = np.minimum(params.a_bar, theta)
    out = np.zeros_like(theta)
    rows = np.flatnonzero(hi > lo)
    for start in range(0, rows.size, KERNEL_BLOCK):
        block = rows[start : start + KERNEL_BLOCK]
        ages = np.linspace(lo[block], hi[block], panels + 1, axis=1)
        w = clock.status_at(theta[block, None] - ages)
        values = (
            params.beta_e
            * np.exp(-params.sigma * ages)
            * params.xi(w)
            * params.P(w)
            * np.exp(-clock.decay_at(w))
        )
        out[block] = quadrature(values, hi[block] - lo[block])
    return out


def kernel_total_integral(params: BetweenHostParams) -> float:
    """Integral of the renewal kernel over its full support.

    Split at the kernel's corner points (travel time to recovery and the
    bacterial age cap) so the piecewise-smooth integrand keeps full
    quadrature order; every piece, and each kernel row inside the
    environmental pieces, is a Simpson sum on KERNEL_TOTAL_PANELS panels.
    At the endemic state S* times this integral is 1, up to the
    exponential age-cap truncation.
    """
    total = params.clock.total_time
    nodes = KERNEL_TOTAL_PANELS + 1
    value = 0.0
    if params.beta_h > 0:
        value += quadrature(_kernel_direct(np.linspace(0.0, total, nodes), params), total)
    if params.beta_e > 0:
        # the environmental part is continuous but kinked where its
        # integration limits switch; integrate each smooth piece separately
        cuts = sorted({0.0, total, params.a_bar, params.a_bar + total})
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            theta = np.linspace(lo, hi, nodes)
            value += quadrature(_kernel_env(theta, params, KERNEL_TOTAL_PANELS), hi - lo)
    return value


@dataclass
class RenewalRun:
    """Force-of-infection and susceptible traces from the renewal solver."""

    t: np.ndarray
    S: np.ndarray
    F: np.ndarray


def simulate_renewal(
    params: BetweenHostParams,
    history: Callable[[np.ndarray], np.ndarray],
    S0: float,
    t_max: float,
    dt: float,
) -> RenewalRun:
    """Advance the renewal pair S' = r - mu1*S - S*F,
    F(t) = int_0^Theta A(w) S(t-w) F(t-w) dw.

    Theta = a_bar + travel time to recovery; it must be an integer number
    of steps (the memory window is a fixed trapezoid stencil). `history`
    supplies F on [-Theta, 0]; S is held at S0 before time zero. The new
    F value appears inside its own convolution through the w = 0 node, a
    scalar linear equation solved in closed form each step; S advances by
    a Heun predictor-corrector. The state travels as Python floats and the
    arrays only record it. A lost diagonal dominance or a negative or
    non-finite state aborts with TransportBlowupError.
    """
    window = params.a_bar + params.clock.total_time
    m = int(round(window / dt))
    if m < 2 or abs(m * dt - window) > 1e-9 * max(1.0, window):
        raise ValueError(
            f"memory window {window:.12g} is not an integer multiple of dt = {dt:.12g}"
        )
    n_steps = int(round(t_max / dt))
    ages = dt * np.arange(m + 1)
    kernel = renewal_kernel_A(ages, params)
    weights = np.full(m + 1, dt)
    weights[0] = weights[-1] = 0.5 * dt
    # aligned with SF[j-m+1 .. j]; contiguous, since a dot product over a
    # reversed view is far slower at the window sizes of linked runs
    tail = (kernel * weights)[:0:-1].copy()
    anchor = float(0.5 * dt * kernel[0])

    size = m + 1 + n_steps
    f_arr = np.empty(size)
    s_arr = np.empty(size)
    f_arr[: m + 1] = history(-window + dt * np.arange(m + 1))
    s_arr[: m + 1] = S0
    sf = s_arr[: m + 1] * f_arr[: m + 1]
    sf_arr = np.empty(size)
    sf_arr[: m + 1] = sf

    r, mu1, dot = params.r, params.mu1, np.dot
    s_j, f_j = float(s_arr[m]), float(f_arr[m])
    for j in range(m, size - 1):
        drift = r - mu1 * s_j - s_j * f_j
        s_pred = s_j + dt * drift
        past = float(dot(tail, sf_arr[j - m + 1 : j + 1]))
        # the new F sits in its own convolution through the w = 0 node:
        # F = past / (1 - anchor*S), solved at the predicted then the new S
        denom = 1.0 - anchor * s_pred
        if denom <= 1e-12:
            raise TransportBlowupError("renewal step lost diagonal dominance")
        f_next = past / denom
        drift_pred = r - mu1 * s_pred - s_pred * f_next
        s_next = s_j + 0.5 * dt * (drift + drift_pred)
        denom = 1.0 - anchor * s_next
        if denom <= 1e-12:
            raise TransportBlowupError("renewal step lost diagonal dominance")
        f_next = past / denom
        if not (s_next >= NEGATIVITY_ABORT and f_next >= NEGATIVITY_ABORT):
            raise TransportBlowupError("renewal state went negative or non-finite")
        s_j, f_j = max(s_next, 0.0), max(f_next, 0.0)
        s_arr[j + 1] = s_j
        f_arr[j + 1] = f_j
        sf_arr[j + 1] = s_j * f_j

    t = dt * np.arange(n_steps + 1)
    return RenewalRun(t=t, S=s_arr[m:], F=f_arr[m:])


# ---------------------------------------------------------------------------
# endemic spectral residuals


def endemic_char_residual(params: BetweenHostParams, eq: EndemicEquilibrium) -> Callable[[float], float]:
    """The endemic-linearization characteristic residual at eq, as a
    function of a real trial rate lam; a root means a mode growing like
    e^{lam*t}.

    The equation reads 1 = RHS(lam) and the residual is RHS - 1, with the
    boundary-sourced exponential factors evaluated at the recovery status
    (the only status where the recovered pool is fed). K, the transmission
    table and the recovery survival factor are computed once, so a trial
    rate costs one exponential and two Simpson sums. Rates within
    POLE_GUARD of a pole (-mu1, -sigma, -(rho+mu3)) raise PoleError.
    """
    step = eq.omega[1] - eq.omega[0]
    K = params.beta_h * float(np.trapezoid(params.P(eq.omega) * eq.I, dx=step))
    integrals = _transmission_table(params)
    direct = eq.S * params.beta_h
    recovery = params.rho * params.g(params.omega0) * survival_pi(params.omega0, params)
    total = params.clock.total_time

    def residual(lam):
        if abs(lam + params.mu1) < POLE_GUARD:
            raise PoleError("lam too close to the pole at -mu1")
        if params.beta_e > 0 and abs(lam + params.sigma) < POLE_GUARD:
            raise PoleError("lam too close to the pole at -sigma")
        if abs(lam + params.rho + params.mu3) < POLE_GUARD:
            raise PoleError("lam too close to the pole at -(rho+mu3)")
        j_p, j_xi = integrals(lam)
        returned = recovery * np.exp(-lam * total) / (lam + params.rho + params.mu3)
        bracket = (returned - 1.0) / (lam + params.mu1)
        rhs = direct * j_p + bracket * K
        if params.beta_e > 0:
            rhs += params.beta_e * eq.S * j_xi / (lam + params.sigma)
            rhs += params.beta_e * eq.B * bracket
        return rhs - 1.0

    return residual


@dataclass(frozen=True)
class ResidualScan:
    """Endemic characteristic residual on a uniform grid of real rates,
    and the roots bracketed by its sign changes."""

    lam: np.ndarray
    residual: np.ndarray
    roots: list[float]


def endemic_spectrum_scan(
    params: BetweenHostParams, lam_max: float = SPECTRUM_SCAN_MAX, step: float = SPECTRUM_SCAN_STEP
) -> ResidualScan:
    """Real-axis root scan of the endemic characteristic residual on
    [0, lam_max]: sign changes are bracketed and refined. An empty root
    list is the numerical witness that no real nonnegative growth rate
    exists; complex roots are outside this check's scope.
    """
    eq = endemic_equilibrium(params)
    if eq is None:
        raise ValueError("spectrum scan needs a reproduction number above 1")
    residual = endemic_char_residual(params, eq)
    grid = np.arange(0.0, lam_max + 0.5 * step, step)
    values = np.array([residual(lam) for lam in grid])
    roots = []
    for i in range(len(grid)):
        if values[i] == 0.0:
            roots.append(float(grid[i]))
        elif i + 1 < len(grid) and values[i] * values[i + 1] < 0:
            roots.append(find_root(residual, RootBracket(float(grid[i]), float(grid[i + 1]))))
    return ResidualScan(lam=grid, residual=values, roots=roots)
