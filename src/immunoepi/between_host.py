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
renewal-equation formulation used for cross-checking; it starts from the
transport solver's initial density and S and builds the matching force of
infection history itself. The endemic residual is the infection-free
characteristic function over R0 plus the return through the recovered
pool, so R0, its growth rate, the endemic state and the residual read one
characteristic table, every TABLE_STRIDE-th node of the one StatusClock
built with each parameter set, `BetweenHostParams.clock`. That clock
evaluates and checks each coefficient once and holds G, M and the survival
density pi = exp(-M)/g. Status integrals use the guarded Simpson rule
`numerics.quadrature`, so a non-finite integral raises NonFiniteError: the
characteristic on TABLE_PANELS panels, the renewal kernel's total on every
clock node, and its environmental route reads a shedding load tabulated on
the clock's nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .coefficients import Coefficient
from .errors import BracketError, NonFiniteError, PoleError, TransportBlowupError
from .numerics import find_root, quadrature

__all__ = [
    "BetweenHostParams",
    "StructuredState",
    "EndemicEquilibrium",
    "EpidemicRun",
    "RenewalRun",
    "StatusClock",
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
# Simpson panels of the characteristic's status integrals J_P, J_xi
TABLE_PANELS = 64
# the characteristic's nodes are every TABLE_STRIDE-th clock node
TABLE_STRIDE = CLOCK_NODES // TABLE_PANELS
# Simpson rows per block of the endemic scan's rates
KERNEL_BLOCK = 1024
# the infection-free growth rate is sought below this bound
LAMBDA_HAT_MAX = 1e6
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
    age of environmental bacteria in the renewal formulation. The frozen set
    builds its status clock, `clock`, after the scalar and type checks; the
    clock checks the coefficients, and every between-host quantity reads it.
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
        for name in COEFFICIENT_FIELDS:
            fn = getattr(self, name)
            if not isinstance(fn, Coefficient):
                raise TypeError(f"{name} must be a Coefficient, got {type(fn).__name__}")
        # an attribute, not a field: no config key, echo or comparison reads it
        object.__setattr__(self, "clock", build_clock(self))


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
    parameter set. p_over_g and xi hold P/g and xi on every TABLE_STRIDE-th
    node, the characteristic's TABLE_PANELS+1 Simpson nodes.
    """

    omega: np.ndarray
    elapsed: np.ndarray
    decay: np.ndarray
    p_over_g: np.ndarray
    xi: np.ndarray

    @property
    def total_time(self) -> float:
        """Travel time from status 0 to omega0."""
        return float(self.elapsed[-1])

    def status_at(self, theta):
        return np.interp(theta, self.elapsed, self.omega)

    def decay_at(self, omega):
        return np.interp(omega, self.omega, self.decay)


def build_clock(params: BetweenHostParams) -> StatusClock:
    """The one place that places status nodes and evaluates and checks the
    coefficients: g and mu2 on CLOCK_NODES+1 uniform nodes of [0, omega0],
    P and xi on every TABLE_STRIDE-th one. Each must be finite there and on
    a table coefficient's knots in [0, omega0], which decide its sign
    exactly; g positive, the others nonnegative, or ValueError. G and M are
    cumulative trapezoids on the clock nodes, exact for constant ratios.
    """
    nodes = np.linspace(0.0, params.omega0, CLOCK_NODES + 1)
    table_nodes = nodes[::TABLE_STRIDE].copy()
    values = {}
    for name in COEFFICIENT_FIELDS:
        fn = getattr(params, name)
        values[name] = vals = fn(nodes if name in ("mu2", "g") else table_nodes)
        if fn.family == "table":
            knots = np.asarray(fn.describe["omega"])
            vals = np.append(vals, fn(knots[(knots >= 0.0) & (knots <= params.omega0)]))
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{name}(omega) is not finite on [0, omega0]")
        if name == "g":
            if np.any(vals <= 0):
                raise ValueError("g(omega) must be strictly positive on [0, omega0]")
        elif np.any(vals < 0):
            raise ValueError(f"{name}(omega) must be nonnegative on [0, omega0]")
    step = params.omega0 / CLOCK_NODES
    inv_g = 1.0 / values["g"]
    ratio = values["mu2"] * inv_g
    elapsed = np.concatenate([[0.0], np.cumsum(0.5 * (inv_g[1:] + inv_g[:-1]) * step)])
    decay = np.concatenate([[0.0], np.cumsum(0.5 * (ratio[1:] + ratio[:-1]) * step)])
    p_over_g = values["P"] / values["g"][::TABLE_STRIDE]
    return StatusClock(omega=nodes, elapsed=elapsed, decay=decay, p_over_g=p_over_g, xi=values["xi"])


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


def _characteristic(params: BetweenHostParams) -> Callable:
    """The infection-free characteristic function by route, as a function
    of lam:

      G(lam) = (r/mu1) * [beta_h*J_P(lam) + beta_e/(lam+sigma)*J_xi(lam)]
      J_P  = int_0^omega0 P(w)/g(w) * exp(-M(w) - lam*G(w)) dw
      J_xi = int_0^omega0 xi(w)*P(w)/g(w) * exp(-M(w) - lam*G(w)) dw

    with G, M the clock integrals, by Simpson's rule on TABLE_PANELS
    panels. The lam-independent node values (P/g, M, G, xi) are the
    clock's, on every TABLE_STRIDE-th clock node, so no coefficient is
    evaluated and nothing is interpolated here. Returns lam -> (direct,
    environmental, J_xi); G is direct + environmental. lam may be a scalar
    (real or complex) or a 1-d array of rates, one Simpson row per rate,
    each entry equal bit for bit to the scalar call.
    """
    clock = params.clock
    p_over_g, xi = clock.p_over_g, clock.xi
    decay, elapsed = clock.decay[::TABLE_STRIDE], clock.elapsed[::TABLE_STRIDE]
    s0 = params.r / params.mu1

    def routes(lam):
        weight = p_over_g * np.exp(-decay - np.multiply.outer(lam, elapsed))
        j_p, j_xi = quadrature(weight, params.omega0), quadrature(weight * xi, params.omega0)
        direct = s0 * params.beta_h * j_p
        shed = params.beta_e > 0 and np.any(j_xi != 0)  # without shedding, no pole at -sigma
        environmental = s0 * params.beta_e / (lam + params.sigma) * j_xi if shed else 0.0
        return direct, environmental, j_xi

    return routes


def r0(params: BetweenHostParams) -> float:
    """Reproduction number G(0): expected secondary infections at the
    infection-free state, direct plus environmental routes."""
    return sum(r0_terms(params))


def r0_terms(params: BetweenHostParams) -> tuple[float, float]:
    """(direct, environmental) additive parts of the reproduction number."""
    direct, environmental, _ = _characteristic(params)(0.0)
    return direct, environmental


def dfe_lambda_hat(params: BetweenHostParams) -> float:
    """Real root of the infection-free characteristic equation G(lam) = 1.

    G is strictly decreasing with limit 0, so the root is unique when it
    exists; its sign matches the sign of r0 - 1. Raises BracketError when
    G stays above 1 up to LAMBDA_HAT_MAX, or below 1 above the pole at
    -sigma (environmental route) or the overflow floor, which bounds the
    approach to the pole too.
    """
    characteristic = _characteristic(params)

    def f(lam):
        direct, environmental, _ = characteristic(lam)
        return direct + environmental - 1.0

    direct, environmental, _ = characteristic(0.0)
    at_zero = direct + environmental - 1.0
    if at_zero == 0.0:
        return 0.0
    hi = 0.0
    if at_zero > 0:
        lo, hi = 0.0, 1.0
        while f(hi) > 0:
            hi *= 2.0
            if hi > LAMBDA_HAT_MAX:
                raise BracketError("characteristic function stays above 1")
    else:
        # approach the pole at -sigma geometrically (environmental route), or
        # double lo down (no pole), no lower than where a weight
        # (<= peak*e^{-lam*total}) or a sum could overflow
        clock = params.clock
        peak = float(np.max(clock.p_over_g)) * max(1.0, float(clock.xi.max()))
        margin = math.log(np.finfo(float).max / 3.0) - math.log(max(1.0, 3.0 * TABLE_PANELS * peak))
        total = clock.total_time
        floor = max(-margin / total, -np.finfo(float).max) if margin > 0 and total > 0 else 0.0
        pole, gap = environmental > 0, 0.5 * params.sigma
        lo = max(-params.sigma + gap if pole else -1.0, floor)
        while f(lo) < 0:
            gap *= 0.5
            if lo == floor:
                raise BracketError(f"characteristic function stays below 1 on [{floor:.6g}, 0]")
            if pole and gap < 1e-12 * params.sigma:
                raise BracketError("characteristic function stays below 1 on (-sigma, 0]")
            lo = max(-params.sigma + gap if pole else 2.0 * lo, floor)
    return find_root(f, lo, hi)


# ---------------------------------------------------------------------------
# endemic equilibrium


def _lost_share(params: BetweenHostParams) -> float:
    """The share of recovered-pool entrants that leave it for good: 1 minus
    rho*g*pi/(rho + mu3) with g*pi = exp(-M(omega0)), written without the
    cancellation that rounds it to 0 for rho >> mu3; exactly 1 at rho = 0."""
    lost = params.mu3 + params.rho * -math.expm1(-float(params.clock.decay[-1]))
    return lost / (params.rho + params.mu3)


def endemic_equilibrium(params: BetweenHostParams, n_omega: int = 400) -> EndemicEquilibrium | None:
    """Closed-form stationary state with disease present.

    Returns None when the reproduction number is at or below 1. The
    infected profile is I*(omega) = I*(0)*g(0)*pi(omega) on a uniform
    grid of n_omega+1 nodes.
    """
    direct, environmental, j_xi = _characteristic(params)(0.0)
    basic = direct + environmental
    if basic <= 1.0:
        return None
    g0 = params.g(0.0)
    i0 = params.r * (1.0 - 1.0 / basic) / (g0 * _lost_share(params))
    omega = np.linspace(0.0, params.omega0, n_omega + 1)
    profile = i0 * g0 * survival_pi(omega, params)
    b_star = i0 * g0 * j_xi / params.sigma
    v_star = i0 * g0 * float(np.exp(-params.clock.decay[-1])) / (params.rho + params.mu3)
    # S* = 1/(beta_h*J_P + beta_e*J_xi/sigma) = (r/mu1)/R0
    s_star = params.r / params.mu1 / basic
    return EndemicEquilibrium(
        S=s_star,
        omega=omega,
        I=profile,
        V=v_star,
        B=b_star,
        I0=i0,
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
    """March the structured system: first-order upwind transport, exact removal.

    With c = dt/domega, the upwind step of the rightward flux g*I and the
    exact removal decay form the bidiagonal map I_j <- keep_j*I_j +
    take_j*I_{j-1} on nodes 1..n, keep = max(1 - c*g_j, 0)*decay_j and take
    = c*g_{j-1}*decay_j: nonnegative by construction, so a nonnegative
    density stays nonnegative. The clamp acts only in the 1e-12 relative
    slack of the CFL bound dt*max(g) <= domega. One product of a (3, n)
    trapezoid table (rows w*P, w*P*xi, w) with nodes 1..n gives the direct
    and shedding integrals and the mass, node 0 added as a float; a table
    that cannot be finite raises NonFiniteError.
    The pools (S, V, B) advance by the classic RK4 tableau written out
    over three floats, with the coupling frozen over the step; the nonlocal
    boundary value follows explicitly. The array work runs in fixed buffers
    and views. Each step checks floats only: the new boundary value, the
    three pools and the interior mass, which a NaN anywhere in the interior
    reaches, since its trapezoid row is all positive. A value below the
    negativity tolerance or NaN aborts with TransportBlowupError; a
    boundary value in [NEGATIVITY_ABORT, 0] is set to +0.0.
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
    p_vals = params.P(omega)
    xi_vals = params.xi(omega)
    # bounds every table entry, with the table's own rounding order
    weight_bound = step_w * float(np.max(np.abs(p_vals))) * float(np.max(np.abs(xi_vals)))
    if not math.isfinite(weight_bound):
        raise NonFiniteError("transport: the trapezoid weights of P and xi*P are not finite")
    decay_factor = np.exp(-params.mu2(omega) * dt)
    speed = (dt / step_w) * g_vals
    keep = np.maximum(1.0 - speed[1:], 0.0) * decay_factor[1:]
    take = speed[:-1] * decay_factor[1:]
    weights = np.full(n_omega, step_w)  # trapezoid weights of nodes 1..n
    weights[-1] = mass0 = 0.5 * step_w  # and of node 0, applied as floats
    table = np.array([weights * p_vals[1:], weights * p_vals[1:] * xi_vals[1:], weights])
    direct0 = mass0 * float(p_vals[0])
    shed0 = direct0 * float(xi_vals[0])
    g0, g_end = float(g_vals[0]), float(g_vals[-1])

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
    # the upwind inflow take*I[:-1], and the fixed views the step reads and writes
    inflow = np.empty(n_omega)
    interior, upstream = density[1:], density[:-1]
    multiply, add, dot = np.multiply, np.add, np.dot
    floor = NEGATIVITY_ABORT

    def record(t_now, direct, mass):
        nonlocal n_recorded
        k = n_recorded
        t_rec[k] = t_now
        s_rec[k] = s_now
        mass_rec[k] = mass
        v_rec[k] = v_now
        b_rec[k] = b_now
        f_rec[k] = beta_h * direct + beta_e * b_now
        n_recorded += 1

    def snapshot(t_now):
        nonlocal n_snapped
        snap_t[n_snapped] = t_now
        snaps[n_snapped] = density
        n_snapped += 1

    direct_in, shed_in, mass_in = dot(table, interior).tolist()
    boundary = float(density[0])
    direct_now = direct_in + direct0 * boundary
    record(0.0, direct_now, mass_in + mass0 * boundary)
    if snapshot_stride:
        snapshot(0.0)

    # the classic RK4 tableau, written out over the three pool floats in
    # the operation order of an array step
    half, sixth = 0.5 * dt, dt / 6.0
    v_loss = rho + mu3
    for n in range(n_steps):
        shed_now = shed_in + shed0 * boundary
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

        # upwind transport with exact removal: the bidiagonal map on nodes 1..n
        multiply(take, upstream, out=inflow)
        multiply(interior, keep, out=interior)
        add(interior, inflow, out=interior)

        # nonlocal boundary, explicit: fresh interior and pools, with the
        # lagged previous boundary value in the direct integral
        direct_in, shed_in, mass_in = dot(table, interior).tolist()
        direct_mix = direct_in + direct0 * boundary
        boundary = s_new * (beta_h * direct_mix + beta_e * b_new) / g0

        # NaN fails these tests; a NaN in the interior reaches mass_in
        if not (boundary >= floor and s_new >= floor and v_new >= floor
                and b_new >= floor and mass_in >= floor):
            low = next(x for x in (boundary, s_new, v_new, b_new, mass_in) if not x >= floor)
            raise TransportBlowupError(
                f"negative or non-finite state {low:.3e} at t = {n * dt + dt:.6g}"
            )
        if boundary <= 0.0:
            boundary = 0.0
        density[0] = boundary
        s_now, v_now, b_now = max(s_new, 0.0), max(v_new, 0.0), max(b_new, 0.0)
        # the next step's direct force and the recorded F share this integral
        direct_now = direct_in + direct0 * boundary

        t_next = (n + 1) * dt
        if (n + 1) % output_stride == 0 or n + 1 == n_steps:
            record(t_next, direct_now, mass_in + mass0 * boundary)
        if snapshot_stride and (n + 1) % snapshot_stride == 0:
            snapshot(t_next)

    try:
        final = StructuredState(S=s_now, I=density.copy(), V=v_now, B=b_now)
    except ValueError as exc:
        # the map and the boundary keep every value nonnegative: only a
        # non-finite one is left
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


def _clock_weights(params: BetweenHostParams) -> tuple[np.ndarray, np.ndarray]:
    """P/g * exp(-M) and xi on every clock node, evaluated per call: the
    clock keeps only the characteristic's strided columns."""
    clock = params.clock
    return params.P(clock.omega) / params.g(clock.omega) * np.exp(-clock.decay), params.xi(clock.omega)


def renewal_kernel_A(theta, params: BetweenHostParams):
    """Infectivity kernel of the renewal form, at time-since-infection theta.

    Direct part: transmission weight of a host infected theta time units
    ago, still below recovery status,

        K_h(theta) = beta_h * P(w(theta)) * exp(-M(w(theta))),

    with w(theta) the status reached after travel time theta. Environmental
    part (_kernel_env): contribution through bacteria of age a shed at
    theta - a,

        K_e(theta) = int beta_e * e^{-sigma*a} * xi(w)*P(w)*exp(-M(w)) da,
        w = w(theta - a),  a in [max(0, theta - T0), min(a_bar, theta)],

    where T0 is the travel time to recovery. The kernel is K_h + K_e,
    exactly 0 at and past a_bar + T0; a negative theta raises ValueError.
    Accepts scalar or array theta.
    """
    total = params.clock.total_time
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if np.any(theta_arr < 0):
        raise ValueError("theta must be nonnegative")
    out = np.zeros_like(theta_arr)
    direct = theta_arr <= total
    if params.beta_h > 0 and np.any(direct):
        w = params.clock.status_at(theta_arr[direct])
        out[direct] = params.beta_h * params.P(w) * np.exp(-params.clock.decay_at(w))
    if params.beta_e > 0:
        out += _kernel_env(theta_arr, params)
    return float(out[0]) if np.ndim(theta) == 0 else out


def _kernel_env(theta: np.ndarray, params: BetweenHostParams) -> np.ndarray:
    """Environmental-route kernel values at a 1-d array of delays theta.

    With the shedding load Y(u) = int_0^u e^{-sigma*(u-v)} xi*P*exp(-M) dv,
    the bacteria alive at travel time u, K_e(theta) = beta_e *
    [e^{-sigma*(theta-u_hi)}*Y(u_hi) - e^{-sigma*(theta-u_lo)}*Y(u_lo)] over
    the shedding times [u_lo, u_hi] = [clip(theta - a_bar, 0, T0), min(T0,
    theta)]. Y is tabulated on the clock nodes, Y_j = e^{-sigma*dG_j} *
    Y_{j-1} + the panel's trapezoid of e^{-sigma*(G_j-G)}*xi*P/g*exp(-M) in
    status, and read between them by interpolation in G. A non-finite load
    raises NonFiniteError.
    """
    clock = params.clock
    total = clock.total_time
    weight, xi = _clock_weights(params)
    half = xi * weight * (0.5 * params.omega0 / CLOCK_NODES)
    fade = np.exp(-params.sigma * np.diff(clock.elapsed))
    y, load = 0.0, [0.0]
    for f, a, b in zip(fade.tolist(), half[:-1].tolist(), half[1:].tolist()):
        y = f * (y + a) + b
        load.append(y)
    load = np.array(load)
    if not np.isfinite(load).all():
        raise NonFiniteError("renewal kernel: the shedding load is not finite")
    # theta - a_bar may round below T0 at theta = a_bar + T0: the end is explicit
    inside = theta < params.a_bar + total
    delay = theta[inside]
    hi, lo = (
        np.exp(-params.sigma * (delay - u)) * np.interp(u, clock.elapsed, load)
        for u in (np.minimum(total, delay), np.clip(delay - params.a_bar, 0.0, total))
    )
    out = np.zeros_like(theta)
    out[inside] = params.beta_e * (hi - lo)
    return out


def kernel_total_integral(params: BetweenHostParams) -> float:
    """Integral of the renewal kernel over its support [0, a_bar + T0].

    Integrated over the bacterial age first, the environmental route keeps
    the closed-form age factor (1 - e^{-sigma*a_bar})/sigma; in status,
    dtheta = domega/g. So the total is one Simpson sum on every clock node,
    int_0^omega0 (beta_h + beta_e*age_factor*xi)*P/g*exp(-M) domega. At the
    endemic state S* times it is 1, up to the characteristic table's error
    and the exponential age-cap truncation.
    """
    weight, xi = _clock_weights(params)
    age_factor = -math.expm1(-params.sigma * params.a_bar) / params.sigma
    return quadrature((params.beta_h + params.beta_e * age_factor * xi) * weight, params.omega0)


@dataclass
class RenewalRun:
    """Force-of-infection and susceptible traces from the renewal solver."""

    t: np.ndarray
    S: np.ndarray
    F: np.ndarray


def simulate_renewal(
    params: BetweenHostParams,
    initial_I: Coefficient,
    S0: float,
    t_max: float,
    dt: float,
) -> RenewalRun:
    """Advance the renewal pair S' = r - mu1*S - S*F,
    F(t) = int_0^Theta A(w) S(t-w) F(t-w) dw, from the infected density
    initial_I and S0 at t = 0.

    Theta = a_bar + travel time T0 to recovery. The memory window, a fixed
    trapezoid stencil, is padded past Theta, where A is 0, to m =
    max(ceil(Theta/dt), 1) steps, so the run takes round(t_max/dt) steps
    of any dt, on the transport solver's clock. The density enters as the
    matched history F(-theta) = initial_I(w(theta)) / (pi(w(theta)) * S0)
    for theta <= T0, zero earlier: entrants at -theta that survived to
    status w(theta), with S held at S0. A history that is not finite (an
    underflowed survival factor) raises NonFiniteError; a window of more
    steps than an array can hold, and rho > 0 (no return flow from the
    recovered pool), raise ValueError.
    The new F value appears inside its own convolution through the w = 0
    node, a scalar linear equation solved in closed form each step; S
    advances by a Heun predictor-corrector. The state travels as Python
    floats and the arrays only record it. A lost diagonal dominance or a
    negative or non-finite state aborts with TransportBlowupError.
    """
    if params.rho > 0:
        raise ValueError(f"rho = {params.rho!r}: the renewal pair has no return from the recovered pool")
    clock = params.clock
    total = clock.total_time
    window_steps = (params.a_bar + total) / dt
    if not math.isfinite(window_steps):
        raise ValueError(f"{window_steps!r} steps of dt = {dt!r} are more than an array can hold")
    m = max(math.ceil(window_steps), 1)
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
    theta = m * dt - ages
    w = clock.status_at(np.minimum(theta, total))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f_arr[: m + 1] = np.where(theta <= total, initial_I(w) / (survival_pi(w, params) * S0), 0.0)
    if not np.isfinite(f_arr[: m + 1]).all():
        raise NonFiniteError("renewal: the history matched to run.initial.I is not finite")
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


def endemic_char_residual(params: BetweenHostParams) -> Callable:
    """The endemic-linearization characteristic residual as a function of a
    trial rate lam; a root means a mode growing like e^{lam*t}:

      G(lam)/R0 + F* * (R(lam) - 1)/(lam + mu1) - 1,

    with G the infection-free characteristic function, F* = g(0)*I*(0)/S*
    = mu1*(R0 - 1)/_lost_share the endemic force of infection, and R(lam) =
    rho*exp(-M(omega0) - lam*T0)/(lam + rho + mu3) the return through the
    recovered pool. R0, F* and G read the one node table of
    _characteristic. lam may be a scalar (real or complex) or a 1-d array
    of rates, each entry equal bit for bit to the scalar call. A rate within
    min(POLE_GUARD, p/2) of a pole at -p (-mu1, -sigma, -(rho+mu3)) raises
    PoleError, so no rate lam >= 0 is refused. At or below threshold there
    is no endemic state: ValueError.
    """
    characteristic = _characteristic(params)
    direct, environmental, _ = characteristic(0.0)
    basic = direct + environmental
    if basic <= 1.0:
        raise ValueError("spectrum scan needs a reproduction number above 1")
    if not math.isfinite(basic):
        # G/R0 has no finite value at any rate
        raise NonFiniteError("endemic spectrum scan: the characteristic residual is not finite")
    # F* in closed form: no division by an S* that can underflow
    force = params.mu1 * (basic - 1.0) / _lost_share(params)
    recovery = params.rho * float(np.exp(-params.clock.decay[-1]))
    total = params.clock.total_time
    poles = [("-mu1", params.mu1), ("-sigma", params.sigma), ("-(rho+mu3)", params.rho + params.mu3)]
    if params.beta_e == 0:
        del poles[1]  # no environmental route, no pole at -sigma
    guards = [(name, pole, min(POLE_GUARD, 0.5 * pole)) for name, pole in poles]

    def residual(lam):
        for name, pole, guard in guards:
            if np.any(np.abs(lam + pole) < guard):
                raise PoleError(f"lam too close to the pole at {name}")
        direct, environmental, _ = characteristic(lam)
        returned = recovery * np.exp(-lam * total) / (lam + params.rho + params.mu3)
        return (direct + environmental) / basic + force * (returned - 1.0) / (lam + params.mu1) - 1.0

    return residual


@dataclass(frozen=True)
class ResidualScan:
    """Endemic characteristic residual on a uniform grid of real rates,
    and the roots bracketed by its sign changes."""

    lam: np.ndarray
    residual: np.ndarray
    roots: list[float]


def endemic_spectrum_scan(params: BetweenHostParams) -> ResidualScan:
    """Real-axis root scan of the endemic characteristic residual on
    [0, SPECTRUM_SCAN_MAX] at SPECTRUM_SCAN_STEP: the grid goes through the
    array form of the residual in blocks of KERNEL_BLOCK rates, and
    neighbours of opposite sign bracket a root, which is refined by scalar
    calls of the same residual. Only the signs of the values are
    multiplied, so no product overflows; a non-finite residual raises
    NonFiniteError. The root list is empty for every parameter set: for
    real lam >= 0 every weight of G falls as lam grows, so G/R0 <= 1, and
    R(lam) <= rho/(rho + mu3) < 1, so the residual is at most F*(R(lam) -
    1)/(lam + mu1) < 0. An unstable mode can only be complex, outside this
    check's scope.
    """
    residual = endemic_char_residual(params)
    grid = np.arange(0.0, SPECTRUM_SCAN_MAX + 0.5 * SPECTRUM_SCAN_STEP, SPECTRUM_SCAN_STEP)
    values = np.concatenate(
        [residual(grid[start : start + KERNEL_BLOCK]) for start in range(0, grid.size, KERNEL_BLOCK)]
    )
    if not np.isfinite(values).all():
        raise NonFiniteError("endemic spectrum scan: the characteristic residual is not finite")
    zero = values == 0.0
    change = np.append(np.sign(values[:-1]) * np.sign(values[1:]) < 0, False)
    roots = [
        float(grid[i]) if zero[i] else find_root(residual, float(grid[i]), float(grid[i + 1]))
        for i in np.flatnonzero(zero | change)
    ]
    return ResidualScan(lam=grid, residual=values, roots=roots)
