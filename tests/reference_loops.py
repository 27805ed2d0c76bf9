"""Earlier implementations kept as references for the package's faster ones.

``rk4_step_array`` and ``simulate_epidemic_array`` are the earlier array
implementations: the pools travel as a 3-element ndarray, the rhs builds a
new array per stage, every step allocates its own temporaries, and records
grow as Python lists. The RK4 written out over the two floats of a cycle
orbit, and the transport loop's written-out pool RK4, buffered bidiagonal
upwind map, one product for the coupling integrals and preallocated
records keep the same operation order, so the tests hold them to these
references bit for bit.

``simulate_epidemic_flux_form`` is the transport loop before that: the
flux-form upwind update, and each coupling integral and the mass as a
trapezoid dot over all nodes. It rounds in a different order, so the tests
hold the package within a rounding bound of it.

``simulate_renewal_array`` is the earlier renewal loop: it re-reads the
state from the record arrays as numpy scalars each step and solves for F
through a per-step closure. Its memory window is padded to whole steps as
the package's is. It reads F before time zero from a history callable,
where the package builds that history from the initial density; the tests
pass the history matched to the same density, so the comparison also pins
the package's history. The package's loop carries the state as Python
floats with the same operations in the same order.

``sweep_branch_loop`` is the earlier branch sweep: one Python-float
clearance rate at a time through within_host's closed forms, and the
eigenvalue pair and stability tag of each point from the trace and
determinant of its Jacobian.

``nontrivial_pair_array``, ``equilibria_fast_array``,
``jacobian_fast_array``, ``upper_branch_P_array``,
``immune_growth_g_array``, ``branch_array`` and ``sweep_array`` are the
earlier array forms of the within-host closed forms and of the sweep: one
numpy pass over every rate, status or sweep value, the sweep's values from
``np.linspace``. The package writes each closed form once over Python
floats, maps it over an array, and sweeps column by column; it must return
the same values bit for bit.

``write_rows_table`` is the earlier whole-table CSV writer; the package's
block-streamed writer must produce the same bytes.

``build_clock_array`` is the earlier status clock over numpy arrays, its
coefficients on the nodes by each family's earlier numpy form
(``coefficient_array``): np.full_like, the linear form, np.exp, np.interp
and the within-host array forms. The package builds the clock over Python
floats in the same operation order, its cumulative sums left to right as
np.cumsum's, and must return the same columns bit for bit on every family
but the exponential one, where math.exp and numpy's differ in the last bit.

``integrate_ode_array`` (with ``dp45_step_array`` and its event locator)
is the earlier Dormand-Prince integrator: the state is a 3-element
ndarray, every stage runs a few ufuncs on it, and the error norm is numpy's
root mean square. ``rhs_full_array`` is the earlier within-host field that
returns a new ndarray. The package's integrator carries the state as a
tuple of Python floats with the same operations in the same order, and
must return the same trajectory, event time and event state bit for bit.
"""

import math

import numpy as np

from immunoepi import numerics
from immunoepi import within_host as wh
from immunoepi.between_host import (
    CLOCK_NODES,
    COEFFICIENT_FIELDS,
    NEGATIVITY_ABORT,
    EpidemicRun,
    RenewalRun,
    StructuredState,
    renewal_kernel_A,
)
from immunoepi.bifurcation import Branch, SweepSpec
from immunoepi.numerics import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63,
    _A64, _A65, _A71, _A72, _A73, _A74, _A75, _A76, _B1, _B3, _B4, _B5, _B6, _B7,
    _C2, _C3, _C4, _C5,
    EVENT_RELATIVE_TOL,
    Trajectory,
    find_root,
)
from immunoepi.errors import NonFiniteError, StepLimitError, TransportBlowupError


def rk4_step_array(rhs, t, y, h):
    """One classic RK4 step on an ndarray state."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def simulate_epidemic_array(
    params, initial, t_max, n_omega, dt, output_stride=1, snapshot_stride=0
):
    """The transport loop with ndarray pools and per-step temporaries: the
    bidiagonal upwind map, and the coupling integrals from one product of
    the (3, n) weights table with nodes 1..n plus node 0 as a float."""
    omega = np.linspace(0.0, params.omega0, n_omega + 1)
    step_w = params.omega0 / n_omega
    g_vals = params.g(omega)
    p_vals = params.P(omega)
    xi_vals = params.xi(omega)
    decay_factor = np.exp(-params.mu2(omega) * dt)
    speed = (dt / step_w) * g_vals
    keep = np.maximum(1.0 - speed[1:], 0.0) * decay_factor[1:]
    take = speed[:-1] * decay_factor[1:]
    trap = np.full(n_omega, step_w)
    trap[-1] = 0.5 * step_w
    table = np.array([trap * p_vals[1:], trap * p_vals[1:] * xi_vals[1:], trap])
    mass0 = 0.5 * step_w
    direct0 = mass0 * float(p_vals[0])
    shed0 = direct0 * float(xi_vals[0])
    g0 = float(g_vals[0])
    g_end = float(g_vals[-1])

    n_steps = int(round(t_max / dt))
    density = initial.I.copy()
    s_now, v_now, b_now = float(initial.S), float(initial.V), float(initial.B)

    rec_t, rec_s, rec_mass, rec_v, rec_b, rec_f = [], [], [], [], [], []
    snap_t, snap_rows = [], []

    def integrals(density_row):
        """Direct and shedding integrals and the mass of one density row."""
        direct_in, shed_in, mass_in = np.dot(table, density_row[1:])
        node0 = float(density_row[0])
        return (
            float(direct_in) + direct0 * node0,
            float(shed_in) + shed0 * node0,
            float(mass_in) + mass0 * node0,
        )

    def record(t_now, direct, mass):
        rec_t.append(t_now)
        rec_s.append(s_now)
        rec_mass.append(mass)
        rec_v.append(v_now)
        rec_b.append(b_now)
        rec_f.append(params.beta_h * direct + params.beta_e * b_now)

    def snapshot(t_now):
        snap_t.append(t_now)
        snap_rows.append(density.copy())

    direct_now, shed_now, mass_now = integrals(density)
    record(0.0, direct_now, mass_now)
    if snapshot_stride:
        snapshot(0.0)

    for n in range(n_steps):
        t_now = n * dt
        outflux = g_end * density[-1]

        def scalar_rhs(t, y):
            s, v, b = y
            ds = (
                params.r - params.mu1 * s
                - s * (params.beta_h * direct_now + params.beta_e * b)
                + params.rho * v
            )
            dv = outflux - (params.rho + params.mu3) * v
            db = shed_now - params.sigma * b
            return np.array([ds, dv, db])

        y = np.array([s_now, v_now, b_now])
        s_new, v_new, b_new = rk4_step_array(scalar_rhs, t_now, y, dt)

        inflow = take * density[:-1]
        density[1:] *= keep
        density[1:] += inflow

        direct_mix, _, _ = integrals(density)
        density[0] = s_new * (params.beta_h * direct_mix + params.beta_e * b_new) / g0

        low = min(float(density.min()), s_new, v_new, b_new)
        if low < NEGATIVITY_ABORT:
            raise TransportBlowupError(f"negative density {low:.3e}")
        np.clip(density, 0.0, None, out=density)
        s_now, v_now, b_now = max(s_new, 0.0), max(v_new, 0.0), max(b_new, 0.0)
        direct_now, shed_now, mass_now = integrals(density)

        t_next = (n + 1) * dt
        if (n + 1) % output_stride == 0 or n + 1 == n_steps:
            record(t_next, direct_now, mass_now)
        if snapshot_stride and (n + 1) % snapshot_stride == 0:
            snapshot(t_next)

    final = StructuredState(S=s_now, I=density.copy(), V=v_now, B=b_now)
    return EpidemicRun(
        omega=omega,
        t=np.asarray(rec_t),
        S=np.asarray(rec_s),
        I_total=np.asarray(rec_mass),
        V=np.asarray(rec_v),
        B=np.asarray(rec_b),
        F=np.asarray(rec_f),
        snapshot_t=np.asarray(snap_t),
        snapshots=np.asarray(snap_rows) if snap_rows else np.empty((0, n_omega + 1)),
        final=final,
    )


def simulate_epidemic_flux_form(
    params, initial, t_max, n_omega, dt, output_stride=1, snapshot_stride=0
):
    """The earlier transport loop: the flux-form upwind update, and each
    coupling integral as a trapezoid dot over all nodes."""
    omega = np.linspace(0.0, params.omega0, n_omega + 1)
    step_w = params.omega0 / n_omega
    g_vals = params.g(omega)
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

    rec_t, rec_s, rec_mass, rec_v, rec_b, rec_f = [], [], [], [], [], []
    snap_t, snap_rows = [], []

    def force_of(density_row, b_val):
        direct = float(np.dot(trap, p_vals * density_row))
        return params.beta_h * direct + params.beta_e * b_val, direct

    def record(t_now, f_now):
        rec_t.append(t_now)
        rec_s.append(s_now)
        rec_mass.append(float(np.dot(trap, density)))
        rec_v.append(v_now)
        rec_b.append(b_now)
        rec_f.append(f_now)

    def snapshot(t_now):
        snap_t.append(t_now)
        snap_rows.append(density.copy())

    f_now, _ = force_of(density, b_now)
    record(0.0, f_now)
    if snapshot_stride:
        snapshot(0.0)

    courant = dt / step_w
    flux = np.empty_like(density)
    for n in range(n_steps):
        t_now = n * dt
        f_now, direct_now = force_of(density, b_now)
        shed_now = float(np.dot(trap, shed_weight * density))
        outflux = g_end * density[-1]

        def scalar_rhs(t, y):
            s, v, b = y
            ds = (
                params.r - params.mu1 * s
                - s * (params.beta_h * direct_now + params.beta_e * b)
                + params.rho * v
            )
            dv = outflux - (params.rho + params.mu3) * v
            db = shed_now - params.sigma * b
            return np.array([ds, dv, db])

        y = np.array([s_now, v_now, b_now])
        s_new, v_new, b_new = rk4_step_array(scalar_rhs, t_now, y, dt)

        np.multiply(g_vals, density, out=flux)
        density[1:] -= courant * (flux[1:] - flux[:-1])
        density[1:] *= decay_factor[1:]

        direct_mix = float(np.dot(trap, p_vals * density))
        density[0] = s_new * (params.beta_h * direct_mix + params.beta_e * b_new) / g0

        low = min(float(density.min()), s_new, v_new, b_new)
        if low < NEGATIVITY_ABORT:
            raise TransportBlowupError(f"negative density {low:.3e}")
        np.clip(density, 0.0, None, out=density)
        s_now, v_now, b_now = max(s_new, 0.0), max(v_new, 0.0), max(b_new, 0.0)

        t_next = (n + 1) * dt
        if (n + 1) % output_stride == 0 or n + 1 == n_steps:
            f_next, _ = force_of(density, b_now)
            record(t_next, f_next)
        if snapshot_stride and (n + 1) % snapshot_stride == 0:
            snapshot(t_next)

    final = StructuredState(S=s_now, I=density.copy(), V=v_now, B=b_now)
    return EpidemicRun(
        omega=omega,
        t=np.asarray(rec_t),
        S=np.asarray(rec_s),
        I_total=np.asarray(rec_mass),
        V=np.asarray(rec_v),
        B=np.asarray(rec_b),
        F=np.asarray(rec_f),
        snapshot_t=np.asarray(snap_t),
        snapshots=np.asarray(snap_rows) if snap_rows else np.empty((0, n_omega + 1)),
        final=final,
    )


def simulate_renewal_array(params, history, S0, t_max, dt):
    """The renewal loop that re-reads numpy scalars and solves each F
    through a per-step closure."""
    window = params.a_bar + params.clock.total_time
    m = max(math.ceil(window / dt), 1)  # padded past the window, where A is 0
    n_steps = int(round(t_max / dt))
    ages = dt * np.arange(m + 1)
    kernel = renewal_kernel_A(ages, params)
    weights = np.full(m + 1, dt)
    weights[0] = weights[-1] = 0.5 * dt
    tail = (kernel * weights)[1:][::-1]  # aligned with SF[j-m+1 .. j]
    anchor = 0.5 * dt * kernel[0]

    size = m + 1 + n_steps
    f_arr = np.empty(size)
    s_arr = np.empty(size)
    f_arr[: m + 1] = history(-m * dt + dt * np.arange(m + 1))
    s_arr[: m + 1] = S0
    sf = s_arr[: m + 1] * f_arr[: m + 1]
    sf_arr = np.empty(size)
    sf_arr[: m + 1] = sf

    for j in range(m, size - 1):
        s_j, f_j = s_arr[j], f_arr[j]
        drift = params.r - params.mu1 * s_j - s_j * f_j
        s_pred = s_j + dt * drift
        past = float(np.dot(tail, sf_arr[j - m + 1 : j + 1]))

        def solve_f(s_val):
            denom = 1.0 - anchor * s_val
            if denom <= 1e-12:
                raise TransportBlowupError("renewal step lost diagonal dominance")
            return past / denom

        f_next = solve_f(s_pred)
        drift_pred = params.r - params.mu1 * s_pred - s_pred * f_next
        s_next = s_j + 0.5 * dt * (drift + drift_pred)
        f_next = solve_f(s_next)
        if not (s_next >= NEGATIVITY_ABORT and f_next >= NEGATIVITY_ABORT):
            raise TransportBlowupError("renewal state went negative or non-finite")
        s_arr[j + 1] = max(s_next, 0.0)
        f_arr[j + 1] = max(f_next, 0.0)
        sf_arr[j + 1] = s_arr[j + 1] * f_arr[j + 1]

    return RenewalRun(S=s_arr[m:], F=f_arr[m:])


def sweep_branch_loop(params: wh.WithinHostParams, spec: SweepSpec) -> dict[str, list[tuple]]:
    """The branches of a sweep point by point: {"upper", "lower",
    "trivial"} lists of (param, T, P, ev1, ev2, stability) rows, the
    eigenvalues complex."""

    def point(value, T, P, Gamma):
        J = np.asarray(wh.jacobian_fast((T, P), params, Gamma))
        trace = float(J[0, 0] + J[1, 1])
        det = float(J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0])
        disc = trace * trace - 4.0 * det
        if disc >= 0:
            r = np.sqrt(disc)
            ev = (complex(0.5 * (trace - r)), complex(0.5 * (trace + r)))
        else:
            r = np.sqrt(-disc)
            ev = (complex(0.5 * trace, -0.5 * r), complex(0.5 * trace, 0.5 * r))
        if det < -1e-9:
            stability = "saddle"
        elif abs(trace) <= 1e-9:
            stability = "marginal"
        else:
            stability = ("stable-" if trace < 0 else "unstable-") + ("focus" if disc < 0 else "node")
        return (value, T, P, *ev, stability)

    rows: dict[str, list[tuple]] = {"upper": [], "lower": [], "trivial": []}
    for value in np.asarray(spec.values()).tolist():
        Gamma = spec.to_gamma(params, value)
        eq = wh.equilibria_fast(params, Gamma)
        rows["trivial"].append(point(value, *eq.trivial, Gamma))
        if eq.exists:
            rows["upper"].append(point(value, *eq.upper, Gamma))
            rows["lower"].append(point(value, *eq.lower, Gamma))
    return rows


def nontrivial_pair_array(params, Gamma):
    """Closed form of the nontrivial pair at clearance rate Gamma, elementwise.

    Returns (disc, P_lo, P_hi) with the shape of Gamma. The pair solves
    alpha*Gamma*P^2 - alpha*Lambda*P + mu*Gamma = 0; a discriminant within
    rounding of zero is clamped to the double root, and where it stays
    negative no pair exists and both loads are NaN. Rates past the float
    range overflow here; the callers evaluate it under one errstate scope,
    so the inf or NaN reaches their checks unwarned.
    """
    a, mu, lam = params.alpha, params.mu, params.Lambda
    disc = a * a * lam * lam - 4.0 * a * mu * Gamma * Gamma
    # double root lost to rounding exactly at the threshold
    disc = np.where((-1e-13 * max(a * a * lam * lam, 1.0) < disc) & (disc < 0.0), 0.0, disc)
    root = np.sqrt(np.where(disc < 0.0, np.nan, disc))
    P_hi = (a * lam + root) / (2.0 * Gamma * a)
    P_lo = (a * lam - root) / (2.0 * Gamma * a)
    return disc, P_lo, P_hi


def equilibria_fast_array(params, Gamma):
    """(exists, lower, upper) of the fast subsystem at an array of clearance
    rates, NaN where no pair exists."""
    a, mu, lam = params.alpha, params.mu, params.Lambda
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        disc, P_lo, P_hi = nontrivial_pair_array(params, Gamma)
        lower = (lam / (mu + a * P_lo * P_lo), P_lo)
        upper = (lam / (mu + a * P_hi * P_hi), P_hi)
    exists = ~(disc < 0.0)
    return exists, lower, upper


def jacobian_fast_array(tp, params, Gamma):
    """Jacobian of the fast subsystem at a point (T, P) and clearance rate
    Gamma; T, P and Gamma arrays of one shape give a (2, 2, ...) array."""
    T, P = tp
    a = params.alpha
    return np.array(
        [
            [-params.mu - a * P * P, -2.0 * a * P * T],
            [a * P * P, 2.0 * a * P * T - Gamma],
        ]
    )


def upper_branch_P_array(W, params):
    """Pathogen load on the upper (infected) manifold branch at status W.

    Accepts a scalar or an array of statuses. Defined for W in [0, W_fold];
    a hair of rounding slack is allowed at the tip itself, where the load
    is sqrt(mu/alpha). A negative status or one past the fold raises
    ValueError naming the first such node.
    """
    W_arr = np.asarray(W, dtype=float)
    # only the loads: no T arrays on a coefficient table's nodes
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        disc, _, P_hi = nontrivial_pair_array(params, params.gamma_eff(W_arr))
    _, W_max = wh.manifold_tip(params)
    missing = disc < 0.0
    negative = W_arr < 0.0
    # discriminant lost to rounding exactly at the tip
    beyond = missing & ~(W_arr <= W_max * (1.0 + 1e-12) + 1e-12)
    bad = np.flatnonzero(negative | beyond)
    if bad.size:
        first = bad[0]
        w = W_arr.flat[first]
        if negative.flat[first]:
            raise ValueError(f"immune status must be nonnegative, got {w}")
        raise ValueError(f"no infected branch at W={w} (fold at W={W_max})")
    out = np.where(missing, np.sqrt(params.mu / params.alpha), P_hi)
    return float(out) if out.ndim == 0 else out


def immune_growth_g_array(omega, params):
    """g(omega) = kappa*P_plus(omega) - c*omega on a scalar or an array."""
    omega_arr = np.asarray(omega, dtype=float)
    out = params.kappa * upper_branch_P_array(omega_arr, params) - params.c * omega_arr
    return float(out) if np.ndim(out) == 0 else out


def branch_array(param, T, P, params, Gamma):
    """The points (T, P) at clearance rates Gamma with the eigenvalues and
    stability tag of the fast Jacobian there (trace and determinant within
    1e-9 of zero count as zero)."""
    J = jacobian_fast_array((T, P), params, Gamma)
    trace = J[0, 0] + J[1, 1]
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    disc = trace * trace - 4.0 * det
    real = disc >= 0.0
    root = np.sqrt(np.abs(disc))
    eigenvalues = np.column_stack([
        np.where(real, 0.5 * (trace - root), 0.5 * trace),
        np.where(real, 0.0, -0.5 * root),
        np.where(real, 0.5 * (trace + root), 0.5 * trace),
        np.where(real, 0.0, 0.5 * root),
    ]).view(complex)
    stability = np.select(
        [det < -1e-9, np.abs(trace) <= 1e-9, (trace < 0.0) & (disc < 0.0), trace < 0.0, disc < 0.0],
        ["saddle", "marginal", "stable-focus", "stable-node", "unstable-focus"],
        "unstable-node",
    )
    return Branch(param, T, P, eigenvalues, stability)


def sweep_array(params, spec):
    """The sweep grid's values (np.linspace), clearance rates and pair mask,
    and its trivial, upper and lower branches of arrays on every value (NaN
    where no pair exists), in one guarded pass."""
    values = np.linspace(spec.lo, spec.hi, spec.n)
    with np.errstate(over="ignore", invalid="ignore"):
        Gamma = spec.to_gamma(params, values)
        exists, lower, upper = equilibria_fast_array(params, Gamma)
        trivial = branch_array(
            values, np.full_like(values, params.Lambda / params.mu), np.zeros_like(values),
            params, Gamma,
        )
        upper, lower = (branch_array(values, T, P, params, Gamma) for T, P in (upper, lower))
    return values, Gamma, exists, trivial, upper, lower


def write_rows_table(path, header, table):
    """Write a whole 2-D float table as CSV, one shortest round-trip repr per
    value."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in table:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def rhs_full_array(state, params):
    """Time derivative of (T, P, W)."""
    T, P, W = state
    infection = params.alpha * P * P * T
    dT = params.Lambda - params.mu * T - infection
    dP = infection - params.gamma * P - params.delta * P * W
    dW = params.epsilon * (params.kappa * P - params.c * W)
    return np.array([dT, dP, dW])


def dp45_step_array(rhs, t, y, h, k1=None):
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


def locate_event_array(rhs, event, t_lo, y_lo, t_hi, y_hi):
    """Event crossing time on the bracketing step, by find_root.

    The state at a trial time is one Dormand-Prince step from the left end
    of the bracketing step. The right end keeps its accepted state, so the
    bracket keeps the sign change the step detected. Width tolerance is
    relative (EVENT_RELATIVE_TOL).
    """
    k1 = rhs(t_lo, y_lo)

    def state_at(t):
        return y_hi if t == t_hi else dp45_step_array(rhs, t_lo, y_lo, t - t_lo, k1)[0]

    tol = EVENT_RELATIVE_TOL * max(1.0, abs(t_hi))
    t_ev = find_root(lambda t: event(t, state_at(t)), t_lo, t_hi, tol=tol)
    return t_ev, state_at(t_ev)


def _crossed(e_prev, e_new):
    """The event test: a fall from positive to zero or below."""
    return e_prev > 0.0 and e_new <= 0.0


def integrate_ode_array(rhs, y0, t_span, event=None):
    """Integrate ``y' = rhs(t, y)`` over ``t_span``, stopping at an event zero.

    ``rhs`` must return a float ndarray shaped like ``y``. The event, when
    given, is a scalar function of (t, y); integration stops where it
    first falls from positive to zero or below, located by find_root on the
    bracketing step. Steps are accepted to the package's tolerances
    numerics.RTOL and numerics.ATOL, read at call time. Raises
    NonFiniteError if the state leaves the finite range and StepLimitError
    after MAX_STEPS steps.
    """
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
    k_carry = None
    steps = 0
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        if steps >= numerics.MAX_STEPS:
            raise StepLimitError(f"exceeded {numerics.MAX_STEPS} steps")
        steps += 1
        h = min(h, t1 - t)
        y_new, err, k_last = dp45_step_array(rhs, t, y, h, k_carry)
        if not np.all(np.isfinite(y_new)):
            h *= 0.5
            k_carry = None
            if h < 1e-15 * max(1.0, abs(t)):
                raise NonFiniteError(f"state blew up near t={t:.6g}")
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            scale = numerics.ATOL + numerics.RTOL * np.maximum(np.abs(y), np.abs(y_new))
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
                    t_ev, y_ev = locate_event_array(rhs, event, t, y, t_new, y_new)
                    ts.append(t_ev)
                    ys.append(y_ev)
                    return Trajectory(np.array(ts), np.array(ys), t_ev)
                e_prev = e_new
            t, y = t_new, y_new
            ts.append(t)
            ys.append(y.copy())
            k_carry = k_last
        else:
            k_carry = None
        factor = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return Trajectory(np.array(ts), np.array(ys))


def coefficient_array(coefficient, w):
    """A coefficient's values on an ndarray of statuses by its family's
    earlier numpy form."""
    d, family = coefficient.describe, coefficient.family
    if family == "constant":
        return np.full_like(w, d["value"])
    if family == "linear":
        return d["intercept"] + d["slope"] * w
    if family == "exponential":
        return d["amplitude"] * np.exp(d["rate"] * w)
    if family == "table":
        return np.interp(w, np.asarray(d["omega"]), np.asarray(d["value"]))
    form = upper_branch_P_array if d["kind"] == "pathogen_load" else immune_growth_g_array
    return form(w, wh.WithinHostParams(**d["within_host"]))


def build_clock_array(params):
    """The status clock's nodes and columns over numpy arrays, by name, for
    coefficients that are finite and admissible on them."""
    graded = any(getattr(params, name).family == "within_host" for name in COEFFICIENT_FIELDS)
    if graded:
        u = np.linspace(1.0, 0.0, CLOCK_NODES + 1)
        nodes = params.omega0 * (1.0 - u * u)
    else:
        nodes = np.linspace(0.0, params.omega0, CLOCK_NODES + 1)
    w = 2.0 * np.linspace(1.0, 0.0, CLOCK_NODES + 1) if graded else 1.0
    values = {name: coefficient_array(getattr(params, name), nodes) for name in COEFFICIENT_FIELDS}
    p_over_g = values["P"] / values["g"] * w
    step = params.omega0 / CLOCK_NODES
    inv_g = w / values["g"]
    ratio = values["mu2"] * inv_g
    return {
        "omega": nodes,
        "elapsed": np.concatenate([[0.0], np.cumsum(0.5 * (inv_g[1:] + inv_g[:-1]) * step)]),
        "decay": np.concatenate([[0.0], np.cumsum(0.5 * (ratio[1:] + ratio[:-1]) * step)]),
        "p_over_g": p_over_g,
        "xi_p_over_g": values["xi"] * p_over_g,
    }
