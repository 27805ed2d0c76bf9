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
the package's is. The package's loop carries the state as Python
floats with the same operations in the same order.

``sweep_branch_loop`` is the earlier branch sweep: one Python-float
clearance rate at a time through within_host's closed forms, and the
eigenvalue pair and stability tag of each point from the trace and
determinant of its Jacobian. The package evaluates the whole sweep as
arrays and must return the same columns bit for bit.

``write_rows_table`` is the earlier whole-table CSV writer; the package's
block-streamed writer must produce the same bytes.

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
    NEGATIVITY_ABORT,
    EpidemicRun,
    RenewalRun,
    StructuredState,
    renewal_kernel_A,
)
from immunoepi.bifurcation import SweepSpec
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

    t = dt * np.arange(n_steps + 1)
    return RenewalRun(t=t, S=s_arr[m:], F=f_arr[m:])


def sweep_branch_loop(params: wh.WithinHostParams, spec: SweepSpec) -> dict[str, list[tuple]]:
    """The branches of a sweep point by point: {"upper", "lower",
    "trivial"} lists of (param, T, P, ev1, ev2, stability) rows, the
    eigenvalues complex."""

    def point(value, T, P, Gamma):
        J = wh.jacobian_fast((T, P), params, Gamma)
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
    for value in spec.values().tolist():
        Gamma = spec.to_gamma(params, value)
        eq = wh.equilibria_fast(params, Gamma)
        rows["trivial"].append(point(value, *eq.trivial, Gamma))
        if eq.exists:
            rows["upper"].append(point(value, *eq.upper, Gamma))
            rows["lower"].append(point(value, *eq.lower, Gamma))
    return rows


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
