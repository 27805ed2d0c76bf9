"""Earlier implementations kept as references for the package's faster ones.

``rk4_step_array`` and ``simulate_epidemic_array`` are the earlier array
implementations: the pools travel as a 3-element ndarray, the rhs builds a
new array per stage, every step allocates its own temporaries, and records
grow as Python lists. The package's float-pool RK4, buffered upwind step and
preallocated records keep the same operation order, so the tests hold them
to these references bit for bit.

``write_rows_table`` is the earlier whole-table CSV writer; the package's
block-streamed writer must produce the same bytes.
"""

import numpy as np

from immunoepi.between_host import (
    NEGATIVITY_ABORT,
    EpidemicRun,
    StructuredState,
    TransportBlowupError,
)


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
    """The transport loop with ndarray pools and per-step temporaries."""
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

    boundary_t = np.empty(n_steps + 1)
    boundary_flux = np.empty(n_steps + 1)
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
    boundary_t[0] = 0.0
    boundary_flux[0] = g0 * density[0]
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
        boundary_t[n + 1] = t_next
        boundary_flux[n + 1] = g0 * density[0]
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
        boundary_t=boundary_t,
        boundary_flux=boundary_flux,
        snapshot_t=np.asarray(snap_t),
        snapshots=np.asarray(snap_rows) if snap_rows else np.empty((0, n_omega + 1)),
        final=final,
    )


def write_rows_table(path, header, table):
    """Write a whole 2-D float table as CSV, one shortest round-trip repr per
    value."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in table:
            fh.write(",".join(map(repr, row.tolist())) + "\n")
