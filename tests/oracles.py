"""Closed-form and reduced-model oracles that only the tests evaluate.

``characteristics_eval`` solves the transport equation along
characteristics, with the boundary-flux history rebuilt from a run's
snapshots by ``boundary_history``. ``reduced_endemic_residual`` is the
paper's reduced endemic characteristic equation, and ``dfe_char_G`` the
infection-free characteristic function whose unit level ``dfe_lambda_hat``
solves for. ``integrate_slow_reduced`` is the
singular limit of a full within-host run, and ``fast_rhs`` the frozen-W
fast vector field. ``trace_roots_np`` solves the trace condition of the
critical loci as a polynomial. ``infected_mass`` is the trapezoid mass of a
density.
"""

from typing import Callable, Sequence

import numpy as np

from immunoepi import between_host as bh
from immunoepi import within_host as wh
from immunoepi.numerics import (
    BracketError,
    IntegratorSpec,
    RootBracket,
    Trajectory,
    find_root,
    integrate_ode,
)


def infected_mass(state: bh.StructuredState, omega0: float) -> float:
    """Trapezoid mass of the infected density."""
    step = omega0 / (state.I.size - 1)
    return float(np.trapezoid(state.I, dx=step))


def boundary_history(run: bh.EpidemicRun, g0: float) -> Callable[[np.ndarray], np.ndarray]:
    """Linear interpolant of the boundary flux H(s) = g(0)*I(s, 0), from a
    run with snapshot_stride=1 (a snapshot at every step)."""
    flux = g0 * run.snapshots[:, 0]
    return lambda s: np.interp(s, run.snapshot_t, flux)


def characteristics_eval(
    t: float,
    omega,
    params: bh.BetweenHostParams,
    initial_density: Callable[[np.ndarray], np.ndarray],
    boundary_history: Callable[[np.ndarray], np.ndarray],
):
    """Closed-form transport solution along characteristics.

    For points whose backward characteristic reaches the initial line
    (travel time G(omega) > t) the value is carried from the initial
    density; otherwise it is carried from the boundary-flux history
    H(s) = g(0)*I(s, 0):

      I(t,w) = phi(w_b) * g(w_b)/g(w) * exp(-(M(w)-M(w_b)))   if G(w) >= t
      I(t,w) = H(t - G(w)) * (1/g(w)) * exp(-M(w))            otherwise

    with w_b the status at time 0 of the characteristic through (t, w).
    On the dividing characteristic G(w) = t both branches agree whenever
    the data are compatible (H(0) = g(0)*phi(0)); the initial branch is
    used there so t = 0 reproduces phi exactly. Accepts scalar or array
    omega.
    """
    clock = params.clock
    omega_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    travel = clock.time_of(omega_arr)
    g_here = params.g(omega_arr)
    decay_here = clock.decay_at(omega_arr)
    out = np.empty_like(omega_arr)
    from_initial = travel >= t
    if np.any(from_initial):
        w_back = clock.status_at(travel[from_initial] - t)
        carried = np.asarray(initial_density(w_back), dtype=float)
        ratio = params.g(w_back) / g_here[from_initial]
        fade = np.exp(-(decay_here[from_initial] - clock.decay_at(w_back)))
        out[from_initial] = carried * ratio * fade
    from_boundary = ~from_initial
    if np.any(from_boundary):
        h_vals = np.asarray(boundary_history(t - travel[from_boundary]), dtype=float)
        out[from_boundary] = h_vals / g_here[from_boundary] * np.exp(-decay_here[from_boundary])
    return float(out[0]) if np.ndim(omega) == 0 else out


def dfe_char_G(lam: float, params: bh.BetweenHostParams) -> float:
    """Characteristic function of the infection-free linearization,

        G(lam) = (r/mu1) * [beta_h*J_P(lam) + beta_e/(lam+sigma)*J_xi(lam)],

    read off the package's transmission table. Strictly decreasing in lam;
    G(0) is the reproduction number and the root of G(lam) = 1 is the
    leading growth rate near the infection-free state. Requires
    lam > -sigma.
    """
    if lam <= -params.sigma:
        raise ValueError(f"lam must exceed -sigma = {-params.sigma}")
    direct, environmental, _ = bh._threshold_characteristic(params)(lam)
    return direct + environmental


def reduced_endemic_residual(lam: float, params: bh.BetweenHostParams, eq: bh.EndemicEquilibrium) -> float:
    """The endemic characteristic residual in the paper's reduced form.

    Without immunity loss or environmental transmission and with g = 1
    (rho = 0, beta_e = 0), the endemic characteristic equation collapses to

        (lam + mu1 + K)/(lam + mu1) = S* int beta_h P e^{-M} e^{-lam w} dw

    and this is LHS - RHS, with K the direct transmission integral against
    the endemic profile and the status integral read off the package's
    transmission table.
    """
    unit_speed = params.g.family == "constant" and params.g.describe["value"] == 1.0
    if params.rho != 0.0 or params.beta_e != 0.0 or not unit_speed:
        raise ValueError("the reduced form needs rho = 0, beta_e = 0 and g = 1")
    step = eq.omega[1] - eq.omega[0]
    K = params.beta_h * float(np.trapezoid(params.P(eq.omega) * eq.I, dx=step))
    j_p, _ = bh._transmission_table(params)(lam)
    return (lam + params.mu1 + K) / (lam + params.mu1) - eq.S * params.beta_h * j_p


def fast_rhs(tp: Sequence[float], params: wh.WithinHostParams, W: float) -> np.ndarray:
    """Planar fast subsystem at frozen immune status W."""
    T, P = tp
    infection = params.alpha * P * P * T
    return np.array(
        [
            params.Lambda - params.mu * T - infection,
            infection - params.gamma_eff(W) * P,
        ]
    )


def trace_roots_np(params: wh.WithinHostParams) -> list[float]:
    """Positive roots of Gamma - Gamma^4/(alpha*Lambda^2) - mu, ascending.

    The real positive companion-matrix roots of the quartic (np.roots),
    each polished by Brent's method on a bracket widened around it until it
    holds a sign change.
    """
    a, mu, lam = params.alpha, params.mu, params.Lambda

    def trace_condition(G):
        return G - G**4 / (a * lam * lam) - mu

    roots = []
    for z in np.roots([-1.0 / (a * lam * lam), 0.0, 0.0, 1.0, -mu]):
        if abs(z.imag) > 1e-9 * max(1.0, abs(z.real)) or z.real <= 0:
            continue
        g0 = float(z.real)
        width = max(1e-6, 1e-6 * g0)
        for _ in range(60):
            if trace_condition(g0 - width) * trace_condition(g0 + width) <= 0:
                break
            width *= 2.0
        try:
            G = find_root(trace_condition, RootBracket(g0 - width, g0 + width), tol=1e-14)
        except BracketError:
            G = g0
        roots.append(G)
    return sorted(roots)


def integrate_slow_reduced(
    params: wh.WithinHostParams,
    W0: float,
    tau_span: tuple[float, float],
    spec: IntegratorSpec | None = None,
) -> Trajectory:
    """Reduced slow flow on the infected branch, dW/dtau = kappa*P_plus(W) - c*W.

    tau is slow time (tau = epsilon * t). Stops early at the fold if the
    branch is left. The singular-limit oracle for full simulations.
    """
    _, W_max = wh.manifold_tip(params)

    def f(tau, y):
        W = min(y[0], W_max)
        return np.array([params.kappa * wh.upper_branch_P(W, params) - params.c * W])

    def at_fold(tau, y):
        return W_max - y[0]

    if spec is None:
        # dense samples: callers interpolate this trajectory linearly
        span = tau_span[1] - tau_span[0]
        spec = IntegratorSpec(rel_tol=1e-10, abs_tol=1e-12, max_step=max(1e-3, 0.002 * span))
    return integrate_ode(f, [W0], tau_span, spec, event=at_fold)
