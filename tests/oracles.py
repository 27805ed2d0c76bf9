"""Closed-form and reduced-model oracles that only the tests evaluate.

``characteristics_eval`` solves the transport equation along
characteristics, with the boundary-flux history rebuilt from a run's
snapshots by ``boundary_history``. ``reduced_endemic_residual`` is the
paper's reduced endemic characteristic equation, and ``dfe_char_G`` the
infection-free characteristic function whose unit level ``dfe_lambda_hat``
solves for. ``integrate_slow_reduced`` is the
singular limit of a full within-host run, and ``fast_rhs`` the fast
vector field at a frozen clearance rate. ``trace_roots_np`` solves the trace condition of the
critical loci as a polynomial. ``infected_mass`` is the trapezoid mass of a
density. ``hopf_point`` and ``leading_eigenvalue`` give the Hopf point of a
sweep and the linearisation on its upper branch, and
``lyapunov_coefficient`` and ``hopf_amplitude_slope`` the Hopf normal form
there: oracles of the cycle solve independent of its orbits.
"""

from typing import Callable, Sequence
from unittest import mock

import numpy as np

from immunoepi import between_host as bh
from immunoepi import numerics
from immunoepi import within_host as wh
from immunoepi.errors import BracketError
from immunoepi.numerics import Trajectory, find_root, integrate_ode


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

    read off the package's characteristic function. Strictly decreasing in lam;
    G(0) is the reproduction number and the root of G(lam) = 1 is the
    leading growth rate near the infection-free state. Requires
    lam > -sigma.
    """
    if lam <= -params.sigma:
        raise ValueError(f"lam must exceed -sigma = {-params.sigma}")
    direct, environmental, _ = bh._characteristic(params)(lam)
    return direct + environmental


def reduced_endemic_residual(lam: float, params: bh.BetweenHostParams, eq: bh.EndemicEquilibrium) -> float:
    """The endemic characteristic residual in the paper's reduced form.

    Without immunity loss or environmental transmission and with g = 1
    (rho = 0, beta_e = 0), the endemic characteristic equation collapses to

        (lam + mu1 + K)/(lam + mu1) = S* int beta_h P e^{-M} e^{-lam w} dw

    and this is LHS - RHS, with K = beta_h*I*(0)*g(0)*J_P(0) the direct
    transmission integral against the endemic profile I* = I*(0)*g(0)*pi,
    and the status integral J_P read off the package's characteristic
    function.
    """
    unit_speed = params.g.family == "constant" and params.g.describe["value"] == 1.0
    if params.rho != 0.0 or params.beta_e != 0.0 or not unit_speed:
        raise ValueError("the reduced form needs rho = 0, beta_e = 0 and g = 1")
    characteristic = bh._characteristic(params)
    scale = params.r / params.mu1 * params.beta_h  # the direct route is scale*J_P

    def j_p(rate):
        return characteristic(rate)[0] / scale

    K = params.beta_h * eq.I0 * params.g(0.0) * j_p(0.0)
    return (lam + params.mu1 + K) / (lam + params.mu1) - eq.S * params.beta_h * j_p(lam)


def fast_rhs(tp: Sequence[float], params: wh.WithinHostParams, Gamma: float) -> np.ndarray:
    """Planar fast subsystem at a frozen clearance rate Gamma = gamma + delta*W."""
    T, P = tp
    infection = params.alpha * P * P * T
    return np.array(
        [
            params.Lambda - params.mu * T - infection,
            infection - Gamma * P,
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
            G = find_root(trace_condition, g0 - width, g0 + width, tol=1e-14)
        except BracketError:
            G = g0
        roots.append(G)
    return sorted(roots)


def integrate_slow_reduced(
    params: wh.WithinHostParams,
    W0: float,
    tau_span: tuple[float, float],
) -> Trajectory:
    """Reduced slow flow on the infected branch, dW/dtau = kappa*P_plus(W) - c*W.

    tau is slow time (tau = epsilon * t). Stops early at the fold if the
    branch is left. The singular-limit oracle for full simulations,
    integrated at RTOL 1e-10 and ATOL 1e-12 piece by piece, each piece at
    most max(1e-3, 0.002*span) long, so the samples are dense: callers
    interpolate this trajectory linearly.
    """
    _, W_max = wh.manifold_tip(params)

    def f(tau, y):
        W = min(y[0], W_max)
        return (params.kappa * wh.upper_branch_P(W, params) - params.c * W,)

    def at_fold(tau, y):
        return W_max - y[0]

    span = tau_span[1] - tau_span[0]
    ends = np.linspace(*tau_span, int(np.ceil(span / max(1e-3, 0.002 * span))) + 1)
    ts, ws = [ends[0]], [W0]
    with mock.patch.multiple(numerics, RTOL=1e-10, ATOL=1e-12):
        for start, end in zip(ends[:-1], ends[1:]):
            piece = integrate_ode(f, [ws[-1]], (start, end), event=at_fold)
            ts.extend(piece.t[1:].tolist())
            ws.extend(piece.y[1:, 0].tolist())
            if piece.event_time is not None:
                break
    return Trajectory(np.array(ts), np.array(ws)[:, None], piece.event_time)


def leading_eigenvalue(params: wh.WithinHostParams, spec, value: float) -> complex:
    """The eigenvalue of ``within_host.jacobian_fast`` at the upper equilibrium
    at one sweep value with the largest real part (of a complex pair, the
    one with a positive imaginary part)."""
    Gamma = spec.to_gamma(params, value)
    J = wh.jacobian_fast(wh.equilibria_fast(params, Gamma).upper, params, Gamma)
    return complex(max(np.linalg.eigvals(J), key=lambda z: (z.real, z.imag)))


def hopf_point(params: wh.WithinHostParams, spec) -> float:
    """The sweep value of the closed-form Hopf locus. The frequency there is
    omega_H = ``leading_eigenvalue(params, spec, hopf_point(params, spec)).imag``,
    and small cycles born there have periods near 2*pi/omega_H."""
    (Gamma,) = wh.critical_loci(params).hopf
    if spec.which == "delta":
        return (Gamma - params.gamma) / spec.W
    return (Gamma - params.gamma) / params.delta


def lyapunov_coefficient(params: wh.WithinHostParams, spec) -> tuple[float, np.ndarray]:
    """First Lyapunov coefficient l1 at the closed-form Hopf point of a sweep,
    with the critical eigenvector q it is normalised to (A q = i*omega_H*q,
    |q| = 1), by Kuznetsov, *Elements of Applied Bifurcation Theory* (3rd
    ed., 2004), §3.5:

        l1 = Re(i*g20*g11 + omega_H*g21) / (2*omega_H^2),
        g20 = <p, B(q, q)>, g11 = <p, B(q, conj q)>, g21 = <p, C(q, q, conj q)>,

    with A the fast Jacobian at the Hopf equilibrium, p the adjoint
    eigenvector (A^T p = -i*omega_H*p, <p, q> = 1) and B, C the second and
    third derivatives of the fast field there. The only nonlinearity is the
    incidence alpha*P^2*T, which leaves T' and enters P'; its nonzero
    derivatives are 2*alpha*P in (T, P), 2*alpha*T in (P, P) and 2*alpha in
    (T, P, P). l1 < 0 makes the Hopf point supercritical.
    """
    Gamma = spec.to_gamma(params, hopf_point(params, spec))
    T, P = wh.equilibria_fast(params, Gamma).upper
    A = wh.jacobian_fast((T, P), params, Gamma)
    values, vectors = np.linalg.eig(A)
    k = int(np.argmax(values.imag))
    omega = values[k].imag
    q = vectors[:, k] / np.linalg.norm(vectors[:, k])
    values, vectors = np.linalg.eig(A.T)
    adjoint = vectors[:, int(np.argmin(values.imag))]
    adjoint = adjoint / np.conj(np.vdot(adjoint, q))
    a = params.alpha

    def B(x, y):
        b = 2.0 * a * P * (x[0] * y[1] + x[1] * y[0]) + 2.0 * a * T * x[1] * y[1]
        return np.array([-b, b])

    def C(x, y, z):
        c = 2.0 * a * (x[0] * y[1] * z[1] + x[1] * y[0] * z[1] + x[1] * y[1] * z[0])
        return np.array([-c, c])

    g20 = np.vdot(adjoint, B(q, q))
    g11 = np.vdot(adjoint, B(q, q.conj()))
    g21 = np.vdot(adjoint, C(q, q, q.conj()))
    return float((1j * g20 * g11 + omega * g21).real / (2.0 * omega**2)), q


def hopf_amplitude_slope(params: wh.WithinHostParams, spec, step: float = 1e-6) -> float:
    """The slope of (p_max - p_min)^2 against the distance Delta of the sweep
    parameter past the Hopf point, at the point.

    Near it the cycle is x_H + 2 Re(z q) with |z|^2 = -mu(Delta)/(omega_H*l1)
    (``lyapunov_coefficient``) and mu(Delta) = mu'*Delta the real part of
    the leading eigenvalue, so p_max - p_min = 4|z||q_P| and
    (p_max - p_min)^2 = -16 |q_P|^2 mu' / (omega_H l1) * Delta + O(Delta^2).
    mu' is the central difference of ``leading_eigenvalue`` over +-step.
    """
    hopf_at = hopf_point(params, spec)
    l1, q = lyapunov_coefficient(params, spec)
    omega = leading_eigenvalue(params, spec, hopf_at).imag
    ahead = leading_eigenvalue(params, spec, hopf_at + step).real
    behind = leading_eigenvalue(params, spec, hopf_at - step).real
    return -16.0 * abs(q[1]) ** 2 * (ahead - behind) / (2.0 * step) / (omega * l1)
