"""Within-host immune-pathogen dynamics with a slow antibody variable.

State is (T, P, W): susceptible target cells, pathogen load, and immune
(antibody) status. T and P evolve on the fast time scale; W moves slowly,
at a rate proportional to ``epsilon``:

    T' = Lambda - mu*T - alpha*P^2*T
    P' = alpha*P^2*T - gamma*P - delta*P*W
    W' = epsilon*(kappa*P - c*W)

Freezing W gives a planar fast subsystem whose nontrivial equilibria come in
a lower/upper pair that collides in a fold as the effective clearance rate
Gamma = gamma + delta*W grows. The fold and Hopf loci of that subsystem, the
slow manifold, and event-based infection runs (recovery when the pathogen is
cleared after the fold) are all computed here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import IntegratorSpec, RootBracket, find_root, integrate_ode

__all__ = [
    "WithinHostParams",
    "WithinHostState",
    "FastEquilibria",
    "CriticalLoci",
    "InfectionRun",
    "rhs_full",
    "equilibria_fast",
    "jacobian_fast",
    "critical_loci",
    "slow_manifold_W",
    "manifold_tip",
    "w_nullcline",
    "upper_branch_P",
    "immune_growth_g",
    "simulate_infection",
    "run_metadata",
]

# Pathogen level below which an infection counts as cleared.
P_CLEAR_DEFAULT = 1e-6

# Samples of the closed-form cleared branch after its start. They are spaced
# geometrically in elapsed time, starting at this fraction of the fastest
# relaxation time 1/max(mu, epsilon*c), so both the target-cell relaxation
# and the slow antibody decay are resolved.
CLEARED_BRANCH_SAMPLES = 256
CLEARED_BRANCH_FIRST = 1e-3


@dataclass(frozen=True)
class WithinHostParams:
    """Rate constants of the within-host system.

    Lambda  target-cell production rate (cells/time)
    mu      target-cell natural death rate (1/time)
    alpha   infection rate coefficient for the quadratic incidence (1/(load^2 time))
    gamma   pathogen clearance rate independent of antibodies (1/time)
    delta   antibody-mediated clearance coefficient (1/(status time))
    epsilon time-scale separation of the immune response (dimensionless, slow when small)
    kappa   antibody production coefficient per unit pathogen (status/(load time))
    c       antibody decay rate on the slow scale (1/time)
    """

    Lambda: float
    mu: float
    alpha: float
    gamma: float
    delta: float
    epsilon: float = 0.01
    kappa: float = 1.0
    c: float = 0.5

    def __post_init__(self) -> None:
        for name in ("Lambda", "mu", "alpha", "gamma", "delta", "epsilon", "kappa", "c"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.epsilon > 1.0:
            raise ValueError(f"epsilon must be <= 1, got {self.epsilon}")
        if self.epsilon > 0.1:
            warnings.warn(
                f"epsilon={self.epsilon} is large for a slow-fast split; "
                "results lose their singular-perturbation meaning",
                stacklevel=2,
            )

    def gamma_eff(self, W: float) -> float:
        """Effective clearance rate Gamma = gamma + delta*W at frozen immune status."""
        return self.gamma + self.delta * W


@dataclass(frozen=True)
class WithinHostState:
    """A point (T, P, W) in the nonnegative state cone."""

    T: float
    P: float
    W: float

    def __post_init__(self) -> None:
        for name in ("T", "P", "W"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")

    def as_array(self) -> np.ndarray:
        return np.array([self.T, self.P, self.W], dtype=float)


def rhs_full(state: Sequence[float], params: WithinHostParams) -> tuple[float, float, float]:
    """Time derivative of (T, P, W), as a tuple of floats: the state form of
    ``numerics.integrate_ode``."""
    T, P, W = state
    infection = params.alpha * P * P * T
    dT = params.Lambda - params.mu * T - infection
    dP = infection - params.gamma * P - params.delta * P * W
    dW = params.epsilon * (params.kappa * P - params.c * W)
    return (dT, dP, dW)


# ---------------------------------------------------------------------------
# fast-subsystem equilibria and Jacobian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FastEquilibria:
    """Equilibria of the fast subsystem at frozen W.

    ``trivial`` is the infection-free state (Lambda/mu, 0). The nontrivial
    pair exists when Lambda > 2*Gamma*sqrt(mu/alpha); at equality the pair
    degenerates to a double root and ``lower == upper``.
    """

    W: float
    trivial: tuple[float, float]
    exists: bool
    lower: tuple[float, float] | None
    upper: tuple[float, float] | None


def _nontrivial_pair(params: WithinHostParams, W):
    """Closed form of the nontrivial pair at immune status W, elementwise.

    Returns (disc, P_lo, P_hi) with the shape of W. The pair solves
    alpha*Gamma*P^2 - alpha*Lambda*P + mu*Gamma = 0; a discriminant within
    rounding of zero is clamped to the double root, and where it stays
    negative no pair exists and both loads are NaN.
    """
    a, mu, lam = params.alpha, params.mu, params.Lambda
    Gamma = params.gamma_eff(W)
    disc = a * a * lam * lam - 4.0 * a * mu * Gamma * Gamma
    # double root lost to rounding exactly at the threshold
    disc = np.where((-1e-13 * max(a * a * lam * lam, 1.0) < disc) & (disc < 0.0), 0.0, disc)
    root = np.sqrt(np.where(disc < 0.0, np.nan, disc))
    P_hi = (a * lam + root) / (2.0 * Gamma * a)
    P_lo = (a * lam - root) / (2.0 * Gamma * a)
    return disc, P_lo, P_hi


def equilibria_fast(params: WithinHostParams, W: float) -> FastEquilibria:
    """All fast-subsystem equilibria at immune status W >= 0."""
    if W < 0:
        raise ValueError(f"immune status must be nonnegative, got {W}")
    a, mu, lam = params.alpha, params.mu, params.Lambda
    trivial = (lam / mu, 0.0)
    disc, P_lo, P_hi = _nontrivial_pair(params, W)
    if disc < 0:
        return FastEquilibria(W=W, trivial=trivial, exists=False, lower=None, upper=None)

    def T_of(P):
        return lam / (mu + a * P * P)

    return FastEquilibria(
        W=W,
        trivial=trivial,
        exists=True,
        lower=(T_of(P_lo), P_lo),
        upper=(T_of(P_hi), P_hi),
    )


def jacobian_fast(tp: Sequence[float], params: WithinHostParams, W: float) -> np.ndarray:
    """Jacobian of the fast subsystem at a point (T, P)."""
    T, P = tp
    a = params.alpha
    Gamma = params.gamma_eff(W)
    return np.array(
        [
            [-params.mu - a * P * P, -2.0 * a * P * T],
            [a * P * P, 2.0 * a * P * T - Gamma],
        ]
    )


# ---------------------------------------------------------------------------
# critical loci of the fast subsystem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalLoci:
    """Fold and Hopf loci in terms of the effective clearance rate Gamma.

    ``hopf`` holds the Hopf points: the roots of the trace condition with
    Gamma > 2*mu, where the determinant is positive.
    """

    Gamma_fold: float
    hopf: tuple[float, ...]


def critical_loci(params: WithinHostParams) -> CriticalLoci:
    """Fold and Hopf conditions of the fast subsystem.

    The fold sits where the nontrivial pair collides:
    Gamma_fold = (Lambda/2)*sqrt(alpha/mu). The trace of the Jacobian
    vanishes at the equilibrium P* = Gamma^2/(alpha*Lambda) where
    h(Gamma) = Gamma - Gamma^4/k - mu = 0, k = alpha*Lambda^2, and the
    determinant there is Gamma*(Gamma - 2*mu). h is strictly concave with
    h(0) = -mu, its peak at (k/4)^(1/3) and h(2*k^(1/3)) < 0, so it has
    roots iff the peak value is positive, one on each side of the peak.
    The root below the peak always lies below 2*mu (a neutral saddle), so
    only the root above it can be a Hopf point.
    """
    a, mu, lam = params.alpha, params.mu, params.Lambda
    Gamma_fold = 0.5 * lam * np.sqrt(a / mu)
    # k^(1/3), and Gamma^4/k as Gamma*(Gamma/k^(1/3))^3, stay finite for
    # any finite rates
    k3 = float(np.cbrt(a) * np.cbrt(lam) ** 2)

    def trace_condition(G):
        return G - G * (G / k3) ** 3 - mu

    peak = k3 / float(np.cbrt(4.0))
    hopf: tuple[float, ...] = ()
    if trace_condition(peak) > 0.0:
        G = find_root(trace_condition, RootBracket(peak, 2.0 * k3), tol=1e-14)
        hopf = (G,) if G > 2.0 * mu else ()
    return CriticalLoci(Gamma_fold=float(Gamma_fold), hopf=hopf)


# ---------------------------------------------------------------------------
# slow manifold and immune-status growth
# ---------------------------------------------------------------------------


def slow_manifold_W(P, params: WithinHostParams):
    """Immune status on the critical manifold, W = phi(P).

    Solving the fast equilibrium conditions for W gives
    phi(P) = -gamma/delta + alpha*Lambda*P / (delta*(alpha*P^2 + mu)).
    Accepts scalars or arrays.
    """
    P = np.asarray(P, dtype=float)
    a, mu, lam, d = params.alpha, params.mu, params.Lambda, params.delta
    out = -params.gamma / d + a * lam * P / (d * (a * P * P + mu))
    return float(out) if out.ndim == 0 else out


def manifold_tip(params: WithinHostParams) -> tuple[float, float]:
    """Fold point of the manifold: (P_tip, W_max) with P_tip = sqrt(mu/alpha)."""
    P_tip = float(np.sqrt(params.mu / params.alpha))
    return P_tip, float(slow_manifold_W(P_tip, params))


def w_nullcline(P, params: WithinHostParams):
    """The W' = 0 locus, W = kappa*P/c."""
    P = np.asarray(P, dtype=float)
    out = params.kappa * P / params.c
    return float(out) if out.ndim == 0 else out


def upper_branch_P(W, params: WithinHostParams):
    """Pathogen load on the upper (infected) manifold branch at status W.

    Accepts a scalar or an array of statuses. Defined for W in [0, W_fold];
    a hair of rounding slack is allowed at the tip itself, where the load
    is sqrt(mu/alpha). A negative status or one past the fold raises
    ValueError naming the first such node.
    """
    W_arr = np.asarray(W, dtype=float)
    disc, _, P_hi = _nontrivial_pair(params, W_arr)
    _, W_max = manifold_tip(params)
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


def immune_growth_g(omega, params: WithinHostParams):
    """Immune-status growth rate along the infected branch.

    g(omega) = kappa*P_plus(omega) - c*omega, the slow W dynamics restricted
    to the upper manifold branch. Defined on [0, W_fold]. g(0) > 0 always;
    positivity further along the branch depends on kappa/c. Accepts a
    scalar or an array of statuses.
    """
    omega_arr = np.asarray(omega, dtype=float)
    out = params.kappa * upper_branch_P(omega_arr, params) - params.c * omega_arr
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# full infection runs
# ---------------------------------------------------------------------------


@dataclass
class InfectionRun:
    """A full within-host trajectory with clearance bookkeeping.

    ``recovery_time`` is the first time the pathogen load falls through
    ``p_clear`` (None if it never does within t_max, or if the run starts
    cleared). ``fold_crossed`` records whether the immune status reached or
    exceeded the fold value W_fold, i.e. whether the run ended through the
    recovery jump rather than a subthreshold fizzle.
    """

    t: np.ndarray
    states: np.ndarray
    recovery_time: float | None
    recovery_state: np.ndarray | None
    fold_crossed: bool
    w_fold: float
    p_clear: float

    @property
    def T(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def P(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def W(self) -> np.ndarray:
        return self.states[:, 2]


def _cleared_branch(
    params: WithinHostParams, t0: float, state0: np.ndarray, t_end: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact solution on the P = 0 branch from (t0, state0) up to t_end.

    With no pathogen the system is linear: T relaxes to Lambda/mu at rate mu
    and W decays at rate epsilon*c. Returns CLEARED_BRANCH_SAMPLES times
    after t0, the last one exactly t_end, and the states (T, 0, W) there.
    """
    span = t_end - t0
    rate = max(params.mu, params.epsilon * params.c)
    first = min(CLEARED_BRANCH_FIRST / rate, span / CLEARED_BRANCH_SAMPLES)
    s = np.geomspace(first, span, CLEARED_BRANCH_SAMPLES)
    t = t0 + s
    t[-1] = t_end
    T_inf = params.Lambda / params.mu
    states = np.zeros((CLEARED_BRANCH_SAMPLES, 3))
    states[:, 0] = T_inf + (state0[0] - T_inf) * np.exp(-params.mu * s)
    states[:, 2] = state0[2] * np.exp(-params.epsilon * params.c * s)
    return t, states


def simulate_infection(
    params: WithinHostParams,
    initial: WithinHostState,
    t_max: float,
    spec: IntegratorSpec | None = None,
    p_clear: float = P_CLEAR_DEFAULT,
) -> InfectionRun:
    """Integrate the full system, stopping the infected phase at clearance.

    The infected phase runs numerics.integrate_ode on ``rhs_full``, with the
    state a tuple of Python floats, until the pathogen load falls through
    ``p_clear``. From there the trajectory continues on the P = 0 branch,
    evaluated in closed form: W decays as W' = -epsilon*c*W and target cells
    relax to Lambda/mu. Zero initial load starts on that branch at t = 0.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    spec = spec or IntegratorSpec(rel_tol=1e-8, abs_tol=1e-10)
    w_fold = manifold_tip(params)[1]
    y0 = initial.as_array()
    # a cleared start skips the infected phase and clears at t = 0
    t, states, t_rec, state_rec = np.zeros(1), y0[np.newaxis], None, None
    t_clear, state_clear = 0.0, y0
    if initial.P > 0.0:
        traj = integrate_ode(
            lambda t, y: rhs_full(y, params), y0, (0.0, t_max), spec,
            event=lambda t, y: y[1] - p_clear,
        )
        t, states = traj.t, traj.y
        t_rec = t_clear = traj.event_time
        state_rec = state_clear = traj.event_state
    if t_clear is not None and t_clear < t_max:
        tail_t, tail_y = _cleared_branch(params, t_clear, state_clear, t_max)
        t = np.concatenate([t, tail_t])
        states = np.vstack([states, tail_y])
    return InfectionRun(
        t=t,
        states=states,
        recovery_time=t_rec,
        recovery_state=state_rec,
        # the cleared branch only lowers W
        fold_crossed=bool(np.max(states[:, 2]) >= w_fold),
        w_fold=w_fold,
        p_clear=p_clear,
    )


def run_metadata(run: InfectionRun, params: WithinHostParams) -> dict:
    """JSON-ready metadata for a run: thresholds and clearance record."""
    return {
        "p_clear": run.p_clear,
        "w_fold": run.w_fold,
        "recovery_time": run.recovery_time,
        "recovery_time_slow": None
        if run.recovery_time is None
        else run.recovery_time * params.epsilon,
        "fold_crossed": run.fold_crossed,
        "t_end": float(run.t[-1]),
        "n_samples": int(run.t.size),
    }
