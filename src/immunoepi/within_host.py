"""Within-host immune-pathogen dynamics with a slow antibody variable.

State is (T, P, W): susceptible target cells, pathogen load, and immune
(antibody) status. T and P evolve on the fast time scale; W moves slowly,
at a rate proportional to ``epsilon``:

    T' = Lambda - mu*T - alpha*P^2*T
    P' = alpha*P^2*T - gamma*P - delta*P*W
    W' = epsilon*(kappa*P - c*W)

Freezing W gives a planar fast subsystem whose nontrivial equilibria come in
a lower/upper pair that collides in a fold as the effective clearance rate
Gamma = gamma + delta*W grows. delta and W enter the fast subsystem only
through Gamma, so its equilibria and Jacobian take Gamma. The fold and Hopf
loci of that subsystem, the slow manifold, and event-based infection runs
(recovery when the pathogen is cleared after the fold) are all computed
here, each closed form once over Python floats, without numpy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Sequence

from .errors import NonFiniteError
from .numerics import _div, find_root, integrate_ode, linspace

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

    Each rate is stored as a Python float, so numpy scalars are accepted.
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
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{f.name} must be positive and finite, got {value}")
            # a numpy scalar would warn where a Python float overflows silently
            object.__setattr__(self, f.name, float(value))
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
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")
            object.__setattr__(self, name, float(value))


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
    """Equilibria of the fast subsystem at a frozen clearance rate Gamma.

    ``trivial`` is the infection-free state (Lambda/mu, 0). The nontrivial
    pair exists when Lambda > 2*Gamma*sqrt(mu/alpha); at equality the pair
    degenerates to a double root and ``lower == upper``.
    """

    trivial: tuple[float, float]
    exists: bool
    lower: tuple | None
    upper: tuple | None


def _nontrivial_pair(params: WithinHostParams, Gamma: float) -> tuple[float, float, float]:
    """Closed form of the nontrivial pair at clearance rate Gamma.

    Returns (disc, P_lo, P_hi). The pair solves
    alpha*Gamma*P^2 - alpha*Lambda*P + mu*Gamma = 0; a discriminant within
    rounding of zero is clamped to the double root, and where it stays
    negative no pair exists and both loads are NaN. Rates past the float
    range give inf or NaN here, unwarned (a division by zero as numpy's),
    for the callers' checks.
    """
    a, mu, lam = params.alpha, params.mu, params.Lambda
    square = a * a * lam * lam
    disc = square - 4.0 * a * mu * Gamma * Gamma
    # double root lost to rounding exactly at the threshold (the scale is
    # max(square, 1.0), written out: this runs once per coefficient node)
    if disc < 0.0 and -1e-13 * (1.0 if square < 1.0 else square) < disc:
        disc = 0.0
    if not disc >= 0.0:
        return disc, math.nan, math.nan
    root = math.sqrt(disc)
    den = 2.0 * Gamma * a
    try:
        return disc, (a * lam - root) / den, (a * lam + root) / den
    except ZeroDivisionError:
        return disc, _div(a * lam - root, den), _div(a * lam + root, den)


def equilibria_fast(params: WithinHostParams, Gamma: float) -> FastEquilibria:
    """All fast-subsystem equilibria at clearance rate Gamma = gamma + delta*W.

    ``lower`` and ``upper`` are (T, P) floats, or None when no pair exists.
    """
    a, mu, lam = params.alpha, params.mu, params.Lambda
    disc, P_lo, P_hi = _nontrivial_pair(params, float(Gamma))
    if disc < 0.0:
        return FastEquilibria(trivial=(lam / mu, 0.0), exists=False, lower=None, upper=None)
    # mu + alpha*P^2 > 0: T divides by no zero
    return FastEquilibria(
        trivial=(lam / mu, 0.0),
        exists=True,
        lower=(lam / (mu + a * P_lo * P_lo), P_lo),
        upper=(lam / (mu + a * P_hi * P_hi), P_hi),
    )


def jacobian_fast(tp: Sequence, params: WithinHostParams, Gamma) -> tuple:
    """Jacobian of the fast subsystem at a point (T, P) and clearance rate
    Gamma, as its two rows; T, P and Gamma arrays of one shape give rows of
    arrays (``np.asarray`` of either is the matrix)."""
    T, P = tp
    a = params.alpha
    return (
        (-params.mu - a * P * P, -2.0 * a * P * T),
        (a * P * P, 2.0 * a * P * T - Gamma),
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
    only the root above it can be a Hopf point. Raises NonFiniteError when
    Gamma_fold is past the float range.
    """
    a, mu, lam = params.alpha, params.mu, params.Lambda
    # Python floats: an overflow gives inf unwarned, refused here
    Gamma_fold = 0.5 * lam * math.sqrt(a / mu)
    if not math.isfinite(Gamma_fold):
        raise NonFiniteError(f"fold clearance rate Gamma_fold = {Gamma_fold!r} is not finite")

    def cbrt(x):
        # within an ulp by one rule on every Python version (math.cbrt is
        # 3.11+): x = m*2^(3q) with m in [0.5, 4), and m^(1/3) by pow
        m, e = math.frexp(x)
        q, r = divmod(e, 3)
        return math.ldexp(math.ldexp(m, r) ** (1.0 / 3.0), q)

    # k^(1/3), and Gamma^4/k as Gamma*(Gamma/k^(1/3))^3, stay finite for
    # any finite rates
    k3 = cbrt(a) * cbrt(lam) ** 2

    def trace_condition(G):
        return G - G * (G / k3) ** 3 - mu

    peak = k3 / cbrt(4.0)
    hopf: tuple[float, ...] = ()
    if trace_condition(peak) > 0.0:
        G = find_root(trace_condition, peak, 2.0 * k3, tol=1e-14)
        hopf = (G,) if G > 2.0 * mu else ()
    return CriticalLoci(Gamma_fold=Gamma_fold, hopf=hopf)


# ---------------------------------------------------------------------------
# slow manifold and immune-status growth
# ---------------------------------------------------------------------------


def slow_manifold_W(P: float, params: WithinHostParams) -> float:
    """Immune status on the critical manifold, W = phi(P).

    Solving the fast equilibrium conditions for W gives
    phi(P) = -gamma/delta + alpha*Lambda*P / (delta*(alpha*P^2 + mu)).
    A denominator that underflows to zero gives inf or NaN.
    """
    a, mu, lam, d = params.alpha, params.mu, params.Lambda, params.delta
    return -params.gamma / d + _div(a * lam * P, d * (a * P * P + mu))


def manifold_tip(params: WithinHostParams) -> tuple[float, float]:
    """Fold point of the manifold: (P_tip, W_max) with P_tip = sqrt(mu/alpha)
    and W_max = phi(P_tip).

    W_max = -inf, a fold below every status, is returned as it is; a tip
    load that is not finite or a W_max that is NaN or +inf raises
    NonFiniteError.
    """
    P_tip = math.sqrt(params.mu / params.alpha)
    W_max = slow_manifold_W(P_tip, params)
    if not (math.isfinite(P_tip) and W_max < math.inf):
        raise NonFiniteError(f"manifold tip (P, W) = ({P_tip!r}, {W_max!r}) is not finite")
    return P_tip, W_max


def w_nullcline(P: float, params: WithinHostParams) -> float:
    """The W' = 0 locus, W = kappa*P/c."""
    return params.kappa * P / params.c


def upper_branch_P(W: float, params: WithinHostParams) -> float:
    """Pathogen load on the upper (infected) manifold branch at status W.

    Defined for W in [0, W_fold]; a hair of rounding slack is allowed at
    the tip itself, where the load is sqrt(mu/alpha). A negative status or
    one past the fold raises ValueError. The fold is located, by
    manifold_tip, only there, so a caller refuses a fold past the float
    range first.
    """
    W = float(W)
    if W < 0.0:
        raise ValueError(f"immune status must be nonnegative, got {W}")
    disc, _, P_hi = _nontrivial_pair(params, params.gamma + params.delta * W)
    if not disc < 0.0:
        return P_hi
    # discriminant lost to rounding exactly at the tip
    W_max = manifold_tip(params)[1]
    if not W <= W_max * (1.0 + 1e-12) + 1e-12:
        raise ValueError(f"no infected branch at W={W} (fold at W={W_max})")
    return math.sqrt(params.mu / params.alpha)


def immune_growth_g(omega: float, params: WithinHostParams) -> float:
    """Immune-status growth rate along the infected branch.

    g(omega) = kappa*P_plus(omega) - c*omega, the slow W dynamics restricted
    to the upper manifold branch. Defined on [0, W_fold]. g(0) > 0 always;
    positivity further along the branch depends on kappa/c.
    """
    omega = float(omega)
    return params.kappa * upper_branch_P(omega, params) - params.c * omega


# ---------------------------------------------------------------------------
# full infection runs
# ---------------------------------------------------------------------------


@dataclass
class InfectionRun:
    """A full within-host trajectory with clearance bookkeeping.

    ``t`` lists the sample times and ``states`` one (T, P, W) tuple per
    time, all Python floats (``np.asarray`` makes arrays of them).
    ``recovery_time`` is the first time the pathogen load falls through
    the clearance level (None if it never does within t_max, or if the run
    starts cleared); the state then is the row of ``states`` at that time.
    ``fold_crossed`` records whether the immune status reached or exceeded
    the fold value W_fold, i.e. whether the run ended through the recovery
    jump rather than a subthreshold fizzle.
    """

    t: list[float]
    states: list[tuple[float, float, float]]
    recovery_time: float | None
    fold_crossed: bool
    w_fold: float


def _cleared_branch(
    params: WithinHostParams, t0: float, state0: Sequence[float], t_end: float
) -> tuple[list[float], list[tuple[float, float, float]]]:
    """Exact solution on the P = 0 branch from (t0, state0) up to t_end.

    With no pathogen the system is linear: T relaxes to Lambda/mu at rate mu
    and W decays at rate epsilon*c. Returns CLEARED_BRANCH_SAMPLES times
    after t0, the last one exactly t_end, and the states (T, 0, W) there.
    The elapsed times are np.geomspace's: powers of ten at evenly spaced
    logarithms, with both ends exact.
    """
    span = t_end - t0
    rate = max(params.mu, params.epsilon * params.c)
    first = min(CLEARED_BRANCH_FIRST / rate, span / CLEARED_BRANCH_SAMPLES)
    logs = linspace(math.log10(first), math.log10(span), CLEARED_BRANCH_SAMPLES)
    s = [first, *(10.0 ** e for e in logs[1:-1]), span]
    t = [t0 + x for x in s]
    t[-1] = t_end
    T_inf = params.Lambda / params.mu
    T0, W0 = state0[0], state0[2]
    mu, decay = params.mu, params.epsilon * params.c
    states = [(T_inf + (T0 - T_inf) * math.exp(-mu * x), 0.0, W0 * math.exp(-decay * x)) for x in s]
    return t, states


def simulate_infection(
    params: WithinHostParams,
    initial: WithinHostState,
    t_max: float,
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
    w_fold = manifold_tip(params)[1]
    y0 = (initial.T, initial.P, initial.W)
    # a cleared start skips the infected phase and clears at t = 0
    t, states, t_rec = [0.0], [y0], None
    t_clear, state_clear = 0.0, y0
    if initial.P > 0.0:
        traj = integrate_ode(
            lambda t, y: rhs_full(y, params), y0, (0.0, t_max),
            event=lambda t, y: y[1] - p_clear,
        )
        t, states = traj.t, traj.y
        t_rec = t_clear = traj.event_time
        state_clear = traj.y[-1]
    if t_clear is not None and t_clear < t_max:
        tail_t, tail_y = _cleared_branch(params, t_clear, state_clear, t_max)
        t, states = t + tail_t, states + tail_y
    return InfectionRun(
        t=t,
        states=states,
        recovery_time=t_rec,
        # the cleared branch only lowers W
        fold_crossed=max(state[2] for state in states) >= w_fold,
        w_fold=w_fold,
    )
