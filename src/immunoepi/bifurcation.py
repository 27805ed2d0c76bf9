"""Equilibrium branches, fold/Hopf events, and limit cycles.

Both sweep parameters, delta at a frozen immune status and W, enter the
fast subsystem only through the effective clearance rate Gamma =
gamma + delta*W, so a sweep is one array of clearance rates: the branches
are within_host's closed forms evaluated on it in one vectorized pass, as
columns, and the fold and Hopf events are the closed-form critical loci
mapped back to the sweep parameter. A cycle is a fixed point of the
Poincare return map on the section {T = T_eq, P > P_eq} of the upper
equilibrium: each column follows its frozen-W fast orbit as two Python
floats through the classic RK4 tableau for a few returns, and solves
R(x) = x by numerics.find_root on a bracket.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from . import within_host as wh
from .errors import ConvergenceError, NonFiniteError
from .numerics import find_root

__all__ = [
    "SweepSpec",
    "Branch",
    "BifurcationEvent",
    "CycleTable",
    "SweepResult",
    "sweep_branch",
    "detect_all_events",
    "cycle_amplitude",
]

# A cycle counts as oscillatory only above this relative amplitude.
CYCLE_AMPLITUDE_TOL = 1e-4
# Orbits whose load falls below this count as collapsed.
CYCLE_COLLAPSE_LEVEL = 1e-6
# Cycle solve defaults: (transient + window)/step is a column's RK4 step
# budget, window caps one return time, and step is the RK4 step.
CYCLE_TRANSIENT = 400.0
CYCLE_WINDOW = 400.0
CYCLE_STEP = 0.02
# An orbit within this relative distance of a stable equilibrium, in T and
# in P, has settled; a near-Hopf cycle is bracketed from P_eq*(1 + offset);
# find_root's width on a section load, relative to P_eq, and on the
# fraction of a step at a crossing or an extreme.
CYCLE_SETTLE_TOL = 1e-3
CYCLE_BRACKET_OFFSET = 1e-6
CYCLE_ROOT_TOL = 1e-10
HERMITE_TOL = 1e-12


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter sweep: ``which`` in {"delta", "W"} over [lo, hi].

    Sweeping delta requires the frozen immune status ``W``; sweeping W takes
    delta from the parameter set.
    """

    which: str
    lo: float
    hi: float
    n: int = 200
    W: float | None = None

    def __post_init__(self) -> None:
        if self.which not in ("delta", "W"):
            raise ValueError(f"sweep parameter must be 'delta' or 'W', got {self.which!r}")
        if not self.lo < self.hi:
            raise ValueError("sweep range requires lo < hi")
        if self.n < 2:
            raise ValueError("sweep needs at least 2 points")
        if self.which == "delta":
            if self.W is None or self.W <= 0:
                raise ValueError("delta sweep requires a frozen immune status W > 0")
        if self.lo < 0:
            raise ValueError("sweep values must be nonnegative")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    def to_gamma(self, params: wh.WithinHostParams, value):
        """Clearance rate Gamma = gamma + delta*W at sweep values, elementwise."""
        if self.which == "delta":
            return params.gamma + value * self.W
        return params.gamma_eff(value)

    def from_gamma(self, params: wh.WithinHostParams, Gamma: float) -> float:
        """The sweep value at which the clearance rate is Gamma."""
        if self.which == "delta":
            return (Gamma - params.gamma) / self.W
        return (Gamma - params.gamma) / params.delta


@dataclass(frozen=True)
class Branch:
    """Equilibria along a sweep with their linearisation, one entry per
    point; ``eigenvalues`` is the (n, 2) complex array of the fast
    Jacobian's eigenvalue pairs."""

    param: np.ndarray
    T: np.ndarray
    P: np.ndarray
    eigenvalues: np.ndarray
    stability: np.ndarray


@dataclass(frozen=True)
class BifurcationEvent:
    kind: str  # "fold" | "hopf"
    param: float
    T: float
    P: float


@dataclass(frozen=True)
class CycleTable:
    """The attractor of the frozen-W fast flow, one entry per sweep value.

    ``oscillatory`` marks a cycle whose load amplitude p_max - p_min is
    above CYCLE_AMPLITUDE_TOL relative to max(1, p_max); ``period`` is its
    return time, NaN elsewhere. ``collapsed`` marks orbits that fell to the
    infection-free state. ``homoclinic_flag`` marks a return longer than
    the window. ``returns`` counts the column's return-map evaluations.
    """

    param: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray
    period: np.ndarray
    returns: np.ndarray
    oscillatory: np.ndarray
    collapsed: np.ndarray
    homoclinic_flag: np.ndarray


@dataclass
class SweepResult:
    upper: Branch
    lower: Branch
    trivial: Branch

    @property
    def fold_path(self) -> Branch:
        """Upper branch then lower branch reversed: ordered along the curve,
        so the fold sits between the two halves."""
        return Branch(*(
            np.concatenate([getattr(self.upper, f.name), getattr(self.lower, f.name)[::-1]])
            for f in fields(Branch)
        ))


def _branch(param, T, P, params: wh.WithinHostParams, Gamma) -> Branch:
    """The points (T, P) at clearance rates Gamma with the eigenvalues and
    stability tag of the fast Jacobian there (trace and determinant within
    1e-9 of zero count as zero)."""
    J = wh.jacobian_fast((T, P), params, Gamma)
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


def sweep_branch(params: wh.WithinHostParams, spec: SweepSpec) -> SweepResult:
    """Trace the equilibrium branches over the sweep range.

    Upper/lower branches hold only the sweep values where the nontrivial
    pair exists; the trivial (infection-free) branch covers every value.
    Raises ValueError if no point of the range admits a
    nontrivial equilibrium.
    """
    values = spec.values()
    # rates past the float range give infinite clearance rates, equilibria
    # and NaN linearisations here, unwarned: cycle_amplitude starts its
    # orbits on the same branch and refuses them with NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        Gamma = spec.to_gamma(params, values)
        eq = wh.equilibria_fast(params, Gamma)
        trivial = _branch(
            values, np.full_like(values, eq.trivial[0]), np.zeros_like(values), params, Gamma
        )
        pair = eq.exists
        upper, lower = (
            _branch(values[pair], T[pair], P[pair], params, Gamma[pair])
            for T, P in (eq.upper, eq.lower)
        )
    if not pair.any():
        raise ValueError(
            "no nontrivial equilibrium anywhere on the sweep range "
            f"({spec.which} in [{spec.lo}, {spec.hi}])"
        )
    return SweepResult(upper=upper, lower=lower, trivial=trivial)


def detect_all_events(params: wh.WithinHostParams, spec: SweepSpec) -> list[BifurcationEvent]:
    """The fold and Hopf points of the sweep range, ordered by parameter.

    Each event is a closed-form critical locus (within_host.critical_loci)
    mapped to the sweep parameter and kept when it lies in [lo, hi], so the
    list does not depend on the sweep's grid. The fold carries the double
    root of the equilibrium quadratic, a Hopf point its upper-branch state.
    """
    loci = wh.critical_loci(params)
    events: list[BifurcationEvent] = []
    fold_at = spec.from_gamma(params, loci.Gamma_fold)
    if spec.lo <= fold_at <= spec.hi:
        P_fold = float(np.sqrt(params.mu / params.alpha))
        T_fold = float(params.Lambda / (2.0 * params.mu))
        events.append(BifurcationEvent(kind="fold", param=fold_at, T=T_fold, P=P_fold))
    for Gamma in loci.hopf:
        hopf_at = spec.from_gamma(params, Gamma)
        if spec.lo <= hopf_at <= spec.hi:
            T, P = wh.equilibria_fast(params, spec.to_gamma(params, hopf_at)).upper
            events.append(BifurcationEvent(kind="hopf", param=hopf_at, T=float(T), P=float(P)))
    events.sort(key=lambda e: e.param)
    return events


# ---------------------------------------------------------------------------
# cycles as fixed points of the return map
# ---------------------------------------------------------------------------

# one _first_return: how it ended ("returned", "collapsed", "settled",
# "stopped" or "not finite"), its steps, the time and load of the return
# (NaN without one), the load extremes on the way, and the last state
Orbit = namedtuple("Orbit", "kind steps time load p_min p_max T P")


def _hermite(y0, y1, m0, m1, s, slope=False):
    """The cubic Hermite interpolant at s in [0, 1] of a step from y0 to y1
    with end slopes m0 and m1 per unit s, or its s-derivative."""
    if slope:
        return (6.0 * (s * s - s) * (y0 - y1) + (3.0 * s - 1.0) * (s - 1.0) * m0
                + (3.0 * s - 2.0) * s * m1)
    return y0 + s * s * (3.0 - 2.0 * s) * (y1 - y0) + s * (s - 1.0) * ((s - 1.0) * m0 + s * m1)


def _first_return(field, T, P, h, limit, T_eq, P_eq, settle=None) -> Orbit:
    """The fast orbit from (T, P), field (Lambda, mu, alpha, Gamma), by at
    most ``limit`` RK4 steps of h to its next downward crossing of T = T_eq.

    The RK4 tableau is written out over two floats in the operation order
    of an array step. A step's end slope is the next step's first stage, so
    the crossing and the extremes of P are located on the step's cubic
    Hermite interpolant for free. The orbit also ends "collapsed" in [0,
    CYCLE_COLLAPSE_LEVEL), "not finite" at a negative (unstable steps) or
    non-finite load, and "settled" within ``settle`` = (tol_T, tol_P) of
    (T_eq, P_eq).
    """
    lam, mu, a, G = field
    half, sixth, inf = 0.5 * h, h / 6.0, math.inf
    tol_T, tol_P = settle or (-1.0, -1.0)
    infection = a * P * P * T
    dT, dP = lam - mu * T - infection, infection - G * P
    p_min = p_max = P
    above = False
    for n in range(limit):
        T2, P2 = T + half * dT, P + half * dP
        infection = a * P2 * P2 * T2
        dT2, dP2 = lam - mu * T2 - infection, infection - G * P2
        T3, P3 = T + half * dT2, P + half * dP2
        infection = a * P3 * P3 * T3
        dT3, dP3 = lam - mu * T3 - infection, infection - G * P3
        T4, P4 = T + h * dT3, P + h * dP3
        infection = a * P4 * P4 * T4
        dT4, dP4 = lam - mu * T4 - infection, infection - G * P4
        T_new = T + sixth * (dT + 2.0 * dT2 + 2.0 * dT3 + dT4)
        P_new = P + sixth * (dP + 2.0 * dP2 + 2.0 * dP3 + dP4)
        infection = a * P_new * P_new * T_new
        dT_new, dP_new = lam - mu * T_new - infection, infection - G * P_new
        # a finite dT_new needs a finite state, so NaN fails both tests
        if not (CYCLE_COLLAPSE_LEVEL <= P_new < inf and -inf < dT_new < inf):
            kind = "collapsed" if 0.0 <= P_new < inf and -inf < dT_new < inf else "not finite"
            return Orbit(kind, n + 1, math.nan, math.nan, p_min, p_max, T_new, P_new)
        if (dP > 0.0) != (dP_new > 0.0):
            ends = (P, P_new, h * dP, h * dP_new)
            s = find_root(lambda s: _hermite(*ends, s, slope=True), 0.0, 1.0, tol=HERMITE_TOL)
            extreme = _hermite(*ends, s)
            p_min, p_max = min(p_min, extreme), max(p_max, extreme)
        if T_new > T_eq:
            above = True
        elif above:
            ends = (T - T_eq, T_new - T_eq, h * dT, h * dT_new)
            s = find_root(lambda s: _hermite(*ends, s), 0.0, 1.0, tol=HERMITE_TOL)
            load = _hermite(P, P_new, h * dP, h * dP_new, s)
            return Orbit("returned", n + 1, n * h + s * h, load, p_min, p_max, T_new, P_new)
        if abs(P_new - P_eq) <= tol_P and abs(T_new - T_eq) <= tol_T:
            return Orbit("settled", n + 1, math.nan, math.nan, p_min, p_max, T_new, P_new)
        T, P, dT, dP = T_new, P_new, dT_new, dP_new
    return Orbit("stopped", limit, math.nan, math.nan, p_min, p_max, T, P)


class _LongReturn(Exception):
    """A return longer than the window, with its Orbit."""


def _cycle_column(field, T_eq, P_eq, stable, h, budget, window_steps, where) -> tuple:
    """The CycleTable entries of a sweep value with the nontrivial pair, and
    its cycle's section load x*: the root of g(x) = (R(x) - x)/(x - P_eq),
    R the return map on {T = T_eq, P > P_eq}.

    From x0 = 1.05*P_eq: an orbit that collapses before its return makes
    the column collapsed, and one that settles (watched only at a stable
    equilibrium) leaves no cycle. g(x0) < 0 means no cycle at a stable
    equilibrium, and at an unstable one a small cycle, bracketed from
    P_eq*(1 + CYCLE_BRACKET_OFFSET). g(x0) > 0 marches outward until g
    changes sign: to the return R(x) of the last x, or by a secant step on g
    when that goes further, below the bound Lambda/min(mu, Gamma) - T_eq of
    any cycle (T + P falls above Lambda/min(mu, Gamma)). When the return's
    own orbit collapses or settles, so does the column; when a secant
    step's does, it lowers the bound. find_root then solves g = 0. The
    evaluations spend from ``budget`` steps, and one longer than
    ``window_steps`` flags the column homoclinic.
    """
    settle = (CYCLE_SETTLE_TOL * T_eq, CYCLE_SETTLE_TOL * P_eq) if stable else None
    spent = returns = 0
    memo: dict[float, Orbit] = {}

    def first_return(x: float) -> str:
        nonlocal spent, returns
        if x not in memo:
            limit = min(window_steps, budget - spent)
            orbit = memo[x] = _first_return(field, T_eq, x, h, limit, T_eq, P_eq, settle)
            spent, returns = spent + orbit.steps, returns + 1
            if orbit.kind == "not finite":
                raise NonFiniteError(f"cycle orbit at {where} is not finite")
            if orbit.kind == "stopped" and orbit.steps >= window_steps:
                raise _LongReturn(orbit)
            if orbit.kind == "stopped":
                raise ConvergenceError(f"cycle solve at {where} ran out of its {budget} steps")
        return memo[x].kind

    def excess(x: float) -> float:
        if first_return(x) != "returned":
            raise ConvergenceError(f"cycle orbit at {where} from P={x!r} did not return")
        return (memo[x].load - x) / (x - P_eq)

    def no_cycle(kind="settled") -> tuple:
        load = 0.0 if kind == "collapsed" else P_eq
        return load, load, math.nan, returns, False, kind == "collapsed", False, math.nan

    x = lo = 1.05 * P_eq
    try:
        if first_return(x) != "returned":
            return no_cycle(memo[x].kind)
        g = excess(x)
        if g < 0.0:
            lo = P_eq * (1.0 + CYCLE_BRACKET_OFFSET)
            if stable or first_return(lo) != "returned" or excess(lo) <= 0.0:
                return no_cycle()
        cap, x_b, g_b = field[0] / min(field[1], field[3]) - T_eq, None, None
        while g > 0.0 and g * (x - P_eq) > CYCLE_ROOT_TOL * P_eq:
            plain = x + g * (x - P_eq)
            trial = plain if x_b is None or g == g_b else x - g * (x - x_b) / (g - g_b)
            trial = trial if plain < trial < cap else plain
            if first_return(trial) != "returned":
                if trial == plain:
                    return no_cycle(memo[trial].kind)
                cap, x_b = trial, None
                continue
            x_b, g_b, x, g = x, g, trial, excess(trial)
            lo = x_b if g <= 0.0 else x
        if lo != x:
            x = find_root(excess, lo, x, tol=CYCLE_ROOT_TOL * P_eq)
    except _LongReturn as exc:
        long = exc.args[0]
        return long.p_min, long.p_max, math.nan, returns, False, False, True, math.nan
    cycle = memo[x]
    oscillatory = cycle.p_max - cycle.p_min > CYCLE_AMPLITUDE_TOL * max(1.0, abs(cycle.p_max))
    period = cycle.time if oscillatory else math.nan
    return cycle.p_min, cycle.p_max, period, returns, oscillatory, False, False, x


def cycle_amplitude(
    params: wh.WithinHostParams, spec: SweepSpec, *, transient: float = CYCLE_TRANSIENT,
    window: float = CYCLE_WINDOW, step: float = CYCLE_STEP,
) -> CycleTable:
    """The attractor of the frozen-W fast flow at each sweep value.

    A column without the nontrivial pair is collapsed with no integration:
    its one equilibrium lies on the invariant axis P = 0, so no cycle lies
    in P > 0 (Poincare-Bendixson). A column with the pair solves R(x) = x
    (_cycle_column) on the section T = T_eq, transversal as T' = alpha*T_eq*
    (P_eq^2 - P^2) < 0 there. ``step`` is the RK4 step; ``window`` caps a
    return time (a longer one sets homoclinic_flag); (transient + window)/
    step is a column's step budget, past which ConvergenceError names it.
    Raises NonFiniteError naming a column not finite in its clearance
    rate, start or orbit.
    """
    values = spec.values()
    budget, window_steps = int(round((transient + window) / step)), int(round(window / step))
    # rates past the float range give infinite clearance rates and
    # equilibria here, unwarned, and are refused below
    with np.errstate(over="ignore", invalid="ignore"):
        Gamma = spec.to_gamma(params, values)
        eq = wh.equilibria_fast(params, Gamma)
        upper = _branch(values, eq.upper[0], eq.upper[1], params, Gamma)
    columns = []
    for value, G, exists, T_eq, P_eq, tag in zip(
        values.tolist(), Gamma.tolist(), eq.exists.tolist(),
        upper.T.tolist(), upper.P.tolist(), upper.stability.tolist(),
    ):
        where = f"{spec.which}={value!r}"
        if not math.isfinite(G) or exists and not math.isfinite(T_eq + 1.05 * P_eq):
            raise NonFiniteError(f"cycle orbit at {where} is not finite")
        columns.append(_cycle_column(
            (params.Lambda, params.mu, params.alpha, G), T_eq, P_eq, tag.startswith("stable"),
            step, budget, window_steps, where,
        ) if exists else (0.0, 0.0, math.nan, 0, False, True, False, math.nan))
    return CycleTable(values, *map(np.array, list(zip(*columns))[:-1]))
