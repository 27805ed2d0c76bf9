"""Equilibrium branches, fold/Hopf events, and limit-cycle sampling.

Both sweep parameters, delta at a frozen immune status and W, enter the
fast subsystem only through the effective clearance rate Gamma =
gamma + delta*W, so a sweep is one array of clearance rates: the branches
are within_host's closed forms evaluated on it in one vectorized pass, as
columns, and the fold and Hopf events are the closed-form critical loci
mapped back to the sweep parameter. Cycle amplitudes come from batched
fixed-step integration of the frozen-W fast system past a transient,
stepped in place by numerics.rk4_stepper.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import within_host as wh
from .errors import NonFiniteError
from .numerics import rk4_stepper

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

# A sampled orbit counts as oscillatory only above this relative amplitude.
CYCLE_AMPLITUDE_TOL = 1e-4
# Orbits whose load stays below this count as collapsed.
CYCLE_COLLAPSE_LEVEL = 1e-6
# Periods beyond this flag an approach to the homoclinic collision.
HOMOCLINIC_PERIOD = 1e3
# Cycle sampling: transient and sampling-window lengths and the RK4 step.
CYCLE_TRANSIENT = 400.0
CYCLE_WINDOW = 400.0
CYCLE_STEP = 0.02
# Transient steps between two finiteness checks of the cycle orbits.
CYCLE_CHECK_STEPS = 1000


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
    """Amplitude records of the frozen-W fast flow, one entry per sweep value.

    ``oscillatory`` requires at least three strict local maxima of P with
    relative amplitude above CYCLE_AMPLITUDE_TOL in the sampling window;
    ``period`` is NaN where it does not hold. ``collapsed`` marks orbits
    that fell to the infection-free state, where amplitude is undefined.
    ``homoclinic_flag`` marks diverging periods.
    """

    param: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray
    period: np.ndarray
    n_maxima: np.ndarray
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
# cycle sampling
# ---------------------------------------------------------------------------


def cycle_amplitude(
    params: wh.WithinHostParams,
    spec: SweepSpec,
    *,
    transient: float = CYCLE_TRANSIENT,
    window: float = CYCLE_WINDOW,
    step: float = CYCLE_STEP,
) -> CycleTable:
    """Sample the frozen-W fast flow at each sweep value.

    Orbits start slightly off the upper equilibrium (5% in P), run past the
    transient window, then min/max P, strict local maxima, and the mean
    maximum-to-maximum period are recorded over the sampling window. All
    sweep values are integrated together as one (2, m) state of (T, P)
    rows, advanced in place by fixed RK4 steps (numerics.rk4_stepper)
    whose derivative writes into the stepper's buffers through row views
    made once per buffer pair. Raises NonFiniteError when an
    orbit is not finite at one of the checks every CYCLE_CHECK_STEPS
    transient steps (before the window is sampled) or its sampled load is
    not finite.
    """
    values = spec.values()
    m = values.size

    def refuse_non_finite(finite: np.ndarray) -> None:
        if not finite.all():
            value = float(values[np.argmin(finite)])
            raise NonFiniteError(f"cycle orbit at {spec.which}={value!r} is not finite")

    # overflow is checked explicitly rather than warned about: every
    # CYCLE_CHECK_STEPS transient steps, so a lost orbit ends the run early
    # and is never sampled, and once after the window
    with np.errstate(over="ignore", invalid="ignore"):
        Gamma = spec.to_gamma(params, values)
        eq = wh.equilibria_fast(params, Gamma)
        # without a pair, the orbit starts below the fold load
        state = np.array([
            np.where(eq.exists, eq.upper[0], 0.5 * params.Lambda / params.mu),
            np.where(eq.exists, eq.upper[1] * 1.05, 2.0 * np.sqrt(params.mu / params.alpha)),
        ])
        # (2, m) blocks: rates * (T, P) is (mu*T, Gam*P), and source holds
        # (Lambda, infection), so the derivative is source - rates * (T, P)
        # with the infection subtracted once more from the T row
        rates = np.array([np.full(m, params.mu), Gamma])
        source = np.full((2, m), params.Lambda)
        infection = source[1]
        a, multiply, subtract = np.array(params.alpha), np.multiply, np.subtract

        def rhs_into(y, k):
            # row views made once per buffer pair, none inside a step
            T, P, dT = y[0], y[1], k[0]

            def rhs():
                multiply(a, P, infection)
                multiply(infection, P, infection)
                multiply(infection, T, infection)
                multiply(rates, y, k)
                subtract(source, k, k)
                subtract(dT, infection, dT)

            return rhs

        advance = rk4_stepper(rhs_into, state, step)
        loads_now = state[1]

        n_transient = int(round(transient / step))
        for start in range(0, n_transient, CYCLE_CHECK_STEPS):
            for _ in range(min(CYCLE_CHECK_STEPS, n_transient - start)):
                advance()
            refuse_non_finite(np.isfinite(state).all(axis=0))

        # window loads go into rows 2.. of one block and are reduced once it
        # is full; rows 0 and 1 carry the two loads before the block (+inf
        # before the window: its first load is never a strict maximum)
        n_steps = int(round(window / step))
        loads = np.empty((CYCLE_CHECK_STEPS + 2, m))
        loads[:2] = np.inf
        p_min = p_max = loads_now.copy()
        max_count = np.zeros(m, dtype=int)
        first_max = np.full(m, -1)
        last_max = np.full(m, -1)
        for start in range(0, n_steps, CYCLE_CHECK_STEPS):
            size = min(CYCLE_CHECK_STEPS, n_steps - start)
            for k in range(2, size + 2):
                advance()
                loads[k] = loads_now
            block = loads[2:size + 2]
            p_min = np.minimum(p_min, block.min(axis=0))
            p_max = np.maximum(p_max, block.max(axis=0))
            # row i of is_max is the load with index start - 1 + i
            middle = loads[1:size + 1]
            is_max = (middle > loads[:size]) & (middle > block)
            hits = is_max.sum(axis=0)
            found = hits > 0
            first = start - 1 + is_max.argmax(axis=0)
            first_max = np.where(found & (first_max < 0), first, first_max)
            last = start + size - 2 - is_max[::-1].argmax(axis=0)
            last_max = np.where(found, last, last_max)
            max_count += hits
            loads[:2] = loads[size:size + 2]

    refuse_non_finite(np.isfinite(p_min) & np.isfinite(p_max))
    amp = p_max - p_min
    oscillatory = (max_count >= 3) & (amp > CYCLE_AMPLITUDE_TOL * np.maximum(1.0, np.abs(p_max)))
    collapsed = p_max < CYCLE_COLLAPSE_LEVEL
    period = np.full(m, np.nan)
    cycles = max_count[oscillatory] - 1
    period[oscillatory] = (last_max[oscillatory] * step - first_max[oscillatory] * step) / cycles
    homoclinic = (period > HOMOCLINIC_PERIOD) | (
        ~oscillatory & ~collapsed & (amp > CYCLE_AMPLITUDE_TOL) & (max_count < 3)
    )
    return CycleTable(values, p_min, p_max, period, max_count, oscillatory, collapsed, homoclinic)
