"""Equilibrium branches, fold/Hopf events, and limit-cycle sampling.

The fast subsystem's nontrivial equilibria form a closed-form pair of
branches in any parameter that only enters through the effective clearance
rate Gamma = gamma + delta*W. Sweeps therefore evaluate the quadratic
directly, and the fold and Hopf events are the closed-form critical loci
of within_host mapped to the sweep parameter. Cycle amplitudes come from
batched fixed-step integration of the frozen-W fast system past a
transient, stepped in place by numerics.rk4_stepper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import within_host as wh
from .errors import NonFiniteError
from .numerics import rk4_stepper

__all__ = [
    "SweepSpec",
    "BranchPoint",
    "BifurcationEvent",
    "CycleSample",
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
# A delta sweep evaluates delta = 0 at this floor.
DELTA_FLOOR = 1e-12


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

    def resolve(self, params: wh.WithinHostParams, value: float) -> tuple[wh.WithinHostParams, float]:
        """Parameter set and frozen W for one sweep value; delta is floored
        at DELTA_FLOOR."""
        if self.which == "delta":
            return replace(params, delta=max(float(value), DELTA_FLOOR)), float(self.W)
        return params, float(value)


@dataclass(frozen=True)
class BranchPoint:
    """An equilibrium on a branch with its local linearization."""

    param: float
    T: float
    P: float
    eigenvalues: tuple[complex, complex]
    stability: str


@dataclass(frozen=True)
class BifurcationEvent:
    kind: str  # "fold" | "hopf"
    param: float
    T: float
    P: float


@dataclass(frozen=True)
class CycleSample:
    """Amplitude record of the frozen-W fast flow at one sweep value.

    ``oscillatory`` requires at least three strict local maxima of P with
    relative amplitude above CYCLE_AMPLITUDE_TOL in the sampling window.
    ``collapsed`` marks orbits that fell to the infection-free state, where
    amplitude is undefined. ``homoclinic_flag`` marks diverging periods.
    """

    param: float
    p_min: float
    p_max: float
    period: float | None
    n_maxima: int
    oscillatory: bool
    collapsed: bool
    homoclinic_flag: bool


@dataclass
class SweepResult:
    upper: list[BranchPoint]
    lower: list[BranchPoint]
    trivial: list[BranchPoint]

    @property
    def fold_path(self) -> list[BranchPoint]:
        """Upper branch then lower branch reversed: ordered along the curve,
        so the fold sits between the two halves."""
        return self.upper + list(reversed(self.lower))


def _classify(trace: float, det: float, tol: float = 1e-9) -> str:
    if det < -tol:
        return "saddle"
    disc = trace * trace - 4.0 * det
    kind = "focus" if disc < 0 else "node"
    if abs(trace) <= tol:
        return "marginal"
    return ("stable-" if trace < 0 else "unstable-") + kind


def _eig_pair(trace: float, det: float) -> tuple[complex, complex]:
    disc = trace * trace - 4.0 * det
    if disc >= 0:
        r = np.sqrt(disc)
        return (complex(0.5 * (trace - r)), complex(0.5 * (trace + r)))
    r = np.sqrt(-disc)
    return (complex(0.5 * trace, -0.5 * r), complex(0.5 * trace, 0.5 * r))


def _point(param: float, T: float, P: float, params: wh.WithinHostParams, W: float) -> BranchPoint:
    J = wh.jacobian_fast((T, P), params, W)
    trace = float(J[0, 0] + J[1, 1])
    det = float(J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0])
    return BranchPoint(
        param=param,
        T=T,
        P=P,
        eigenvalues=_eig_pair(trace, det),
        stability=_classify(trace, det),
    )


def sweep_branch(params: wh.WithinHostParams, spec: SweepSpec) -> SweepResult:
    """Trace the equilibrium branches over the sweep range.

    Upper/lower branches hold only the sweep values where the nontrivial
    pair exists; the trivial (infection-free) branch covers every value.
    Raises ValueError if no point of the range admits a
    nontrivial equilibrium.
    """
    upper: list[BranchPoint] = []
    lower: list[BranchPoint] = []
    trivial: list[BranchPoint] = []
    # rates past the float range give infinite equilibria and NaN
    # linearisations here, unwarned: cycle_amplitude starts its orbits on
    # the same branch and refuses them with NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        for value in spec.values():
            p, W = spec.resolve(params, value)
            eq = wh.equilibria_fast(p, W)
            T0, P0 = eq.trivial
            trivial.append(_point(float(value), T0, P0, p, W))
            if eq.exists:
                upper.append(_point(float(value), eq.upper[0], eq.upper[1], p, W))
                lower.append(_point(float(value), eq.lower[0], eq.lower[1], p, W))
    if not upper:
        raise ValueError(
            "no nontrivial equilibrium anywhere on the sweep range "
            f"({spec.which} in [{spec.lo}, {spec.hi}])"
        )
    return SweepResult(upper=upper, lower=lower, trivial=trivial)


def _param_from_gamma(params: wh.WithinHostParams, spec: SweepSpec, Gamma: float) -> float:
    if spec.which == "delta":
        return (Gamma - params.gamma) / spec.W
    return (Gamma - params.gamma) / params.delta


def detect_all_events(params: wh.WithinHostParams, spec: SweepSpec) -> list[BifurcationEvent]:
    """The fold and Hopf points of the sweep range, ordered by parameter.

    Each event is a closed-form critical locus (within_host.critical_loci)
    mapped to the sweep parameter and kept when it lies in [lo, hi], so the
    list does not depend on the sweep's grid. The fold carries the double
    root of the equilibrium quadratic, a Hopf point its upper-branch state.
    """
    loci = wh.critical_loci(params)
    events: list[BifurcationEvent] = []
    fold_at = _param_from_gamma(params, spec, loci.Gamma_fold)
    if spec.lo <= fold_at <= spec.hi:
        P_fold = float(np.sqrt(params.mu / params.alpha))
        T_fold = float(params.Lambda / (2.0 * params.mu))
        events.append(BifurcationEvent(kind="fold", param=fold_at, T=T_fold, P=P_fold))
    for Gamma in loci.hopf:
        hopf_at = _param_from_gamma(params, spec, Gamma)
        if spec.lo <= hopf_at <= spec.hi:
            T, P = wh.equilibria_fast(*spec.resolve(params, hopf_at)).upper
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
) -> list[CycleSample]:
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
    rows: list[tuple[float, float, float, float]] = []  # value, Gamma, T0, P0
    for value in values:
        p, W = spec.resolve(params, value)
        eq = wh.equilibria_fast(p, W)
        if eq.exists:
            T0, P0 = eq.upper[0], eq.upper[1] * 1.05
        else:
            T0, P0 = 0.5 * params.Lambda / params.mu, 2.0 * np.sqrt(params.mu / params.alpha)
        rows.append((float(value), p.gamma_eff(W), T0, P0))

    m = len(rows)
    state = np.array([[r[2] for r in rows], [r[3] for r in rows]])
    # (2, m) blocks: rates * (T, P) is (mu*T, Gam*P), and source holds
    # (Lambda, infection), so the derivative is source - rates * (T, P)
    # with the infection subtracted once more from the T row
    rates = np.array([np.full(m, params.mu), [r[1] for r in rows]])
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

    def refuse_non_finite(finite: np.ndarray) -> None:
        if not finite.all():
            value = rows[int(np.argmin(finite))][0]
            raise NonFiniteError(f"cycle orbit at {spec.which}={value!r} is not finite")

    # overflow is checked explicitly rather than warned about: every
    # CYCLE_CHECK_STEPS transient steps, so a lost orbit ends the run early
    # and is never sampled, and once after the window
    with np.errstate(over="ignore", invalid="ignore"):
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
    samples: list[CycleSample] = []
    for j, (value, _, _, _) in enumerate(rows):
        amp = p_max[j] - p_min[j]
        oscillatory = bool(
            max_count[j] >= 3 and amp > CYCLE_AMPLITUDE_TOL * max(1.0, abs(p_max[j]))
        )
        collapsed = bool(p_max[j] < CYCLE_COLLAPSE_LEVEL)
        period = None
        if oscillatory and max_count[j] >= 2:
            period = float((last_max[j] * step - first_max[j] * step) / (max_count[j] - 1))
        homoclinic = bool(
            (period is not None and period > HOMOCLINIC_PERIOD)
            or (not oscillatory and not collapsed and amp > CYCLE_AMPLITUDE_TOL and max_count[j] < 3)
        )
        samples.append(
            CycleSample(
                param=value,
                p_min=float(p_min[j]),
                p_max=float(p_max[j]),
                period=period,
                n_maxima=int(max_count[j]),
                oscillatory=oscillatory,
                collapsed=collapsed,
                homoclinic_flag=homoclinic,
            )
        )
    return samples
