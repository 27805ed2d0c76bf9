"""Named coefficient-function families for the structured epidemic model.

The between-host equations take four functional coefficients of immune
status omega: the extra removal rate mu2, the environmental shedding rate
xi, the per-capita infectiousness weight P, and the status growth speed g.
Scenario configs pick each from a small set of named families so runs stay
declarative and reproducible:

* ``constant``     value
* ``linear``       intercept + slope*omega
* ``exponential``  amplitude*exp(rate*omega), by ``math.exp``
* ``table``        linear interpolation through (omega, value) knots,
  np.interp's values
* ``within_host``  derived from a within-host parameter set: the infected
  branch pathogen load P_plus(omega) ("pathogen_load") or the slow
  immune-status growth kappa*P_plus(omega) - c*omega ("immune_growth")

Each family is one function of a Python float. A Coefficient maps it over
a list to a list without loading numpy, and over an ndarray (or any other
array-like) to an ndarray of the same shape.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable

from . import within_host as wh
from .numerics import _exp, interp

__all__ = ["Coefficient", "constant", "linear", "exponential", "table", "from_within_host"]


@dataclass(frozen=True)
class Coefficient:
    """A coefficient function with enough metadata to echo into summaries.

    ``fn`` takes and returns a Python float. ``check``, when given, runs
    once per call before the first node: the within-host family's fold
    check.
    """

    family: str
    describe: dict = field(compare=False)
    fn: Callable[[float], float] = field(compare=False, repr=False)
    check: Callable[[], object] | None = field(default=None, compare=False, repr=False)

    def __call__(self, omega):
        if self.check is not None:
            self.check()
        fn = self.fn
        if isinstance(omega, (int, float)):
            return fn(float(omega))
        if isinstance(omega, list):
            return list(map(fn, omega))
        import numpy as np

        arr = np.asarray(omega, dtype=float)
        out = np.array(list(map(fn, arr.ravel().tolist())), dtype=float).reshape(arr.shape)
        return float(out) if arr.ndim == 0 else out


def constant(value: float) -> Coefficient:
    value = float(value)
    return Coefficient(family="constant", describe={"value": value}, fn=lambda w: value)


def linear(intercept: float, slope: float) -> Coefficient:
    intercept, slope = float(intercept), float(slope)
    return Coefficient(
        family="linear",
        describe={"intercept": intercept, "slope": slope},
        fn=lambda w: intercept + slope * w,
    )


def exponential(amplitude: float, rate: float) -> Coefficient:
    amplitude, rate = float(amplitude), float(rate)
    return Coefficient(
        family="exponential",
        describe={"amplitude": amplitude, "rate": rate},
        # past the float range, inf (nan at amplitude 0), as numpy's exp gives
        fn=lambda w: amplitude * _exp(rate * w),
    )


def table(omega: list[float], value: list[float]) -> Coefficient:
    knots, vals = [float(x) for x in omega], [float(y) for y in value]
    if len(knots) != len(vals) or len(knots) < 2:
        raise ValueError("table family needs matching omega/value lists with >= 2 knots")
    if not all(a < b for a, b in zip(knots, knots[1:])):
        raise ValueError("table omega knots must be strictly increasing")
    return Coefficient(
        family="table",
        describe={"omega": knots, "value": vals},
        fn=partial(interp, xp=knots, fp=vals),
    )


def from_within_host(kind: str, params: wh.WithinHostParams) -> Coefficient:
    """Coefficient derived from a within-host parameter set.

    "pathogen_load" gives P_plus(omega); "immune_growth" gives
    kappa*P_plus(omega) - c*omega. Both are defined up to the within-host
    fold value W_fold, the natural status ceiling for the linked model.
    Each node goes through within_host's float closed form; a fold past
    the float range is refused once per call, before the first node.
    """
    forms = {"pathogen_load": wh.upper_branch_P, "immune_growth": wh.immune_growth_g}
    if kind not in forms:
        raise ValueError(f"unknown within-host coefficient kind {kind!r}")
    form = forms[kind]
    describe = {"kind": kind, "within_host": asdict(params)}
    return Coefficient(
        family="within_host",
        describe=describe,
        fn=lambda w: form(w, params),
        check=partial(wh.manifold_tip, params),
    )
