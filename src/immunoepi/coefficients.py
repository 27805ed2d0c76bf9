"""Named coefficient-function families for the structured epidemic model.

The between-host equations take four functional coefficients of immune
status omega: the extra removal rate mu2, the environmental shedding rate
xi, the per-capita infectiousness weight P, and the status growth speed g.
Scenario configs pick each from a small set of named families so runs stay
declarative and reproducible:

* ``constant``     value
* ``linear``       intercept + slope*omega
* ``exponential``  amplitude*exp(rate*omega)
* ``table``        linear interpolation through (omega, value) knots
* ``within_host``  derived from a within-host parameter set: the infected
  branch pathogen load P_plus(omega) ("pathogen_load") or the slow
  immune-status growth kappa*P_plus(omega) - c*omega ("immune_growth")

Callables are vectorized over ndarray inputs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import within_host as wh

__all__ = ["Coefficient", "constant", "linear", "exponential", "table", "from_within_host"]


@dataclass(frozen=True)
class Coefficient:
    """A coefficient function with enough metadata to echo into summaries."""

    family: str
    describe: dict = field(compare=False)
    fn: Callable[[np.ndarray], np.ndarray] = field(compare=False, repr=False)

    def __call__(self, omega):
        arr = np.asarray(omega, dtype=float)
        out = np.asarray(self.fn(arr), dtype=float)
        if np.ndim(omega) == 0:
            return float(out.reshape(-1)[0])
        return out.reshape(arr.shape)


def constant(value: float) -> Coefficient:
    value = float(value)
    return Coefficient(
        family="constant",
        describe={"value": value},
        fn=lambda w: np.full_like(np.asarray(w, dtype=float), value),
    )


def linear(intercept: float, slope: float) -> Coefficient:
    intercept, slope = float(intercept), float(slope)
    return Coefficient(
        family="linear",
        describe={"intercept": intercept, "slope": slope},
        fn=lambda w: intercept + slope * np.asarray(w, dtype=float),
    )


def exponential(amplitude: float, rate: float) -> Coefficient:
    amplitude, rate = float(amplitude), float(rate)
    return Coefficient(
        family="exponential",
        describe={"amplitude": amplitude, "rate": rate},
        fn=lambda w: amplitude * np.exp(rate * np.asarray(w, dtype=float)),
    )


def table(omega: list[float], value: list[float]) -> Coefficient:
    knots = np.asarray(omega, dtype=float)
    vals = np.asarray(value, dtype=float)
    if knots.ndim != 1 or knots.shape != vals.shape or knots.size < 2:
        raise ValueError("table family needs matching omega/value lists with >= 2 knots")
    if not np.all(np.diff(knots) > 0):
        raise ValueError("table omega knots must be strictly increasing")
    return Coefficient(
        family="table",
        describe={"omega": knots.tolist(), "value": vals.tolist()},
        fn=lambda w: np.interp(np.asarray(w, dtype=float), knots, vals),
    )


def from_within_host(kind: str, params: wh.WithinHostParams) -> Coefficient:
    """Coefficient derived from a within-host parameter set.

    "pathogen_load" gives P_plus(omega); "immune_growth" gives
    kappa*P_plus(omega) - c*omega. Both are defined up to the within-host
    fold value W_fold, the natural status ceiling for the linked model.
    An array of nodes gets within_host's float closed form at each node.
    """
    if kind == "pathogen_load":
        def fn(w):
            return wh.upper_branch_P(w, params)
    elif kind == "immune_growth":
        def fn(w):
            return wh.immune_growth_g(w, params)
    else:
        raise ValueError(f"unknown within-host coefficient kind {kind!r}")
    describe = {"kind": kind, "within_host": asdict(params)}
    return Coefficient(family="within_host", describe=describe, fn=fn)
