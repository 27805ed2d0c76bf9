"""Benchmark-owned scenario documents and their seeded generator.

Each workload is a list of CLI operations over scenario documents written
here. A seed jitters only rates that leave every grid, ``dt``, ``t_max``,
``omega0``, ``g``, ``a_bar`` and ``epsilon`` unchanged (transmission,
shedding, removal and within-host reaction rates), so the amount of work a
workload does is fixed and only its numbers move. Every jitter is small
enough that each scenario stays in its regime: R0 > 1, the fold inside the
sweep, and clearance reached.

Two sizes exist: ``full`` is what the benchmark measures; ``small`` shrinks
horizons and sweeps for the benchmark's self-test. The linked ``spectral``
cost is fixed by the CLI's scan constants and does not shrink.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 20260101
SIZES = ("full", "small")

# within-host parameter set of the figure sweeps
PAPER_WITHIN = {
    "Lambda": 1.0, "mu": 0.1, "alpha": 1.0, "gamma": 0.5, "delta": 0.3,
    "epsilon": 0.01, "kappa": 1.0, "c": 0.5,
}
# a reachable fold without an oscillation window, so the infection clears
SLOW_CLEARANCE_WITHIN = {
    "Lambda": 4.0, "mu": 2.0, "alpha": 4.0, "gamma": 1.2, "delta": 1.2,
    "epsilon": 0.001, "kappa": 1.0, "c": 0.3, "initial": [1.0, 1.0, 0.0],
}
BH_ENV = {
    "r": 1.0, "mu1": 0.1, "mu3": 0.2, "beta_h": 0.2, "beta_e": 0.05,
    "rho": 0.0, "sigma": 0.5, "omega0": 5.0, "a_bar": 30.0,
}
CONSTANT_FUNCTIONS = {
    "mu2": {"family": "constant", "value": 0.1},
    "xi": {"family": "constant", "value": 0.4},
    "P": {"family": "constant", "value": 1.0},
    "g": {"family": "constant", "value": 1.0},
}
INITIAL_POPULATION = {
    "S": 10.0,
    "I": {"family": "exponential", "amplitude": 0.5, "rate": -1.0},
    "V": 0.0,
    "B": 0.0,
}

# relative half-widths of the seeded jitter, per jittered key
WITHIN_JITTER = {"Lambda": 0.01, "alpha": 0.01, "gamma": 0.01}
BETWEEN_JITTER = {
    "r": 0.02, "mu1": 0.02, "mu3": 0.02, "beta_h": 0.02, "beta_e": 0.02,
    "sigma": 0.02,
}
FUNCTION_JITTER = {"mu2": 0.02, "xi": 0.02}


@dataclass
class Op:
    """One CLI invocation: subcommand, scenario document, output directory."""

    command: str
    out: str
    config: str | None = None
    figure: str | None = None
    checks: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.command}:{self.out}"

    def argv(self, docs: Path, out_root: Path) -> list[str]:
        args = [self.command, "--out", str(out_root / self.out)]
        if self.config is not None:
            args += ["--config", str(docs / self.config)]
        if self.figure is not None:
            args += ["--figure", self.figure]
        return args


@dataclass
class Workload:
    name: str
    documents: dict[str, dict]
    ops: list[Op]


def _jitter(rng: random.Random, node: dict, widths: dict) -> None:
    for key in sorted(widths):
        node[key] = node[key] * (1.0 + widths[key] * (2.0 * rng.random() - 1.0))


def _jitter_functions(rng: random.Random, functions: dict) -> None:
    for key in sorted(FUNCTION_JITTER):
        width = FUNCTION_JITTER[key]
        functions[key]["value"] *= 1.0 + width * (2.0 * rng.random() - 1.0)


def _within_figures(rng: random.Random, size: str) -> Workload:
    within = copy.deepcopy(PAPER_WITHIN)
    _jitter(rng, within, WITHIN_JITTER)
    slow = copy.deepcopy(SLOW_CLEARANCE_WITHIN)
    _jitter(rng, slow, WITHIN_JITTER)
    n, cycle_n, t_max = (200, 40, 80000.0) if size == "full" else (20, 4, 8000.0)
    if size == "small":
        slow["epsilon"] = 0.01
    docs = {
        "fig1.json": {
            "within_host": within,
            "sweep": {"which": "delta", "lo": 0.05, "hi": 1.4, "n": n, "W": 0.9,
                      "cycle_n": cycle_n},
        },
        "fig2.json": {
            "within_host": within,
            "sweep": {"which": "W", "lo": 0.0, "hi": 4.0, "n": n, "cycle_n": cycle_n},
        },
        "slow_clearance.json": {"within_host": slow, "run": {"t_max": t_max}},
    }
    ops = [
        Op("bifurcate", "fig1", "fig1.json", checks={"fold": "delta"}),
        Op("plot-data", "fig1", figure="fig1"),
        Op("bifurcate", "fig2", "fig2.json", checks={"fold": "W"}),
        Op("plot-data", "fig2", figure="fig2"),
        Op("manifold", "fig3", "slow_clearance.json", checks={"tip": True}),
        Op("within-sim", "fig3", "slow_clearance.json", checks={"clearance": True}),
        Op("plot-data", "fig3", figure="fig3"),
    ]
    return Workload("within_figures", docs, ops)


def _epidemic_const(rng: random.Random, size: str) -> Workload:
    between = copy.deepcopy(BH_ENV)
    _jitter(rng, between, BETWEEN_JITTER)
    functions = copy.deepcopy(CONSTANT_FUNCTIONS)
    _jitter_functions(rng, functions)
    t_max = 1000.0 if size == "full" else 20.0
    doc = {
        "between_host": between,
        "functions": functions,
        "grid": {"n_omega": 400, "dt": 0.0125},
        "run": {"t_max": t_max, "output_stride": 80, "snapshot_stride": 80,
                "initial": copy.deepcopy(INITIAL_POPULATION)},
    }
    # long runs settle on the endemic state (acceptance tolerance 1e-2)
    settle = {"endemic_approach": 1e-2} if t_max >= 1000.0 else {}
    ops = [
        Op("r0", "r0", "bh_env_snap.json", checks={"r0_closed_form": 1e-8}),
        Op("equilibria", "equilibria", "bh_env_snap.json",
           checks={"endemic_residuals": 5e-7}),
        Op("spectral", "spectral", "bh_env_snap.json", checks={"no_scan_roots": True}),
        Op("renewal-check", "renewal", "bh_env_snap.json",
           checks={"kernel_identity": 1e-6}),
        Op("epi-sim", "epi_sim", "bh_env_snap.json",
           checks={"snapshots": True, **settle}),
    ]
    return Workload("epidemic_const", {"bh_env_snap.json": doc}, ops)


def _linked_fold(rng: random.Random, size: str) -> Workload:
    within = dict(PAPER_WITHIN, kappa=10.0)
    # beta_h raised from bh_env's 0.2 so R0 (about 1.9) stays above 1
    # under every jitter; at 0.2 the linked R0 is only 1.02
    between = dict(BH_ENV, omega0="fold", beta_h=0.4)
    _jitter(rng, between, BETWEEN_JITTER)
    functions = copy.deepcopy(CONSTANT_FUNCTIONS)
    functions["P"] = {"family": "within_host", "kind": "pathogen_load"}
    functions["g"] = {"family": "within_host", "kind": "immune_growth"}
    _jitter_functions(rng, functions)
    # dt is sized to the run budget: the renewal kernel is tabulated on
    # (a_bar + travel time) / dt ages, each a quadrature over P and xi
    t_max = 20.0 if size == "full" else 2.0
    doc = {
        "within_host": within,
        "between_host": between,
        "functions": functions,
        "grid": {"n_omega": 60, "dt": 0.0025},
        "run": {"t_max": t_max, "output_stride": 1,
                "initial": copy.deepcopy(INITIAL_POPULATION)},
    }
    ops = [
        Op("r0", "r0", "linked_fold.json", checks={"r0_above_one": True}),
        Op("equilibria", "equilibria", "linked_fold.json",
           checks={"endemic_exists": True}),
        Op("spectral", "spectral", "linked_fold.json", checks={"no_scan_roots": True}),
        Op("renewal-check", "renewal", "linked_fold.json", checks={"record_dF": True}),
    ]
    return Workload("linked_fold", {"linked_fold.json": doc}, ops)


WORKLOADS = {
    "within_figures": _within_figures,
    "epidemic_const": _epidemic_const,
    "linked_fold": _linked_fold,
}


def generate(name: str, seed: int, size: str = "full") -> Workload:
    """Build a workload's documents and operations from a seed."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if size not in SIZES:
        raise KeyError(f"unknown size {size!r}; choose from {SIZES}")
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), size)


def write_documents(workload: Workload, root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    for name, doc in workload.documents.items():
        (root / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
