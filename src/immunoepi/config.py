"""Scenario configuration: strict JSON loading and resolution.

A scenario document is a JSON object with up to six sections:

* ``within_host``   host-scale parameters, optional initial state and
                    clearance threshold
* ``sweep``         bifurcation sweep: which parameter, range, resolution
* ``between_host``  population-scale scalar rates; ``omega0`` may be the
                    string "fold" to inherit the within-host fold status
* ``functions``     named-family descriptors for mu2, xi, P, g
* ``grid``          transport discretization: n_omega and dt
* ``run``           horizon, output strides, and the initial population state

Unknown keys are rejected at every level so typos fail loudly instead of
silently falling back to defaults.
A ``sweep`` section imports ``bifurcation``, and a ``between_host`` or
``functions`` section the numpy-based ``between_host`` and ``coefficients``,
so a within-host document loads no numpy.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

from . import within_host
from .errors import ConfigError

if TYPE_CHECKING:
    from .between_host import BetweenHostParams
    from .bifurcation import SweepSpec
    from .coefficients import Coefficient

__all__ = ["ScenarioConfig", "load_scenario", "resolve_coefficient"]


_SECTIONS = {"within_host", "sweep", "between_host", "functions", "grid", "run"}
_WITHIN_KEYS = {
    "Lambda", "mu", "alpha", "gamma", "delta", "epsilon", "kappa", "c",
    "initial", "p_clear",
}
_SWEEP_KEYS = {"which", "lo", "hi", "n", "W", "cycle_n"}
_GRID_KEYS = {"n_omega", "dt"}
_RUN_KEYS = {"t_max", "output_stride", "snapshot_stride", "initial"}
_INITIAL_KEYS = {"S", "I", "V", "B"}
_FAMILY_KEYS = {
    "constant": {"value"},
    "linear": {"intercept", "slope"},
    "exponential": {"amplitude", "rate"},
    "table": {"omega", "value"},
    "within_host": {"kind"},
}


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, allowed: set[str], path: str) -> None:
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown key {sorted(unknown)[0]!r}")


def _number(node: dict, key: str, path: str) -> float:
    if key not in node:
        raise ConfigError(f"{path}.{key}: required number is missing")
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}.{key}: must be finite")
    return float(value)


def _integer(node: dict, key: str, path: str) -> int:
    if key not in node:
        raise ConfigError(f"{path}.{key}: required integer is missing")
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    return value


def _number_list(value, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of numbers")
    out = []
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"{path}[{i}]: expected a number, got {item!r}")
        if not math.isfinite(item):
            raise ConfigError(f"{path}[{i}]: must be finite")
        out.append(float(item))
    return out


def resolve_coefficient(
    descriptor,
    path: str,
    within: within_host.WithinHostParams | None = None,
) -> Coefficient:
    """Build a Coefficient from a named-family descriptor."""
    from . import coefficients

    node = _require_mapping(descriptor, path)
    family = node.get("family")
    if family not in _FAMILY_KEYS:
        raise ConfigError(
            f"{path}.family: expected one of {sorted(_FAMILY_KEYS)}, got {family!r}"
        )
    _reject_unknown(node, _FAMILY_KEYS[family] | {"family"}, path)
    try:
        if family == "constant":
            return coefficients.constant(_number(node, "value", path))
        if family == "linear":
            return coefficients.linear(
                _number(node, "intercept", path), _number(node, "slope", path)
            )
        if family == "exponential":
            return coefficients.exponential(
                _number(node, "amplitude", path), _number(node, "rate", path)
            )
        if family == "table":
            return coefficients.table(
                _number_list(node.get("omega"), f"{path}.omega"),
                _number_list(node.get("value"), f"{path}.value"),
            )
        kind = node.get("kind")
        if within is None:
            raise ConfigError(
                f"{path}: within_host family needs a within_host section"
            )
        if kind not in ("pathogen_load", "immune_growth"):
            raise ConfigError(
                f"{path}.kind: expected pathogen_load or immune_growth, got {kind!r}"
            )
        return coefficients.from_within_host(kind, within)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass
class ScenarioConfig:
    """Resolved scenario: the parsed sections, absent ones left at None."""

    within: within_host.WithinHostParams | None = None
    within_initial: within_host.WithinHostState | None = None
    p_clear: float = within_host.P_CLEAR_DEFAULT
    sweep: SweepSpec | None = None
    cycle_n: int = 40
    between: BetweenHostParams | None = None
    n_omega: int | None = None
    dt: float | None = None
    t_max: float | None = None
    output_stride: int = 1
    snapshot_stride: int = 0
    initial_S: float | None = None
    initial_V: float = 0.0
    initial_B: float = 0.0
    initial_I: Coefficient | None = None

    def require(self, *sections: str) -> None:
        """Fail with the section name when a subcommand's input is missing."""
        present = {
            "within_host": self.within is not None,
            "sweep": self.sweep is not None,
            "between_host": self.between is not None,
            "grid": self.n_omega is not None,
            "run": self.t_max is not None,
        }
        for name in sections:
            if not present[name]:
                raise ConfigError(f"section {name!r} is required for this subcommand")


def _parse_within(node: dict, cfg: ScenarioConfig) -> None:
    _reject_unknown(node, _WITHIN_KEYS, "within_host")
    # a rate without a dataclass default is required
    kwargs = {
        f.name: _number(node, f.name, "within_host")
        for f in fields(within_host.WithinHostParams)
        if f.default is MISSING or f.name in node
    }
    try:
        cfg.within = within_host.WithinHostParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"within_host: {exc}") from exc
    if "initial" in node:
        triple = _number_list(node["initial"], "within_host.initial")
        if len(triple) != 3:
            raise ConfigError("within_host.initial: expected [T, P, W]")
        try:
            cfg.within_initial = within_host.WithinHostState(*triple)
        except ValueError as exc:
            raise ConfigError(f"within_host.initial: {exc}") from exc
    if "p_clear" in node:
        cfg.p_clear = _number(node, "p_clear", "within_host")
    if cfg.p_clear <= 0:
        raise ConfigError("within_host.p_clear: must be positive")


def _parse_sweep(node: dict, cfg: ScenarioConfig) -> None:
    from . import bifurcation

    _reject_unknown(node, _SWEEP_KEYS, "sweep")
    which = node.get("which")
    if which not in ("delta", "W"):
        raise ConfigError(f"sweep.which: expected 'delta' or 'W', got {which!r}")
    kwargs = dict(
        which=which,
        lo=_number(node, "lo", "sweep"),
        hi=_number(node, "hi", "sweep"),
    )
    # absent optional keys keep the SweepSpec defaults
    if "n" in node:
        kwargs["n"] = _integer(node, "n", "sweep")
    if "W" in node:
        kwargs["W"] = _number(node, "W", "sweep")
    try:
        cfg.sweep = bifurcation.SweepSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    if "cycle_n" in node:
        cfg.cycle_n = _integer(node, "cycle_n", "sweep")
    if cfg.cycle_n < 2:
        raise ConfigError("sweep.cycle_n: must be at least 2")


def _parse_between(raw: dict, cfg: ScenarioConfig) -> None:
    from .between_host import COEFFICIENT_FIELDS, BetweenHostParams

    function_keys = set(COEFFICIENT_FIELDS)
    # the scalar fields of BetweenHostParams
    between_keys = {f.name for f in fields(BetweenHostParams)} - function_keys
    node = _require_mapping(raw.get("between_host"), "between_host")
    _reject_unknown(node, between_keys, "between_host")
    functions = _require_mapping(raw.get("functions"), "functions")
    _reject_unknown(functions, function_keys, "functions")
    missing = function_keys - set(functions)
    if missing:
        raise ConfigError(f"functions.{sorted(missing)[0]}: descriptor is missing")
    resolved = {
        name: resolve_coefficient(functions[name], f"functions.{name}", cfg.within)
        for name in COEFFICIENT_FIELDS
    }
    omega0 = node.get("omega0")
    if omega0 == "fold":
        if cfg.within is None:
            raise ConfigError(
                "between_host.omega0: 'fold' needs a within_host section"
            )
        omega0 = within_host.manifold_tip(cfg.within)[1]
    else:
        omega0 = _number(node, "omega0", "between_host")
    # a rate without a dataclass default is required
    kwargs = {
        f.name: _number(node, f.name, "between_host")
        for f in fields(BetweenHostParams)
        if f.name in between_keys and f.name != "omega0" and (f.default is MISSING or f.name in node)
    }
    try:
        cfg.between = BetweenHostParams(**kwargs, omega0=omega0, **resolved)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"between_host: {exc}") from exc


def _parse_grid(node: dict, cfg: ScenarioConfig) -> None:
    _reject_unknown(node, _GRID_KEYS, "grid")
    cfg.n_omega = _integer(node, "n_omega", "grid")
    if cfg.n_omega < 2:
        raise ConfigError("grid.n_omega: must be at least 2")
    cfg.dt = _number(node, "dt", "grid")
    if cfg.dt <= 0:
        raise ConfigError("grid.dt: must be positive")


def _parse_run(node: dict, cfg: ScenarioConfig) -> None:
    _reject_unknown(node, _RUN_KEYS, "run")
    cfg.t_max = _number(node, "t_max", "run")
    if cfg.t_max <= 0:
        raise ConfigError("run.t_max: must be positive")
    if "output_stride" in node:
        cfg.output_stride = _integer(node, "output_stride", "run")
    if "snapshot_stride" in node:
        cfg.snapshot_stride = _integer(node, "snapshot_stride", "run")
    if cfg.output_stride < 1:
        raise ConfigError("run.output_stride: must be at least 1")
    if cfg.snapshot_stride < 0:
        raise ConfigError("run.snapshot_stride: must be nonnegative")
    if "initial" in node:
        init = _require_mapping(node["initial"], "run.initial")
        _reject_unknown(init, _INITIAL_KEYS, "run.initial")
        cfg.initial_S = _number(init, "S", "run.initial")
        if "V" in init:
            cfg.initial_V = _number(init, "V", "run.initial")
        if "B" in init:
            cfg.initial_B = _number(init, "B", "run.initial")
        if cfg.initial_S < 0 or cfg.initial_V < 0 or cfg.initial_B < 0:
            raise ConfigError("run.initial: state components must be nonnegative")
        if "I" not in init:
            raise ConfigError("run.initial.I: density descriptor is missing")
        cfg.initial_I = resolve_coefficient(init["I"], "run.initial.I", cfg.within)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario JSON document.

    Resolution order matters: the within-host section is parsed first so
    derived coefficient families and the 'fold' recovery status can refer
    to it. The grid's CFL bound is not checked here: it depends on the
    refinement, so the transport solver checks it on its own nodes.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    _require_mapping(raw, str(path))
    _reject_unknown(raw, _SECTIONS, "document")
    cfg = ScenarioConfig()
    if "within_host" in raw:
        _parse_within(_require_mapping(raw["within_host"], "within_host"), cfg)
    if "sweep" in raw:
        _parse_sweep(_require_mapping(raw["sweep"], "sweep"), cfg)
    if "between_host" in raw or "functions" in raw:
        if "between_host" not in raw:
            raise ConfigError("between_host: section is missing but functions is present")
        if "functions" not in raw:
            raise ConfigError("functions: section is missing but between_host is present")
        _parse_between(raw, cfg)
    if "grid" in raw:
        _parse_grid(_require_mapping(raw["grid"], "grid"), cfg)
    if "run" in raw:
        _parse_run(_require_mapping(raw["run"], "run"), cfg)
    return cfg
