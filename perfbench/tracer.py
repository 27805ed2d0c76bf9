"""Traced run of one CLI operation, in a fresh interpreter.

    python3 perfbench/tracer.py TRACE_JSON -- <immunoepi CLI arguments>

Imports the package, installs wrappers around the public functions of each
layer in every module namespace that binds them (``find_root`` is bound in
``numerics``, ``between_host``, ``within_host`` and ``bifurcation``;
``load_scenario`` in ``config`` and ``cli``; ``Coefficient.__call__`` on the
class), runs ``cli.main`` and writes the spans and per-layer totals to
TRACE_JSON. Spans are kept in memory until the operation ends.

Functions called more than about 1e5 times per run (``upper_branch_P``,
``equilibria_fast``, the ODE right-hand side and root-finder objectives)
are counted, not timed; their time stays in the self time of the timed
caller. The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

# (module, attribute, layer name, extra counter) for timed layers
TIMED = [
    ("cli", "run", "cli.run", None),
    ("config", "load_scenario", "config.load", None),
    ("coefficients", "Coefficient.__call__", "coefficients", "nodes"),
    ("between_host", "build_clock", "between_host.build_clock", None),
    ("between_host", "endemic_char_residual", "between_host.char_residual", None),
    ("between_host", "dfe_lambda_hat", "between_host.lambda_hat", None),
    ("between_host", "endemic_spectrum_scan", "between_host.spectrum_scan", None),
    ("between_host", "endemic_equilibrium", "between_host.endemic_equilibrium", None),
    ("between_host", "simulate_epidemic", "between_host.transport", "transport_steps"),
    ("between_host", "simulate_renewal", "between_host.renewal", "renewal_steps"),
    ("between_host", "renewal_kernel_A", "between_host.kernel", None),
    ("between_host", "kernel_total_integral", "between_host.kernel_total_integral", None),
    ("numerics", "quadrature", "numerics.quadrature", None),
    ("numerics", "integrate_ode", "numerics.ode", "ode_steps"),
    ("numerics", "find_root", "numerics.find_root", None),
    ("within_host", "simulate_infection", "within_host.simulate_infection", None),
    ("bifurcation", "sweep_branch", "bifurcation.sweep_branch", None),
    ("bifurcation", "detect_all_events", "bifurcation.detect_events", None),
    ("bifurcation", "cycle_amplitude", "bifurcation.cycle_amplitude", "orbit_steps"),
]
# (module, attribute, layer name) counted without timing
COUNTED = [
    ("within_host", "upper_branch_P", "within_host.upper_branch_P"),
    ("within_host", "equilibria_fast", "within_host.equilibria_fast"),
]
# callables passed into a timed layer, counted per call: (layer, argument)
CALLBACKS = {"numerics.ode": ("rhs", "ode.rhs_evals"), "numerics.find_root": ("f", "find_root.f_evals")}


class Tracer:
    """Span recorder: a stack of open spans plus per-layer totals."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[list] = []
        self.totals: dict[str, dict] = {}
        self.counts: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self.totals:
            self.names.append(name)
            self.totals[name] = {"id": len(self.names) - 1, "calls": 0, "total_s": 0.0, "self_s": 0.0}
        return self.totals[name]["id"]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def timed(self, fn, name: str, extra):
        name_id = self._name_id(name)
        total = self.totals[name]
        callback = CALLBACKS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if callback is not None:
                bound = signature.bind(*args, **kwargs)
                bound.arguments[callback[0]] = self.counted(bound.arguments[callback[0]], callback[1])
                args, kwargs = bound.args, bound.kwargs
            if extra is not None:
                self._count_extra(extra, signature, args, kwargs)
            index = len(self.spans)
            parent = self.stack[-1][0] if self.stack else -1
            self.spans.append(None)
            frame = [index, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - start
                total["calls"] += 1
                total["total_s"] += duration
                total["self_s"] += duration - frame[1]
                if self.stack:
                    self.stack[-1][1] += duration
                self.spans[index] = (name_id, start, end, parent)
            if extra == "ode_steps":
                self.count("ode.steps", len(result.t) - 1)
            return result

        return wrapper

    def counted(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_extra(self, extra: str, signature, args, kwargs) -> None:
        if extra == "nodes":
            self.count("coefficients.nodes", int(np.size(args[1])))
            return
        if extra == "ode_steps":
            return
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if extra == "transport_steps":
            steps = int(round(a["t_max"] / a["dt"]))
            self.count("transport.steps", steps)
            self.count("transport.node_steps", steps * (a["n_omega"] + 1))
        elif extra == "renewal_steps":
            self.count("renewal.steps", int(round(a["t_max"] / a["dt"])))
        elif extra == "orbit_steps":
            orbits = len(a["spec"].values())
            self.count("cycle.orbit_steps", orbits * int(round((a["transient"] + a["window"]) / a["step"])))

    def dump(self, path: Path, exit_code: int) -> None:
        doc = {
            "exit_code": exit_code,
            "names": self.names,
            "totals": {k: {kk: vv for kk, vv in v.items() if kk != "id"} for k, v in self.totals.items()},
            "counts": self.counts,
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _rebind(modules, old, new) -> int:
    """Replace every module-level binding of ``old`` with ``new``."""
    hits = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    import immunoepi
    from immunoepi import between_host, bifurcation, cli, coefficients, config, numerics, within_host

    modules = [immunoepi, between_host, bifurcation, cli, coefficients, config, numerics, within_host]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    for module_name, attr, name, extra in TIMED:
        module = by_name[module_name]
        if attr == "Coefficient.__call__":
            cls = module.Coefficient
            cls.__call__ = tracer.timed(cls.__call__, name, extra)
            continue
        original = getattr(module, attr)
        if _rebind(modules, original, tracer.timed(original, name, extra)) == 0:
            raise RuntimeError(f"{module_name}.{attr} is bound nowhere")
    for module_name, attr, name in COUNTED:
        original = getattr(by_name[module_name], attr)
        _rebind(modules, original, tracer.counted(original, name + ".calls"))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_path = Path(argv[0])
    tracer = Tracer()
    start = time.perf_counter()
    from immunoepi import cli

    elapsed = time.perf_counter() - start
    tracer.totals["import"] = {"calls": 1, "total_s": elapsed, "self_s": elapsed}
    install(tracer)
    code = cli.main(argv[2:])
    tracer.dump(trace_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
