"""Command-line front end.

Subcommands dispatch scenario configs to the analysis operations and write
deterministic CSV/JSON outputs:

* ``within-sim``     one within-host infection trajectory
* ``bifurcate``      equilibrium branches, fold/oscillation-onset events,
                     and periodic-orbit amplitudes over a parameter sweep
* ``manifold``       slow-manifold curve, status nullcline, and fold point
* ``r0``             reproduction number with its route breakdown
* ``equilibria``     endemic equilibrium values and stationarity residuals
* ``epi-sim``        structured transport simulation
* ``renewal-check``  renewal reformulation vs. the transport solver
* ``spectral``       infection-free growth rate and endemic residual scan
* ``plot-data``      gnuplot-ready data blocks from earlier runs

Every run writes ``summary.json`` (all defaults echoed, full-precision
numbers) and ``manifest.json`` (sha256 of each written file; the manifest
itself is not self-listed). ``run`` adds one envelope (``subcommand``,
``seed``, ``grid_refine``, ``parameters``) to the summary body that a
config subcommand's handler returns; ``plot-data`` appends to the upstream
summary. Identical configs produce byte-identical outputs. The
``IMMUNOEPI_LOG`` environment variable sets log verbosity.
Exit codes: 0 success, 2 invalid config or arguments, 3 numerical failure.

At module level this imports only the standard library and ``errors``;
each handler imports the numeric modules it uses, so ``plot-data``, which
reads upstream text files, never loads numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import ConfigError, NonFiniteError, NumericsError

if TYPE_CHECKING:
    import numpy as np

    from . import between_host
    from .config import ScenarioConfig

__all__ = ["main", "run", "load_scenario", "emit_plot_data", "RunOutput"]

log = logging.getLogger("immunoepi")

# values stacked per CSV block and bytes per manifest read: a writer's or a
# hash's working memory is bounded by these, not by the file size
CSV_BLOCK = 16384
HASH_CHUNK = 1 << 20


@dataclass
class RunOutput:
    """What a subcommand produced: directory and file checksums."""

    out_dir: Path
    files: dict[str, str]


# ---------------------------------------------------------------------------
# deterministic writers


def _write_rows(path: Path, header: str, *columns: np.ndarray) -> None:
    """Write float columns side by side as CSV, one shortest round-trip repr
    per value.

    Each column is a 1-D array or a 2-D block of columns, all with the same
    number of rows. Blocks of at most CSV_BLOCK values (at least one row)
    are stacked at a time and converted one row at a time, so no
    whole-table array or list is built, however wide the table.
    """
    import numpy as np

    n_rows = len(columns[0])
    width = sum(1 if np.ndim(col) == 1 else np.shape(col)[1] for col in columns)
    rows = max(1, CSV_BLOCK // width)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, n_rows, rows):
            block = np.column_stack([col[start:start + rows] for col in columns])
            for row in block:
                fh.write(",".join(map(repr, row.tolist())) + "\n")


def _sha256(path: Path) -> str:
    """sha256 of a file, read through one buffer of at most HASH_CHUNK bytes
    (a small file gets a buffer of its own size)."""
    digest = hashlib.sha256()
    buf = bytearray(min(HASH_CHUNK, path.stat().st_size))
    view = memoryview(buf)
    with open(path, "rb") as fh:
        while n_read := fh.readinto(buf):
            digest.update(view[:n_read])
    return digest.hexdigest()


def _json_default(obj):
    """An ndarray as a list, a numpy scalar as its Python number (np.float64
    is a float subclass and never reaches this hook)."""
    import numpy as np

    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _finalize(out_dir: Path, summary: dict) -> RunOutput:
    """Write summary.json, then manifest.json over everything else. A NaN
    or infinite summary value is refused before anything is written."""
    try:
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False, default=_json_default)
    except ValueError as exc:
        raise NonFiniteError(f"summary.json: {exc}") from exc
    (out_dir / "summary.json").write_text(text + "\n")
    files = {
        p.name: _sha256(p)
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }
    manifest = {
        "files": [
            {"name": name, "sha256": digest, "bytes": (out_dir / name).stat().st_size}
            for name, digest in files.items()
        ],
        "note": "manifest.json is excluded from its own listing",
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return RunOutput(out_dir=out_dir, files=files)


def load_scenario(path) -> ScenarioConfig:
    """config.load_scenario, imported on first use."""
    from .config import load_scenario as load

    return load(path)


def _between_echo(cfg: ScenarioConfig) -> dict:
    from . import between_host

    echo = {f.name: getattr(cfg.between, f.name) for f in fields(cfg.between)}
    functions = {name: echo.pop(name) for name in between_host.COEFFICIENT_FIELDS}
    echo["functions"] = {
        name: {"family": fn.family, **fn.describe} for name, fn in functions.items()
    }
    echo["quadrature"] = {"rule": "simpson", "n": between_host.TABLE_PANELS}
    return echo


# ---------------------------------------------------------------------------
# subcommands


def _cmd_within_sim(cfg: ScenarioConfig, out_dir: Path, args) -> dict:
    from . import within_host

    params = cfg.within
    t_max = cfg.t_max if cfg.t_max is not None else 400.0
    if cfg.within_initial is not None:
        initial = within_host.WithinHostState(*cfg.within_initial)
    else:
        initial = within_host.WithinHostState(params.Lambda / params.mu, 0.5, 0.0)
    run_rec = within_host.simulate_infection(
        params, initial, t_max, p_clear=cfg.p_clear
    )
    _write_rows(out_dir / "trajectory.csv", "t,T,P,W", run_rec.t, run_rec.states)
    return {
        "defaults": {"t_max": t_max, "initial": list(initial.as_array()), "p_clear": cfg.p_clear},
        **within_host.run_metadata(run_rec, params),
    }


def _cmd_bifurcate(cfg: ScenarioConfig, out_dir: Path, args) -> dict:
    from . import bifurcation, within_host

    params = cfg.within
    spec = replace(cfg.sweep, n=cfg.sweep.n * args.grid_refine)
    try:
        result = bifurcation.sweep_branch(params, spec)
    except ValueError as exc:
        # a sweep range with no infected equilibrium is a configuration error
        raise ConfigError(f"sweep: {exc}") from exc
    events = bifurcation.detect_all_events(result)
    cycles = bifurcation.cycle_amplitude(params, replace(spec, n=cfg.cycle_n))
    bifurcation.branch_to_csv(result.fold_path, out_dir / "branches.csv")
    bifurcation.branch_to_csv(result.trivial, out_dir / "trivial.csv")
    bifurcation.cycles_to_csv(cycles, out_dir / "cycles.csv")
    bifurcation.events_json_dump(events, out_dir / "events.json")
    loci = within_host.critical_loci(params)
    return {
        "sweep": asdict(spec),
        "defaults": {
            "cycle_n": cfg.cycle_n,
            "cycle_transient": bifurcation.CYCLE_TRANSIENT,
            "cycle_window": bifurcation.CYCLE_WINDOW,
            "cycle_step": bifurcation.CYCLE_STEP,
        },
        "events": bifurcation.events_to_json(events),
        "analytic_fold_clearance": loci.Gamma_fold,
        "analytic_hopf_clearance": list(loci.hopf),
    }


def _cmd_manifold(cfg: ScenarioConfig, out_dir: Path, args) -> dict:
    import numpy as np

    from . import within_host

    params = cfg.within
    tip_P, tip_W = within_host.manifold_tip(params)
    try:
        p_max = within_host.upper_branch_P(0.0, params) * 1.2
    except ValueError as exc:
        # the fold lies below W = 0: no infected branch to draw
        raise ConfigError(f"within_host: {exc}") from exc
    n = 400 * args.grid_refine
    p_grid = np.linspace(1e-6, p_max, n)
    phi = within_host.slow_manifold_W(p_grid, params)
    null = within_host.w_nullcline(p_grid, params)
    _write_rows(out_dir / "manifold.csv", "P,manifold_W,nullcline_W", p_grid, phi, null)
    return {
        "defaults": {"n_points": n, "p_max": p_max},
        "tip": {"P": tip_P, "W": tip_W},
        "nullcline_slope": params.kappa / params.c,
    }


def _cmd_r0(cfg: ScenarioConfig, out_dir: Path, args) -> dict:
    from . import between_host

    direct, environmental = between_host.r0_terms(cfg.between)
    return {
        "r0": direct + environmental,
        "direct_term": direct,
        "environmental_term": environmental,
    }


def _cmd_equilibria(cfg: ScenarioConfig, out_dir: Path, args) -> dict:
    from . import between_host

    params = cfg.between
    basic = between_host.r0(params)
    eq = between_host.endemic_equilibrium(params, n_omega=400 * args.grid_refine)
    summary = {"r0": basic, "endemic_exists": eq is not None}
    if eq is not None:
        _write_rows(out_dir / "equilibrium_profile.csv", "omega,I_star", eq.omega, eq.I)
        summary["endemic"] = {
            "S": eq.S, "I0": eq.I0, "V": eq.V, "B": eq.B,
            "residuals": between_host.endemic_residuals(eq, params),
        }
    return summary


def _apply_refine(cfg: ScenarioConfig, k: int) -> tuple[int, float]:
    """Transport grid refined by k; a horizon shorter than one step is refused."""
    n_omega = cfg.n_omega * k
    dt = cfg.dt / k
    if cfg.t_max < dt:
        raise ConfigError(
            f"run.t_max: {cfg.t_max!r} is shorter than one transport step "
            f"(dt = {dt!r}); the run would take no steps"
        )
    return n_omega, dt


def _transport(cfg: ScenarioConfig, n_omega: int, dt: float, **strides) -> between_host.EpidemicRun:
    """Transport run on the refined grid; an initial density the state
    refuses (negative, or undefined past a derived coefficient's fold) and
    a grid the solver refuses up front (the CFL bound on its own nodes,
    the strides, dt and t_max) are configuration errors; a blow-up during
    the run is a numerical failure."""
    from . import between_host

    try:
        s0, i0, v0, b0 = cfg.initial_state_arrays(n_omega)
        initial = between_host.StructuredState(S=s0, I=i0, V=v0, B=b0)
    except ValueError as exc:
        raise ConfigError(f"run.initial: {exc}") from exc
    try:
        return between_host.simulate_epidemic(
            cfg.between, initial, cfg.t_max, n_omega, dt, **strides
        )
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _cmd_epi_sim(cfg: ScenarioConfig, out_dir: Path, args) -> dict:
    from . import between_host

    params = cfg.between
    n_omega, dt = _apply_refine(cfg, args.grid_refine)
    run_rec = _transport(
        cfg, n_omega, dt,
        output_stride=cfg.output_stride,
        snapshot_stride=cfg.snapshot_stride,
    )
    _write_rows(
        out_dir / "timeseries.csv",
        "t,S,I_total,V,B,F",
        run_rec.t, run_rec.S, run_rec.I_total, run_rec.V, run_rec.B, run_rec.F,
    )
    if cfg.snapshot_stride:
        header = "t," + ",".join(repr(float(w)) for w in run_rec.omega)
        _write_rows(out_dir / "snapshots.csv", header, run_rec.snapshot_t, run_rec.snapshots)
    return {
        "grid": {"n_omega": n_omega, "dt": dt},
        "defaults": {
            "output_stride": cfg.output_stride,
            "snapshot_stride": cfg.snapshot_stride,
            "negativity_tolerance": between_host.NEGATIVITY_ABORT,
        },
        "t_max": cfg.t_max,
        "r0": between_host.r0(params),
        "final": {
            "S": run_rec.final.S,
            "I_total": run_rec.I_total[-1],
            "I_boundary": run_rec.final.I[0],
            "V": run_rec.final.V,
            "B": run_rec.final.B,
        },
    }


def _matched_history(cfg: ScenarioConfig):
    """Force-of-infection history encoding the initial infected density.

    The renewal form carries I(0, omega) as past boundary input: entrants
    at time -G(omega) that survived to status omega. Inverting the survival
    factor and holding S at its initial value before time zero gives
    F(-theta) = phi(w(theta)) / (pi(w(theta)) * S0) for theta within the
    travel time to recovery, zero earlier.
    """
    import numpy as np

    from . import between_host

    params = cfg.between
    clock = params.clock
    s0 = cfg.initial_S
    phi = cfg.initial_I
    total = clock.total_time

    def history(s):
        s = np.asarray(s, dtype=float)
        theta = np.clip(-s, 0.0, None)
        w = clock.status_at(np.minimum(theta, total))
        vals = phi(w) / (between_host.survival_pi(w, params) * s0)
        return np.where(theta <= total, vals, 0.0)

    return history


def _cmd_renewal_check(cfg: ScenarioConfig, out_dir: Path, args) -> dict:
    import numpy as np

    from . import between_host

    params = cfg.between
    if params.rho > 0:
        # the renewal form has no return flow from the recovered pool
        raise ConfigError(
            f"between_host.rho: renewal-check requires rho = 0, got {params.rho!r}"
        )
    if cfg.initial_S is not None and cfg.initial_S <= 0:
        # the matched history divides the initial density by S0
        raise ConfigError(
            f"run.initial.S: renewal-check requires S > 0, got {cfg.initial_S!r}"
        )
    n_omega, dt = _apply_refine(cfg, args.grid_refine)
    window = params.a_bar + params.clock.total_time
    steps = max(int(round(window / dt)), 1)
    dt_renewal = window / steps

    pde = _transport(cfg, n_omega, dt, output_stride=1)
    renewal = between_host.simulate_renewal(
        params, _matched_history(cfg), cfg.initial_S, cfg.t_max, dt_renewal
    )
    f_pde = np.interp(renewal.t, pde.t, pde.F)
    s_pde = np.interp(renewal.t, pde.t, pde.S)
    _write_rows(
        out_dir / "renewal.csv",
        "t,S_pde,F_pde,S_renewal,F_renewal",
        renewal.t, s_pde, f_pde, renewal.S, renewal.F,
    )
    basic = between_host.r0(params)
    summary = {
        "grid": {"n_omega": n_omega, "dt": dt, "dt_renewal": dt_renewal},
        "memory_window": window,
        "t_max": cfg.t_max,
        "max_abs_dF": float(np.max(np.abs(f_pde - renewal.F))),
        "max_abs_dS": float(np.max(np.abs(s_pde - renewal.S))),
        "r0": basic,
    }
    if basic > 1:
        eq = between_host.endemic_equilibrium(params)
        total_kernel = between_host.kernel_total_integral(params)
        summary["stationary_kernel_identity"] = eq.S * total_kernel
    return summary


def _cmd_spectral(cfg: ScenarioConfig, out_dir: Path, args) -> dict:
    from . import between_host

    params = cfg.between
    basic = between_host.r0(params)
    summary = {
        "r0": basic,
        "defaults": {
            "scan_max": between_host.SPECTRUM_SCAN_MAX,
            "scan_step": between_host.SPECTRUM_SCAN_STEP,
        },
    }
    try:
        summary["lambda_hat"] = between_host.dfe_lambda_hat(params)
    except NumericsError as exc:
        # no real crossing on the admissible interval; recorded, not fatal
        summary["lambda_hat"] = None
        summary["lambda_hat_note"] = str(exc)
    if basic > 1:
        scan = between_host.endemic_spectrum_scan(params)
        _write_rows(out_dir / "scan.csv", "lambda,residual", scan.lam, scan.residual)
        summary["endemic_scan_roots"] = scan.roots
        summary["endemic_residual_at_zero_plus"] = scan.residual[1]
    else:
        summary["endemic_scan_roots"] = None
    return summary


# ---------------------------------------------------------------------------
# plot data


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    if not path.is_file():
        raise ConfigError(f"plot-data: missing upstream file {path.name} in {path.parent}")
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def emit_plot_data(out_dir: Path, figure: str) -> list[str]:
    """Write gnuplot-ready whitespace-separated blocks from earlier runs.

    fig1/fig2: equilibrium branches and periodic-orbit extents from a
    `bifurcate` run (fig1 expects a delta sweep, fig2 a W sweep); columns
    are `param P stability kind`, stable = 1. fig3: slow-manifold curve,
    status nullcline, and one trajectory from `manifold` + `within-sim`
    runs; columns are `P W kind`. Blocks are separated by blank lines.
    """
    out_dir = Path(out_dir)
    written: list[str] = []
    if figure in ("fig1", "fig2"):
        summary_path = out_dir / "summary.json"
        if not summary_path.is_file():
            raise ConfigError(f"plot-data: no summary.json in {out_dir}")
        summary = json.loads(summary_path.read_text())
        which = summary.get("sweep", {}).get("which")
        expected = "delta" if figure == "fig1" else "W"
        if which != expected:
            raise ConfigError(
                f"plot-data: {figure} needs a bifurcate run sweeping {expected!r}, "
                f"found {which!r}"
            )
        _, branch_rows = _read_csv(out_dir / "branches.csv")
        _, trivial_rows = _read_csv(out_dir / "trivial.csv")
        _, cycle_rows = _read_csv(out_dir / "cycles.csv")
        target = out_dir / f"{figure}.dat"
        with open(target, "w") as fh:
            fh.write("# param P stability kind\n")
            for name, rows in (("branch", branch_rows), ("trivial", trivial_rows)):
                previous = None
                for row in rows:
                    stability = row[7]
                    stable = 1 if stability.startswith("stable") else 0
                    if previous is not None and stable != previous:
                        fh.write("\n")
                    fh.write(f"{row[0]} {row[2]} {stable} {name}\n")
                    previous = stable
                fh.write("\n\n")
            for idx, kind in ((1, "cycle_min"), (2, "cycle_max")):
                wrote = False
                for row in cycle_rows:
                    if row[5] == "1":  # oscillatory column
                        fh.write(f"{row[0]} {row[idx]} 1 {kind}\n")
                        wrote = True
                if wrote:
                    fh.write("\n\n")
        written.append(target.name)
    elif figure == "fig3":
        _, manifold_rows = _read_csv(out_dir / "manifold.csv")
        _, trajectory_rows = _read_csv(out_dir / "trajectory.csv")
        target = out_dir / "fig3.dat"
        with open(target, "w") as fh:
            fh.write("# P W kind\n")
            for row in manifold_rows:
                fh.write(f"{row[0]} {row[1]} manifold\n")
            fh.write("\n\n")
            for row in manifold_rows:
                fh.write(f"{row[0]} {row[2]} nullcline\n")
            fh.write("\n\n")
            for row in trajectory_rows:
                fh.write(f"{row[2]} {row[3]} trajectory\n")
        written.append(target.name)
    else:
        raise ConfigError(f"plot-data: unknown figure {figure!r}")
    return written


def _cmd_plot_data(cfg: None, out_dir: Path, args) -> dict:
    """The upstream summary with the written files appended to plot_data."""
    written = emit_plot_data(out_dir, args.figure)
    summary_path = out_dir / "summary.json"
    summary = json.loads(summary_path.read_text()) if summary_path.is_file() else {}
    summary.setdefault("plot_data", []).extend(
        name for name in written if name not in summary.get("plot_data", [])
    )
    return summary


# ---------------------------------------------------------------------------
# entry point

# subcommand -> (handler, required config sections); plot-data takes no config
_COMMANDS = {
    "within-sim": (_cmd_within_sim, ("within_host",)),
    "bifurcate": (_cmd_bifurcate, ("within_host", "sweep")),
    "manifold": (_cmd_manifold, ("within_host",)),
    "r0": (_cmd_r0, ("between_host",)),
    "equilibria": (_cmd_equilibria, ("between_host",)),
    "epi-sim": (_cmd_epi_sim, ("between_host", "grid", "run")),
    "renewal-check": (_cmd_renewal_check, ("between_host", "grid", "run")),
    "spectral": (_cmd_spectral, ("between_host",)),
    "plot-data": (_cmd_plot_data, None),
}


def run(subcommand: str, config_path: str | None, out_dir: str | Path, args) -> RunOutput:
    """Dispatch one subcommand; raises ConfigError / NumericsError on failure.

    The one place that knows what every run shares: the --grid-refine
    check, the required config sections, the output directory, the summary
    envelope and the manifest. Handlers compute, write their data files and
    return their summary body.
    """
    handler, sections = _COMMANDS[subcommand]
    if args.grid_refine < 1:
        raise ConfigError("--grid-refine must be a positive integer")
    cfg = None
    if sections is not None:
        if config_path is None:
            raise ConfigError(f"{subcommand}: --config is required")
        cfg = load_scenario(config_path)
        cfg.require(*sections)
    out_dir = Path(out_dir)
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    try:
        summary = handler(cfg, out_dir, args)
        if cfg is not None:
            summary.update(
                subcommand=subcommand,
                seed=args.seed,
                grid_refine=args.grid_refine,
                parameters=_between_echo(cfg) if "between_host" in sections else asdict(cfg.within),
            )
        return _finalize(out_dir, summary)
    except (ConfigError, NumericsError):
        # a failed run leaves no empty output directory: remove the ones made
        # above (rmdir refuses a directory that holds files)
        with contextlib.suppress(OSError):
            for directory in created:
                directory.rmdir()
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="immunoepi",
        description="Linked within-host / between-host epidemic analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="scenario JSON document")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument(
            "--grid-refine", type=int, default=1, metavar="K",
            help="refine discretizations by an integer factor",
        )
        cmd.add_argument(
            "--seed", type=int, default=0,
            help="recorded in the summary; no component is stochastic",
        )
        if name == "plot-data":
            cmd.add_argument(
                "--figure", required=True, choices=("fig1", "fig2", "fig3")
            )
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("IMMUNOEPI_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        output = run(args.command, args.config, args.out, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    log.info("wrote %d files to %s", len(output.files), output.out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
