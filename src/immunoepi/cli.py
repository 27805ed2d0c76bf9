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
* ``renewal-check``  renewal reformulation vs. the transport solver, both
                     from run.initial on the transport's clock
* ``spectral``       infection-free growth rate and endemic residual scan
* ``plot-data``      gnuplot-ready data blocks from earlier runs

Handlers compute and return their summary body and their files as
``{name: lines}``; ``run`` writes them all through one writer. It adds one
envelope (``subcommand``, ``seed``, ``grid_refine``, ``parameters``) to a
config subcommand's summary body (``plot-data`` appends to the upstream
summary), serialises every JSON output, and only then creates ``--out``
and writes the files, ``summary.json`` (all defaults echoed,
full-precision numbers) and ``manifest.json`` (sha256 of every other file
in ``--out``, an upstream run's included; the manifest itself is not
self-listed). A run that fails has written nothing. Identical configs
produce byte-identical outputs. The ``IMMUNOEPI_LOG`` environment
variable sets the log level; the one message is the info line naming the
number of files written.
Exit codes: 0 success, 2 invalid config or arguments (a run too large for
memory among them), 3 numerical failure.

At module level this imports only the standard library and ``errors``;
each handler imports the numeric modules it uses. Only ``spectral``,
``epi-sim`` and ``renewal-check`` load numpy: ``within-sim``,
``manifold``, ``bifurcate``, ``r0`` and ``equilibria`` run on Python
floats and lists, and ``plot-data`` reads upstream text files.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import asdict, astuple, fields, replace
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from . import __version__
from .errors import ConfigError, NonFiniteError, NumericsError

if TYPE_CHECKING:
    from . import between_host, bifurcation
    from .config import ScenarioConfig

__all__ = ["main", "run", "load_scenario"]

log = logging.getLogger("immunoepi")

# values stacked per CSV block and bytes per manifest read: a writer's or a
# hash's working memory is bounded by these, not by the file size
CSV_BLOCK = 16384
HASH_CHUNK = 1 << 20


# ---------------------------------------------------------------------------
# deterministic output text and the one writer


def _width(column) -> int:
    """Values per row of a CSV column: 0 for a 1-D column, the block width
    for a 2-D array."""
    return column.shape[1] if getattr(column, "ndim", 1) == 2 else 0


def _csv_lines(header: str, *columns, tail: Sequence[str] | None = None) -> Iterator[str]:
    """CSV lines of float columns side by side, one shortest round-trip repr
    per value, each row ending in its text ``tail`` cells when given.

    Each column is a 1-D array or sequence of floats, or a 2-D array whose
    columns are written side by side, all with the same number of rows.
    Blocks of at most CSV_BLOCK values (at least one row) are sliced as
    the lines are drawn, an array's slice converted by
    ``tolist``, so no whole-table list is built, however wide the table,
    and numpy is never imported here.
    """
    yield header + "\n"
    widths = [_width(col) for col in columns]
    rows = max(1, CSV_BLOCK // sum(width or 1 for width in widths))
    ends = repeat("\n") if tail is None else (f",{text}\n" for text in tail)
    for start in range(0, len(columns[0]), rows):
        blocks = [col[start:start + rows] for col in columns]
        blocks = [block.tolist() if hasattr(block, "tolist") else block for block in blocks]
        for cells, end in zip(zip(*blocks), ends):
            if any(widths):
                row = []
                for cell, width in zip(cells, widths):
                    if width:
                        row.extend(cell)
                    else:
                        row.append(cell)
                cells = row
            yield ",".join(map(repr, cells)) + end


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


def _json_text(name: str, obj) -> str:
    """The text of one JSON output file; a NaN or infinite value is refused."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError(f"{name}: {exc}") from exc
    return text + "\n"


def _write(path: Path, lines: Iterable[str]) -> None:
    """The one place a file is opened for writing."""
    with open(path, "w") as fh:
        fh.writelines(lines)


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
    echo["quadrature"] = {"rule": "filon_simpson", "n": between_host.TABLE_PANELS}
    return echo


# ---------------------------------------------------------------------------
# subcommands


def _cmd_within_sim(cfg: ScenarioConfig, args) -> tuple[dict, dict]:
    from . import within_host

    params = cfg.within
    t_max = cfg.t_max if cfg.t_max is not None else 400.0
    initial = cfg.within_initial
    if initial is None:
        T0 = params.Lambda / params.mu
        if not math.isfinite(T0):
            raise ConfigError(
                f"within_host.initial is required: the default start T = Lambda/mu = {T0!r} "
                "is not finite"
            )
        initial = within_host.WithinHostState(T0, 0.5, 0.0)
    run_rec = within_host.simulate_infection(params, initial, t_max, p_clear=cfg.p_clear)
    t_rec = run_rec.recovery_time
    summary = {
        "defaults": {"t_max": t_max, "initial": list(astuple(initial)), "p_clear": cfg.p_clear},
        "p_clear": cfg.p_clear,
        "w_fold": run_rec.w_fold,
        "recovery_time": t_rec,
        "recovery_time_slow": None if t_rec is None else t_rec * params.epsilon,
        "fold_crossed": run_rec.fold_crossed,
        "t_end": run_rec.t[-1],
        "n_samples": len(run_rec.t),
    }
    return summary, {"trajectory.csv": _csv_lines("t,T,P,W", run_rec.t, *zip(*run_rec.states))}


def _branch_csv(branch: bifurcation.Branch) -> Iterator[str]:
    ev1, ev2 = ([pair[k] for pair in branch.eigenvalues] for k in (0, 1))
    return _csv_lines(
        "param,T,P,re_ev1,im_ev1,re_ev2,im_ev2,stability",
        branch.param, branch.T, branch.P,
        [z.real for z in ev1], [z.imag for z in ev1], [z.real for z in ev2], [z.imag for z in ev2],
        tail=branch.stability,
    )


def _cmd_bifurcate(cfg: ScenarioConfig, args) -> tuple[dict, dict]:
    from . import bifurcation, within_host

    params = cfg.within
    refine = args.grid_refine
    spec = replace(cfg.sweep, n=cfg.sweep.n * refine)
    try:
        result = bifurcation.sweep_branch(params, spec)
    except ValueError as exc:
        # a sweep range with no infected equilibrium is a configuration error
        raise ConfigError(f"sweep: {exc}") from exc
    events = [asdict(event) for event in bifurcation.detect_all_events(params, spec)]
    # refining samples K times the cycle columns at a K times finer step
    cycle_n, cycle_step = cfg.cycle_n * refine, bifurcation.CYCLE_STEP / refine
    cycles = bifurcation.cycle_amplitude(params, replace(spec, n=cycle_n), step=cycle_step)
    # a rate past the float range can leave a column non-finite where no
    # cycle orbit was followed
    for name, branch in (("branches.csv", result.fold_path), ("trivial.csv", result.trivial)):
        for value, T, P, pair in zip(branch.param, branch.T, branch.P, branch.eigenvalues):
            if not all(map(cmath.isfinite, (T, P, *pair))):
                raise NonFiniteError(
                    f"{name}: the equilibrium at {spec.which}={value!r} is not finite"
                )
    loci = within_host.critical_loci(params)
    summary = {
        "sweep": asdict(spec),
        "defaults": {
            "cycle_n": cycle_n,
            "cycle_transient": bifurcation.CYCLE_TRANSIENT,
            "cycle_window": bifurcation.CYCLE_WINDOW,
            "cycle_step": cycle_step,
        },
        "events": events,
        "analytic_fold_clearance": loci.Gamma_fold,
        "analytic_hopf_clearance": list(loci.hopf),
    }
    # a period is NaN where there is none, written as an empty cell
    flags = (cycles.period, cycles.returns, cycles.oscillatory, cycles.collapsed,
             cycles.homoclinic_flag)
    files = {
        "branches.csv": _branch_csv(result.fold_path),
        "trivial.csv": _branch_csv(result.trivial),
        "cycles.csv": _csv_lines(
            "param,p_min,p_max,period,returns,oscillatory,collapsed,homoclinic_flag",
            cycles.param, cycles.p_min, cycles.p_max,
            tail=(
                f"{'' if math.isnan(period) else repr(period)},{n},{o:d},{c:d},{h:d}"
                for period, n, o, c, h in zip(*flags)
            ),
        ),
        "events.json": [_json_text("events.json", events)],
    }
    return summary, files


def _cmd_manifold(cfg: ScenarioConfig, args) -> tuple[dict, dict]:
    from . import within_host
    from .numerics import linspace

    params = cfg.within
    tip_P, tip_W = within_host.manifold_tip(params)
    n = 400 * args.grid_refine
    try:
        p_max = within_host.upper_branch_P(0.0, params) * 1.2
    except ValueError as exc:
        # the fold lies below W = 0: no infected branch to draw
        raise ConfigError(f"within_host: {exc}") from exc
    # rates past the float range give inf or NaN here, refused below
    p_grid = linspace(1e-6, p_max, n)
    phi = [within_host.slow_manifold_W(P, params) for P in p_grid]
    null = [within_host.w_nullcline(P, params) for P in p_grid]
    if not all(map(math.isfinite, [p_max, *phi, *null])):
        raise NonFiniteError(f"manifold: the curve up to P = {p_max!r} is not finite")
    summary = {
        "defaults": {"n_points": n, "p_max": p_max},
        "tip": {"P": tip_P, "W": tip_W},
        "nullcline_slope": params.kappa / params.c,
    }
    return summary, {"manifold.csv": _csv_lines("P,manifold_W,nullcline_W", p_grid, phi, null)}


def _cmd_r0(cfg: ScenarioConfig, args) -> tuple[dict, dict]:
    from . import between_host

    direct, environmental = between_host.r0_terms(cfg.between)
    summary = {
        "r0": direct + environmental,
        "direct_term": direct,
        "environmental_term": environmental,
    }
    return summary, {}


def _cmd_equilibria(cfg: ScenarioConfig, args) -> tuple[dict, dict]:
    from . import between_host

    params = cfg.between
    basic = between_host.r0(params)
    eq = between_host.endemic_equilibrium(params, n_omega=400 * args.grid_refine)
    summary = {"r0": basic, "endemic_exists": eq is not None}
    if eq is None:
        return summary, {}
    summary["endemic"] = {
        "S": eq.S, "I0": eq.I0, "V": eq.V, "B": eq.B,
        "residuals": between_host.endemic_residuals(eq, params),
    }
    return summary, {"equilibrium_profile.csv": _csv_lines("omega,I_star", eq.omega, eq.I)}


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
    """Transport run on the refined grid from run.initial on its nodes; a
    missing run.initial, an initial density the state refuses (negative,
    or undefined past a derived coefficient's fold) and a grid the solver
    refuses up front (the CFL bound on its own nodes, the strides, dt and
    t_max) are configuration errors; a blow-up during the run is a
    numerical failure."""
    import numpy as np

    from . import between_host

    if cfg.initial_S is None:
        raise ConfigError("run.initial with S and I is required for this subcommand")
    omega = np.linspace(0.0, cfg.between.omega0, n_omega + 1)
    try:
        initial = between_host.StructuredState(
            S=cfg.initial_S, I=cfg.initial_I(omega), V=cfg.initial_V, B=cfg.initial_B
        )
    except ValueError as exc:
        raise ConfigError(f"run.initial: {exc}") from exc
    try:
        return between_host.simulate_epidemic(
            cfg.between, initial, cfg.t_max, n_omega, dt, **strides
        )
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _cmd_epi_sim(cfg: ScenarioConfig, args) -> tuple[dict, dict]:
    from . import between_host

    params = cfg.between
    n_omega, dt = _apply_refine(cfg, args.grid_refine)
    run_rec = _transport(
        cfg, n_omega, dt,
        output_stride=cfg.output_stride,
        snapshot_stride=cfg.snapshot_stride,
    )
    files = {
        "timeseries.csv": _csv_lines(
            "t,S,I_total,V,B,F",
            run_rec.t, run_rec.S, run_rec.I_total, run_rec.V, run_rec.B, run_rec.F,
        ),
    }
    if cfg.snapshot_stride:
        header = "t," + ",".join(repr(float(w)) for w in run_rec.omega)
        files["snapshots.csv"] = _csv_lines(header, run_rec.snapshot_t, run_rec.snapshots)
    summary = {
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
    return summary, files


def _cmd_renewal_check(cfg: ScenarioConfig, args) -> tuple[dict, dict]:
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

    # one clock for both solvers; the compared rows are copied out and the
    # six-row record freed before the renewal arrays are allocated
    pde = _transport(cfg, n_omega, dt, output_stride=1)
    s_pde, f_pde = pde.S.copy(), pde.F.copy()
    del pde
    try:
        renewal = between_host.simulate_renewal(
            params, cfg.initial_I, cfg.initial_S, cfg.t_max, dt
        )
    except ValueError as exc:
        # a memory window too long to allocate is refused in the set-up
        raise ConfigError(f"renewal: memory window {window!r}: {exc}") from exc
    basic = between_host.r0(params)
    # the gaps read every step; the rows written are epi-sim's: every
    # output_stride-th step and the last
    last = renewal.t.size - 1
    rows = [*range(0, last, cfg.output_stride), last]
    summary = {
        "grid": {"n_omega": n_omega, "dt": dt},
        "memory_window": window,
        "t_max": cfg.t_max,
        "max_abs_dF": float(np.max(np.abs(f_pde - renewal.F))),
        "max_abs_dS": float(np.max(np.abs(s_pde - renewal.S))),
        "r0": basic,
    }
    if basic > 1:
        s_star = params.r / params.mu1 / basic
        summary["stationary_kernel_identity"] = s_star * between_host.kernel_total_integral(params)
    lines = _csv_lines(
        "t,S_pde,F_pde,S_renewal,F_renewal",
        *(column[rows] for column in (renewal.t, s_pde, f_pde, renewal.S, renewal.F)),
    )
    return summary, {"renewal.csv": lines}


def _cmd_spectral(cfg: ScenarioConfig, args) -> tuple[dict, dict]:
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
    if basic <= 1:
        summary["endemic_scan_roots"] = None
        return summary, {}
    scan = between_host.endemic_spectrum_scan(params)
    summary["endemic_scan_roots"] = scan.roots
    summary["endemic_residual_at_zero_plus"] = scan.residual[1]
    return summary, {"scan.csv": _csv_lines("lambda,residual", scan.lam, scan.residual)}


# ---------------------------------------------------------------------------
# plot data


def _read_csv(path: Path, width: int) -> list[list[str]]:
    """The data rows of an upstream CSV file, each with at least ``width``
    cells; a missing file, or one without a header or with a short row, is
    a configuration error naming it."""
    if not path.is_file():
        raise ConfigError(f"plot-data: missing upstream file {path.name} in {path.parent}")
    try:
        lines = path.read_text().strip().splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"plot-data: {path} is not text: {exc}") from exc
    if not lines:
        raise ConfigError(f"plot-data: upstream file {path} is empty")
    rows = [line.split(",") for line in lines[1:]]
    for number, row in enumerate(rows, start=2):
        if len(row) < width:
            raise ConfigError(
                f"plot-data: {path} line {number} has {len(row)} cells, {width} are read"
            )
    return rows


def _read_summary(path: Path) -> dict:
    """The upstream summary.json, {} when there is none; a file that is not
    a JSON object is a configuration error naming it."""
    if not path.is_file():
        return {}
    try:
        summary = json.loads(path.read_text())
    except ValueError as exc:
        raise ConfigError(f"plot-data: {path} is not JSON: {exc}") from exc
    if not isinstance(summary, dict):
        raise ConfigError(f"plot-data: {path} is not a JSON object")
    return summary


def _cmd_plot_data(cfg: None, args) -> tuple[dict, dict]:
    """gnuplot-ready whitespace-separated blocks from earlier runs in --out,
    and the upstream summary with the data file appended to plot_data.

    fig1/fig2: equilibrium branches and periodic-orbit extents from a
    `bifurcate` run (fig1 expects a delta sweep, fig2 a W sweep); columns
    are `param P stability kind`, stable = 1. fig3: slow-manifold curve,
    status nullcline, and one trajectory from `manifold` + `within-sim`
    runs; columns are `P W kind`. Blocks are separated by blank lines.
    """
    out_dir, figure = Path(args.out), args.figure
    summary_path = out_dir / "summary.json"
    summary = _read_summary(summary_path)
    if figure in ("fig1", "fig2"):
        if not summary_path.is_file():
            raise ConfigError(f"plot-data: no summary.json in {out_dir}")
        sweep = summary.get("sweep")
        which = sweep.get("which") if isinstance(sweep, dict) else None
        expected = "delta" if figure == "fig1" else "W"
        if which != expected:
            raise ConfigError(
                f"plot-data: {figure} needs a bifurcate run sweeping {expected!r}, "
                f"found {which!r}"
            )
        branch_rows = _read_csv(out_dir / "branches.csv", 8)
        trivial_rows = _read_csv(out_dir / "trivial.csv", 8)
        cycle_rows = _read_csv(out_dir / "cycles.csv", 6)
        lines = ["# param P stability kind\n"]
        for name, rows in (("branch", branch_rows), ("trivial", trivial_rows)):
            previous = None
            for row in rows:
                stable = 1 if row[7].startswith("stable") else 0
                if previous is not None and stable != previous:
                    lines.append("\n")
                lines.append(f"{row[0]} {row[2]} {stable} {name}\n")
                previous = stable
            lines.append("\n\n")
        for idx, kind in ((1, "cycle_min"), (2, "cycle_max")):
            # oscillatory columns only
            block = [f"{row[0]} {row[idx]} 1 {kind}\n" for row in cycle_rows if row[5] == "1"]
            if block:
                lines += [*block, "\n\n"]
    elif figure == "fig3":
        manifold_rows = _read_csv(out_dir / "manifold.csv", 3)
        trajectory_rows = _read_csv(out_dir / "trajectory.csv", 4)
        lines = [
            "# P W kind\n",
            *(f"{row[0]} {row[1]} manifold\n" for row in manifold_rows),
            "\n\n",
            *(f"{row[0]} {row[2]} nullcline\n" for row in manifold_rows),
            "\n\n",
            *(f"{row[2]} {row[3]} trajectory\n" for row in trajectory_rows),
        ]
    else:
        raise ConfigError(f"plot-data: unknown figure {figure!r}")
    target = f"{figure}.dat"
    written = summary.setdefault("plot_data", [])
    if not isinstance(written, list):
        raise ConfigError(f"plot-data: plot_data in {summary_path} is not a list")
    if target not in written:
        written.append(target)
    return summary, {target: lines}


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


def run(subcommand: str, config_path: str | None, out_dir: str | Path, args) -> None:
    """Dispatch one subcommand; raises ConfigError / NumericsError on failure.

    The one place that knows what every run shares: the --grid-refine
    check, the required config sections, the summary envelope, the output
    directory and the manifest. Handlers compute and return their summary
    body and their files as {name: lines}; they open nothing. Every JSON
    output is serialised, and a NaN or infinite value refused, before
    --out is created, so a run that fails writes nothing: only the CSV
    float formatting is left to the writer. The data files go first, then
    summary.json, then manifest.json over every other file in --out. A
    MemoryError in the handler becomes a ConfigError quoting the request.
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
    try:
        summary, files = handler(cfg, args)
    except MemoryError as exc:
        # a grid, horizon or sweep too large to allocate; --out does not exist yet
        raise ConfigError(f"{subcommand}: the run is too large for memory: {exc}") from exc
    if cfg is not None:
        summary.update(
            subcommand=subcommand,
            seed=args.seed,
            grid_refine=args.grid_refine,
            parameters=_between_echo(cfg) if "between_host" in sections else asdict(cfg.within),
        )
    files["summary.json"] = [_json_text("summary.json", summary)]
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    for name, lines in files.items():
        _write(out_dir / name, lines)
    digests = {
        p.name: _sha256(p)
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }
    manifest = {
        "files": [
            {"name": name, "sha256": digest, "bytes": (out_dir / name).stat().st_size}
            for name, digest in digests.items()
        ],
        "note": "manifest.json is excluded from its own listing",
    }
    _write(out_dir / "manifest.json", [_json_text("manifest.json", manifest)])
    log.info("wrote %d files to %s", len(digests), out_dir)


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
        run(args.command, args.config, args.out, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
