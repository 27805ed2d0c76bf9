"""End-to-end and per-layer benchmark of the immunoepi CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.
The benchmark writes its scenario documents from the seed, then runs the
workload as a user does: one fresh CLI process per subcommand, in
sequence, one client, never more than one busy process. Every operation is
gated on exit code, manifest integrity, byte-identical repetition and the
oracles in ``gates.py``; a failed gate counts into ``failed``.

``--trace 0`` measures end-to-end metrics: set-up is timed in several
fresh interpreters first, then whole passes over the workload repeat until
``--seconds`` have elapsed (at least one pass). ``--trace 1`` runs one
untraced pass and one traced pass (each operation under ``tracer.py``) on
the default seed's inputs, so that counts repeat exactly and artifacts
compare byte for byte with ``artifacts.json``; it reports the per-layer
metrics, and the traced-minus-untraced wall time as tracing overhead.

Readable lines go to standard output first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything the run leaves behind is under ``.perfbench-work/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import scenarios  # noqa: E402

WORK_DIR = ".perfbench-work"
SETUP_REPS = 3
RUN_BUDGET_S = 170.0  # a run must finish within 180 s

# per-subcommand wall times summed per pass, named as users know them
SUBCOMMAND_METRICS = {
    "within_figures": {"bifurcate": "bifurcate_s", "within-sim": "within_sim_s"},
    "epidemic_const": {"spectral": "spectral_s", "renewal-check": "renewal_check_s",
                       "epi-sim": "epi_sim_s"},
    "linked_fold": {"spectral": "spectral_s", "renewal-check": "renewal_check_s"},
}


class BudgetExceeded(Exception):
    pass


@dataclass
class OpResult:
    op: scenarios.Op
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    failures: list[str] = field(default_factory=list)
    recorded: dict = field(default_factory=dict)
    manifest: bytes = b""
    bytes_written: int = 0
    trace: dict | None = None


@dataclass
class PassResult:
    ops: list[OpResult]
    artifacts: dict[str, str]

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.ops)


class Runner:
    """Runs operations as child processes under one deadline."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.env.pop("IMMUNOEPI_LOG", None)

    def spawn(self, argv: list[str], log_name: str) -> tuple[float, float, float, int]:
        """Run one child to completion: (wall s, CPU s, peak RSS in MB, exit code)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BudgetExceeded(f"no time left for {log_name}")
        with open(self.work / "logs" / f"{log_name}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise BudgetExceeded(f"{log_name} ran past the run budget")
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def time_setup(runner: Runner, paths: list[Path]) -> list[float]:
    """Wall time of fresh interpreters importing the CLI and loading every scenario."""
    code = "import sys\nfrom immunoepi import cli\nfor p in sys.argv[1:]:\n    cli.load_scenario(p)\n"
    argv = [sys.executable, "-c", code, *map(str, paths)]
    times = []
    for rep in range(SETUP_REPS + 1):
        wall, _, _, exit_code = runner.spawn(argv, f"setup{rep}")
        if exit_code != 0:
            raise RuntimeError(f"set-up child exited {exit_code}; see {WORK_DIR}/*/logs")
        if rep:  # the first one fills bytecode caches
            times.append(wall)
    return times


def _file_stats(out_dir: Path) -> dict[str, tuple[int, int]]:
    if not out_dir.is_dir():
        return {}
    return {p.name: (p.stat().st_mtime_ns, p.stat().st_size) for p in out_dir.iterdir() if p.is_file()}


def run_pass(runner: Runner, workload: scenarios.Workload, docs: Path, out_root: Path,
             traced: bool, reference: PassResult | None) -> PassResult:
    """One sequential pass over the workload's operations, gating each."""
    out_root.mkdir(parents=True)
    results: list[OpResult] = []
    summaries: dict[str, dict] = {}
    for index, op in enumerate(workload.ops):
        out_dir = out_root / op.out
        argv = op.argv(docs, out_root)
        tag = f"{out_root.name}-{index}-{op.command}"
        trace_path = runner.work / "traces" / f"{tag}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_path), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "immunoepi", *argv]
        before = _file_stats(out_dir)
        result = OpResult(op, *runner.spawn(cmd, tag))
        if result.exit_code != 0:
            result.failures.append(f"exit code {result.exit_code}")
        else:
            doc = workload.documents.get(op.config) if op.config else None
            try:
                result.failures += [f"manifest: {p}" for p in gates.manifest_problems(out_dir)]
                result.manifest = (out_dir / "manifest.json").read_bytes()
                result.bytes_written = sum(size for name, (mtime, size) in _file_stats(out_dir).items()
                                           if before.get(name, (None,))[0] != mtime)
                oracle_failures, result.recorded = gates.check(op, doc, out_dir, summaries)
                result.failures += oracle_failures
                summaries[op.out] = json.loads((out_dir / "summary.json").read_text())
                if traced:
                    result.trace = json.loads(trace_path.read_text())
            except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
                result.failures.append(f"gate could not read the output: {exc!r}")
        if reference is not None and index < len(reference.ops):
            first = reference.ops[index].manifest
            if first and result.manifest != first:
                result.failures.append("manifest differs from the first repetition")
        results.append(result)
    artifacts = {}
    for op_dir in sorted({op.out for op in workload.ops}):
        manifest_path = out_root / op_dir / "manifest.json"
        if manifest_path.is_file():
            for entry in json.loads(manifest_path.read_text())["files"]:
                artifacts[f"{workload.name}/{op_dir}/{entry['name']}"] = entry["sha256"]
    return PassResult(results, artifacts)


def environment(root: Path) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "src_lines": src_lines,
    }


def end_to_end(workload: scenarios.Workload, passes: list[PassResult], setup: list[float]) -> dict:
    names = SUBCOMMAND_METRICS[workload.name]
    per_sub = {metric: [] for metric in names.values()}
    for p in passes:
        for metric in per_sub:
            per_sub[metric].append(sum(r.wall_s for r in p.ops if names.get(r.op.command) == metric))
    solver = [sum(values[i] for values in per_sub.values()) for i in range(len(passes))]
    metrics = {
        "wall_s": (statistics.median([p.wall_s for p in passes]), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median([max(r.rss_mb for r in p.ops) for p in passes]), "MB"),
        "solver_s": (statistics.median(solver), "s"),
    }
    extra = {metric: (statistics.median(values), "s") for metric, values in per_sub.items()}
    return metrics, extra


def changed_artifacts(recorded: dict[str, str], produced: dict[str, str]) -> list[str]:
    """Artifacts whose sha256 differs from the recorded table, or that only one side has."""
    return sorted(k for k in set(recorded) | set(produced) if recorded.get(k) != produced.get(k))


def per_layer(traced: PassResult, untraced: PassResult, changed: int) -> dict:
    totals: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for r in traced.ops:
        if r.trace is None:
            continue
        for name, t in r.trace["totals"].items():
            agg = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in agg:
                agg[key] += t[key]
        for key, n in r.trace["counts"].items():
            counts[key] = counts.get(key, 0) + n

    def tot(name, key="total_s"):
        return totals.get(name, {}).get(key, 0)

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    bytes_written = sum(r.bytes_written for r in traced.ops)
    m = {
        "config.load_s": (tot("config.load"), "s"),
        "coefficients.calls": (tot("coefficients", "calls"), "count"),
        "coefficients.nodes": (counts.get("coefficients.nodes", 0), "count"),
        "coefficients.self_s": (tot("coefficients", "self_s"), "s"),
        "coefficients.ns_per_node": (ratio(tot("coefficients", "self_s"), counts.get("coefficients.nodes", 0), 1e9), "ns"),
        "within_host.upper_branch_P.calls": (counts.get("within_host.upper_branch_P.calls", 0), "count"),
        "within_host.equilibria_fast.calls": (counts.get("within_host.equilibria_fast.calls", 0), "count"),
        "between_host.build_clock.calls": (tot("between_host.build_clock", "calls"), "count"),
        "between_host.build_clock_s": (tot("between_host.build_clock"), "s"),
        "between_host.char_residual.calls": (tot("between_host.char_residual", "calls"), "count"),
        "between_host.char_residual.us_per_call": (ratio(tot("between_host.char_residual"), tot("between_host.char_residual", "calls"), 1e6), "us"),
        "between_host.lambda_hat_s": (tot("between_host.lambda_hat"), "s"),
        "between_host.spectrum_scan_s": (tot("between_host.spectrum_scan"), "s"),
        "between_host.endemic_equilibrium_s": (tot("between_host.endemic_equilibrium"), "s"),
        "between_host.transport.steps": (counts.get("transport.steps", 0), "count"),
        "between_host.transport.ns_per_node_step": (ratio(tot("between_host.transport", "self_s"), counts.get("transport.node_steps", 0), 1e9), "ns"),
        "between_host.transport_s": (tot("between_host.transport"), "s"),
        "between_host.renewal.steps": (counts.get("renewal.steps", 0), "count"),
        "between_host.renewal.us_per_step": (ratio(tot("between_host.renewal", "self_s"), counts.get("renewal.steps", 0), 1e6), "us"),
        "between_host.kernel_s": (tot("between_host.kernel"), "s"),
        "between_host.kernel_total_integral_s": (tot("between_host.kernel_total_integral"), "s"),
        "numerics.quadrature.calls": (tot("numerics.quadrature", "calls"), "count"),
        "numerics.quadrature_s": (tot("numerics.quadrature"), "s"),
        "numerics.ode.calls": (tot("numerics.ode", "calls"), "count"),
        "numerics.ode.steps": (counts.get("ode.steps", 0), "count"),
        "numerics.ode.rhs_evals": (counts.get("ode.rhs_evals", 0), "count"),
        "numerics.ode.us_per_rhs_eval": (ratio(tot("numerics.ode"), counts.get("ode.rhs_evals", 0), 1e6), "us"),
        "numerics.ode_s": (tot("numerics.ode"), "s"),
        "within_host.simulate_infection_s": (tot("within_host.simulate_infection"), "s"),
        "numerics.find_root.calls": (tot("numerics.find_root", "calls"), "count"),
        "numerics.find_root.f_evals": (counts.get("find_root.f_evals", 0), "count"),
        "bifurcation.cycle_amplitude_s": (tot("bifurcation.cycle_amplitude"), "s"),
        "bifurcation.cycle.ns_per_orbit_step": (ratio(tot("bifurcation.cycle_amplitude", "self_s"), counts.get("cycle.orbit_steps", 0), 1e9), "ns"),
        "bifurcation.sweep_branch_s": (tot("bifurcation.sweep_branch"), "s"),
        "bifurcation.detect_events_s": (tot("bifurcation.detect_events"), "s"),
        "cli.run_s": (tot("cli.run"), "s"),
        "cli.self_s": (tot("cli.run", "self_s"), "s"),
        "cli.bytes_written": (bytes_written, "bytes"),
        "cli.write_MBps": (ratio(bytes_written, tot("cli.run", "self_s"), 1e-6), "MB/s"),
        "cli.artifacts_changed": (changed, "count"),
        "trace.overhead_s": (traced.wall_s - untraced.wall_s, "s"),
    }
    return m


def top_self_times(traced: PassResult, n: int = 4) -> list[str]:
    """The largest self-time layers of each traced operation."""
    lines = []
    for r in traced.ops:
        if r.trace is None:
            continue
        ranked = sorted(((t["self_s"], name) for name, t in r.trace["totals"].items() if name != "import"),
                        reverse=True)[:n]
        shown = ", ".join(f"{name} {s:.2f}s" for s, name in ranked)
        lines.append(f"  {r.op.label:28s} {r.wall_s:7.2f}s  self: {shown}")
    return lines


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None, planted: tuple[tuple[scenarios.Op, dict | None], ...] = ()) -> int:
    """Run the benchmark; ``planted`` appends (operation, document) pairs
    to the workload, which the self-test uses to inject failures."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, default=scenarios.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=scenarios.SIZES, default="full",
                        help="'small' shrinks horizons and sweeps for the self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "immunoepi" / "cli.py").is_file():
        print("error: run from a checkout root holding src/immunoepi", file=sys.stderr)
        return 2
    started = time.monotonic()
    work = root / WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("docs", "logs", "traces"):
        (work / sub).mkdir(parents=True)
    seed = scenarios.DEFAULT_SEED if args.trace else args.seed
    workload = scenarios.generate(args.workload, seed, args.size)
    docs = work / "docs"
    scenarios.write_documents(workload, docs)
    setup_paths = [docs / name for name in sorted(workload.documents)]
    for op, doc in planted:
        workload.ops.append(op)
        if doc is not None:
            (docs / op.config).write_text(json.dumps(doc))
    runner = Runner(root, work, started + RUN_BUDGET_S)

    passes: list[PassResult] = []
    note = None
    try:
        setup = time_setup(runner, setup_paths)
        if args.trace:
            passes.append(run_pass(runner, workload, docs, work / "pass0", False, None))
            passes.append(run_pass(runner, workload, docs, work / "pass1", True, passes[0]))
        else:
            measure_start = time.monotonic()
            while not passes or time.monotonic() - measure_start < args.seconds:
                passes.append(run_pass(runner, workload, docs, work / f"pass{len(passes)}",
                                       False, passes[0] if passes else None))
    except BudgetExceeded as exc:
        note = str(exc)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if len(passes) < 1 + args.trace:
        print(f"error: no complete {'traced ' if args.trace else ''}pass ({note})", file=sys.stderr)
        return 3

    ops = [r for p in passes for r in p.ops]
    failed = [r for r in ops if r.failures]
    attempted = len(ops)
    env = environment(root)
    print(f"workload {workload.name}  seed {seed}  size {args.size}  trace {args.trace}  "
          f"passes {len(passes)}  operations {attempted}")
    if seed != args.seed:
        print(f"traced runs use the default seed's inputs; --seed {args.seed} applies to untraced runs")
    print("environment " + "  ".join(f"{k} {v}" for k, v in env.items()))
    if note:
        print(f"stopped early: {note}")
    for k, p in enumerate(passes):
        for r in p.ops:
            print(f"pass {k} {r.op.label:24s} wall {r.wall_s:8.3f} s  cpu {r.cpu_s:8.3f} s  rss {r.rss_mb:6.1f} MB")
    for r in failed:
        print(f"FAILED {r.op.label}: {'; '.join(r.failures)}")
    for r in ops:
        if r.recorded:
            print(f"recorded {r.op.label}: " + "  ".join(f"{k} {_fmt(v)}" for k, v in r.recorded.items()))
    print(f"failed_frac {len(failed) / attempted:.6g} frac  ({len(failed)} of {attempted})")

    recorded = {k: v for k, v in json.loads((HERE / "artifacts.json").read_text()).items()
                if k.startswith(workload.name + "/")}
    if args.trace:
        changed = changed_artifacts(recorded, passes[1].artifacts)
        metrics = per_layer(passes[1], passes[0], len(changed))
        print(f"untraced wall_s {passes[0].wall_s:.4f} s, traced wall_s {passes[1].wall_s:.4f} s")
        print("largest self-time layers per operation (traced):")
        print("\n".join(top_self_times(passes[1])))
        for key in changed:
            print(f"artifact changed against artifacts.json: {key}")
        (work / "trace.json").write_text(json.dumps(
            {"environment": env, "ops": [
                {"label": r.op.label, "wall_s": r.wall_s, "totals": r.trace["totals"] if r.trace else None,
                 "counts": r.trace["counts"] if r.trace else None} for r in passes[1].ops]},
            indent=1))
    else:
        metrics, extra = end_to_end(workload, passes, setup)
        print(f"setup_s samples {len(setup)}; wall_s, solver_s and per-subcommand samples {len(passes)}")
        for name, (value, unit) in extra.items():
            print(f"{name} {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {_fmt(value)} {unit}")
    (work / "result.json").write_text(json.dumps(
        {"environment": env, "seed": seed, "size": args.size, "artifacts": passes[-1].artifacts,
         "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}, indent=1))
    result = {
        "correct": not failed and note is None,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
