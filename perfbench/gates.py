"""Per-operation correctness gates.

An operation passes when it exits 0, its ``manifest.json`` matches the
files on disk, and every oracle named in its ``checks`` holds. Oracles use
the acceptance tests' tolerances and are computed here from the scenario
document, not read back from the program's own echo. Values that are
recorded but not gated (for example the linked renewal ``max_abs_dF``,
whose maximum is the initial-data mismatch at t = 0) go into ``recorded``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


def manifest_problems(out_dir: Path) -> list[str]:
    """Mismatches between manifest.json and the files beside it."""
    path = out_dir / "manifest.json"
    if not path.is_file():
        return ["manifest.json is missing"]
    listed = {entry["name"]: entry for entry in json.loads(path.read_text())["files"]}
    problems = []
    on_disk = {p.name for p in out_dir.iterdir() if p.is_file() and p.name != "manifest.json"}
    for name in sorted(on_disk - set(listed)):
        problems.append(f"{name} is not in the manifest")
    for name, entry in sorted(listed.items()):
        target = out_dir / name
        if not target.is_file():
            problems.append(f"{name} is listed but missing")
            continue
        data = target.read_bytes()
        if len(data) != entry["bytes"]:
            problems.append(f"{name}: {len(data)} bytes, manifest says {entry['bytes']}")
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            problems.append(f"{name}: sha256 differs from the manifest")
    return problems


def _closed_form_r0(doc: dict) -> float:
    """R0 for constant coefficients: (r/mu1)*(beta_h*J_P + beta_e/sigma*J_xi)."""
    b, f = doc["between_host"], doc["functions"]
    mu2, xi = f["mu2"]["value"], f["xi"]["value"]
    p, g = f["P"]["value"], f["g"]["value"]
    j_p = p / mu2 * (1.0 - math.exp(-mu2 * b["omega0"] / g))
    return b["r"] / b["mu1"] * (b["beta_h"] * j_p + b["beta_e"] / b["sigma"] * xi * j_p)


def _fold_param(within: dict, sweep: str, sweep_doc: dict) -> float:
    """Analytic fold: Gamma_fold = (Lambda/2)*sqrt(alpha/mu) = gamma + delta*W."""
    gamma_fold = 0.5 * within["Lambda"] * math.sqrt(within["alpha"] / within["mu"])
    if sweep == "delta":
        return (gamma_fold - within["gamma"]) / sweep_doc["W"]
    return (gamma_fold - within["gamma"]) / within["delta"]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check(op, doc: dict | None, out_dir: Path, siblings: dict[str, dict]) -> tuple[list[str], dict]:
    """Oracle failures and recorded values for one finished operation.

    ``siblings`` maps output directory names of earlier operations in the
    same pass to their summaries, for cross-operation oracles.
    """
    failures: list[str] = []
    recorded: dict = {}
    summary = json.loads((out_dir / "summary.json").read_text())
    checks = op.checks

    def gate(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    if "r0_closed_form" in checks:
        expected = _closed_form_r0(doc)
        err = abs(summary["r0"] - expected)
        recorded["r0_abs_err"] = err
        gate(err < checks["r0_closed_form"], f"r0 {summary['r0']!r} vs closed form {expected!r}")
    if "r0_above_one" in checks:
        total = summary["direct_term"] + summary["environmental_term"]
        recorded["r0"] = summary["r0"]
        gate(summary["r0"] > 1.0, f"r0 = {summary['r0']!r} is not above 1")
        gate(abs(total - summary["r0"]) <= 1e-12 * summary["r0"], "r0 terms do not add up")
    if "endemic_residuals" in checks or "endemic_exists" in checks:
        gate(summary["endemic_exists"] is True, "no endemic state above threshold")
        residuals = summary.get("endemic", {}).get("residuals", {})
        worst = max((abs(v) for v in residuals.values()), default=math.inf)
        recorded["endemic_max_residual"] = worst
        gate(math.isfinite(worst), "endemic residuals are not finite")
        if "endemic_residuals" in checks:
            gate(worst < checks["endemic_residuals"], f"endemic residual {worst:.3e}")
    if "no_scan_roots" in checks:
        gate(summary["endemic_scan_roots"] == [], f"real endemic roots {summary['endemic_scan_roots']}")
        lam = summary["lambda_hat"]
        gate(lam is not None and (lam > 0) == (summary["r0"] > 1.0),
             f"growth rate {lam!r} does not match r0 = {summary['r0']!r}")
    if "kernel_identity" in checks or "record_dF" in checks:
        identity = summary.get("stationary_kernel_identity")
        recorded["max_abs_dF"] = summary["max_abs_dF"]
        recorded["max_abs_dS"] = summary["max_abs_dS"]
        recorded["kernel_identity_gap"] = None if identity is None else abs(identity - 1.0)
        gate(math.isfinite(summary["max_abs_dF"]) and math.isfinite(summary["max_abs_dS"]),
             "renewal gaps are not finite")
        if "kernel_identity" in checks:
            gate(identity is not None and abs(identity - 1.0) < checks["kernel_identity"],
                 f"stationary kernel identity {identity!r}")
    if "snapshots" in checks:
        run, grid = doc["run"], doc["grid"]
        n_steps = round(run["t_max"] / grid["dt"])
        expected = n_steps // run["snapshot_stride"] + 1
        with open(out_dir / "snapshots.csv", "rb") as fh:
            header = fh.readline()
            rows = sum(1 for _ in fh)
        gate(rows == expected, f"{rows} snapshot rows, expected {expected}")
        gate(header.count(b",") == grid["n_omega"] + 1, "snapshot header has the wrong width")
        final = summary["final"]
        gate(all(math.isfinite(v) and v >= 0 for v in final.values()), f"final state {final}")
    if "endemic_approach" in checks:
        endemic = siblings["equilibria"]["endemic"]
        final = summary["final"]
        worst = max(_rel(final[k], endemic[k]) for k in ("S", "V", "B"))
        recorded["endemic_approach_rel"] = worst
        gate(worst < checks["endemic_approach"], f"long run ends {worst:.3e} from the endemic state")
    if "fold" in checks:
        events = json.loads((out_dir / "events.json").read_text())
        folds = [e["param"] for e in events if e["kind"] == "fold"]
        expected = _fold_param(doc["within_host"], checks["fold"], doc["sweep"])
        gate(len(folds) == 1, f"{len(folds)} fold events")
        if folds:
            recorded["fold_abs_err"] = abs(folds[0] - expected)
            gate(abs(folds[0] - expected) < 6e-3, f"fold at {folds[0]!r}, analytic {expected!r}")
    if "tip" in checks:
        w = doc["within_host"]
        p_tip = math.sqrt(w["mu"] / w["alpha"])
        w_tip = -w["gamma"] / w["delta"] + w["alpha"] * w["Lambda"] * p_tip / (
            w["delta"] * (w["alpha"] * p_tip * p_tip + w["mu"]))
        tip = summary["tip"]
        gate(_rel(tip["P"], p_tip) < 1e-12 and _rel(tip["W"], w_tip) < 1e-9,
             f"manifold tip {tip}, analytic ({p_tip!r}, {w_tip!r})")
    if "clearance" in checks:
        t_rec = summary["recovery_time"]
        recorded["recovery_time"] = t_rec
        gate(t_rec is not None and math.isfinite(t_rec) and t_rec < summary["t_end"],
             f"no clearance recorded (recovery_time {t_rec!r})")
        gate(summary["fold_crossed"] is True, "clearance without crossing the fold")
    if op.figure is not None:
        gate((out_dir / f"{op.figure}.dat").stat().st_size > 0, f"{op.figure}.dat is empty")
    return failures, recorded
