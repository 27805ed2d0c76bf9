#!/usr/bin/env python3
"""Walk the between-host analysis chain on the bundled scenarios.

Direct-transmission and mixed-route constant-coefficient scenarios, and
the linked scenario whose P and g come from the within-host model up to
the fold: reproduction number, endemic equilibrium, the infection-free
growth rate with the endemic residual scan; then a long transport run
toward the mixed-route endemic state, and the renewal-equation
cross-check on the boundary-matched scenario. Prints a compact report and
leaves the full outputs on disk.
"""

import argparse
import json
import sys
from pathlib import Path

from immunoepi import cli

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def run(subcommand, config, out, *extra):
    argv = [subcommand, "--config", str(CONFIG_DIR / config), "--out", str(out), *extra]
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"command failed ({code}): {' '.join(argv)}")
    return json.loads((Path(out) / "summary.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-root", default="out/epidemic")
    parser.add_argument(
        "--skip-long-run", action="store_true",
        help="skip the t = 1000 transport run toward the endemic state",
    )
    args = parser.parse_args()
    root = Path(args.out_root)

    for scenario in ("bh_direct", "bh_env", "bh_linked"):
        config = scenario + ".json"
        summary = run("r0", config, root / scenario / "r0")
        print(f"{scenario}: R0 = {summary['r0']:.6f} "
              f"(direct {summary['direct_term']:.6f}, "
              f"environmental {summary['environmental_term']:.6f})")

        summary = run("spectral", config, root / scenario / "spectral")
        lam = summary["lambda_hat"]
        lam_text = f"{lam:.6f}" if lam is not None else f"none ({summary['lambda_hat_note']})"
        print(f"{scenario}: infection-free growth rate = {lam_text}, "
              f"endemic scan roots = {summary.get('endemic_scan_roots', [])}")

        summary = run("equilibria", config, root / scenario / "equilibria")
        endemic = summary.get("endemic")
        if endemic is None:
            print(f"{scenario}: no endemic state (R0 <= 1)")
        else:
            worst = max(abs(v) for v in endemic["residuals"].values())
            print(f"{scenario}: endemic S* = {endemic['S']:.6f}, "
                  f"I*(0) = {endemic['I0']:.6f}, B* = {endemic['B']:.6f} "
                  f"(max residual {worst:.2e})")

    if not args.skip_long_run:
        summary = run("epi-sim", "bh_env.json", root / "bh_env" / "epi-sim")
        final = summary["final"]
        print(f"bh_env: transport run to t = {summary['t_max']} gives "
              f"S = {final['S']:.6f}, B = {final['B']:.6f}")

    summary = run("renewal-check", "bh_matched.json", root / "bh_matched" / "renewal")
    print(f"bh_matched: renewal vs transport max|dF| = {summary['max_abs_dF']:.3e} "
          f"over memory window {summary['memory_window']:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
