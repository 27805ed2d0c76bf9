"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout. Runs every workload once untraced and
once traced at the smallest size, and checks that every metric named in
BENCHMARK.json prints with its unit, that every per-subcommand time and
``failed_frac`` print, and that all operations pass. Then plants two
failing operations (a document the CLI must reject, and an oracle that
cannot hold) and checks that they raise ``failed`` and clear ``correct``.
Exits 0 when every check holds. Takes a few minutes: the linked
``spectral`` cost is fixed by the CLI's scan constants.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import scenarios  # noqa: E402


def _run(argv, planted=()) -> tuple[int, list[str], dict | None]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(argv, planted)
    lines = buffer.getvalue().splitlines()
    result = json.loads(lines[-1]) if code == 0 and lines else None
    return code, lines, result


def _check_metrics(result: dict, lines: list[str], expected: list[dict], problems: list[str], tag: str) -> None:
    if set(result["metrics"]) != {m["name"] for m in expected}:
        problems.append(f"{tag}: metric names {sorted(result['metrics'])}")
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{tag}: {m['name']} printed as {got}")
        elif not any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}") for line in lines):
            problems.append(f"{tag}: no readable line for {m['name']} in {m['unit']}")


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in sorted(scenarios.WORKLOADS):
        for trace in (0, 1):
            tag = f"{workload} trace {trace}"
            code, lines, result = _run(["--workload", workload, "--size", "small",
                                        "--seconds", "0", "--trace", str(trace)])
            if result is None:
                problems.append(f"{tag}: exit {code}, no result")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} operations failed")
            _check_metrics(result, lines, spec["per_layer" if trace else "end_to_end"], problems, tag)
            wanted = ["failed_frac "]
            if not trace:
                wanted += [f"{name} " for name in run.SUBCOMMAND_METRICS[workload].values()]
            for prefix in wanted:
                if not any(line.startswith(prefix) for line in lines):
                    problems.append(f"{tag}: no line for {prefix.strip()}")
            print(f"{tag}: {result['attempted']} operations, {result['failed']} failed")

    bad_doc = {"between_host": {"r": 1.0}, "functions": {}, "typo": {}}
    planted = (
        (scenarios.Op("r0", "planted_reject", "planted.json"), bad_doc),
        (scenarios.Op("r0", "planted_oracle", "bh_env_snap.json", checks={"r0_closed_form": -1.0}), None),
    )
    code, lines, result = _run(["--workload", "epidemic_const", "--size", "small", "--seconds", "0"], planted)
    if result is None:
        problems.append(f"planted: exit {code}, no result")
    else:
        honest = len(scenarios.generate("epidemic_const", scenarios.DEFAULT_SEED, "small").ops)
        if result["failed"] != 2 or result["attempted"] != honest + 2 or result["correct"]:
            problems.append(f"planted: failed {result['failed']} of {result['attempted']}, "
                            f"correct {result['correct']}")
        frac = [line for line in lines if line.startswith("failed_frac ")]
        if not frac or float(frac[0].split()[1]) <= 0:
            problems.append(f"planted: failed_frac line {frac}")
        print(f"planted: {result['failed']} of {result['attempted']} operations failed, as planted")

    for problem in problems:
        print(f"SELFTEST FAILED {problem}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
